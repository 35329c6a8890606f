"""The full verification bundle for one field order.

Runs every check the package knows against its expectation and returns
a pass/fail matrix; checks that do not apply at the given q (an empty
parameter range, or a sweep beyond the line-census bound) are reported
as skipped rather than silently dropped.

Every expectation (closed-form sizes, censuses, orbit lengths) lives in
the module that computes the quantity; this module only orders the
checks, gates them by q and records the verdicts.
"""

from __future__ import annotations

from .projgeom import Geometry
from . import varieties as V
from . import group as G
from . import quasi as QH
from . import tables as T
from . import invariants as I
from . import srg as S


def _entry(results, name, ok, detail=""):
    results.append(
        {"check": name, "status": "pass" if ok else "fail", "detail": detail}
    )


def _skip(results, name, why):
    results.append({"check": name, "status": "skip", "detail": why})


def report_all(geom: Geometry) -> list:
    q = geom.F.q
    res: list = []

    sizes = (
        (V.hermitian_set, V.size_hermitian),
        (V.quadric_set, V.size_quadric),
        (V.sigma_set, V.size_baer),
        (V.curve_set, V.size_curve),
    )
    ok = all(int(build(geom).sum()) == size(q) for build, size in sizes)
    _entry(res, "variety_sizes", ok)

    ok = True
    for j in V.valid_j(q):
        ok &= int(V.surface_S(geom, j).sum()) == V.size_S(q)
    for k in V.middle_k(q):
        ok &= int(V.surface_E(geom, k).sum()) == V.size_E_mid(q)
    for k in (0, q - 1):
        ok &= int(V.surface_E(geom, k).sum()) == V.size_E_end(q)
    _entry(res, "invariant_surface_sizes", ok)

    dec = G.orbit_decomposition(geom, "K")
    _entry(
        res,
        "point_orbit_decomposition",
        dict(zip(dec.labels, dec.sizes)) == G.expected_orbit_sizes(q),
        f"{dec.n_orbits} orbits",
    )

    decG = G.orbit_decomposition(geom, "G")
    merge_ok = decG.n_orbits == G.expected_orbit_count(q, "G")
    merge_ok &= G.same_partition(decG, G.orbit_decomposition(geom, "Gp"))
    _entry(res, "pgl_merge", merge_ok, f"{decG.n_orbits} orbits")

    ok = all(
        G.stabilizer_order(geom, rep, "K") == G.expected_stabilizer_order(geom, rep)
        for rep in dec.reps
    )
    _entry(res, "stabilizer_orders", ok)

    kinds = QH.valid_kinds(q)
    if q >= 7:
        # spot-check one member per family at the large orders
        spot = {}
        for kind in kinds:
            spot.setdefault(kind.variant, kind)
        kinds = list(spot.values())
    ok = True
    for kind in kinds:
        ok &= QH.verify_quasi_hermitian(geom, QH.assemble(geom, kind))["is_quasi"]
    _entry(res, "quasi_hermitian_planes", ok, f"{len(kinds)} families")
    if not V.middle_k(q):
        _skip(res, "quasi_SE_H1E_families", f"k-range empty at q={q}")

    for grp in ("K", "G"):
        rows = T.verify_table(geom, grp)
        _entry(
            res,
            f"plane_distribution_{grp}",
            all(r["match"] for r in rows),
            f"{len(rows)} rows",
        )

    if q <= I.LINE_CENSUS_MAX_Q:
        v4 = QH.assemble(geom, QH.QuasiKind("SH2", j=1))
        cen = I.lines_in_set(geom, v4)
        want = I.expected_V4_census(q)
        _entry(
            res,
            "v4_line_census",
            cen.contained == want["lines"] and cen.per_point_hist == want["hist"],
            f"{cen.contained} lines",
        )
        for kind, name in (
            ("V1", "v1_line_census"),
            ("V2", "v2_line_census"),
            ("V3", "v3_line_bounds"),
        ):
            _entry(res, name, I.verify_known(geom, kind)["ok"])

        ok = True
        for j in V.valid_j(q):
            ok &= I.max_line_meet(geom, V.surface_S(geom, j)) <= 2 * q + 2
        for k in V.middle_k(q):
            fam = I.special_lines(geom, k)
            ok &= all(fam["checks"].values())
            ok &= (
                I.max_line_meet(geom, V.surface_E(geom, k), exclude=fam["lines"])
                <= 2 * q + 2
            )
        fam = I.special_lines(geom, None)
        ok &= all(fam["checks"].values())
        _entry(res, "line_meet_bounds", ok)
    else:
        _skip(res, "line_censuses", "line sweeps beyond bound")

    ok = True
    for i in V.valid_j(q):
        for j in V.valid_j(q):
            ok &= I.count_Yj(geom, i, j) == I.expected_Yj(q, i, j)
    _entry(res, "pencil_point_counts", ok)

    ok = True
    for i in V.valid_j(q):
        for j in V.valid_j(q):
            ok &= I.net_rank_census(geom, i, j) == I.expected_net_census(q, i, j)
    _entry(res, "net_rank_census", ok)

    F = geom.F
    omegas = range(F.q2) if q <= I.LINE_CENSUS_MAX_Q else (0, 1, F.xi)
    ok = all(
        I.klein_orbit_length(geom, w) == I.expected_klein_orbit_length(q, w)
        for w in omegas
    )
    _entry(res, "klein_orbit_lengths", ok, f"{len(omegas)} omegas")

    if q <= I.LINE_CENSUS_MAX_Q:
        cen = I.line_orbit_census(geom)
        _entry(
            res,
            "line_orbit_count",
            cen["n_orbits"] == cen["conjectured"],
            f"found {cen['n_orbits']}, conjectured {cen['conjectured']}",
        )
    else:
        _skip(res, "line_orbit_count", "census beyond bound")

    if q == 3:
        mask = QH.assemble(geom, QH.QuasiKind("SH2", j=1))
        gp = S.graph_params(geom, mask)
        wd = S.weight_distribution(geom, mask)
        ok = gp["srg_ok"] and len(wd) == 2
        if ok:
            n, k, lam, mu = gp["n"], gp["k"], gp["lambda"], gp["mu"]
            ok = S.eigenvalue_params(geom.Q, int(mask.sum()), wd) == (k, lam, mu)
            ok &= k * (k - lam - 1) == (n - k - 1) * mu
        _entry(
            res,
            "srg_and_code",
            ok,
            f"k={gp['k']} lambda={gp['lambda']} mu={gp['mu']}",
        )
    else:
        _skip(res, "srg_and_code", "requested only at q=3 by default")
    return res
