"""The full verification bundle for one field order.

Runs every check the package knows against its expectation and returns
a pass/fail matrix; checks that do not apply at the given q (an empty
parameter range, or a sweep beyond the line-census bound) are reported
as skipped rather than silently dropped.
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


def report_all(geom: Geometry, srg_checks: bool = True) -> list:
    q = geom.F.q
    res: list = []

    sizes = {
        "hermitian": (V.hermitian_set(geom), (q**3 + 1) * (q**2 + 1)),
        "quadric": (V.quadric_set(geom), (q**2 + 1) ** 2),
        "baer": (V.sigma_set(geom), q**3 + q**2 + q + 1),
        "curve": (V.curve_set(geom), q**2 + 1),
    }
    ok = all(int(m.sum()) == want for m, want in sizes.values())
    _entry(res, "variety_sizes", ok)

    crv = V.curve_set(geom)
    ok = True
    for j in V.valid_j(q):
        ok &= int(V.surface_S(geom, j).sum()) == V.size_S(q)
    for k in V.middle_k(q):
        ok &= int(V.surface_E(geom, k).sum()) == V.size_E_mid(q)
    for k in (0, q - 1):
        ok &= int(V.surface_E(geom, k).sum()) == V.size_E_end(q)
    _entry(res, "invariant_surface_sizes", ok)

    dec = G.orbit_decomposition(geom, "K")
    want_sizes = sorted(
        [q**2 + 1]
        + [q * (q**2 + 1) // 2] * 2
        + [q**2 * (q**2 + 1)]
        + [q**2 * (q**2 + 1) * (q - 1) // 2]
        + [q**2 * (q**2 + 1) * (q + 1) // 2]
        + [q**2 * (q**2 + 1) * (q - 1) // 2] * len(V.valid_j(q))
        + [q**2 * (q**2 + 1) * (q + 1) // 2] * len(V.middle_k(q))
        + [(q**5 - q) // 2] * 2
    )
    _entry(
        res,
        "point_orbit_decomposition",
        dec.n_orbits == 2 * q + 4 and sorted(dec.sizes) == want_sizes,
        f"{dec.n_orbits} orbits",
    )

    decG = G.orbit_decomposition(geom, "G")
    decGp = G.orbit_decomposition(geom, "Gp")
    merge_ok = decG.n_orbits == q + 4 and decGp.n_orbits == q + 4
    relabel = {}
    agree = True
    for a, b in zip(decG.orbit_id.tolist(), decGp.orbit_id.tolist()):
        if a in relabel and relabel[a] != b:
            agree = False
            break
        relabel.setdefault(a, b)
    _entry(res, "pgl_merge", merge_ok and agree, f"{decG.n_orbits} orbits")

    if q <= 7:
        reps = G.named_representatives(geom)
        stab = {
            "U": (q**2 - 1) // 2,
            "R1": q + 1,
            "T1": q,
            "T2": q,
        }
        if q > 3:
            stab[f"Q{(q - 1) // 2}"] = q - 1
        stab["Q1"] = q - 1
        ok = all(
            G.stabilizer_order(geom, reps[nm], "K") == want
            for nm, want in stab.items()
        )
        _entry(res, "stabilizer_orders", ok)
    else:
        _skip(res, "stabilizer_orders", "group scan beyond bound")

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
        hist_ok = cen.per_point_hist == {
            0: q**2 * (q**2 + 1) * (q - 1) // 2,
            2: q**2 * (q**2 + 1) * (q + 1) // 2,
            q + 1: q**2 + 1,
        }
        _entry(
            res,
            "v4_line_census",
            cen.contained == (q + 1) * (q**2 + 1) and hist_ok,
            f"{cen.contained} lines",
        )

        built = I.build_V1(geom, 1)
        cen1 = I.lines_in_set(geom, built["mask"])
        want1 = I.expected_V1_census(q, 1)
        _entry(
            res,
            "v1_line_census",
            QH.verify_quasi_hermitian(geom, built["mask"])["is_quasi"]
            and cen1.contained == want1["lines"]
            and cen1.per_point_hist == want1["hist"],
        )
        built2 = I.build_V2(geom)
        cen2 = I.lines_in_set(geom, built2["mask"])
        want2 = I.expected_V2_census(q)
        _entry(
            res,
            "v2_line_census",
            QH.verify_quasi_hermitian(geom, built2["mask"])["is_quasi"]
            and cen2.contained == want2["lines"]
            and cen2.per_point_hist == want2["hist"],
        )
        ok = True
        for kind in ("elliptic", "hyperbolic"):
            b3 = I.build_V3(geom, kind)
            chk = I.check_V3_bounds(geom, b3)
            ok &= QH.verify_quasi_hermitian(geom, b3["mask"])["is_quasi"]
            ok &= chk["lines_ok"] and chk["outer_ok"] and chk["inner_ok"]
        _entry(res, "v3_line_bounds", ok)

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

    ok = True
    F = geom.F
    omegas = range(F.q2) if q <= 5 else (0, 1, F.xi)
    for omega in omegas:
        want = q**6 - q**2
        if omega not in (0, 1):
            want //= 2
        ok &= I.klein_orbit_length(geom, omega) == want
    _entry(res, "klein_orbit_lengths", ok, f"{len(list(omegas))} omegas")

    if q <= 5:
        cen = I.line_orbit_census(geom)
        _entry(
            res,
            "line_orbit_count",
            cen["n_orbits"] == cen["conjectured"],
            f"found {cen['n_orbits']}, conjectured {cen['conjectured']}",
        )
    else:
        _skip(res, "line_orbit_count", "census beyond bound")

    if srg_checks:
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
