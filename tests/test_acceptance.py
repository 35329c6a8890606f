"""Acceptance suite: one test per criterion, exact tolerances, printed
pass/fail lines.  Run with `pytest -v -s tests/test_acceptance.py`.
"""

import time

import numpy as np
import pytest

from quasiherm.gf import FieldCtx
from quasiherm.projgeom import Geometry, geometry_for_q
from quasiherm import group as G
from quasiherm import invariants as I
from quasiherm import quasi as QH
from quasiherm import srg
from quasiherm import tables as T
from quasiherm import varieties as V


def verdict(num, ok, msg):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, msg


def test_criterion_01_point_orbit_decomposition():
    details = []
    ok = True
    for q, n_want, budget in ((3, 10, 10.0), (5, 14, 60.0)):
        fresh = Geometry(FieldCtx(q, 1))  # uncached: the timing is honest
        t0 = time.time()
        dec = G.orbit_decomposition(fresh, "K")
        dt = time.time() - t0
        good = (
            dec.n_orbits == n_want
            and dict(zip(dec.labels, dec.sizes)) == G.expected_orbit_sizes(q)
            and sum(dec.sizes) == fresh.n_points
            and dt < budget
        )
        ok &= good
        details.append(f"q={q}: {dec.n_orbits} orbits in {dt:.1f}s")
    ok &= G.expected_orbit_sizes(3) == {
        "O": 10, "Sigma1": 15, "Sigma2": 15, "Qplus": 90, "H1": 90,
        "H2": 180, "S1": 90, "S3": 90, "E0": 120, "E2": 120,
    }
    verdict(1, ok, "; ".join(details))


def test_criterion_02_pgl_merge():
    ok = True
    details = []
    for q in (3, 5):
        g = geometry_for_q(q)
        decG = G.orbit_decomposition(g, "G")
        decGp = G.orbit_decomposition(g, "Gp")
        agree = decG.n_orbits == G.expected_orbit_count(q, "G") == q + 4
        agree &= G.same_partition(decG, decGp)
        ok &= agree
        details.append(f"q={q}: {decG.n_orbits} orbits, G' identical={agree}")
    verdict(2, ok, "; ".join(details))


def test_criterion_03_stabilizer_orders():
    ok = True
    details = []
    for q in (3, 5, 7):
        g = geometry_for_q(q)
        reps = G.named_representatives(g)
        names = ["U", "T1", "T2"]
        names += [f"R{j}" for j in V.valid_j(q)]
        names += [f"Q{k}" for k in V.middle_k(q)]
        want = {nm: G.expected_stabilizer_order(g, reps[nm]) for nm in names}
        got = {nm: G.stabilizer_order(g, reps[nm], "K") for nm in names}
        ok &= got == want
        details.append(f"q={q}: {len(want)} representatives scanned")
    verdict(3, ok, "; ".join(details))


def test_criterion_04_quasi_hermitian_theorem():
    ok = True
    details = []
    for q, kinds in (
        (3, QH.valid_kinds(3)),
        (5, QH.valid_kinds(5)),
        (7, [QH.QuasiKind("SE", j=1, k=1), QH.QuasiKind("H1E", k=2), QH.QuasiKind("SH2", j=3)]),
    ):
        g = geometry_for_q(q)
        t0 = time.time()
        for kind in kinds:
            res = QH.verify_quasi_hermitian(g, QH.assemble(g, kind))
            ok &= res["is_quasi"]
            ok &= res["spectrum"] == res["expected_spectrum"]
        dt = time.time() - t0
        if q == 7:
            ok &= dt < 300.0
        details.append(f"q={q}: {len(kinds)} families in {dt:.0f}s")
    verdict(4, ok, "; ".join(details))


def test_criterion_05_tables():
    ok = True
    details = []
    for q in (3, 5):
        g = geometry_for_q(q)
        for grp in ("K", "G"):
            rows = T.verify_table(g, grp)
            bad = [r["row"] for r in rows if not r["match"]]
            ok &= not bad
            details.append(f"q={q} {grp}: {len(rows)} rows")
    verdict(5, ok, "; ".join(details))


def test_criterion_06_line_invariants():
    ok = True
    details = []
    for q in (3, 5):
        g = geometry_for_q(q)
        sigs = []
        v4 = QH.assemble(g, QH.QuasiKind("SH2", j=1))
        cen = I.lines_in_set(g, v4)
        w4 = I.expected_V4_census(q)
        ok &= cen.contained == w4["lines"] and cen.per_point_hist == w4["hist"]
        sigs.append((cen.contained, tuple(sorted(cen.per_point_hist.items()))))

        b1 = I.build_V1(g, 1)
        c1 = I.lines_in_set(g, b1["mask"])
        w1 = I.expected_V1_census(q, 1)
        ok &= c1.contained == w1["lines"] and c1.per_point_hist == w1["hist"]
        sigs.append((c1.contained, tuple(sorted(c1.per_point_hist.items()))))

        b2 = I.build_V2(g)
        c2 = I.lines_in_set(g, b2["mask"])
        w2 = I.expected_V2_census(q)
        ok &= c2.contained == w2["lines"] and c2.per_point_hist == w2["hist"]
        sigs.append((c2.contained, tuple(sorted(c2.per_point_hist.items()))))

        b3 = I.build_V3(g, "elliptic")
        chk = I.check_V3_bounds(g, b3)
        ok &= chk["lines_ok"] and chk["outer_ok"] and chk["inner_ok"]
        c3 = chk["census"]
        sigs.append((c3.contained, tuple(sorted(c3.per_point_hist.items()))))

        ok &= len(set(sigs)) == 4  # pairwise distinct signatures
        details.append(f"q={q}: 4 censuses distinct")
    verdict(6, ok, "; ".join(details))


def test_criterion_07_pencil_and_net():
    ok = True
    checked = 0
    for q in (3, 5):
        g = geometry_for_q(q)
        for i in V.valid_j(q):
            for j in V.valid_j(q):
                ok &= I.count_Yj(g, i, j) == I.expected_Yj(q, i, j)
                ok &= I.net_rank_census(g, i, j) == I.expected_net_census(q, i, j)
                checked += 1
    verdict(7, ok, f"{checked} (i, j) pairs, counts and net censuses")


def test_criterion_08_klein_orbits():
    ok = True
    details = []
    for q in (3, 5):
        g = geometry_for_q(q)
        for omega in range(g.F.q2):
            want = I.expected_klein_orbit_length(q, omega)
            ok &= I.klein_orbit_length(g, omega) == want
        details.append(f"q={q}: {g.F.q2} omegas")
    verdict(8, ok, "; ".join(details))


def test_criterion_09_line_orbit_count():
    ok = True
    details = []
    for q in (3, 5):
        g = geometry_for_q(q)
        cen = I.line_orbit_census(g)
        good = cen["n_orbits"] == cen["conjectured"]
        ok &= good
        details.append(
            f"q={q}: found {cen['n_orbits']} vs conjectured {cen['conjectured']}"
        )
        if not good:
            details.append(
                "FINDING: computed line-orbit count contradicts the conjecture"
            )
    verdict(9, ok, "; ".join(details))


def test_criterion_10_srg_and_code():
    g = geometry_for_q(3)
    mask = QH.assemble(g, QH.QuasiKind("SH2", j=1))
    gp = srg.graph_params(g, mask)  # every vertex pair, exactly
    ok = gp["degree_ok"] and gp["k"] == 2240 and gp["srg_ok"]
    wd = srg.weight_distribution(g, mask)
    ok &= wd == {243: 2240, 252: 4320}
    ok &= srg.weight_distribution_direct(g, mask) == wd
    n, k, lam, mu = gp["n"], gp["k"], gp["lambda"], gp["mu"]
    if ok:
        ok &= srg.eigenvalue_params(g.Q, int(mask.sum()), wd) == (k, lam, mu)
        ok &= k * (k - lam - 1) == (n - k - 1) * mu
    verdict(
        10,
        ok,
        f"k={gp['k']} lambda={gp['lambda']} mu={gp['mu']} "
        f"weights={wd}",
    )


def test_criterion_11_property_suites():
    g = geometry_for_q(3)
    F = g.F
    ok = True
    # field axioms and square invariants, exhaustive
    for a in range(F.q2):
        ok &= F.add(a, 0) == a and F.mul(a, 1) == a
        ok &= F.frobenius(F.frobenius(a)) == a
        if a:
            ok &= F.mul(a, F.inv(a)) == 1
            ok &= F.is_square_q(F.norm(a)) == F.is_square(a)
    ok &= sum(F.is_square(a) for a in range(1, F.q2)) == (F.q2 - 1) // 2
    # polarity involutions and the tau fixed-point count
    n = np.arange(g.n_points)
    perp, tau = g.perp_quadric_perm(), g.tau_perm()
    ok &= bool((perp[perp] == n).all() and (tau[tau] == n).all())
    ok &= int((tau == n).sum()) == 40
    ok &= bool((tau[perp] == perp[tau]).all())
    # K-invariance of every invariant surface, all generators
    perms = [G.point_perm(g, G.kron_action(F, A)) for A in G.sl2_generators(F)]
    surfaces = [V.hermitian_set(g), V.quadric_set(g)]
    surfaces += [V.surface_S(g, j) for j in V.valid_j(3)]
    surfaces += [V.surface_E(g, k) for k in V.valid_k(3)]
    for m in surfaces:
        ok &= all(bool((m[p] == m).all()) for p in perms)
    # line-intersection bounds, exhaustive over all lines
    for j in V.valid_j(3):
        ok &= I.max_line_meet(g, V.surface_S(g, j)) <= 8
    fam = I.special_lines(g, None)
    ok &= all(fam["checks"].values())
    verdict(11, ok, "field, polarity, invariance and line-bound suites at q=3")
