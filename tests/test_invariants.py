import numpy as np
import pytest

from quasiherm.projgeom import geometry_for_q
from quasiherm import group as G
from quasiherm import invariants as I
from quasiherm import quasi as QH
from quasiherm import tables as T
from quasiherm import varieties as V


@pytest.fixture(scope="module")
def g3():
    return geometry_for_q(3)


def test_v4_line_census(g3):
    v4 = QH.assemble(g3, QH.QuasiKind("SH2", j=1))
    cen = I.lines_in_set(g3, v4)
    assert cen.contained == 40  # (q+1)(q^2+1)
    assert cen.per_point_hist == {0: 90, 2: 180, 4: 10}
    assert cen.check_double_count(9)


def test_hermitian_generators(g3):
    cen = I.lines_in_set(g3, V.hermitian_set(g3))
    assert cen.contained == 112  # (q^3+1)(q+1)
    assert cen.per_point_hist == {4: 280}  # q+1 generators per point


def test_curve_has_no_lines(g3):
    cen = I.lines_in_set(g3, V.curve_set(g3))
    assert cen.contained == 0
    assert I.max_line_meet(g3, V.curve_set(g3)) == 2


def test_extended_subline_census(g3):
    cen = I.extended_subline_census(g3)
    assert cen["counts"] == {
        "extended": 130,
        "secant": 45,
        "tangent": 40,
        "external": 45,
        "T1": 20,
        "T2": 20,
    }
    dec = G.orbit_decomposition(g3, "K")
    O = V.curve_set(g3)
    # secants: 2 curve points, (q-1)/2 in each Sigma_i
    for lab in ("Sigma1", "Sigma2"):
        assert I.subline_meet_pattern(g3, cen["secant"], dec.mask(lab)) == {1: 45}
    # externals: (q+1)/2 in each Sigma_i
    for lab in ("Sigma1", "Sigma2"):
        assert I.subline_meet_pattern(g3, cen["external"], dec.mask(lab)) == {2: 45}
    # tangents of class i: one curve point and q points of Sigma_i
    assert I.subline_meet_pattern(g3, cen["T1"], dec.mask("Sigma1")) == {3: 20}
    assert I.subline_meet_pattern(g3, cen["T1"], dec.mask("Sigma2")) == {0: 20}
    assert I.subline_meet_pattern(g3, cen["T1"], O) == {1: 20}


def test_subline_meets_with_orbits(g3):
    cen = I.extended_subline_census(g3)
    dec = G.orbit_decomposition(g3, "K")
    # a subline meeting H1 or S_j\O is secant and meets it in q-1 points
    for lab in ("H1", "S1", "S3"):
        m = dec.mask(lab)
        sec = I.subline_meet_pattern(g3, cen["secant"], m)
        assert set(sec) == {2}  # q-1 = 2 on every secant
        assert I.subline_meet_pattern(g3, cen["tangent"], m) == {0: 40}
        assert I.subline_meet_pattern(g3, cen["external"], m) == {0: 45}
    # a subline meeting H2 is external and meets it in q+1 points
    ext = I.subline_meet_pattern(g3, cen["external"], dec.mask("H2"))
    assert set(ext) == {4}
    assert I.subline_meet_pattern(g3, cen["secant"], dec.mask("H2")) == {0: 45}


def test_tangent_subline_polarity(g3):
    rep = I.tangent_duality_class(g3)
    assert rep["landing"] == {rep["expected"]} == {"T1"}  # q = -1 mod 4


def test_tangent_lines_carry_E_end_surfaces(g3):
    # removing the non-curve Baer points from the union of the T_i
    # tangent sublines leaves exactly E_end minus those same points;
    # T1 pairs with the end surface containing Sigma1
    cen = I.extended_subline_census(g3)
    lt = g3.lines()
    sig = V.sigma_set(g3)
    O = V.curve_set(g3)
    dec = G.orbit_decomposition(g3, "K")
    sigma1_end = 0 if V.surface_E(g3, 0)[np.flatnonzero(dec.mask("Sigma1"))[0]] else 2
    for tcls, k_end in ((cen["T1"], sigma1_end), (cen["T2"], 2 - sigma1_end)):
        onlines = np.zeros(g3.n_points, dtype=bool)
        onlines[lt.all_points()[tcls].ravel()] = True
        got = onlines & ~(sig & ~O)
        want = V.surface_E(g3, k_end) & ~(sig & ~O)
        assert (got == want).all()


def test_special_lines_L(g3):
    fam = I.special_lines(g3, None)
    assert len(fam["lines"]) == 40
    assert all(fam["checks"].values())


def test_special_lines_Lk_q5():
    g5 = geometry_for_q(5)
    for k in (1, 3):
        fam = I.special_lines(g5, k)
        assert len(fam["lines"]) == 156  # (q+1)(q^2+1)
        assert all(fam["checks"].values())
    for k in (1, 3):
        dual = I.special_lines_duality(g5, k)
        assert dual["polar_lines_in_partner"] and dual["two_per_polar_plane"]
    with pytest.raises(ValueError):
        I.special_lines(g5, 2)  # excluded middle index


def test_line_meet_bounds(g3):
    for j in (1, 3):
        assert I.max_line_meet(g3, V.surface_S(g3, j)) <= 8  # 2q+2
    # E_0 contains full lines; excluding them the bound holds
    for k in (0, 2):
        m = V.surface_E(g3, k)
        cen = I.lines_in_set(g3, m)
        assert I.max_line_meet(g3, m, exclude=cen.contained_idx) <= 8


def test_plane_distribution_row_example(g3):
    dec = G.orbit_decomposition(g3, "K")
    reps = T.row_representatives(g3, dec)
    row = T.plane_orbit_distribution(g3, dec, reps["O"])
    assert row["O"] == 1 and row["Qplus"] == 18 and row["H1"] == 0
    assert row["H2"] == 36 and row["Sigma1"] == row["Sigma2"] == 6
    rowU = T.plane_orbit_distribution(g3, dec, reps["Qplus"])
    assert rowU["Qplus"] == 17  # 2q^2 - 1


@pytest.mark.parametrize("q,kind", [(3, "K"), (3, "G"), (5, "K"), (5, "G")])
def test_tables_reproduced(q, kind):
    g = geometry_for_q(q)
    res = T.verify_table(g, kind)
    assert all(r["match"] for r in res), [r["row"] for r in res if not r["match"]]


def test_E_column_branch_visible_at_q7():
    # q=7 is the smallest order with middle E-surfaces in the q = -1 mod 4
    # branch; there the loaded plane-distribution column is E_k itself
    g7 = geometry_for_q(7)
    res = T.verify_table(g7, "K")
    assert all(r["match"] for r in res), [r["row"] for r in res if not r["match"]]
    assert I.duality_partner_k(7, 2) == 2
    assert I.duality_partner_k(5, 1) == 3


def test_table_rows_constant_on_orbit(g3):
    # the distribution is a class function: a second orbit point gives
    # the same row as the named representative
    dec = G.orbit_decomposition(g3, "K")
    rng = np.random.default_rng(11)
    for lab in ("H2", "S1", "E0"):
        pts = np.flatnonzero(dec.mask(lab))
        a = T.plane_orbit_distribution(g3, dec, int(pts[0]))
        b = T.plane_orbit_distribution(g3, dec, int(rng.choice(pts)))
        assert a == b


@pytest.mark.parametrize("q", [3, 5])
def test_Yj_counts(q):
    g = geometry_for_q(q)
    for i in V.valid_j(q):
        for j in V.valid_j(q):
            assert I.count_Yj(g, i, j) == I.expected_Yj(q, i, j)


def test_Yj_values_q3(g3):
    assert I.count_Yj(g3, 1, 3) == 68  # (q+1)(q^3+q^2-q+1)/2
    assert I.count_Yj(g3, 1, 1) == 32  # (q^2-1)^2/2
    with pytest.raises(ValueError):
        I.count_Yj(g3, 1, 2)


def test_Yj_disjoint_from_quadric(g3):
    # no quadric point satisfies the pencil condition
    F = g3.F
    P = g3.pts
    nm = F.norm_t
    for i in (1, 3):
        for j in (1, 3):
            term = F.mul_t[F.pow(F.xi, j), nm[P[:, 0]]]
            term = F.add_t[term, nm[P[:, 1]]]
            term = F.add_t[term, F.mul_t[F.pow(F.xi, i + j), nm[P[:, 2]]]]
            term = F.add_t[term, F.mul_t[F.pow(F.xi, i), nm[P[:, 3]]]]
            assert not ((term == 0) & V.quadric_set(g3)).any()


@pytest.mark.parametrize("q", [3, 5])
def test_net_census(q):
    g = geometry_for_q(q)
    for i in V.valid_j(q):
        for j in V.valid_j(q):
            got = I.net_rank_census(g, i, j)
            assert got == I.expected_net_census(q, i, j), (i, j, got)
            assert sum(got.values()) == q**2 + q + 1


def test_sym_diagonalize_rank(g3):
    F = g3.F
    # a rank-2 symmetric matrix over GF(3)
    M = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    diag = I.sym_diagonalize(F, M)
    assert len(diag) == 3
    M2 = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    assert len(I.sym_diagonalize(F, M2)) == 2


# -- known constructions -------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_V1(q):
    g = geometry_for_q(q)
    for z in (1, 2):
        built = I.build_V1(g, z)
        assert QH.verify_quasi_hermitian(g, built["mask"])["is_quasi"]
        cen = I.lines_in_set(g, built["mask"])
        want = I.expected_V1_census(q, z)
        assert cen.contained == want["lines"]
        assert cen.per_point_hist == want["hist"]


def test_V1_z_bounds(g3):
    with pytest.raises(ValueError):
        I.build_V1(g3, 5)
    # z = q+1 reproduces the Hermitian surface itself
    built = I.build_V1(g3, 4)
    assert (built["mask"] == V.hermitian_set(g3)).all()


@pytest.mark.parametrize("q", [3, 5])
def test_V2(q):
    g = geometry_for_q(q)
    built = I.build_V2(g)
    assert QH.verify_quasi_hermitian(g, built["mask"])["is_quasi"]
    cen = I.lines_in_set(g, built["mask"])
    want = I.expected_V2_census(q)
    assert cen.contained == want["lines"]
    assert cen.per_point_hist == want["hist"]


def test_V2_parameter_validation(g3):
    with pytest.raises(ValueError):
        I.build_V2(g3, alpha=0, beta=g3.F.xi)
    with pytest.raises(ValueError):
        I.build_V2(g3, alpha=1, beta=1)  # beta inside GF(q)


@pytest.mark.parametrize("q", [3, 5])
def test_V3(q):
    g = geometry_for_q(q)
    for kind in ("elliptic", "hyperbolic"):
        built = I.build_V3(g, kind)
        assert QH.verify_quasi_hermitian(g, built["mask"])["is_quasi"]
        chk = I.check_V3_bounds(g, built)
        assert chk["lines_ok"] and chk["outer_ok"] and chk["inner_ok"]


def test_V3_elliptic_is_E_end_union(g3):
    built = I.build_V3(g3, "elliptic")
    want = V.surface_E(g3, 0) | V.surface_E(g3, 2)
    assert (built["mask"] == want).all()


def test_census_signatures_pairwise_distinct(g3):
    sigs = {}
    v4 = QH.assemble(g3, QH.QuasiKind("SH2", j=1))
    sigs["V4"] = I.lines_in_set(g3, v4)
    sigs["V1"] = I.lines_in_set(g3, I.build_V1(g3, 1)["mask"])
    sigs["V2"] = I.lines_in_set(g3, I.build_V2(g3)["mask"])
    sigs["V3"] = I.lines_in_set(g3, I.build_V3(g3, "elliptic")["mask"])
    keys = [(c.contained, tuple(sorted(c.per_point_hist.items()))) for c in sigs.values()]
    assert len(set(keys)) == 4


# -- Klein correspondence --------------------------------------------------


def test_klein_points_on_quadric(g3):
    F = g3.F
    for omega in range(F.q2):
        assert I.on_klein_quadric(F, I.klein_point(F, omega))


def test_klein_published_matrix_convention(g3):
    F = g3.F
    rng = np.random.default_rng(9)
    mats = [(1, 1, 0, 1), (1, 0, F.xi, 1), (1, 0, 0, F.xi)]
    while len(mats) < 15:
        A = tuple(int(x) for x in rng.integers(0, F.q2, size=4))
        if G.mat2_det(F, A):
            mats.append(A)
    for A in mats:
        rep = I.klein_equivariance_report(g3, A)
        assert rep["proportional"], (A, rep["mismatches"][:3])


def test_exterior_square_equivariance(g3):
    F = g3.F
    lt = g3.lines()
    rng = np.random.default_rng(4)
    for _ in range(25):
        li = int(rng.integers(g3.n_lines))
        A = tuple(int(x) for x in rng.integers(0, F.q2, size=4))
        if G.mat2_det(F, A) == 0:
            continue
        M = G.kron_action(F, A)
        u, v = lt.basis[li]
        gu = G.apply_point(F, M, [int(x) for x in u])
        gv = G.apply_point(F, M, [int(x) for x in v])
        direct = lt.pluecker_of_span(
            np.array(gu, dtype=np.int16), np.array(gv, dtype=np.int16)
        )
        W = I.exterior_square(F, M)
        via_w = I.apply_pluecker(F, [int(x) for x in lt.pluecker[li]], W)
        via_w = g3.canonicalize_rows(np.array([via_w], dtype=np.int16))[0]
        assert (direct == via_w).all()


@pytest.mark.parametrize("q", [3, 5])
def test_klein_orbit_lengths(q):
    g = geometry_for_q(q)
    F = g.F
    for omega in range(F.q2):
        want = I.expected_klein_orbit_length(q, omega)
        assert I.klein_orbit_length(g, omega) == want
    # q^6 - q^2 on omega in {0, 1}, half of it elsewhere
    assert I.expected_klein_orbit_length(3, 1) == 720
    assert I.expected_klein_orbit_length(3, 2) == 360


def test_line_orbit_census_q3(g3):
    cen = I.line_orbit_census(g3)
    assert cen["n_orbits"] == 28 == cen["conjectured"]
    sizes = sorted(cen["sizes"])
    assert sizes[:8] == [10, 10, 36, 36, 40, 40, 45, 45]
    assert sum(cen["sizes"]) == g3.n_lines
    flat = [t for tags in cen["tags"].values() for t in tags]
    assert "C-tangents" in flat and "C'-tangents" in flat
    assert "L(H2)" in flat and "H-generators" in flat
    # the two curve-tangent rulings are distinct orbits of size q^2+1
    by_tag = {t: oid for oid, tags in cen["tags"].items() for t in tags}
    assert by_tag["C-tangents"] != by_tag["C'-tangents"]
    assert cen["sizes"][by_tag["C-tangents"]] == 10
    assert cen["sizes"][by_tag["C'-tangents"]] == 10
    # two Hermitian-generator orbits of size q^2 (q^2-1)/2
    hgen = [oid for oid, tags in cen["tags"].items() if "H-generators" in tags]
    assert sorted(cen["sizes"][o] for o in hgen) == [36, 36]


def test_line_orbit_census_refused_beyond_bound():
    g7 = geometry_for_q(7)
    with pytest.raises(ValueError):
        I.line_orbit_census(g7)
