import numpy as np
import pytest

from quasiherm.projgeom import geometry_for_q
from quasiherm import group as G
from quasiherm import varieties as V


@pytest.fixture(scope="module")
def g3():
    return geometry_for_q(3)


def test_kron_identity(g3):
    M = G.kron_action(g3.F, (1, 0, 0, 1))
    assert M == tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    with pytest.raises(ValueError):
        G.kron_action(g3.F, (1, 1, 1, 1))  # singular


def test_group_orders_by_enumeration(g3):
    assert len(G.group_classes(g3, "K")) == 360
    assert len(G.group_classes(g3, "G")) == 720
    assert 2 * len(G.group_classes(g3, "G")) == G.group_order(3, "Gp") == 1440
    assert len(G.group_classes(geometry_for_q(5), "K")) == 7800


def test_group_classes_are_invertible_and_canonical(g3):
    F = g3.F
    for kind in ("K", "G"):
        classes = G.group_classes(g3, kind)
        assert (g3.canonicalize_rows(classes) == classes).all()
        dets = [G.mat2_det(F, tuple(A)) for A in classes.tolist()]
        assert all(dets)
        assert all(F.is_square(d) for d in dets) == (kind == "K")
    with pytest.raises(ValueError):
        G.group_classes(g3, "Gp")


def test_generators_generate(g3):
    assert G.verify_generators(g3)
    assert G.verify_generators(geometry_for_q(5))


def test_elements_distinct_projectivities(g3):
    # the Kronecker map is faithful: distinct classes act differently
    seen = set()
    for A in G.group_classes(g3, "K").tolist():
        perm = tuple(G.point_perm(g3, G.kron_action(g3.F, tuple(A)))[:40])
        assert perm not in seen
        seen.add(perm)


def test_curve_is_stabilized(g3):
    O = V.curve_set(g3)
    for A in G.sl2_generators(g3.F) + [(1, 0, 0, g3.F.xi)]:
        perm = G.point_perm(g3, G.kron_action(g3.F, A))
        assert (O[perm] == O).all()


def test_hermitian_and_quadric_invariant(g3):
    for A in G.sl2_generators(g3.F):
        perm = G.point_perm(g3, G.kron_action(g3.F, A))
        for mask in (V.hermitian_set(g3), V.quadric_set(g3)):
            assert (mask[perm] == mask).all()


def test_f_gamma_surfaces_invariant(g3):
    perms = [
        G.point_perm(g3, G.kron_action(g3.F, A)) for A in G.sl2_generators(g3.F)
    ]
    for j in V.valid_j(3):
        m = V.surface_S(g3, j)
        assert all((m[p] == m).all() for p in perms)
    for k in V.valid_k(3):
        m = V.surface_E(g3, k)
        assert all((m[p] == m).all() for p in perms)


def test_tau_fixes_quadric_and_h_orbits(g3):
    tau = g3.tau_perm()
    dec = G.orbit_decomposition(g3, "K")
    for lab in ("Qplus", "H1", "H2"):
        m = dec.mask(lab)
        assert (m[tau] == m).all()


def test_orbit_of_curve_point(g3):
    O = V.curve_set(g3)
    mask = G.orbit_of(g3, int(V.curve_points(g3)[0]), "K")
    assert (mask == O).all()


def test_orbit_of_U(g3):
    U = g3.point_index((0, 1, 0, 0))
    mask = G.orbit_of(g3, U, "K")
    want = V.quadric_set(g3) & ~V.curve_set(g3)
    assert (mask == want).all()
    assert int(mask.sum()) == 90  # q^2 (q^2+1)


def test_K_decomposition_q3(g3):
    dec = G.orbit_decomposition(g3, "K")
    assert dec.n_orbits == 10
    assert sorted(dec.sizes) == [10, 15, 15, 90, 90, 90, 90, 120, 120, 180]
    assert sum(dec.sizes) == 820
    assert set(dec.labels) == {
        "O", "Sigma1", "Sigma2", "Qplus", "H1", "H2", "S1", "S3", "E0", "E2",
    }
    # orbits of the family match the surfaces minus the shared parts
    O = V.curve_set(g3)
    Sg = V.sigma_set(g3)
    assert (dec.mask("S1") == (V.surface_S(g3, 1) & ~O)).all()
    assert (dec.mask("S3") == (V.surface_S(g3, 3) & ~O)).all()
    assert (dec.mask("E0") == (V.surface_E(g3, 0) & ~Sg)).all()
    assert (dec.mask("E2") == (V.surface_E(g3, 2) & ~Sg)).all()


def test_representative_congruence_placement(g3):
    # q = 3 = -1 mod 4: T1 lands in E_(q-1), T2 in E_0, and Q_1 (the
    # excluded middle index) represents H2
    reps = G.named_representatives(g3)
    dec = G.orbit_decomposition(g3, "K")
    assert dec.labels[dec.orbit_id[reps["Q1"]]] == "H2"
    assert dec.labels[dec.orbit_id[reps["T1"]]] == "E2"
    assert dec.labels[dec.orbit_id[reps["T2"]]] == "E0"


def test_representative_congruence_placement_q5():
    g5 = geometry_for_q(5)
    reps = G.named_representatives(g5)
    dec = G.orbit_decomposition(g5, "K")
    # q = 1 mod 4: Q_k lands in E_k, T1 in E_0, T2 in E_(q-1)
    assert dec.labels[dec.orbit_id[reps["Q1"]]] == "E1"
    assert dec.labels[dec.orbit_id[reps["Q3"]]] == "E3"
    assert dec.labels[dec.orbit_id[reps["T1"]]] == "E0"
    assert dec.labels[dec.orbit_id[reps["T2"]]] == "E4"


def test_G_merges_and_Gp_equal(g3):
    decG = G.orbit_decomposition(g3, "G")
    decGp = G.orbit_decomposition(g3, "Gp")
    assert decG.n_orbits == 7 and decGp.n_orbits == 7
    assert G.expected_orbit_count(3, "G") == 7
    assert G.same_partition(decG, decGp)
    # merges: S1 with S3, E0 with E2, Sigma1 with Sigma2
    decK = G.orbit_decomposition(g3, "K")
    assert (
        decG.mask("St1") == (decK.mask("S1") | decK.mask("S3"))
    ).all()
    assert (decG.mask("Et0") == (decK.mask("E0") | decK.mask("E2"))).all()
    assert (
        decG.mask("Sigma") == (decK.mask("Sigma1") | decK.mask("Sigma2"))
    ).all()


def test_diag_xi_sends_T1_into_T2_orbit(g3):
    F = g3.F
    reps = G.named_representatives(g3)
    M = G.kron_action(F, (1, 0, 0, F.xi))
    img = int(G.point_perm(g3, M)[g3.point_index((F.xi, 1, 1, 0))])
    dec = G.orbit_decomposition(g3, "K")
    assert dec.orbit_id[img] == dec.orbit_id[reps["T2"]]
    # and the image shares the defining surface values with T2
    for k in (0, 2):
        m = V.surface_E(g3, k)
        assert bool(m[img]) == bool(m[reps["T2"]])


def test_G_witnesses_for_merges(g3):
    # some element of G maps S1 to S2, R_j to R_(q+1-j), T1 to T2
    reps = G.named_representatives(g3)
    decG = G.orbit_decomposition(g3, "G")
    for a, b in (("S1_pt", "S2_pt"), ("R1", "R3"), ("T1", "T2")):
        assert decG.orbit_id[reps[a]] == decG.orbit_id[reps[b]]
    decK = G.orbit_decomposition(g3, "K")
    for a, b in (("S1_pt", "S2_pt"), ("R1", "R3"), ("T1", "T2")):
        assert decK.orbit_id[reps[a]] != decK.orbit_id[reps[b]]


@pytest.mark.parametrize(
    "q,name,expect",
    [
        (3, "U", 4), (3, "R1", 4), (3, "Q1", 2), (3, "T1", 3), (3, "T2", 3),
        (5, "U", 12), (5, "R1", 6), (5, "Q1", 4), (5, "T1", 5), (5, "T2", 5),
    ],
)
def test_stabilizer_orders(q, name, expect):
    g = geometry_for_q(q)
    reps = G.named_representatives(g)
    assert G.stabilizer_order(g, reps[name], "K") == expect


def test_orbit_stabilizer_consistency(g3):
    for kind in G.KINDS:
        dec = G.orbit_decomposition(g3, kind)
        for rep, size in zip(dec.reps, dec.sizes):
            assert G.stabilizer_order(g3, rep, kind) * size == G.group_order(3, kind)


@pytest.fixture(scope="module")
def element_perms(g3):
    """Point permutation of every class of G, and whether it lies in K."""
    F = g3.F
    mats = [tuple(A) for A in G.group_classes(g3, "G").tolist()]
    perms = np.array([G.point_perm(g3, G.kron_action(F, A)) for A in mats])
    in_K = np.array([F.is_square(G.mat2_det(F, A)) for A in mats])
    return perms, in_K


@pytest.mark.parametrize("kind", G.KINDS)
def test_stabilizer_scan_matches_per_element_oracle(g3, element_perms, kind):
    # one permutation per element, each built from its own 4x4 matrix;
    # a G' element M.IOTA acts as iota first, then M
    perms, in_K = element_perms
    if kind == "K":
        perms = perms[in_K]
    elif kind == "Gp":
        iota = G.point_perm(g3, G.IOTA)
        perms = np.concatenate([perms, perms[:, iota]])
    assert len(perms) == G.group_order(3, kind)
    fixed = (perms == np.arange(g3.n_points)).sum(axis=0)
    dec = G.orbit_decomposition(g3, kind)
    for rep in dec.reps:
        assert G.stabilizer_order(g3, rep, kind) == fixed[rep]
    # the stabilizer order is constant on each orbit
    for i in range(dec.n_orbits):
        assert len(set(fixed[dec.orbit_id == i].tolist())) == 1


def test_polarity_equivariance(g3):
    # g maps the orbit distribution of P^perp to that of (P^g)^perp
    dec = G.orbit_decomposition(g3, "K")
    F = g3.F
    perm = G.point_perm(g3, G.kron_action(F, (1, 1, 0, 1)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        i = int(rng.integers(g3.n_points))
        a = np.bincount(
            dec.orbit_id[g3.plane_points(g3.perp_quadric(i))], minlength=10
        )
        b = np.bincount(
            dec.orbit_id[g3.plane_points(g3.perp_quadric(int(perm[i])))],
            minlength=10,
        )
        assert (a == b).all()


def test_q5_decomposition():
    g5 = geometry_for_q(5)
    dec = G.orbit_decomposition(g5, "K")
    assert dec.n_orbits == 14
    assert sorted(dec.sizes) == sorted(
        [26, 65, 65, 650] + [1300] * 5 + [1950] * 3 + [1560] * 2
    )
    decG = G.orbit_decomposition(g5, "G")
    assert decG.n_orbits == 9
