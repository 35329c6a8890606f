import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiherm.gf import factor_prime_power, is_prime
from quasiherm.projgeom import geometry_for_q
from quasiherm import invariants as I
from quasiherm import quasi as QH
from quasiherm import srg
from quasiherm import varieties as V


@pytest.fixture(scope="module")
def g3():
    return geometry_for_q(3)


@pytest.fixture(scope="module")
def quasi_set(g3):
    return QH.assemble(g3, QH.QuasiKind("SH2", j=1))


def vector_code(Q, v):
    return int(np.dot(v, Q ** np.arange(3, -1, -1)))


def vector_of(Q, code):
    return np.array([(code // Q ** (3 - c)) % Q for c in range(4)])


def brute_common_neighbours(g, mask, u, v):
    """Common neighbours of u and v, by a direction lookup per vertex."""
    F, Q = g.F, g.Q
    idx = np.arange(Q**4)
    vecs = np.stack([(idx // Q ** (3 - c)) % Q for c in range(4)], axis=1)

    def neighbours(w):
        diffs = F.add_t[vecs, F.neg_t[np.asarray(w)][None, :]]
        nz = diffs.any(axis=1)
        out = np.zeros(len(vecs), dtype=bool)
        out[nz] = mask[g.index_rows(g.canonicalize_rows(diffs[nz]))]
        return out

    return int((neighbours(u) & neighbours(v)).sum())


def test_graph_parameters_exhaustive(g3, quasi_set):
    res = srg.graph_params(g3, quasi_set)
    assert res["n"] == 6561  # q^8
    assert res["k"] == 2240  # (q^2-1)|set|
    assert res["degree_ok"] and res["srg_ok"]
    assert (res["lambda"], res["mu"]) == (781, 756)
    k, lam, mu, n = res["k"], res["lambda"], res["mu"], res["n"]
    # the standard feasibility identity of a strongly regular graph
    assert k * (k - lam - 1) == (n - k - 1) * mu


def test_transform_matches_brute_force_pairs(g3, quasi_set):
    F, Q = g3.F, g3.Q
    C = srg.autocorrelation(g3, srg.direction_cone(g3, quasi_set))
    pairs = [
        ((0, 0, 0, 0), (1, 0, 0, 0)),  # adjacent: (1,0,0,0) lies on the set
        ((0, 0, 0, 0), (0, 1, 0, 0)),  # not adjacent
        ((3, 1, 4, 1), (5, 0, 2, 6)),
        ((8, 8, 8, 8), (2, 7, 1, 8)),
    ]
    seen = set()
    for u, v in pairs:
        d = F.add_t[np.array(v), F.neg_t[np.array(u)]]
        seen.add(bool(quasi_set[g3.point_index(d)]))
        assert C[vector_code(Q, d)] == brute_common_neighbours(g3, quasi_set, u, v)
    assert seen == {True, False}  # both lambda and mu pairs are checked
    assert C[0] == 2240


@settings(max_examples=30, deadline=None)
@given(
    points=st.sets(st.integers(0, 819), max_size=300),
    u=st.integers(0, 6560),
    d=st.integers(1, 6560),
)
def test_transform_on_random_masks(g3, points, u, d):
    F, Q = g3.F, g3.Q
    mask = np.zeros(g3.n_points, dtype=bool)
    mask[list(points)] = True
    C = srg.autocorrelation(g3, srg.direction_cone(g3, mask))
    uv, dv = vector_of(Q, u), vector_of(Q, d)
    assert C[d] == brute_common_neighbours(g3, mask, uv, F.add_t[uv, dv])
    res = srg.graph_params(g3, mask)
    assert res["k"] == C[0] == (Q - 1) * len(points)
    # two characters <=> two nontrivial eigenvalues <=> constant lambda, mu
    two_character = len(QH.plane_spectrum(g3, mask)) == 2
    assert res["srg_ok"] == two_character
    if not two_character:
        assert res["lambda"] is None or res["mu"] is None


def test_lambda_can_be_constant_on_a_non_srg(g3):
    # two points: every edge lies on one of two lines through 0, so
    # lambda = Q - 2, while mu is 2 or 0 as d lies in their plane or not
    mask = np.zeros(g3.n_points, dtype=bool)
    mask[[0, 1]] = True
    res = srg.graph_params(g3, mask)
    assert (res["lambda"], res["mu"], res["srg_ok"]) == (g3.Q - 2, None, False)


def test_q5_transform_and_eigenvalue_route():
    g = geometry_for_q(5)
    mask = QH.assemble(g, QH.QuasiKind("SH2", j=1))
    res = srg.graph_params(g, mask)
    assert res["srg_ok"] and (res["lambda"], res["mu"]) == (16123, 15750)
    wd = srg.weight_distribution(g, mask)
    assert srg.eigenvalue_params(g.Q, int(mask.sum()), wd) == (78624, 16123, 15750)


def test_ntt_modulus_fits_int64_for_every_supported_q():
    for q in (3, 5, 7, 9, 11, 13):
        p = factor_prime_power(q)[0]
        r, w = srg._ntt_modulus(q**8, p)
        assert is_prime(r) and r % p == 1 and r > q**8
        assert w != 1 and pow(w, p, r) == 1
        assert p * r * r < 2**63


def test_same_parameters_for_hermitian_surface(g3, quasi_set):
    # equal size and character numbers force the same invariants; these
    # graphs are not distinguished at this level
    a = srg.graph_params(g3, quasi_set)
    b = srg.graph_params(g3, V.hermitian_set(g3))
    assert (a["k"], a["lambda"], a["mu"]) == (b["k"], b["lambda"], b["mu"])
    # ... whereas the line censuses do separate them
    ca = I.lines_in_set(g3, quasi_set)
    cb = I.lines_in_set(g3, V.hermitian_set(g3))
    assert (ca.contained, ca.per_point_hist) != (cb.contained, cb.per_point_hist)


def test_empty_set_is_edgeless(g3):
    res = srg.graph_params(g3, np.zeros(g3.n_points, dtype=bool))
    assert res["k"] == 0


def test_weight_distribution_duality(g3, quasi_set):
    wd = srg.weight_distribution(g3, quasi_set)
    assert wd == {243: 2240, 252: 4320}
    assert sum(wd.values()) == 6560  # q^8 - 1 nonzero codewords
    spec = QH.plane_spectrum(g3, quasi_set)
    size = int(quasi_set.sum())
    dual = {size - h: m * (g3.Q - 1) for h, m in spec.items()}
    assert dual == wd


def test_weight_distribution_direct_oracle(g3, quasi_set):
    assert srg.weight_distribution_direct(g3, quasi_set) == {243: 2240, 252: 4320}


def test_weight_distribution_small_sets(g3):
    one = np.zeros(g3.n_points, dtype=bool)
    one[7] = True
    assert srg.weight_distribution(g3, one) == srg.weight_distribution_direct(g3, one)
    full = np.ones(g3.n_points, dtype=bool)
    assert srg.weight_distribution(g3, full) == srg.weight_distribution_direct(g3, full)
