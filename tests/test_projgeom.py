import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiherm.projgeom import geometry_for_q, solve_two_planes
from quasiherm import quasi as QH
from quasiherm import varieties as V


@pytest.fixture(scope="module")
def g3():
    return geometry_for_q(3)


# -- independent oracle: plane counts from GF(p)-digit products ----------


def point_digits(geom) -> np.ndarray:
    """(N, 8e) float32 GF(p)-digit expansion of the coordinates."""
    F = geom.F
    d = 2 * F.e
    dig = F.digits[geom.pts]  # (N, 4, d)
    return dig.reshape(len(geom.pts), 4 * d).astype(np.float32)


def _component_blocks(geom):
    """Per-digit bilinear blocks B_m[u,v] = digit_m(x^(u+v) mod f)."""
    F = geom.F
    d = 2 * F.e
    blocks = []
    for m in range(d):
        B = np.zeros((d, d), dtype=np.float32)
        for u in range(d):
            for v in range(d):
                B[u, v] = F.digits[F.exp[u + v], m]
        big = np.zeros((4 * d, 4 * d), dtype=np.float32)
        for t in range(4):
            big[t * d : (t + 1) * d, t * d : (t + 1) * d] = B
        blocks.append(big)
    return blocks


def incidence_counts_reference(geom, point_mask: np.ndarray) -> np.ndarray:
    """Independent route to incidence_counts via GF(p)-digit products.

    sum(u_i P_i) = 0 is tested componentwise on the digit expansion;
    the float32 matrix products stay below 2^11 so they are exact.
    Quadratic in the point count; intended for cross-checks at small q.
    """
    F = geom.F
    p = float(F.p)
    C = point_digits(geom)
    S = C[point_mask]
    if len(S) == 0:
        return np.zeros(geom.n_points, dtype=np.int64)
    blocks = _component_blocks(geom)
    rights = [B @ S.T for B in blocks]  # (8e, |S|) each
    counts = np.zeros(geom.n_points, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, len(S)))
    for start in range(0, geom.n_points, chunk):
        stop = min(geom.n_points, start + chunk)
        z = None
        for R in rights:
            V = np.remainder(C[start:stop] @ R, p)
            zb = V == 0
            z = zb if z is None else (z & zb)
        counts[start:stop] = z.sum(axis=1)
    return counts


def test_counts(g3):
    assert g3.n_points == 820  # 3^6 + 3^4 + 3^2 + 1
    assert g3.n_lines == 7462  # (81+1)(81+9+1)
    assert geometry_for_q(5).n_points == 16276


def test_canonicalize(g3):
    assert list(g3.canonicalize((0, 0, 0, 5))) == [0, 0, 0, 1]
    xi = g3.F.xi
    assert list(g3.canonicalize((xi, xi, 0, 0))) == [1, 1, 0, 0]
    with pytest.raises(ValueError):
        g3.canonicalize((0, 0, 0, 0))


def test_index_bijection(g3):
    idx = g3.index_rows(g3.pts)
    assert (idx == np.arange(g3.n_points)).all()
    # every scalar multiple canonicalizes to the same index
    rng = np.random.default_rng(1)
    for _ in range(50):
        i = int(rng.integers(g3.n_points))
        lam = int(rng.integers(1, g3.Q))
        scaled = g3.F.mul_t[g3.pts[i], lam]
        assert g3.point_index(scaled) == i


def test_plane_points_and_duality(g3):
    on = g3.plane_points(0)
    assert len(on) == 91  # q^4 + q^2 + 1
    # duality: planes through a point = points on a plane
    assert len(g3.planes_through(17)) == 91
    u = g3.pts[0]
    assert (g3.dot_rows(g3.pts[on], u) == 0).all()


def test_lines_table(g3):
    lt = g3.lines()
    F = g3.F
    plk = lt.pluecker
    # Klein quadric relation p12 p34 - p13 p24 + p14 p23 = 0
    rel = F.add_t[
        F.add_t[
            F.mul_t[plk[:, 0], plk[:, 5]], F.neg_t[F.mul_t[plk[:, 1], plk[:, 4]]]
        ],
        F.mul_t[plk[:, 2], plk[:, 3]],
    ]
    assert (rel == 0).all()
    assert len(np.unique(lt.keys)) == g3.n_lines
    pts = lt.all_points()
    assert pts.shape == (7462, 10)  # q^2 + 1 points per line
    # each point lies on q^4 + q^2 + 1 lines
    assert (np.bincount(pts.ravel(), minlength=g3.n_points) == 91).all()
    # basis pair regenerates the same canonical Pluecker vector
    for li in (0, 123, 7000):
        u, v = lt.basis[li]
        assert (lt.pluecker_of_span(u, v) == plk[li]).all()
        assert lt.line_index(u, v) == li


def test_every_pair_on_one_line(g3):
    lt = g3.lines()
    rng = np.random.default_rng(3)
    for _ in range(30):
        i, j = rng.integers(0, g3.n_points, size=2)
        if i == j:
            continue
        li = lt.line_index(g3.pts[i], g3.pts[j])
        pts = set(lt.line_points(li).tolist())
        assert {int(i), int(j)} <= pts


def test_line_in_every_containing_plane(g3):
    lt = g3.lines()
    pts = lt.line_points(42)
    # planes containing the line = planes through any two of its points
    pl = set(g3.planes_through(int(pts[0]))) & set(g3.planes_through(int(pts[1])))
    assert len(pl) == 10  # q^2 + 1 planes through a line
    for plane in pl:
        on = set(g3.plane_points(plane).tolist())
        assert set(pts.tolist()) <= on


def test_polarity_involutions(g3):
    perp = g3.perp_quadric_perm()
    tau = g3.tau_perm()
    n = np.arange(g3.n_points)
    assert (perp[perp] == n).all()
    assert (tau[tau] == n).all()
    # tau fixes exactly the Baer subgeometry, q^3+q^2+q+1 points
    assert int((tau == n).sum()) == 40
    # the composition identity tau o perp == perp o tau
    assert (tau[perp] == perp[tau]).all()


def test_quadric_points_self_conjugate(g3):
    quad = V.quadric_set(g3)
    perp = g3.perp_quadric_perm()
    for i in np.flatnonzero(quad)[:20]:
        on = g3.plane_points(int(perp[i]))
        assert i in on


def test_unitary_polar_sections(g3):
    herm = V.hermitian_set(g3)
    sizes = set()
    for i in range(0, g3.n_points, 13):
        plane = g3.perp_unitary(i)
        cnt = int(herm[g3.plane_points(plane)].sum())
        sizes.add((bool(herm[i]), cnt))
    # tangent planes (q^3+q^2+1 points) at Hermitian points, else q^3+1
    assert sizes <= {(True, 37), (False, 28)}


def test_incidence_counts_cross_check(g3):
    masks = [V.hermitian_set(g3), V.curve_set(g3), np.ones(g3.n_points, dtype=bool)]
    for unit in np.eye(4, dtype=np.int16):  # one point per pivot coordinate
        masks.append(np.arange(g3.n_points) == g3.point_index(unit))
    for mask in masks:
        fast = g3.incidence_counts(mask)
        ref = incidence_counts_reference(g3, mask)
        assert (fast == ref).all()
    g5 = geometry_for_q(5)
    for mask in (V.hermitian_set(g5), QH.assemble(g5, QH.QuasiKind("SH2", j=1))):
        assert (g5.incidence_counts(mask) == incidence_counts_reference(g5, mask)).all()


@settings(max_examples=30, deadline=None)
@given(points=st.sets(st.integers(0, 819), max_size=300))
def test_incidence_counts_on_random_masks(g3, points):
    mask = np.zeros(g3.n_points, dtype=bool)
    mask[list(points)] = True
    assert (g3.incidence_counts(mask) == incidence_counts_reference(g3, mask)).all()


def test_plane_points_match_dot_product_everywhere(g3):
    for i in range(g3.n_points):
        on = np.flatnonzero(g3.dot_rows(g3.pts, g3.pts[i]) == 0)
        assert np.array_equal(g3.plane_points(i), on)


def test_solve_two_planes(g3):
    u = np.array([1, 0, 0, 0], dtype=np.int16)
    v = np.array([0, 1, 0, 0], dtype=np.int16)
    pts = solve_two_planes(g3, u, v)
    for w in pts:
        assert g3.dot_rows(w[None, :], u)[0] == 0
        assert g3.dot_rows(w[None, :], v)[0] == 0
