"""Points, planes and lines of PG(3, q^2) with dense integer indexing.

A point is a nonzero 4-vector over GF(q^2) up to scalar; its canonical
representative has first nonzero coordinate 1.  Points are ranked
lexicographically by the position of the leading 1 and the remaining
free coordinates, giving indices 0 .. q^6+q^4+q^2 (Q = q^2):

    (1,a,b,c) -> a*Q^2 + b*Q + c
    (0,1,b,c) -> Q^3 + b*Q + c
    (0,0,1,c) -> Q^3 + Q^2 + c
    (0,0,0,1) -> Q^3 + Q^2 + Q

Planes use the same canonical form and ranking on their dual 4-vectors;
the point P lies on the plane with dual u iff sum(u_i P_i) = 0.  Point
subsets are plain numpy boolean masks over point indices.

Lines are enumerated as the row-reduced-echelon 2x4 bases, one per line,
and carry canonical Pluecker 6-vectors in the coordinate order
(p12, p13, p14, p23, p24, p34), satisfying p12*p34 - p13*p24 + p14*p23 = 0.

Incidence sweeps (plane spectra, planes through a point) enumerate
the Q^2+Q+1 planes through each point P directly, with no plane
canonicalized.  Pivot on P's last nonzero coordinate l: the other three
dual coordinates w run over the canonical PG(2, Q) triples and
u_l = -sum(w_f P_f) / P_l.  If w's leading 1 comes before position l, u
keeps it; if it comes after l, every P_f under a nonzero w_f is 0, so
u_l = 0.  Either way u is canonical with w's leading position, and its
index is that of (w, 0 at l) plus u_l * Q^(3-l).  Points and planes
share one indexing and u . P is symmetric, so the points of a plane are
the planes through the point with the same index.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx, field_for_q

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class Geometry:
    """PG(3, q^2) over a FieldCtx, with cached derived structures."""

    def __init__(self, field: FieldCtx):
        self.F = field
        Q = field.q2
        self.Q = Q
        self.n_points = Q**3 + Q**2 + Q + 1
        self.n_lines = (Q**2 + 1) * (Q**2 + Q + 1)
        self.pts = self._build_points()
        self.cache: dict = {}
        self._lines = None

    # -- points ---------------------------------------------------------

    def _build_points(self):
        Q, N = self.Q, self.n_points
        pts = np.zeros((N, 4), dtype=np.int16)
        idx = np.arange(Q**3)
        pts[: Q**3, 0] = 1
        pts[: Q**3, 1] = idx // Q**2
        pts[: Q**3, 2] = (idx // Q) % Q
        pts[: Q**3, 3] = idx % Q
        base = Q**3
        idx = np.arange(Q**2)
        pts[base : base + Q**2, 1] = 1
        pts[base : base + Q**2, 2] = idx // Q
        pts[base : base + Q**2, 3] = idx % Q
        base += Q**2
        pts[base : base + Q, 2] = 1
        pts[base : base + Q, 3] = np.arange(Q)
        pts[N - 1, 3] = 1
        return pts

    def canonicalize_rows(self, rows: np.ndarray) -> np.ndarray:
        """Scale each nonzero row so its first nonzero entry is 1."""
        rows = np.asarray(rows, dtype=np.int16)
        nz = rows != 0
        if not nz.any(axis=1).all():
            raise ValueError("zero vector cannot be canonicalized")
        lead = nz.argmax(axis=1)
        lv = rows[np.arange(len(rows)), lead]
        inv = self.F.inv_t[lv]
        return self.F.mul_t[rows, inv[:, None]]

    def index_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rank canonical rows to point indices."""
        Q = self.Q
        r = rows.astype(np.int64)
        lead = (rows != 0).argmax(axis=1)
        out = np.select(
            [lead == 0, lead == 1, lead == 2],
            [
                r[:, 1] * Q**2 + r[:, 2] * Q + r[:, 3],
                Q**3 + r[:, 2] * Q + r[:, 3],
                Q**3 + Q**2 + r[:, 3],
            ],
            default=Q**3 + Q**2 + Q,
        )
        return out.astype(np.int64)

    def point_index(self, vec) -> int:
        row = self.canonicalize_rows(np.asarray(vec, dtype=np.int16)[None, :])
        return int(self.index_rows(row)[0])

    def canonicalize(self, vec) -> np.ndarray:
        return self.canonicalize_rows(np.asarray(vec, dtype=np.int16)[None, :])[0]

    # -- incidence -------------------------------------------------------

    def dot_rows(self, rows: np.ndarray, vec) -> np.ndarray:
        """Bilinear form sum(rows[:,i] * vec[i]) over the field."""
        F = self.F
        acc = F.mul_t[rows[:, 0], vec[0]]
        for i in range(1, 4):
            acc = F.add_t[acc, F.mul_t[rows[:, i], vec[i]]]
        return acc

    def planes_through(self, point_idx: int) -> np.ndarray:
        """Sorted indices of the Q^2+Q+1 planes containing a point."""
        (blk,) = self._plane_blocks(self.pts[point_idx][None, :])
        return np.sort(blk[0])

    def plane_points(self, plane_idx: int) -> np.ndarray:
        """Sorted indices of the points on a plane (by dual index)."""
        return self.planes_through(plane_idx)

    # -- polarities --------------------------------------------------------

    def tau_rows(self, rows: np.ndarray) -> np.ndarray:
        """Semilinear involution (X1,X2,X3,X4) -> (X1^q, X3^q, X2^q, X4^q)."""
        fr = self.F.frob_t[rows]
        return fr[:, [0, 2, 1, 3]]

    def tau_perm(self) -> np.ndarray:
        if "tau_perm" not in self.cache:
            img = self.canonicalize_rows(self.tau_rows(self.pts))
            self.cache["tau_perm"] = self.index_rows(img)
        return self.cache["tau_perm"]

    def perp_quadric_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dual vectors of the orthogonal polars: u = (P4, -P3, -P2, P1)."""
        neg = self.F.neg_t
        out = np.empty_like(rows)
        out[:, 0] = rows[:, 3]
        out[:, 1] = neg[rows[:, 2]]
        out[:, 2] = neg[rows[:, 1]]
        out[:, 3] = rows[:, 0]
        return out

    def perp_quadric(self, point_idx: int) -> int:
        row = self.perp_quadric_rows(self.pts[point_idx][None, :])
        return int(self.index_rows(self.canonicalize_rows(row))[0])

    def perp_quadric_perm(self) -> np.ndarray:
        if "perp_perm" not in self.cache:
            img = self.canonicalize_rows(self.perp_quadric_rows(self.pts))
            self.cache["perp_perm"] = self.index_rows(img)
        return self.cache["perp_perm"]

    def perp_unitary(self, point_idx: int) -> int:
        row = self.perp_quadric_rows(self.tau_rows(self.pts[point_idx][None, :]))
        return int(self.index_rows(self.canonicalize_rows(row))[0])

    # -- bulk incidence counting ------------------------------------------

    def _plane_blocks(self, P: np.ndarray):
        """Yield (b, Q^2+Q+1) blocks of the plane indices through rows of P."""
        F, Q = self.F, self.Q
        tri = self.pts[Q**3 :, 1:]
        m3 = len(tri)
        last = 3 - (P[:, ::-1] != 0).argmax(axis=1)
        block = max(1, (1 << 22) // m3)
        ramp = np.arange(Q)
        for l in range(4):
            sel = P[last == l]
            if len(sel) == 0:
                continue
            others = [c for c in range(4) if c != l]
            rows = np.zeros((m3, 4), dtype=np.int16)
            rows[:, others] = tri
            off = self.index_rows(rows)
            # u_l = sum_f w_f * c_f with c_f = -P_f / P_l
            coef = F.mul_t[F.neg_t[sel[:, others]], F.inv_t[sel[:, l]][:, None]]
            for start in range(0, len(sel), block):
                c = coef[start : start + block, :, None]
                b = len(c)
                # tri runs over (1, x, y), (0, 1, y), (0, 0, 1) in this order,
                # so u_l is c0 + x*c1 + y*c2, then c1 + y*c2, then c2
                yc2 = F.mul_t[c[:, 2], ramp]
                head = F.add_t[c[:, 0], F.mul_t[c[:, 1], ramp]]
                idx = np.empty((b, m3), dtype=np.int64)
                idx[:, : Q * Q] = F.add_t[head[:, :, None], yc2[:, None]].reshape(b, -1)
                idx[:, Q * Q : -1] = F.add_t[c[:, 1], yc2]
                idx[:, -1:] = c[:, 2]
                idx *= Q ** (3 - l)
                idx += off
                yield idx

    def incidence_counts(self, point_mask: np.ndarray) -> np.ndarray:
        """For every plane, the exact number of masked points on it.

        Enumerates, for each masked point, the Q^2+Q+1 planes through it
        and accumulates a histogram over plane indices; every
        plane/point incidence is visited exactly once, so the sweep is
        exhaustive.
        """
        counts = np.zeros(self.n_points, dtype=np.int64)
        for idx in self._plane_blocks(self.pts[point_mask]):
            counts += np.bincount(idx.ravel(), minlength=self.n_points)
        return counts

    # -- lines -------------------------------------------------------------

    def lines(self) -> "LineTable":
        if self._lines is None:
            self._lines = LineTable(self)
        return self._lines


class LineTable:
    """All lines of PG(3, q^2): RREF bases plus canonical Pluecker keys."""

    def __init__(self, geom: Geometry):
        self.geom = geom
        F = geom.F
        Q = geom.Q
        bases = []
        free_of_pivot = {
            (0, 1): ((0, 2), (0, 3), (1, 2), (1, 3)),
            (0, 2): ((0, 1), (0, 3), (1, 3)),
            (0, 3): ((0, 1), (0, 2)),
            (1, 2): ((0, 3), (1, 3)),
            (1, 3): ((0, 2),),
            (2, 3): (),
        }
        for (i, j), free in free_of_pivot.items():
            nfree = len(free)
            count = Q**nfree
            blk = np.zeros((count, 2, 4), dtype=np.int16)
            blk[:, 0, i] = 1
            blk[:, 1, j] = 1
            idx = np.arange(count)
            for t, (r, c) in enumerate(free):
                blk[:, r, c] = (idx // Q ** (nfree - 1 - t)) % Q
            bases.append(blk)
        self.basis = np.concatenate(bases, axis=0)
        assert len(self.basis) == geom.n_lines
        self.pluecker = self._pluecker_rows(self.basis)
        self.keys = self.pluecker_keys(self.pluecker)
        self._order = np.argsort(self.keys, kind="stable")
        self._sorted = self.keys[self._order]
        self._points = None

    def _pluecker_rows(self, bases: np.ndarray) -> np.ndarray:
        F = self.geom.F
        u = bases[:, 0, :]
        v = bases[:, 1, :]
        out = np.empty((len(bases), 6), dtype=np.int16)
        for r, (i, j) in enumerate(PAIRS):
            a = F.mul_t[u[:, i], v[:, j]]
            b = F.mul_t[u[:, j], v[:, i]]
            out[:, r] = F.add_t[a, F.neg_t[b]]
        return self.geom.canonicalize_rows(out)

    def pluecker_of_span(self, u, v) -> np.ndarray:
        b = np.array([[u, v]], dtype=np.int16)
        return self._pluecker_rows(b)[0]

    def pluecker_keys(self, plk: np.ndarray) -> np.ndarray:
        Q = self.geom.Q
        key = np.zeros(len(plk), dtype=np.int64)
        for c in range(6):
            key = key * Q + plk[:, c]
        return key

    def lookup(self, plk_rows: np.ndarray) -> np.ndarray:
        """Map canonical Pluecker rows to line indices."""
        keys = self.pluecker_keys(plk_rows)
        pos = np.searchsorted(self._sorted, keys)
        if (pos >= len(self._sorted)).any() or (self._sorted[pos] != keys).any():
            raise KeyError("Pluecker vector does not correspond to a line")
        return self._order[pos]

    def line_index(self, u, v) -> int:
        return int(self.lookup(self.pluecker_of_span(u, v)[None, :])[0])

    def points_block(self, start: int, stop: int) -> np.ndarray:
        """(stop-start, Q+1) point indices of a contiguous line block."""
        geom = self.geom
        F = geom.F
        Q = geom.Q
        u = self.basis[start:stop, 0, :]
        v = self.basis[start:stop, 1, :]
        out = np.empty((stop - start, Q + 1), dtype=np.int64)
        out[:, 0] = geom.index_rows(v)
        for t in range(Q):
            w = F.add_t[u, F.mul_t[v, t]]
            # u + t*v keeps u's leading one, so rows are already canonical
            out[:, t + 1] = geom.index_rows(w)
        return out

    def all_points(self) -> np.ndarray:
        if self._points is None:
            self._points = self.points_block(0, len(self.basis))
        return self._points

    def line_points(self, line_idx: int) -> np.ndarray:
        return self.points_block(line_idx, line_idx + 1)[0]

    def polar_line(self, line_idx: int) -> int:
        """Index of the polar line under the orthogonal polarity."""
        geom = self.geom
        u, v = self.basis[line_idx]
        du = geom.perp_quadric_rows(u[None, :])[0]
        dv = geom.perp_quadric_rows(v[None, :])[0]
        pts = solve_two_planes(geom, du, dv)
        return self.line_index(pts[0], pts[1])


def solve_two_planes(geom: Geometry, u, v):
    """Two spanning points of the intersection line of two planes."""
    F = geom.F
    M = np.array([u, v], dtype=np.int16).tolist()
    # Gaussian elimination to RREF over the field
    pivots = []
    row = 0
    for col in range(4):
        piv = None
        for r in range(row, 2):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = F.inv(M[row][col])
        M[row] = [F.mul(x, inv) for x in M[row]]
        for r in range(2):
            if r != row and M[r][col]:
                f = M[r][col]
                M[r] = [F.sub(M[r][k], F.mul(f, M[row][k])) for k in range(4)]
        pivots.append(col)
        row += 1
        if row == 2:
            break
    assert row == 2, "planes are not distinct"
    free = [c for c in range(4) if c not in pivots]
    sols = []
    for fc in free:
        vec = [0, 0, 0, 0]
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(M[r][fc])
        sols.append(vec)
    return np.array(sols, dtype=np.int16)


_GEOM_CACHE: dict = {}


def geometry_for_q(q: int) -> Geometry:
    if q not in _GEOM_CACHE:
        _GEOM_CACHE[q] = Geometry(field_for_q(q))
    return _GEOM_CACHE[q]
