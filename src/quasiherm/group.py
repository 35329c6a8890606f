"""The curve stabilizer groups acting on PG(3, q^2).

A 2x2 matrix A over GF(q^2) induces the projectivity of the Kronecker
image A^q (x) A.  Matrices act on points in the column convention
P -> M.P (equivalently row form P.M^t), which is the convention under
which the diagonal stabilizer computations of the source construction
come out right.  The three groups:

    K   matrices with square determinant      ~ PSL(2, q^2)
    G   all invertible matrices               ~ PGL(2, q^2)
    G'  G extended by the swap X2 <-> X3 (iota)

The projective classes of 2x2 matrices are points of PG(3, q^2).  A
class (a, b, c, d) is stored in canonical scaling (first nonzero entry
1), the same rule and ranking as a point, and its determinant ad - bc
is the quadric form X1X4 - X2X3.  So the classes of G are the rows of
geom.pts off the quadric (Q^3 - Q of them) and those of K the ones
whose quadric value is a square; squareness is invariant under
scaling, so membership of a class in K is well defined.

Reading a point X as the matrix [[x1, x2], [x3, x4]], the Kronecker
layout M[2i+k][2j+l] = A^q[i][j] A[k][l] sends X to A^q . X . A^t, and
iota sends X to X^t.  Stabilizers are counted by applying every class
to the point at once; orbits are computed by breadth-first closure
under a fixed generating set, whose completeness is verified once per
field by closing the identity class under left multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .projgeom import Geometry
from . import varieties as V

KINDS = ("K", "G", "Gp")

IOTA = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))


def mat2_det(F, A):
    a, b, c, d = A
    return F.sub(F.mul(a, d), F.mul(b, c))


def kron_action(F, A):
    """4x4 Kronecker image A^q (x) A of a nonsingular 2x2 matrix."""
    if mat2_det(F, A) == 0:
        raise ValueError("singular matrix has no projective action")
    a, b, c, d = A
    top = ((F.frobenius(a), F.frobenius(b)), (F.frobenius(c), F.frobenius(d)))
    bot = ((a, b), (c, d))
    M = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    M[2 * i + k][2 * j + l] = F.mul(top[i][j], bot[k][l])
    return tuple(tuple(r) for r in M)


def _class_mask(geom: Geometry, kind: str) -> np.ndarray:
    """Points of PG(3, q^2) that are the 2x2 classes of K or G."""
    if kind not in ("K", "G"):
        raise ValueError("kind must be K or G")
    qv = V.quadric_values(geom)
    mask = qv != 0
    if kind == "K":
        mask &= geom.F.is_square_t[qv]
    return mask


def group_classes(geom: Geometry, kind: str) -> np.ndarray:
    """Canonical 2x2 classes (a, b, c, d) of K or G, one row each."""
    return geom.pts[_class_mask(geom, kind)]


def group_order(q: int, kind: str) -> int:
    if kind == "K":
        return q**2 * (q**4 - 1) // 2
    if kind == "G":
        return q**2 * (q**4 - 1)
    return 2 * q**2 * (q**4 - 1)


def sl2_generators(F):
    """Two standard generators of SL(2, q^2): a transvection and xi-lower."""
    return [(1, 1, 0, 1), (1, 0, F.xi, 1)]


def generators(F, kind: str):
    """4x4 generator matrices of the group's projective action."""
    gens = [kron_action(F, A) for A in sl2_generators(F)]
    if kind in ("G", "Gp"):
        gens.append(kron_action(F, (1, 0, 0, F.xi)))
    if kind == "Gp":
        gens.append(IOTA)
    return gens


def verify_generators(geom: Geometry) -> bool:
    """The SL generators must reach exactly the classes of K.

    Left multiplication B -> A.B is the linear map A (x) I on
    (a, b, c, d), so the classes reached from the identity are one
    point orbit of those maps.
    """
    perms = [
        point_perm(geom, ((a, 0, b, 0), (0, a, 0, b), (c, 0, d, 0), (0, c, 0, d)))
        for a, b, c, d in sl2_generators(geom.F)
    ]
    reached = np.zeros(geom.n_points, dtype=bool)
    close_orbit(perms, geom.point_index((1, 0, 0, 1)), reached)
    return int(reached.sum()) == group_order(geom.F.q, "K") and bool(
        (reached == _class_mask(geom, "K")).all()
    )


# -- point permutations and orbits -----------------------------------------


def point_perm(geom: Geometry, M) -> np.ndarray:
    """Permutation of point indices induced by a 4x4 matrix."""
    F = geom.F
    pts = geom.pts
    cols = []
    for i in range(4):
        acc = F.mul_t[M[i][0], pts[:, 0]]
        for j in range(1, 4):
            acc = F.add_t[acc, F.mul_t[M[i][j], pts[:, j]]]
        cols.append(acc)
    img = np.stack(cols, axis=1)
    return geom.index_rows(geom.canonicalize_rows(img))


def generator_perms(geom: Geometry, kind: str):
    key = ("perms", kind)

    def build():
        if not geom.cache.get("gens_verified"):
            if not verify_generators(geom):
                raise RuntimeError("SL(2,q^2) generator closure check failed")
            geom.cache["gens_verified"] = True
        return [point_perm(geom, M) for M in generators(geom.F, kind)]

    return V._cached(geom, key, build)


def close_orbit(perms, seed: int, seen: np.ndarray) -> np.ndarray:
    """Breadth-first closure of one index under the permutations.

    Marks every index reached from seed in `seen` and returns the newly
    reached indices, seed included.
    """
    seen[seed] = True
    frontier = np.array([seed], dtype=np.int64)
    reached = [frontier]
    while frontier.size:
        imgs = np.unique(np.concatenate([p[frontier] for p in perms]))
        frontier = imgs[~seen[imgs]]
        seen[frontier] = True
        reached.append(frontier)
    return np.concatenate(reached)


def orbits_from_perms(perms, n: int) -> np.ndarray:
    """Connected components of the union of permutations (orbit ids)."""
    orbit_id = np.full(n, -1, dtype=np.int32)
    seen = np.zeros(n, dtype=bool)
    oid = 0
    cursor = 0
    while True:
        while cursor < n and seen[cursor]:
            cursor += 1
        if cursor == n:
            break
        orbit_id[close_orbit(perms, cursor, seen)] = oid
        oid += 1
    return orbit_id


def orbit_of(geom: Geometry, point_idx: int, kind: str = "K") -> np.ndarray:
    """Boolean mask of the orbit of one point under the chosen group."""
    mask = np.zeros(geom.n_points, dtype=bool)
    close_orbit(generator_perms(geom, kind), point_idx, mask)
    return mask


@dataclass
class OrbitDecomposition:
    kind: str
    orbit_id: np.ndarray
    sizes: list
    reps: list
    labels: list
    by_label: dict = field(default_factory=dict)

    def __post_init__(self):
        self.by_label = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def n_orbits(self) -> int:
        return len(self.sizes)

    def mask(self, label: str) -> np.ndarray:
        return self.orbit_id == self.by_label[label]


def named_representatives(geom: Geometry):
    """The reference points of the orbit classification, by name."""
    F = geom.F
    q = F.q
    xi = F.xi
    reps = {
        "U": (0, 1, 0, 0),
        "S1_pt": (1, 0, 0, 1),
        "S2_pt": (1, 0, 0, F.pow(xi, q + 1)),
        "T1": (xi, 1, 1, 0),
        "T2": (F.pow(xi, q - 1), F.pow(xi, q - 1), 1, 0),
    }
    for j in range(1, q + 1):
        reps[f"R{j}"] = (F.pow(xi, j), 0, 0, 1)
    for k in range(1, q - 1):
        reps[f"Q{k}"] = (0, F.pow(xi, k), 1, 0)
    return {name: geom.point_index(v) for name, v in reps.items()}


def _named_orbit_points_K(geom: Geometry):
    """(point index, orbit label) pairs that name the K-orbits."""
    q = geom.F.q
    reps = named_representatives(geom)
    named = [
        (int(V.curve_points(geom)[0]), "O"),
        (reps["S1_pt"], "Sigma1"),
        (reps["S2_pt"], "Sigma2"),
        (reps["U"], "Qplus"),
        (reps[f"R{(q + 1) // 2}"], "H1"),
        (reps[f"Q{(q - 1) // 2}"], "H2"),
    ]
    named += [(reps[f"R{j}"], f"S{j}") for j in V.valid_j(q)]
    for k in V.middle_k(q):
        # the representative lands in E_k or E_(q-1-k) depending on q mod 4;
        # orbits are labelled by the gamma index of the surface that holds it
        idx = reps[f"Q{k}"]
        m = k if V.surface_E(geom, k)[idx] else q - 1 - k
        assert V.surface_E(geom, m)[idx]
        named.append((idx, f"E{m}"))
    for name in ("T1", "T2"):
        idx = reps[name]
        m = 0 if V.surface_E(geom, 0)[idx] else q - 1
        assert V.surface_E(geom, m)[idx]
        named.append((idx, f"E{m}"))
    return named


def _named_orbit_points_G(geom: Geometry):
    """(point index, orbit label) pairs that name the G-orbits."""
    q = geom.F.q
    reps = named_representatives(geom)
    named = [
        (int(V.curve_points(geom)[0]), "O"),
        (reps["S1_pt"], "Sigma"),
        (reps["U"], "Qplus"),
        (reps[f"R{(q + 1) // 2}"], "H1"),
        (reps[f"Q{(q - 1) // 2}"], "H2"),
    ]
    named += [(reps[f"R{j}"], f"St{j}") for j in range(1, (q + 1) // 2)]
    named += [(reps[f"Q{k}"], f"Et{k}") for k in range(1, (q - 1) // 2)]
    named.append((reps["T1"], "Et0"))
    return named


def expected_orbit_sizes(q: int) -> dict:
    """Closed-form sizes of the 2q+4 K-orbits, by orbit label."""
    lower = q**2 * (q**2 + 1) * (q - 1) // 2
    upper = q**2 * (q**2 + 1) * (q + 1) // 2
    sizes = {
        "O": V.size_curve(q),
        "Sigma1": q * (q**2 + 1) // 2,
        "Sigma2": q * (q**2 + 1) // 2,
        "Qplus": q**2 * (q**2 + 1),
        "H1": lower,
        "H2": upper,
        "E0": (q**5 - q) // 2,
        f"E{q - 1}": (q**5 - q) // 2,
    }
    sizes.update({f"S{j}": lower for j in V.valid_j(q)})
    sizes.update({f"E{k}": upper for k in V.middle_k(q)})
    return sizes


def expected_orbit_count(q: int, kind: str) -> int:
    """2q+4 point orbits under K; q+4 under G, which G' does not merge."""
    return len(expected_orbit_sizes(q)) if kind == "K" else q + 4


def same_partition(dec_a: OrbitDecomposition, dec_b: OrbitDecomposition) -> bool:
    """Whether two decompositions split the points into the same orbits."""
    pairs = dec_a.orbit_id.astype(np.int64) * dec_b.n_orbits + dec_b.orbit_id
    return np.unique(pairs).size == dec_a.n_orbits == dec_b.n_orbits


def orbit_decomposition(geom: Geometry, kind: str = "K") -> OrbitDecomposition:
    key = ("decomp", kind)

    def build():
        perms = generator_perms(geom, kind)
        orbit_id = orbits_from_perms(perms, geom.n_points)
        n = int(orbit_id.max()) + 1
        sizes = np.bincount(orbit_id, minlength=n).tolist()
        reps = [int(np.argmax(orbit_id == i)) for i in range(n)]
        labels = [None] * n
        if kind == "K":
            named = _named_orbit_points_K(geom)
        else:
            named = _named_orbit_points_G(geom)
        for idx, label in named:
            oid = int(orbit_id[idx])
            if labels[oid] not in (None, label):
                raise RuntimeError(f"orbit label clash: {labels[oid]} vs {label}")
            labels[oid] = label
        labels = [
            lab if lab is not None else f"orbit{i}" for i, lab in enumerate(labels)
        ]
        return OrbitDecomposition(kind, orbit_id, sizes, reps, labels)

    return V._cached(geom, key, build)


def expected_stabilizer_order(geom: Geometry, point_idx: int) -> int:
    """Orbit-stabilizer: |K| over the closed-form size of the point's K-orbit."""
    dec = orbit_decomposition(geom, "K")
    label = dec.labels[dec.orbit_id[point_idx]]
    q = geom.F.q
    return group_order(q, "K") // expected_orbit_sizes(q)[label]


def _class_images(geom: Geometry, classes: np.ndarray, X) -> np.ndarray:
    """Rows A^q . X . A^t for every class row A, X a point as a 2x2 matrix."""
    F = geom.F
    mul, add = F.mul_t, F.add_t
    A = classes
    Aq = F.frob_t[A]
    # Y = A^q . X, then Z = Y . A^t, entries in row-major order
    Y = [
        add[mul[Aq[:, 2 * i], X[j]], mul[Aq[:, 2 * i + 1], X[2 + j]]]
        for i in range(2)
        for j in range(2)
    ]
    Z = [
        add[mul[Y[2 * i], A[:, 2 * k]], mul[Y[2 * i + 1], A[:, 2 * k + 1]]]
        for i in range(2)
        for k in range(2)
    ]
    return np.stack(Z, axis=1)


def stabilizer_order(geom: Geometry, point_idx: int, kind: str = "K") -> int:
    """Number of group elements fixing the point, by exhaustive scan."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    classes = group_classes(geom, "K" if kind == "K" else "G")
    x1, x2, x3, x4 = (int(v) for v in geom.pts[point_idx])
    points = [(x1, x2, x3, x4)]
    if kind == "Gp":
        points.append((x1, x3, x2, x4))  # iota: X -> X^t
    count = 0
    for X in points:
        img = geom.canonicalize_rows(_class_images(geom, classes, X))
        count += int((geom.index_rows(img) == point_idx).sum())
    return count
