"""The curve stabilizer groups acting on PG(3, q^2).

A 2x2 matrix A over GF(q^2) induces the projectivity of the Kronecker
image A^q (x) A.  Matrices act on points in the column convention
P -> M.P (equivalently row form P.M^t), which is the convention under
which the diagonal stabilizer computations of the source construction
come out right.  The three groups:

    K   matrices with square determinant      ~ PSL(2, q^2)
    G   all invertible matrices               ~ PGL(2, q^2)
    G'  G extended by the swap X2 <-> X3 (iota)

Projective identity of 2x2 matrices is tested on the canonical scaling
(first nonzero entry 1); squareness of the determinant is invariant
under that scaling, so membership of a class in K is well defined.

Orbits are computed by breadth-first closure under a fixed generating
set whose completeness is verified once per field by multiplicative
closure; stabilizers by exhaustive scan of the enumerated group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .projgeom import Geometry
from . import varieties as V

KINDS = ("K", "G", "Gp")

IOTA = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))


def mat2_canonical(F, A):
    a, b, c, d = A
    for lead in (a, b, c, d):
        if lead:
            inv = F.inv(lead)
            return (F.mul(a, inv), F.mul(b, inv), F.mul(c, inv), F.mul(d, inv))
    raise ValueError("zero matrix")


def mat2_det(F, A):
    a, b, c, d = A
    return F.sub(F.mul(a, d), F.mul(b, c))


def mat2_mul(F, A, B):
    a, b, c, d = A
    e, f_, g, h = B
    return (
        F.add(F.mul(a, e), F.mul(b, g)),
        F.add(F.mul(a, f_), F.mul(b, h)),
        F.add(F.mul(c, e), F.mul(d, g)),
        F.add(F.mul(c, f_), F.mul(d, h)),
    )


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


def mat4_mul(F, M, N):
    out = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            acc = 0
            for k in range(4):
                acc = F.add(acc, F.mul(M[i][k], N[k][j]))
            out[i][j] = acc
    return tuple(tuple(r) for r in out)


def apply_point(F, M, vec):
    """Column action: image[i] = sum_j M[i][j] * vec[j]."""
    out = []
    for i in range(4):
        acc = 0
        for j in range(4):
            acc = F.add(acc, F.mul(M[i][j], vec[j]))
        out.append(acc)
    return out


@dataclass(frozen=True)
class GroupElem:
    """A projectivity of G': 2x2 class, optionally composed with iota."""

    mat: tuple
    swap: bool = False

    def matrix4(self, F):
        M = kron_action(F, self.mat)
        return mat4_mul(F, M, IOTA) if self.swap else M

    def in_K(self, F) -> bool:
        return not self.swap and F.is_square(mat2_det(F, self.mat))


def enumerate_group(F, kind: str):
    """Duplicate-free iteration over the projective classes of a group."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    Q = F.q2
    swaps = (False, True) if kind == "Gp" else (False,)
    for swap in swaps:
        # canonical classes by leading-one position in (a, b, c, d)
        for a, b, c, d in _canonical_mats(Q):
            det = mat2_det(F, (a, b, c, d))
            if det == 0:
                continue
            if kind == "K" and not F.is_square(det):
                continue
            yield GroupElem((a, b, c, d), swap)


def _canonical_mats(Q):
    for b in range(Q):
        for c in range(Q):
            for d in range(Q):
                yield (1, b, c, d)
    for c in range(Q):
        for d in range(Q):
            yield (0, 1, c, d)
    for d in range(Q):
        yield (0, 0, 1, d)
    yield (0, 0, 0, 1)


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


def verify_generators(F) -> bool:
    """Closure of the SL generators must hit every class of K exactly."""
    target = group_order(F.q, "K")
    gens = [mat2_canonical(F, A) for A in sl2_generators(F)]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for B in frontier:
            for A in gens:
                C = mat2_canonical(F, mat2_mul(F, A, B))
                if C not in seen:
                    seen.add(C)
                    nxt.append(C)
        frontier = nxt
        if len(seen) > target:
            return False
    return len(seen) == target


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
        F = geom.F
        if not geom.cache.get("gens_verified"):
            if not verify_generators(F):
                raise RuntimeError("SL(2,q^2) generator closure check failed")
            geom.cache["gens_verified"] = True
        return [point_perm(geom, M) for M in generators(F, kind)]

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


def stabilizer_order(geom: Geometry, point_idx: int, kind: str = "K") -> int:
    """Number of group elements fixing the point, by exhaustive scan."""
    F = geom.F
    vec = [int(x) for x in geom.pts[point_idx]]
    target = point_idx
    count = 0
    for g in enumerate_group(F, kind):
        img = apply_point(F, g.matrix4(F), vec)
        if geom.point_index(img) == target:
            count += 1
    return count
