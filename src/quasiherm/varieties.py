"""The distinguished point sets of PG(3, q^2).

All sets are materialized as boolean masks over point indices by a full
sweep of the defining form:

    Hermitian surface   X1^q X4 + X1 X4^q - X2^(q+1) - X3^(q+1) = 0
    hyperbolic quadric  X1 X4 - X2 X3 = 0
    Baer subgeometry    fixed points of tau
    rational curve      (1, t, t^q, t^(q+1)) plus (0,0,0,1)

and the invariant one-parameter family

    F_gamma = hermitian - gamma * quadric^((q+1)/2),

specialized to the surfaces S_j (gamma = xi^(j(q-1)/2) + xi^(-j(q-1)/2),
j in 1..q without (q+1)/2) and E_k (gamma = xi^(k(q+1)/2) + xi^(-k(q+1)/2),
k in 0..q-1 without (q-1)/2).  Both evaluations scale by lambda^(q+1)
under rescaling of the representative, so the zero sets are projective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projgeom import Geometry


def _cached(geom: Geometry, key, builder):
    if key not in geom.cache:
        geom.cache[key] = builder()
    return geom.cache[key]


# -- form evaluation ------------------------------------------------------


def hermitian_values(geom: Geometry) -> np.ndarray:
    def build():
        F = geom.F
        P = geom.pts
        fr = F.frob_t
        t1 = F.mul_t[fr[P[:, 0]], P[:, 3]]
        t2 = F.mul_t[P[:, 0], fr[P[:, 3]]]
        nm = F.norm_t
        acc = F.add_t[t1, t2]
        acc = F.add_t[acc, F.neg_t[nm[P[:, 1]]]]
        acc = F.add_t[acc, F.neg_t[nm[P[:, 2]]]]
        return acc

    return _cached(geom, "herm_vals", build)


def quadric_values(geom: Geometry) -> np.ndarray:
    def build():
        F = geom.F
        P = geom.pts
        return F.add_t[F.mul_t[P[:, 0], P[:, 3]], F.neg_t[F.mul_t[P[:, 1], P[:, 2]]]]

    return _cached(geom, "quad_vals", build)


def eval_hermitian(geom: Geometry, vec) -> int:
    F = geom.F
    x1, x2, x3, x4 = (int(v) for v in vec)
    val = F.add(F.mul(F.frobenius(x1), x4), F.mul(x1, F.frobenius(x4)))
    val = F.sub(val, F.norm(x2))
    return F.sub(val, F.norm(x3))


def eval_quadric(geom: Geometry, vec) -> int:
    F = geom.F
    x1, x2, x3, x4 = (int(v) for v in vec)
    return F.sub(F.mul(x1, x4), F.mul(x2, x3))


def f_gamma_values(geom: Geometry, gamma: int) -> np.ndarray:
    F = geom.F
    h = hermitian_values(geom)
    qv = quadric_values(geom)
    qpow = F.pow_table((F.q + 1) // 2)[qv]
    return F.add_t[h, F.neg_t[F.mul_t[gamma, qpow]]]


def f_gamma(geom: Geometry, vec, gamma: int) -> int:
    F = geom.F
    h = eval_hermitian(geom, vec)
    qv = eval_quadric(geom, vec)
    qp = F.pow(qv, (F.q + 1) // 2) if qv else 0
    return F.sub(h, F.mul(gamma, qp))


# -- the named sets -------------------------------------------------------


def hermitian_set(geom: Geometry) -> np.ndarray:
    return _cached(geom, "herm_set", lambda: hermitian_values(geom) == 0)


def quadric_set(geom: Geometry) -> np.ndarray:
    return _cached(geom, "quad_set", lambda: quadric_values(geom) == 0)


def sigma_set(geom: Geometry) -> np.ndarray:
    """Baer subgeometry: points fixed by tau."""
    return _cached(
        geom, "sigma_set", lambda: geom.tau_perm() == np.arange(geom.n_points)
    )


def in_sigma(geom: Geometry, vec) -> bool:
    i = geom.point_index(vec)
    return bool(sigma_set(geom)[i])


def curve_points(geom: Geometry) -> np.ndarray:
    """Indices of the q^2+1 curve points (1,t,t^q,t^(q+1)) and (0,0,0,1)."""

    def build():
        F = geom.F
        t = np.arange(F.q2, dtype=np.int16)
        rows = np.zeros((F.q2 + 1, 4), dtype=np.int16)
        rows[:-1, 0] = 1
        rows[:-1, 1] = t
        rows[:-1, 2] = F.frob_t[t]
        rows[:-1, 3] = F.norm_t[t]
        rows[-1] = (0, 0, 0, 1)
        return np.sort(geom.index_rows(rows))

    return _cached(geom, "curve_pts", build)


def curve_set(geom: Geometry) -> np.ndarray:
    def build():
        mask = np.zeros(geom.n_points, dtype=bool)
        mask[curve_points(geom)] = True
        return mask

    return _cached(geom, "curve_set", build)


# -- the invariant family --------------------------------------------------


def valid_j(q: int):
    return [j for j in range(1, q + 1) if j != (q + 1) // 2]


def valid_k(q: int):
    return [k for k in range(q) if k != (q - 1) // 2]


def middle_k(q: int):
    """k-range of the E surfaces that are single non-curve K-orbits."""
    return [k for k in range(1, q - 1) if k != (q - 1) // 2]


def gamma_S(F, j: int) -> int:
    if j not in valid_j(F.q):
        raise ValueError(f"j={j} not in {{1..{F.q}}} minus {(F.q + 1) // 2}")
    m = j * (F.q - 1) // 2
    return F.add(F.pow(F.xi, m), F.pow(F.xi, -m))


def gamma_E(F, k: int) -> int:
    if k not in valid_k(F.q):
        raise ValueError(f"k={k} not in {{0..{F.q - 1}}} minus {(F.q - 1) // 2}")
    m = k * (F.q + 1) // 2
    return F.add(F.pow(F.xi, m), F.pow(F.xi, -m))


@dataclass(frozen=True)
class SurfaceId:
    """One of the named surfaces; kind in {hermitian, quadric, baer, curve, S, E}."""

    kind: str
    param: int | None = None

    def label(self) -> str:
        if self.kind in ("S", "E"):
            return f"{self.kind}{self.param}"
        return self.kind


def surface_S(geom: Geometry, j: int) -> np.ndarray:
    key = ("S", j)

    def build():
        return f_gamma_values(geom, gamma_S(geom.F, j)) == 0

    return _cached(geom, key, build)


def surface_E(geom: Geometry, k: int) -> np.ndarray:
    key = ("E", k)

    def build():
        return f_gamma_values(geom, gamma_E(geom.F, k)) == 0

    return _cached(geom, key, build)


def build_surface(geom: Geometry, sid: SurfaceId) -> np.ndarray:
    if sid.kind == "hermitian":
        return hermitian_set(geom)
    if sid.kind == "quadric":
        return quadric_set(geom)
    if sid.kind == "baer":
        return sigma_set(geom)
    if sid.kind == "curve":
        return curve_set(geom)
    if sid.kind == "S":
        return surface_S(geom, sid.param)
    if sid.kind == "E":
        return surface_E(geom, sid.param)
    raise ValueError(f"unknown surface kind {sid.kind!r}")


# -- size formulas (used as the second route in tests and reports) ---------


def size_hermitian(q: int) -> int:
    return (q**3 + 1) * (q**2 + 1)


def size_quadric(q: int) -> int:
    return (q**2 + 1) ** 2


def size_baer(q: int) -> int:
    return q**3 + q**2 + q + 1


def size_curve(q: int) -> int:
    return q**2 + 1


def size_S(q: int) -> int:
    return q**2 * (q**2 + 1) * (q - 1) // 2 + q**2 + 1


def size_E_mid(q: int) -> int:
    return q**2 * (q**2 + 1) * (q + 1) // 2 + q**2 + 1


def size_E_end(q: int) -> int:
    return q**3 * (q**2 + 1) // 2 + q**2 + 1
