"""Strongly regular graph and two-weight code attached to a point set.

The graph lives on the q^8 points of the affine space over the plane at
infinity: vertices are vectors of GF(q^2)^4, and u ~ v iff the direction
point of the line uv belongs to the base set.  Adjacency is translation
invariant: u ~ v iff f(v - u) = 1, where f is the indicator of the
direction cone D = {c * P : P in the set, c != 0}.  So the number of
common neighbours of a pair (u, u + d) is the autocorrelation

    C(d) = sum_x f(x) f(x + d),

and graph_params reads every pair off C at once: degree = C(0), lambda =
the values of C on adjacent d != 0, mu = the values on non-adjacent
d != 0.

Vector codes are base-p digit strings (a field code is the base-p
integer of its coefficients over GF(p), see gf.py), so the length-q^8
array of f reshapes to (p,)^(8e) with no reindexing, and vector
addition is digitwise addition mod p.  C is computed by a
number-theoretic transform over (Z_p)^(8e): modulo a prime r = 1
(mod p), which has a primitive p-th root of unity w, the p x p matrix
(w^(ij)) is applied along every axis.  f(-x) = f(x), so the transform of
C is the square of the transform of f and is itself symmetric; hence
C = q^-8 * T(T(f)^2) mod r with the same forward transform T twice.
These identities hold exactly in Z/r, and r > q^8 > C(d) >= 0, so the
residues are the true counts.  All arithmetic is int64: every transform
output is a sum of p products of residues, and p * r^2 < 2^63 is
checked before the first one.

The projective code of the set has the set's coordinate vectors as
columns; its weight distribution falls out of the plane spectrum via
weight = |set| - h, and (for small q) is cross-checked by enumerating
all q^8 - 1 codewords directly.  eigenvalue_params turns the two weights
of a two-character set into (k, lambda, mu) by the eigenvalue formulas
(Delsarte 1972; Calderbank and Kantor 1986), a route to the graph
parameters that is independent of the transform.
"""

from __future__ import annotations

import os

import numpy as np

from .gf import is_prime
from .projgeom import Geometry
from . import quasi as QH


def _affine_vectors(geom: Geometry) -> np.ndarray:
    """All Q^4 vectors of GF(q^2)^4, one row each."""
    Q = geom.Q
    n = Q**4
    idx = np.arange(n)
    out = np.empty((n, 4), dtype=np.int16)
    for c in range(4):
        out[:, c] = (idx // Q ** (3 - c)) % Q
    return out


def memory_budget() -> int:
    """Bytes the transform may hold: a quarter of the physical memory,
    which leaves the rest to the geometry, the plane sweep and other
    processes, and gives the same answer on every run on one machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 4


def check_memory(q: int) -> None:
    """Raise ValueError, before anything is allocated, when the transform
    at order q does not fit the memory budget.

    graph_params holds 17 * q^8 bytes at its peak: two int64 arrays of
    q^8 cells (the transform's input and output) and the bool cone.
    """
    need, budget = 17 * q**8, memory_budget()
    if need > budget:
        raise ValueError(
            f"the srg transform at q={q} needs about {need >> 20} MiB "
            f"({q**8} cells), over the budget of {budget >> 20} MiB"
        )


def _ntt_modulus(n: int, p: int) -> tuple:
    """The least prime r = 1 (mod p) above n, and a primitive p-th root
    of unity mod r."""
    r = (n // p + 1) * p + 1
    while not is_prime(r):
        r += p
    if p * r * r >= 1 << 63:
        raise ValueError(f"modulus {r}: sums of {p} products overflow int64")
    g = 2
    while pow(g, (r - 1) // p, r) == 1:
        g += 1
    return r, pow(g, (r - 1) // p, r)


def direction_cone(geom: Geometry, mask: np.ndarray) -> np.ndarray:
    """Indicator of {c * P : P in the set, c != 0}, indexed by vector code
    (code = sum v_c Q^(3-c)); (Q-1)|set| scattered writes."""
    F, Q = geom.F, geom.Q
    pts = geom.pts[mask]
    scalars = np.arange(1, Q)
    codes = np.zeros((Q - 1, len(pts)), dtype=np.int64)
    for c in range(4):
        codes = codes * Q + F.mul_t[scalars[:, None], pts[None, :, c]]
    cone = np.zeros(Q**4, dtype=bool)
    cone[codes.ravel()] = True
    return cone


def autocorrelation(geom: Geometry, cone: np.ndarray) -> np.ndarray:
    """C(d) = #{x : x and x + d in the cone} for every vector code d."""
    p, axes = geom.F.p, 8 * geom.F.e
    n = len(cone)
    r, w = _ntt_modulus(n, p)
    W = np.array([[pow(w, i * j, r) for j in range(p)] for i in range(p)], dtype=np.int64)

    a = cone.astype(np.int64)
    for step in range(2 * axes):
        if step == axes:  # a = T(f); square it and transform again
            a *= a
            a %= r
        # W along the leading axis, which then rotates to the back; after
        # all the axes the order is the original one again.  The loop owns
        # the only reference to a, so at most two int64 arrays are alive.
        a = np.matmul(W, a.reshape(p, -1))
        a %= r
        a = a.T.copy().reshape(-1)
    a *= pow(n, r - 2, r)
    a %= r
    return a


def _constant(C: np.ndarray, where: np.ndarray):
    """The one value of C on `where`, or None if there are several or none."""
    lo = int(C.min(where=where, initial=len(C)))
    return lo if lo == int(C.max(where=where, initial=-1)) else None


def graph_params(geom: Geometry, mask: np.ndarray) -> dict:
    """Exact degree and common-neighbour counts of the graph, over all pairs.

    srg_ok reports whether the counts are constant on the adjacent and on
    the non-adjacent pairs; lambda (mu) is None when they are not, or when
    there are no such pairs.
    """
    check_memory(geom.F.q)
    cone = direction_cone(geom, mask)
    C = autocorrelation(geom, cone)
    k = int(C[0])
    degree_ok = k == (geom.Q - 1) * int(mask.sum())
    lam = _constant(C, cone)
    cone = ~cone
    cone[0] = False  # d = 0 is not a pair
    mu = _constant(C, cone)
    return {
        "n": len(C),
        "k": k,
        "degree_ok": degree_ok,
        "lambda": lam,
        "mu": mu,
        "srg_ok": degree_ok and lam is not None and mu is not None,
    }


def eigenvalue_params(Q: int, size: int, weights) -> tuple:
    """(k, lambda, mu) of the graph of a set of `size` points whose code
    has exactly the two nonzero weights w1 < w2.

    A nonzero character of the cone sums to Q*h - size = k - Q*w over a
    plane meeting the set in h = size - w points, so the eigenvalues are
    r, s = k - Q*w1, k - Q*w2, and then mu = k + r*s, lambda = mu + r + s.
    """
    w1, w2 = sorted(weights)
    k = (Q - 1) * size
    r, s = k - Q * w1, k - Q * w2
    mu = k + r * s
    return k, mu + r + s, mu


def weight_distribution(geom: Geometry, mask: np.ndarray) -> dict:
    """Weights of the length-|set| projective code, from the plane sweep.

    Each plane meeting the set in h points contributes q^2 - 1 codewords
    of weight |set| - h.
    """
    Q = geom.Q
    size = int(mask.sum())
    spec = QH.plane_spectrum(geom, mask)
    out: dict = {}
    for h, m in spec.items():
        w = size - h
        if w:
            out[w] = out.get(w, 0) + m * (Q - 1)
    return out


def weight_distribution_direct(geom: Geometry, mask: np.ndarray) -> dict:
    """Oracle route: enumerate all q^8 - 1 codewords of the code whose
    generator columns are the set's coordinate vectors."""
    F = geom.F
    cols = geom.pts[mask]
    vecs = _affine_vectors(geom)[1:]  # nonzero message vectors
    out: dict = {}
    chunk = max(1, (1 << 22) // max(1, len(cols)))
    for start in range(0, len(vecs), chunk):
        blk = vecs[start : start + chunk]
        acc = F.mul_t[blk[:, 0][:, None], cols[None, :, 0]]
        for c in range(1, 4):
            acc = F.add_t[acc, F.mul_t[blk[:, c][:, None], cols[None, :, c]]]
        weights = (acc != 0).sum(axis=1)
        vals, cnts = np.unique(weights, return_counts=True)
        for w, m in zip(vals, cnts):
            if w:
                out[int(w)] = out.get(int(w), 0) + int(m)
    return out
