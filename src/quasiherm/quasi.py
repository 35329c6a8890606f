"""Assembly of the candidate quasi-Hermitian surfaces and verification.

The three families are unions of invariant-surface point sets:

    S_union_E(j, k)   S_j union E_k
    H1_union_E(k)     H1 union E_k
    S_union_H2(j)     S_j union H2

where H1, H2 are the two orbits on the Hermitian surface minus the
curve.  A set is accepted as quasi-Hermitian iff its plane spectrum,
computed by an exhaustive sweep over all q^6+q^4+q^2+1 planes, is
supported exactly on {q^3+1, q^3+q^2+1} with the tangent-size
multiplicity equal to (q^3+1)(q^2+1); that forces the Hermitian
cardinality as well.

The sweep is never sampled and never uses the group invariance of the
input; it is the independent check of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projgeom import Geometry
from . import varieties as V
from . import group as G

VARIANTS = ("SE", "H1E", "SH2")


@dataclass(frozen=True)
class QuasiKind:
    variant: str  # one of VARIANTS
    j: int | None = None
    k: int | None = None

    def label(self) -> str:
        if self.variant == "SE":
            return f"S{self.j}+E{self.k}"
        if self.variant == "H1E":
            return f"H1+E{self.k}"
        return f"S{self.j}+H2"


def h_orbit_masks(geom: Geometry):
    """The two K-orbits on the Hermitian surface minus the curve."""
    dec = G.orbit_decomposition(geom, "K")
    return dec.mask("H1"), dec.mask("H2")


def valid_kinds(q: int):
    """Every admissible (variant, j, k) at this field order."""
    out = []
    for j in V.valid_j(q):
        for k in V.middle_k(q):
            out.append(QuasiKind("SE", j=j, k=k))
    for k in V.middle_k(q):
        out.append(QuasiKind("H1E", k=k))
    for j in V.valid_j(q):
        out.append(QuasiKind("SH2", j=j))
    return out


def assemble(geom: Geometry, kind: QuasiKind) -> np.ndarray:
    q = geom.F.q
    if kind.variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if kind.variant in ("SE", "SH2"):
        if kind.j not in V.valid_j(q):
            raise ValueError(f"j={kind.j} invalid for q={q}")
    if kind.variant in ("SE", "H1E"):
        if kind.k not in V.middle_k(q):
            raise ValueError(
                f"k={kind.k} invalid for q={q} (valid: {V.middle_k(q) or 'none'})"
            )
    h1, h2 = h_orbit_masks(geom)
    if kind.variant == "SE":
        return V.surface_S(geom, kind.j) | V.surface_E(geom, kind.k)
    if kind.variant == "H1E":
        return h1 | V.surface_E(geom, kind.k)
    return V.surface_S(geom, kind.j) | h2


def assemble_orbit_union(geom: Geometry, labels) -> np.ndarray:
    """Union of arbitrary K-orbits by label; for negative controls."""
    dec = G.orbit_decomposition(geom, "K")
    mask = np.zeros(geom.n_points, dtype=bool)
    for lab in labels:
        mask |= dec.mask(lab)
    return mask


def plane_spectrum(geom: Geometry, mask: np.ndarray) -> dict:
    """Exact multiset {intersection size: number of planes}."""
    counts = geom.incidence_counts(mask)
    sizes, mult = np.unique(counts, return_counts=True)
    return {int(s): int(m) for s, m in zip(sizes, mult)}


def verify_quasi_hermitian(geom: Geometry, mask: np.ndarray) -> dict:
    q = geom.F.q
    spec = plane_spectrum(geom, mask)
    size = int(mask.sum())
    lo, hi = q**3 + 1, q**3 + q**2 + 1
    want_hi = V.size_hermitian(q)
    want_lo = geom.n_points - want_hi
    ok = (
        set(spec) == {lo, hi}
        and spec[hi] == want_hi
        and spec[lo] == want_lo
        and size == want_hi
    )
    return {
        "is_quasi": bool(ok),
        "size": size,
        "expected_size": want_hi,
        "spectrum": spec,
        "expected_spectrum": {lo: want_lo, hi: want_hi},
    }
