"""Expected point-orbit distributions of polar planes, per orbit pair.

expected_K_entry(q, row, col) gives |pi ∩ col-orbit| for pi the
orthogonal polar of a point in row-orbit, with the q mod 4 branches and
the exceptional j'/k' entries.  Orbit names match group.orbit_decomposition:
K: O, Sigma1, Sigma2, Qplus, H1, H2, S<j>, E<k>; G: O, Sigma, Qplus, H1,
H2, St<j>, Et<k>, Et0.

Two entries of the published distribution table fail the row-sum
invariant sum(row) = q^4+q^2+1 (the S/E columns of the E0- and
E_{q-1}-plane rows); the values encoded here are the ones forced by the
row sums, which also match the per-orbit counting argument and the
exhaustive computation.  verify_table() compares the full computed
distribution against these entries.
"""

from __future__ import annotations

import numpy as np

from .projgeom import Geometry
from . import group as G


def parse_label(label: str, q: int):
    """Orbit label -> (family, parameter) pair."""
    if label in ("O", "Qplus", "Sigma"):
        return (label, None)
    if label in ("Sigma1", "Sigma2"):
        return ("Sigma_i", int(label[-1]))
    if label in ("H1", "H2"):
        return ("H", int(label[-1]))
    if label.startswith("St"):
        return ("St", int(label[2:]))
    if label.startswith("Et"):
        k = int(label[2:])
        return ("Et0", None) if k == 0 else ("Et", k)
    if label.startswith("S"):
        return ("S", int(label[1:]))
    if label.startswith("E"):
        k = int(label[1:])
        return ("Eend", k) if k in (0, q - 1) else ("Emid", k)
    raise ValueError(f"unknown orbit label {label!r}")


def expected_K_entry(q: int, row: str, col: str) -> int:
    rf, rp = parse_label(row, q)
    cf, cp = parse_label(col, q)
    r1 = q % 4 == 1  # branch selector
    if rf == "O":
        return {
            "O": 1,
            "Sigma_i": (q**2 + q) // 2,
            "Qplus": 2 * q**2,
            "H": 0 if cp == 1 else q**3 + q**2,
            "S": 0,
            "Emid": q**3 + q**2,
            "Eend": (q**3 - q) // 2,
        }[cf]
    if rf == "Sigma_i":
        if cf == "O":
            return q + 1
        if cf == "Sigma_i":
            same = rp == cp
            plus = (q**2 + q) // 2
            minus = (q**2 - q) // 2
            if r1:
                return minus if same else plus
            return plus if same else minus
        if cf == "Qplus":
            return q**2 - q
        if cf == "Eend":
            # Sigma1-planes avoid E_{q-1} when q=-1 mod 4, E_0 when q=1 mod 4
            hit0 = (rp == 1) != r1  # Sigma1 & q=-1, or Sigma2 & q=1
            full = q**3 - q
            if cp == 0:
                return full if hit0 else 0
            return 0 if hit0 else full
        return (q**3 - q) // 2  # H, S, Emid
    if rf == "Qplus":
        return {
            "O": 2,
            "Sigma_i": (q - 1) // 2,
            "Qplus": 2 * q**2 - 1,
            "H": (q - 1) * (q**2 + 1) // 2
            if cp == 1
            else (q + 1) * (q**2 - 1) // 2,
            "S": (q - 1) * (q**2 + 1) // 2,
            "Emid": (q + 1) * (q**2 - 1) // 2,
            "Eend": (q**3 - q) // 2,
        }[cf]
    if rf == "H" and rp == 1:
        return {
            "O": 0,
            "Sigma_i": (q + 1) // 2,
            "Qplus": q**2 + 1,
            "H": (q - 1) * (q**2 - 1) // 2 + q**2
            if cp == 1
            else (q + 1) * (q**2 + 1) // 2,
            "S": (q - 1) * (q**2 - 1) // 2,
            "Emid": (q + 1) * (q**2 + 1) // 2,
            "Eend": (q**3 - q) // 2,
        }[cf]
    if rf == "H" and rp == 2:
        return {
            "O": 2,
            "Sigma_i": (q - 1) // 2,
            "Qplus": q**2 - 1,
            "H": (q - 1) * (q**2 + 1) // 2
            if cp == 1
            else (q + 1) * (q**2 - 1) // 2 + q**2,
            "S": (q - 1) * (q**2 + 1) // 2,
            "Emid": (q + 1) * (q**2 - 1) // 2,
            "Eend": (q**3 - q) // 2,
        }[cf]
    if rf == "S":
        if cf == "S":
            # the loaded column is S_j itself when q = 1 mod 4, its partner
            # S_{q+1-j} when q = -1 mod 4 (the published table swaps these)
            special = (cp == rp) if r1 else (cp == q + 1 - rp)
            return (q - 1) * (q**2 - 1) // 2 + (q**2 if special else 0)
        return {
            "O": 0,
            "Sigma_i": (q + 1) // 2,
            "Qplus": q**2 + 1,
            "H": (q - 1) * (q**2 - 1) // 2
            if cp == 1
            else (q + 1) * (q**2 + 1) // 2,
            "Emid": (q + 1) * (q**2 + 1) // 2,
            "Eend": (q**3 - q) // 2,
        }[cf]
    if rf == "Emid":
        if cf == "Emid":
            # the loaded column is the gamma-partner E_(q-1-k) when q = 1
            # mod 4 but E_k itself when q = -1 mod 4 (the published table
            # states the first case unconditionally; q = 7 decides)
            special = (cp == q - 1 - rp) if r1 else (cp == rp)
            return (q + 1) * (q**2 - 1) // 2 + (q**2 if special else 0)
        return {
            "O": 2,
            "Sigma_i": (q - 1) // 2,
            "Qplus": q**2 - 1,
            "H": (q - 1) * (q**2 + 1) // 2
            if cp == 1
            else (q + 1) * (q**2 - 1) // 2,
            "S": (q - 1) * (q**2 + 1) // 2,
            "Eend": (q**3 - q) // 2,
        }[cf]
    if rf == "Eend":
        if cf == "O":
            return 1
        if cf == "Sigma_i":
            # the polar plane hits q points of exactly one Sigma_i
            hit1 = (rp == 0) != r1  # E0 & q=-1, or E_{q-1} & q=1
            return q if (cp == 1) == hit1 else 0
        if cf == "Qplus":
            return q**2
        if cf == "H":
            return (q**3 - q**2) // 2 if cp == 1 else (q**3 + q**2) // 2
        if cf == "S":
            return (q**3 - q**2) // 2  # row-sum forced; published (q^3-q)/2
        if cf == "Emid":
            return (q**3 + q**2) // 2  # row-sum forced; published (q^3+q)/2
        if cf == "Eend":
            # the q-point deficit sits on the row's own family iff q = -1 mod 4
            full = (q**3 + q**2) // 2
            deficient = (cp == rp) if not r1 else (cp != rp)
            return full - q if deficient else full
    raise ValueError(f"no entry for row {row} col {col}")


def expected_G_entry(q: int, row: str, col: str) -> int:
    rf, rp = parse_label(row, q)
    cf, cp = parse_label(col, q)
    if rf == "O":
        return {
            "O": 1,
            "Sigma": q**2 + q,
            "Qplus": 2 * q**2,
            "H": 0 if cp == 1 else q**3 + q**2,
            "St": 0,
            "Et": 2 * (q**3 + q**2),
            "Et0": q**3 - q,
        }[cf]
    if rf == "Sigma":
        return {
            "O": q + 1,
            "Sigma": q**2,
            "Qplus": q**2 - q,
            "H": (q**3 - q) // 2,
            "St": q**3 - q,
            "Et": q**3 - q,
            "Et0": q**3 - q,
        }[cf]
    if rf == "Qplus":
        return {
            "O": 2,
            "Sigma": q - 1,
            "Qplus": 2 * q**2 - 1,
            "H": (q - 1) * (q**2 + 1) // 2
            if cp == 1
            else (q + 1) * (q**2 - 1) // 2,
            "St": (q - 1) * (q**2 + 1),
            "Et": (q + 1) * (q**2 - 1),
            "Et0": q**3 - q,
        }[cf]
    if rf == "H" and rp == 1:
        return {
            "O": 0,
            "Sigma": q + 1,
            "Qplus": q**2 + 1,
            "H": (q - 1) * (q**2 - 1) // 2 + q**2
            if cp == 1
            else (q + 1) * (q**2 + 1) // 2,
            "St": (q - 1) * (q**2 - 1),
            "Et": (q + 1) * (q**2 + 1),
            "Et0": q**3 - q,
        }[cf]
    if rf == "H" and rp == 2:
        return {
            "O": 2,
            "Sigma": q - 1,
            "Qplus": q**2 - 1,
            "H": (q - 1) * (q**2 + 1) // 2
            if cp == 1
            else (q + 1) * (q**2 - 1) // 2 + q**2,
            "St": (q - 1) * (q**2 + 1),
            "Et": (q + 1) * (q**2 - 1),
            "Et0": q**3 - q,
        }[cf]
    if rf == "St":
        return {
            "O": 0,
            "Sigma": q + 1,
            "Qplus": q**2 + 1,
            "H": (q - 1) * (q**2 - 1) // 2
            if cp == 1
            else (q + 1) * (q**2 + 1) // 2,
            "St": (q - 1) * (q**2 - 1) + (q**2 if cp == rp else 0),
            "Et": (q + 1) * (q**2 + 1),
            "Et0": q**3 - q,
        }[cf]
    if rf == "Et":
        return {
            "O": 2,
            "Sigma": q - 1,
            "Qplus": q**2 - 1,
            "H": (q - 1) * (q**2 + 1) // 2
            if cp == 1
            else (q + 1) * (q**2 - 1) // 2,
            "St": (q - 1) * (q**2 + 1),
            "Et": (q + 1) * (q**2 - 1) + (q**2 if cp == rp else 0),
            "Et0": q**3 - q,
        }[cf]
    if rf == "Et0":
        return {
            "O": 1,
            "Sigma": q,
            "Qplus": q**2,
            "H": (q**3 - q**2) // 2 if cp == 1 else (q**3 + q**2) // 2,
            "St": q**3 - q**2,  # row-sum forced; published q^3-q
            "Et": q**3 + q**2,  # row-sum forced; published q^3+q
            "Et0": q**3 + q**2 - q,
        }[cf]
    raise ValueError(f"no entry for row {row} col {col}")


def plane_orbit_distribution(
    geom: Geometry, decomp: G.OrbitDecomposition, rep_idx: int
) -> dict:
    """Histogram of orbit labels over the orthogonal polar plane of a point."""
    plane = geom.perp_quadric(rep_idx)
    on = geom.plane_points(plane)
    counts = np.bincount(decomp.orbit_id[on], minlength=decomp.n_orbits)
    return {decomp.labels[i]: int(c) for i, c in enumerate(counts)}


def verify_table(geom: Geometry, kind: str) -> list:
    """Compare every computed polar-plane row against the expected entries."""
    q = geom.F.q
    decomp = G.orbit_decomposition(geom, kind)
    expected = expected_K_entry if kind == "K" else expected_G_entry
    results = []
    for row_label, rep in zip(decomp.labels, decomp.reps):
        got = plane_orbit_distribution(geom, decomp, rep)
        want = {col: expected(q, row_label, col) for col in decomp.labels}
        results.append(
            {
                "row": row_label,
                "match": got == want,
                "computed": got,
                "expected": want,
            }
        )
    return results
