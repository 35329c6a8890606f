"""Line censuses, auxiliary counts, and the combinatorial invariants.

Everything here is an exhaustive sweep: line censuses walk every line of
PG(3, q^2), the pencil counts walk every point, the net census walks
every member of a net of quadrics in PG(7, q), and the Klein machinery
closes orbits on the Klein quadric.  Formula values from the size
lemmas appear only as the expectations that the sweeps are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projgeom import Geometry, PAIRS
from . import varieties as V
from . import group as G
from . import quasi as QH

LINE_CENSUS_MAX_Q = 5  # a full line table at q=7 already holds 5.9M lines


@dataclass
class LineCensus:
    set_size: int
    contained: int
    contained_idx: np.ndarray
    per_point_hist: dict  # lines-through-a-set-point -> number of such points

    def check_double_count(self, q2: int) -> bool:
        incid = sum(k * v for k, v in self.per_point_hist.items())
        return incid == self.contained * (q2 + 1)


def _require_line_scale(geom: Geometry):
    if geom.F.q > LINE_CENSUS_MAX_Q:
        raise ValueError(
            f"line sweeps are refused for q={geom.F.q} > {LINE_CENSUS_MAX_Q}"
        )


def lines_in_set(geom: Geometry, mask: np.ndarray) -> LineCensus:
    """Exhaustive census of the lines fully contained in a point set."""
    _require_line_scale(geom)
    lt = geom.lines()
    pts = lt.all_points()
    inside = mask[pts].all(axis=1)
    contained_idx = np.flatnonzero(inside)
    through = np.zeros(geom.n_points, dtype=np.int64)
    if len(contained_idx):
        through += np.bincount(
            pts[contained_idx].ravel(), minlength=geom.n_points
        )
    vals, cnts = np.unique(through[mask], return_counts=True)
    hist = {int(a): int(b) for a, b in zip(vals, cnts)}
    return LineCensus(int(mask.sum()), len(contained_idx), contained_idx, hist)


def max_line_meet(geom: Geometry, mask: np.ndarray, exclude=None) -> int:
    """Largest |line ∩ set| over all lines (optionally excluding some)."""
    _require_line_scale(geom)
    lt = geom.lines()
    sums = mask[lt.all_points()].sum(axis=1)
    if exclude is not None and len(exclude):
        sums = np.delete(sums, exclude)
    return int(sums.max())


# -- extended sublines -------------------------------------------------------


def extended_subline_census(geom: Geometry) -> dict:
    """Classify the lines meeting the Baer subgeometry in q+1 points.

    Returns per-class line index arrays (secant/tangent/external to the
    curve, tangents split by which Sigma_i their Baer points lie in) and
    the per-line intersection patterns with the K-orbits.
    """
    _require_line_scale(geom)
    q = geom.F.q
    lt = geom.lines()
    pts = lt.all_points()
    sig = V.sigma_set(geom)
    crv = V.curve_set(geom)
    n_sigma = sig[pts].sum(axis=1)
    ext = np.flatnonzero(n_sigma == q + 1)
    n_curve = crv[pts[ext]].sum(axis=1)
    secant = ext[n_curve == 2]
    tangent = ext[n_curve == 1]
    external = ext[n_curve == 0]
    dec = G.orbit_decomposition(geom, "K")
    s1 = dec.mask("Sigma1")
    t1 = tangent[s1[pts[tangent]].any(axis=1)]
    t2 = tangent[~s1[pts[tangent]].any(axis=1)]
    return {
        "extended": ext,
        "secant": secant,
        "tangent": tangent,
        "external": external,
        "T1": t1,
        "T2": t2,
        "counts": {
            "extended": len(ext),
            "secant": len(secant),
            "tangent": len(tangent),
            "external": len(external),
            "T1": len(t1),
            "T2": len(t2),
        },
    }


def subline_meet_pattern(geom: Geometry, line_rows: np.ndarray, mask: np.ndarray):
    """Multiset of |line ∩ set| over the given lines."""
    lt = geom.lines()
    sums = mask[lt.all_points()[line_rows]].sum(axis=1)
    vals, cnts = np.unique(sums, return_counts=True)
    return {int(a): int(b) for a, b in zip(vals, cnts)}


def tangent_duality_class(geom: Geometry, census=None) -> dict:
    """Where the polar of a T1-line lands (T1 or T2), with the q mod 4 rule."""
    census = census or extended_subline_census(geom)
    t1 = set(int(x) for x in census["T1"])
    t2 = set(int(x) for x in census["T2"])
    lt = geom.lines()
    landing = set()
    for li in census["T1"]:
        pol = lt.polar_line(int(li))
        landing.add("T1" if pol in t1 else ("T2" if pol in t2 else "other"))
    return {"landing": landing, "expected": "T1" if geom.F.q % 4 == 3 else "T2"}


# -- the distinguished line families ----------------------------------------


def special_lines(geom: Geometry, k: int | None = None) -> dict:
    """The family L (k=None: Hermitian lines meeting the curve once) or L_k.

    Verifies the defining counts: (q+1)(q^2+1) lines, two through each
    point of the carrier orbit, q+1 through each curve point, and a
    single Baer point per line.
    """
    _require_line_scale(geom)
    q = geom.F.q
    lt = geom.lines()
    pts = lt.all_points()
    crv = V.curve_set(geom)
    if k is None:
        herm = V.hermitian_set(geom)
        inside = herm[pts].all(axis=1)
        n_curve = crv[pts].sum(axis=1)
        lines = np.flatnonzero(inside & (n_curve == 1))
        dec = G.orbit_decomposition(geom, "K")
        carrier = dec.mask("H2")
    else:
        if k not in V.middle_k(q):
            raise ValueError(f"k={k} invalid (valid middle range: {V.middle_k(q)})")
        surf = V.surface_E(geom, k)
        lines = np.flatnonzero(surf[pts].all(axis=1))
        carrier = surf & ~crv
    through = np.bincount(pts[lines].ravel(), minlength=geom.n_points)
    sig = V.sigma_set(geom)
    checks = {
        "count": len(lines) == (q + 1) * (q**2 + 1),
        "two_per_carrier_point": bool((through[carrier] == 2).all()),
        "q1_per_curve_point": bool((through[crv] == q + 1).all()),
        "one_baer_point": bool((sig[pts[lines]].sum(axis=1) == 1).all()),
    }
    if k is None:
        h2crv = carrier | crv
        checks["inside_H2_and_curve"] = bool(h2crv[pts[lines]].all())
    return {"lines": lines, "through": through, "checks": checks}


def duality_partner_k(q: int, k: int) -> int:
    """Index of the surface carrying the polars of the L_k lines.

    q = 1 mod 4 pairs L_k with E_(q-1-k); q = -1 mod 4 with E_k itself
    (same branch pattern as the loaded plane-distribution column).
    """
    return q - 1 - k if q % 4 == 1 else k


def special_lines_duality(geom: Geometry, k: int) -> dict:
    """Polarity exchange between L_k and its partner surface.

    A line lies in the polar plane of P exactly when its polar line
    passes through P, so counting the polar lines of L_k through every
    point gives the L_k lines in every polar plane at once.
    """
    q = geom.F.q
    lt = geom.lines()
    fam = special_lines(geom, k)
    partner = V.surface_E(geom, duality_partner_k(q, k))
    carrier = partner & ~V.curve_set(geom)
    polars = [lt.polar_line(int(li)) for li in fam["lines"]]
    polar_pts = lt.all_points()[polars]
    through = np.bincount(polar_pts.ravel(), minlength=geom.n_points)
    return {
        "polar_lines_in_partner": bool(partner[polar_pts].all()),
        "two_per_polar_plane": bool((through[carrier] == 2).all()),
    }


# -- pencil point counts and the PG(7, q) net --------------------------------


def count_Yj(geom: Geometry, i: int, j: int) -> int:
    """Brute-force count of points on the auxiliary surface Y_j.

    Conditions: xi^j X1^(q+1) + X2^(q+1) + xi^(i+j) X3^(q+1)
    + xi^i X4^(q+1) = 0 and X1 X4 - X2 X3 a nonzero square.
    """
    F = geom.F
    q = F.q
    if i not in V.valid_j(q) or j not in V.valid_j(q):
        raise ValueError(f"indices must lie in {{1..{q}}} minus {(q + 1) // 2}")
    P = geom.pts
    nm = F.norm_t
    term = F.mul_t[F.pow(F.xi, j), nm[P[:, 0]]]
    term = F.add_t[term, nm[P[:, 1]]]
    term = F.add_t[term, F.mul_t[F.pow(F.xi, i + j), nm[P[:, 2]]]]
    term = F.add_t[term, F.mul_t[F.pow(F.xi, i), nm[P[:, 3]]]]
    qv = V.quadric_values(geom)
    hyp = F.is_square_t[qv] & (qv != 0)
    return int(((term == 0) & hyp).sum())


def expected_Yj(q: int, i: int, j: int) -> int:
    """Closed form for |Y_j|, with the case split the computation confirms.

    The loaded case is (j = q+1-i, q = -1 mod 4) or (j = i, q = 1 mod 4);
    the published case split has the two branches swapped, and the
    exhaustive counts decide.
    """
    loaded = (j == q + 1 - i and q % 4 == 3) or (j == i and q % 4 == 1)
    if loaded:
        return (q + 1) * (q**3 + q**2 - q + 1) // 2
    return (q**2 - 1) ** 2 // 2


def _gram_Q1(F):
    half = F.inv(2)
    M = [[0] * 8 for _ in range(8)]
    for (a, b, sgn) in ((0, 7, 1), (1, 6, 1), (2, 5, -1), (3, 4, -1)):
        val = half if sgn == 1 else F.neg(half)
        M[a][b] = M[b][a] = val
    return M

def _gram_H_phi(F, i: int, j: int, component: int):
    """Diagonal Gram of H1^phi (component 0) or H2^phi (component 1)."""
    coef = []
    for m in (j, None, i + j, i):
        if m is None:
            c = (1, 0)  # the X2^(q+1) coefficient is 1
        else:
            c = F.components(F.pow(F.xi, m))
        coef.append(c[component])
    M = [[0] * 8 for _ in range(8)]
    for t in range(4):
        M[2 * t][2 * t] = coef[t]
        M[2 * t + 1][2 * t + 1] = F.neg(F.mul(F.s, coef[t]))
    return M


def sym_diagonalize(F, M):
    """Congruence-diagonalize a symmetric matrix over the subfield GF(q).

    Returns the nonzero diagonal values; their number is the rank and
    their product the discriminant class.  Requires odd characteristic.
    """
    n = len(M)
    M = [row[:] for row in M]
    alive = list(range(n))
    diag = []
    while alive:
        piv = None
        for a in alive:
            if M[a][a]:
                piv = a
                break
        if piv is None:
            hit = None
            for x in alive:
                for y in alive:
                    if x != y and M[x][y]:
                        hit = (x, y)
                        break
                if hit:
                    break
            if hit is None:
                break  # remaining block is zero
            x, y = hit
            for t in range(n):
                M[x][t] = F.add(M[x][t], M[y][t])
            for t in range(n):
                M[t][x] = F.add(M[t][x], M[t][y])
            piv = x
        d = M[piv][piv]
        diag.append(d)
        inv_d = F.inv(d)
        alive.remove(piv)
        for a in alive:
            f = F.mul(M[a][piv], inv_d)
            if f:
                for t in range(n):
                    M[a][t] = F.sub(M[a][t], F.mul(f, M[piv][t]))
                for t in range(n):
                    M[t][a] = F.sub(M[t][a], F.mul(f, M[t][piv]))
    return diag


def quadric_type(F, diag):
    """(rank, type) of a diagonalized quadric over GF(q), odd q."""
    rank = len(diag)
    if rank % 2:
        return rank, "parabolic"
    disc = 1
    for d in diag:
        disc = F.mul(disc, d)
    m = rank // 2
    sign = F.neg(disc) if m % 2 else disc
    return rank, ("hyperbolic" if F.is_square_q(sign) else "elliptic")


def net_rank_census(geom: Geometry, i: int, j: int) -> dict:
    """Rank/type census of the net of quadrics in PG(7, q).

    The net is spanned by the field-reduced hyperbolic quadric and the
    two diagonal quadrics carrying the pencil of Hermitian varieties
    through Y_j; members are the q^2+q+1 projective GF(q)-combinations.
    """
    F = geom.F
    q = F.q
    if i not in V.valid_j(q) or j not in V.valid_j(q):
        raise ValueError(f"indices must lie in {{1..{q}}} minus {(q + 1) // 2}")
    mats = [_gram_Q1(F), _gram_H_phi(F, i, j, 0), _gram_H_phi(F, i, j, 1)]
    gfq = [int(c) for c in F.gfq_codes]
    census: dict = {}
    triples = [(1, a, b) for a in gfq for b in gfq]
    triples += [(0, 1, b) for b in gfq]
    triples += [(0, 0, 1)]
    for lam, alp, bet in triples:
        M = [
            [
                F.add(
                    F.mul(lam, mats[0][r][c]),
                    F.add(F.mul(alp, mats[1][r][c]), F.mul(bet, mats[2][r][c])),
                )
                for c in range(8)
            ]
            for r in range(8)
        ]
        key = quadric_type(F, sym_diagonalize(F, M))
        census[key] = census.get(key, 0) + 1
    return census


def expected_net_census(q: int, i: int, j: int) -> dict:
    """The three-case census, with the same branch correction as expected_Yj."""
    if j not in (i, q + 1 - i):
        return {(6, "elliptic"): 2 * (q + 1), (8, "hyperbolic"): q**2 - q - 1}
    big_cones = (j == i and q % 4 == 3) or (j == q + 1 - i and q % 4 == 1)
    if big_cones:
        return {
            (4, "hyperbolic"): 1,
            (6, "elliptic"): 3 * q + 1,
            (8, "hyperbolic"): q**2 - 2 * q - 1,
        }
    return {
        (4, "hyperbolic"): 1,
        (6, "elliptic"): q + 1,
        (8, "hyperbolic"): q**2 - 1,
    }


# -- the known quasi-Hermitian constructions ---------------------------------


def build_V1(geom: Geometry, z: int = 1) -> dict:
    """Tangent-plane surgery on the Hermitian surface.

    Removes the q+1 generators through a curve point and glues back q+1
    lines of its tangent plane, z of them generators (least line indices
    first).
    """
    q = geom.F.q
    if not 0 <= z <= q + 1:
        raise ValueError(f"z={z} out of range 0..{q + 1}")
    lt = geom.lines()
    herm = V.hermitian_set(geom)
    p0 = geom.point_index((1, 0, 0, 0))
    plane = geom.perp_unitary(p0)
    on = geom.plane_points(plane)
    lines_thru = sorted(
        {lt.line_index(geom.pts[p0], geom.pts[x]) for x in on if x != p0}
    )
    pts_of = {li: lt.line_points(li) for li in lines_thru}
    gens = [li for li in lines_thru if herm[pts_of[li]].all()]
    non_gens = [li for li in lines_thru if li not in set(gens)]
    assert len(gens) == q + 1
    chosen = gens[:z] + non_gens[: q + 1 - z]
    mask = herm.copy()
    for gi in gens:
        mask[pts_of[gi]] = False
    for li in chosen:
        mask[pts_of[li]] = True
    return {"mask": mask, "chosen": chosen, "generators": gens, "plane": plane}


def expected_V1_census(q: int, z: int) -> dict:
    lines = z * q**3 + q + 1
    hist: dict = {}
    hist[z] = hist.get(z, 0) + q**5
    hist[q + 1] = hist.get(q + 1, 0) + z * q**2 + 1
    if q + 1 - z:
        hist[1] = hist.get(1, 0) + (q + 1 - z) * q**2
    return {"lines": lines, "hist": hist}


def admissible_V2_params(F):
    """Least (alpha, beta) with alpha != 0, beta outside GF(q), and
    4 alpha^(q+1) + (beta^q - beta)^2 nonzero."""
    for alpha in range(1, F.q2):
        for beta in range(F.q2):
            if F.in_gfq[beta]:
                continue
            d = F.sub(F.frobenius(beta), beta)
            val = F.add(F.mul(4 % F.p, F.norm(alpha)), F.mul(d, d))
            if val != 0:
                return alpha, beta
    raise RuntimeError("no admissible (alpha, beta)")


def build_V2(geom: Geometry, alpha: int | None = None, beta: int | None = None) -> dict:
    """The additive-curve construction: an affine graph condition plus a
    Hermitian cone at infinity."""
    F = geom.F
    if alpha is None or beta is None:
        alpha, beta = admissible_V2_params(F)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if F.in_gfq[beta]:
        raise ValueError("beta must lie outside GF(q)")
    d = F.sub(F.frobenius(beta), beta)
    if F.add(F.mul(4 % F.p, F.norm(alpha)), F.mul(d, d)) == 0:
        raise ValueError("4 alpha^(q+1) + (beta^q - beta)^2 must be nonzero")
    P = geom.pts
    nm = F.norm_t
    fr = F.frob_t
    sq = F.pow_table(2)
    x, y, zc = P[:, 1], P[:, 2], P[:, 3]
    bq_b = F.neg(d)  # beta - beta^q = -(beta^q - beta)
    g = F.add_t[fr[zc], F.neg_t[zc]]
    g = F.add_t[g, F.mul_t[F.frobenius(alpha), F.add_t[sq[fr[x]], sq[fr[y]]]]]
    g = F.add_t[g, F.neg_t[F.mul_t[alpha, F.add_t[sq[x], sq[y]]]]]
    g = F.add_t[g, F.mul_t[bq_b, F.add_t[nm[x], nm[y]]]]
    affine = (P[:, 0] == 1) & (g == 0)
    infinity = (P[:, 0] == 0) & (F.add_t[nm[x], nm[y]] == 0)
    return {"mask": affine | infinity, "alpha": alpha, "beta": beta}


def expected_V2_census(q: int) -> dict:
    if q % 4 == 1:
        # the published line count reads 2q^2+q+1, but the histogram it
        # sits next to double-counts to (q^2+1)(2q^3+q+1) incidences
        return {
            "lines": 2 * q**3 + q + 1,
            "hist": {2: q**5, q + 1: 2 * q**2 + 1, 1: q**3 - q**2},
        }
    return {
        "lines": q + 1,
        "hist": {0: q**5, 1: q**3 + q**2, q + 1: 1},
    }


def expected_V4_census(q: int) -> dict:
    """Line census of S_1 + H2: no contained line through a point of
    S_1 minus the curve, two through each H2 point, q+1 through each
    curve point."""
    size = G.expected_orbit_sizes(q)
    return {
        "lines": (q + 1) * (q**2 + 1),
        "hist": {0: size["S1"], 2: size["H2"], q + 1: size["O"]},
    }


def baer_coordinates(geom: Geometry):
    """Baer parametrization (a, b0, b1, c) of the subgeometry points.

    The canonical leading-one representative need not have the shape
    (a, b, b^q, c); a tau-fixed vector representative always does, and
    P + tau(P) (or i*P + tau(i*P) when that vanishes) is one.
    """
    F = geom.F
    sig = V.sigma_set(geom)
    idx = np.flatnonzero(sig)
    P = geom.pts[idx]
    w = F.add_t[P, geom.tau_rows(P)]
    dead = ~(w != 0).any(axis=1)
    if dead.any():
        iP = F.mul_t[F.i_elem, P[dead]]
        w[dead] = F.add_t[iP, geom.tau_rows(iP)]
    assert F.in_gfq[w[:, 0]].all() and F.in_gfq[w[:, 3]].all()
    assert (F.frob_t[w[:, 1]] == w[:, 2]).all()
    params = np.stack(
        [w[:, 0], F.x0_t[w[:, 1]], F.x1_t[w[:, 1]], w[:, 3]], axis=1
    )
    return idx, params


def baer_quadric(geom: Geometry, kind: str) -> np.ndarray:
    """A nondegenerate quadric of the Baer subgeometry.

    kind 'elliptic' is the curve itself; 'hyperbolic' is the zero set of
    a*c = b0*b1 in the Baer parametrization (a, b0 + i*b1, ..., c).
    """
    if kind == "elliptic":
        return V.curve_set(geom)
    if kind != "hyperbolic":
        raise ValueError("kind must be 'elliptic' or 'hyperbolic'")
    F = geom.F
    idx, pr = baer_coordinates(geom)
    val = F.add_t[F.mul_t[pr[:, 0], pr[:, 3]], F.neg_t[F.mul_t[pr[:, 1], pr[:, 2]]]]
    mask = np.zeros(geom.n_points, dtype=bool)
    mask[idx[val == 0]] = True
    assert mask.sum() == (F.q + 1) ** 2  # hyperbolic quadric of PG(3, q)
    return mask


def build_V3(geom: Geometry, kind: str = "elliptic") -> dict:
    """Union of the extended sublines meeting a Baer quadric in 1 or q+1
    points."""
    _require_line_scale(geom)
    q = geom.F.q
    quad = baer_quadric(geom, kind)
    lt = geom.lines()
    pts = lt.all_points()
    sig = V.sigma_set(geom)
    ext = np.flatnonzero(sig[pts].sum(axis=1) == q + 1)
    meets = quad[pts[ext]].sum(axis=1)
    chosen = ext[(meets == 1) | (meets == q + 1)]
    mask = np.zeros(geom.n_points, dtype=bool)
    mask[pts[chosen].ravel()] = True
    return {"mask": mask, "lines": chosen, "quadric": quad}


def check_V3_bounds(geom: Geometry, built: dict) -> dict:
    """Lower bounds of the covering construction: at least (q+1)(q^2+1)
    contained lines, one through each outer point, q+1 through each Baer
    point."""
    q = geom.F.q
    mask = built["mask"]
    census = lines_in_set(geom, mask)
    sig = V.sigma_set(geom)
    lt = geom.lines()
    through = np.zeros(geom.n_points, dtype=np.int64)
    if len(census.contained_idx):
        through = np.bincount(
            lt.all_points()[census.contained_idx].ravel(), minlength=geom.n_points
        )
    inner = mask & sig
    outer = mask & ~sig
    return {
        "census": census,
        "lines_ok": census.contained >= (q + 1) * (q**2 + 1),
        "outer_ok": bool((through[outer] >= 1).all()) and int(outer.sum()) == q**5 - q,
        "inner_ok": bool((through[inner] >= q + 1).all())
        and int(inner.sum()) == (q + 1) * (q**2 + 1),
    }


def verify_known(geom: Geometry, kind: str, z: int = 1) -> dict:
    """Build one known construction (V1, V2 or V3) and check it.

    Every construction must be quasi-Hermitian; V1 and V2 must also meet
    their line census, V3 (on both Baer quadrics) its covering bounds.
    """
    q = geom.F.q
    if kind == "V3":
        quadrics = {}
        for quad in ("elliptic", "hyperbolic"):
            built = build_V3(geom, quad)
            chk = check_V3_bounds(geom, built)
            quasi = QH.verify_quasi_hermitian(geom, built["mask"])
            quadrics[quad] = {
                "is_quasi": quasi["is_quasi"],
                "contained_lines": chk["census"].contained,
                "bounds_ok": chk["lines_ok"] and chk["outer_ok"] and chk["inner_ok"],
            }
        ok = all(r["is_quasi"] and r["bounds_ok"] for r in quadrics.values())
        return {"quadrics": quadrics, "ok": ok}
    if kind == "V1":
        built = build_V1(geom, z)
        want = expected_V1_census(q, z)
        out = {"z": z}
    elif kind == "V2":
        built = build_V2(geom)
        want = expected_V2_census(q)
        out = {"alpha": built["alpha"], "beta": built["beta"]}
    else:
        raise ValueError(f"kind must be V1, V2 or V3, not {kind!r}")
    census = lines_in_set(geom, built["mask"])
    out.update(
        ok=QH.verify_quasi_hermitian(geom, built["mask"])["is_quasi"]
        and census.contained == want["lines"]
        and census.per_point_hist == want["hist"],
        contained_lines=census.contained,
        expected_lines=want["lines"],
        histogram={str(k): v for k, v in census.per_point_hist.items()},
    )
    return out


# -- Klein correspondence ----------------------------------------------------


def exterior_square(F, M) -> list:
    """6x6 matrix acting on Pluecker rows for the column action P -> M.P.

    With u' = u.M^t on basis rows, the induced map on (p12,...,p34) is
    p' = p.W with W[(i,j),(k,l)] = M[k][i]M[l][j] - M[l][i]M[k][j].
    """
    W = [[0] * 6 for _ in range(6)]
    for r, (i, j) in enumerate(PAIRS):
        for c, (k, l) in enumerate(PAIRS):
            W[r][c] = F.sub(
                F.mul(M[k][i], M[l][j]), F.mul(M[l][i], M[k][j])
            )
    return W


def klein_matrix_published(F, A) -> list:
    """The published 6x6 line action of a 2x2 matrix, entry for entry."""
    a, b, c, d = A
    delta = G.mat2_det(F, A)
    if delta == 0:
        raise ValueError("singular matrix")
    fr = F.frobenius
    dq1 = F.pow(delta, F.q - 1)
    dinv = F.inv(delta)
    aq, bq, cq, dq = fr(a), fr(b), fr(c), fr(d)
    mid1 = F.mul(
        F.sub(F.mul(F.norm_t[a], F.norm_t[d]), F.mul(F.norm_t[b], F.norm_t[c])),
        dinv,
    )
    mid2 = F.mul(
        F.sub(
            F.mul(F.mul(aq, b), F.mul(c, dq)), F.mul(F.mul(a, bq), F.mul(cq, d))
        ),
        dinv,
    )
    mul, neg = F.mul, F.neg
    return [
        [F.pow(aq, 2), 0, mul(aq, bq), neg(mul(aq, bq)), 0, F.pow(bq, 2)],
        [0, mul(F.pow(a, 2), dq1), mul(mul(a, b), dq1), mul(mul(a, b), dq1),
         neg(mul(F.pow(b, 2), dq1)), 0],
        [mul(aq, cq), mul(mul(a, c), dq1), mid1, mid2,
         neg(mul(mul(b, d), dq1)), mul(bq, dq)],
        [neg(mul(aq, cq)), mul(mul(a, c), dq1), mid2, mid1,
         neg(mul(mul(b, d), dq1)), neg(mul(bq, dq))],
        [0, neg(mul(F.pow(c, 2), dq1)), neg(mul(mul(c, d), dq1)),
         neg(mul(mul(c, d), dq1)), mul(F.pow(d, 2), dq1), 0],
        [F.pow(cq, 2), 0, mul(cq, dq), neg(mul(cq, dq)), 0, F.pow(dq, 2)],
    ]


def apply_pluecker(F, plk, W):
    out = []
    for c in range(6):
        acc = 0
        for r in range(6):
            acc = F.add(acc, F.mul(plk[r], W[r][c]))
        out.append(acc)
    return out


def klein_point(F, omega: int):
    return (0, omega, 1, 0, 0, 1)


def on_klein_quadric(F, y) -> bool:
    t = F.sub(F.mul(y[0], y[5]), F.mul(y[1], y[4]))
    return F.add(t, F.mul(y[2], y[3])) == 0


def klein_equivariance_report(geom: Geometry, A) -> dict:
    """Validate the published 6x6 line action against the exterior square.

    The published matrix acts on column vectors in the Pluecker basis
    (p12, p13, p14, p23, -p24, p34); transposing and flipping the sign
    of the fifth coordinate must reproduce the exterior square of the
    Kronecker image up to a scalar.  Any residual mismatch is reported.
    """
    F = geom.F
    Wext = exterior_square(F, G.kron_action(F, A))
    Wpap = klein_matrix_published(F, A)
    sgn = (1, 1, 1, 1, F.neg(1), 1)
    conv = [
        [F.mul(F.mul(sgn[r], sgn[c]), Wpap[c][r]) for c in range(6)]
        for r in range(6)
    ]
    scale = None
    for r in range(6):
        for c in range(6):
            if conv[r][c]:
                scale = F.mul(Wext[r][c], F.inv(conv[r][c]))
                break
        if scale is not None:
            break
    diffs = []
    for r in range(6):
        for c in range(6):
            if Wext[r][c] != F.mul(scale, conv[r][c]):
                diffs.append((r, c, Wext[r][c], F.mul(scale, conv[r][c])))
    return {"proportional": not diffs, "scale": scale, "mismatches": diffs}


def klein_generators(geom: Geometry):
    F = geom.F
    mats = [G.kron_action(F, A) for A in G.sl2_generators(F)]
    mats.append(G.kron_action(F, (1, 0, 0, F.xi)))
    return [exterior_square(F, M) for M in mats]


def _line_perms(geom: Geometry):
    def build():
        return [line_perm(geom, W) for W in klein_generators(geom)]

    return V._cached(geom, "line_perms", build)


def klein_orbit_length(geom: Geometry, omega: int) -> int:
    """Orbit length of the Klein point (0, omega, 1, 0, 0, 1) under the
    line action of the full curve stabilizer."""
    F = geom.F
    start = klein_point(F, omega)
    assert on_klein_quadric(F, start)
    lt = geom.lines()
    seed = int(
        lt.lookup(geom.canonicalize_rows(np.array([start], dtype=np.int16)))[0]
    )
    seen = np.zeros(geom.n_lines, dtype=bool)
    return len(G.close_orbit(_line_perms(geom), seed, seen))


def expected_klein_orbit_length(q: int, omega: int) -> int:
    """q^6 - q^2 for omega in {0, 1}, half of that otherwise."""
    length = q**6 - q**2
    return length if omega in (0, 1) else length // 2


# -- the full line-orbit census ----------------------------------------------


def line_perm(geom: Geometry, W) -> np.ndarray:
    """Permutation of line indices induced by a 6x6 Pluecker action."""
    F = geom.F
    lt = geom.lines()
    plk = lt.pluecker
    cols = []
    for c in range(6):
        acc = F.mul_t[plk[:, 0], W[0][c]]
        for r in range(1, 6):
            acc = F.add_t[acc, F.mul_t[plk[:, r], W[r][c]]]
        cols.append(acc)
    img = geom.canonicalize_rows(np.stack(cols, axis=1))
    return lt.lookup(img)


def line_orbit_census(geom: Geometry) -> dict:
    """Full decomposition of the lines under the curve stabilizer, with
    tags for the families identified elsewhere."""
    _require_line_scale(geom)
    q = geom.F.q
    lt = geom.lines()
    perms = _line_perms(geom)
    orbit_id = G.orbits_from_perms(perms, geom.n_lines)
    n = int(orbit_id.max()) + 1
    sizes = np.bincount(orbit_id, minlength=n)
    tags: dict = {}

    def tag(line_idx, name):
        oid = int(orbit_id[line_idx])
        tags.setdefault(oid, [])
        if name not in tags[oid]:
            tags[oid].append(name)

    F = geom.F
    # ruling tangents of the two rational curves
    tag(lt.line_index((1, 0, 0, 0), (0, 1, 0, 0)), "C-tangents")
    tag(lt.line_index((1, 0, 0, 0), (0, 0, 1, 0)), "C'-tangents")
    census = extended_subline_census(geom)
    for name in ("secant", "external", "tangent"):
        if len(census[name]):
            tag(int(census[name][0]), f"{name}-sublines")
    fam = special_lines(geom, None)
    tag(int(fam["lines"][0]), "L(H2)")
    herm = V.hermitian_set(geom)
    inside = herm[lt.all_points()].all(axis=1)
    lmask = np.zeros(geom.n_lines, dtype=bool)
    lmask[fam["lines"]] = True
    others = np.flatnonzero(inside & ~lmask)
    for li in others:
        tag(int(li), "H-generators")
    for k in V.middle_k(q):
        famk = special_lines(geom, k)
        tag(int(famk["lines"][0]), f"L_{k}")
    for omega in range(geom.F.q2):
        plk = np.array([klein_point(F, omega)], dtype=np.int16)
        li = int(lt.lookup(geom.canonicalize_rows(plk))[0])
        tag(li, f"R_omega({omega})")
    return {
        "n_orbits": n,
        "sizes": sizes.tolist(),
        "orbit_id": orbit_id,
        "tags": tags,
        "conjectured": 2 * q**2 + 2 * q + 4,
    }
