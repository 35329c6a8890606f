"""Point orbits of the curve stabilizers on PG(3, q^2).

Decomposes the point set under K ~ PSL(2, q^2), shows the 2q+4 labelled
orbits with sizes and stabilizer orders, then the merge to q+4 orbits
under the full stabilizer G ~ PGL(2, q^2).
"""

from quasiherm import geometry_for_q, group as G

for q in (3, 5):
    g = geometry_for_q(q)
    dec = G.orbit_decomposition(g, "K")
    print(f"=== q = {q}: K has {dec.n_orbits} point orbits (2q+4 = {2*q+4}) ===")
    rows = sorted(zip(dec.labels, dec.sizes, dec.reps), key=lambda r: (r[1], r[0]))
    for lab, size, rep in rows:
        stab = G.stabilizer_order(g, rep, "K")
        coords = [int(x) for x in g.pts[rep]]
        print(f"  {lab:7s} size {size:5d}  stabilizer {stab:3d}  rep {coords}")
        assert stab * size == G.group_order(q, "K")
    assert dec.n_orbits == G.expected_orbit_count(q, "K")

    decG = G.orbit_decomposition(g, "G")
    same = G.same_partition(decG, G.orbit_decomposition(g, "Gp"))
    print(f"under G: {decG.n_orbits} orbits (q+4 = {q+4}); "
          f"G' gives the same decomposition: {same}")
    assert decG.n_orbits == G.expected_orbit_count(q, "G") and same
    print()
