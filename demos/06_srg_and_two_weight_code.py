"""Downstream objects: the strongly regular graph and the two-weight code.

Any two-character set yields an SRG on the q^8 affine points (adjacency:
the connecting line hits the set at infinity) and a projective two-weight
code.  The parameters depend only on size and character numbers, so the
new surfaces and the classical Hermitian surface are NOT separated here;
the line census of demo 05 is what tells them apart.
"""

from quasiherm import geometry_for_q, quasi as QH, srg, varieties as V

g = geometry_for_q(3)
mask = QH.assemble(g, QH.QuasiKind("SH2", j=1))

print("=== the graph of S1+H2 at q = 3 ===")
res = srg.graph_params(g, mask)  # every vertex pair, by an exact transform
print(f"  n = {res['n']}, k = {res['k']}, lambda = {res['lambda']}, mu = {res['mu']}")
assert res["srg_ok"]

wd = srg.weight_distribution(g, mask)
eig = srg.eigenvalue_params(g.Q, int(mask.sum()), wd)
print(f"  eigenvalue route from the code weights agrees: "
      f"k = {eig[0]}, lambda = {eig[1]}, mu = {eig[2]}")
assert eig == (res["k"], res["lambda"], res["mu"])

print()
print("=== the two-weight code ===")
direct = srg.weight_distribution_direct(g, mask)
print(f"  weights via plane sweep:       {wd}")
print(f"  weights via codeword listing:  {direct}")
assert wd == direct and len(wd) == 2

print()
herm = srg.graph_params(g, V.hermitian_set(g))
print(
    "the classical Hermitian surface gives the same parameters "
    f"(k={herm['k']}, lambda={herm['lambda']}, mu={herm['mu']}): "
    "SRG data alone cannot distinguish the constructions"
)
