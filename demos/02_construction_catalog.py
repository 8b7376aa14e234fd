"""Tour of the construction catalog.

Each family has a fixed canonical labeling, so every run serializes to the
same bytes; vertex and edge counts follow closed forms that the constructors
assert internally.
"""

from toursid.constructions import (
    all_orientations_union,
    cycle_with_chord,
    d_family,
    directed_cycle,
    directed_path,
    impartial_four_tree,
    iterated_balanced_star,
    star,
    subdivided_star_orientation,
    subset_bipartite,
    transitive_minus_edge,
    tree_anti_orientation,
    unique_hom_digraph,
)
from toursid.formats import dgf_dumps
from toursid.graphs import UndirectedGraph

rows = [
    directed_path(3),
    directed_cycle(5),
    transitive_minus_edge(4, 1, 4),
    star(2, 2),
    iterated_balanced_star(7),
    d_family(2),
    cycle_with_chord(3),
    subdivided_star_orientation(2),
    impartial_four_tree(),
]
print("family, parameters -> (vertices, edges)")
for d in rows:
    meta = d.meta or {}
    print(f"  {meta.get('family')} {meta.get('params')} -> ({d.n}, {d.edge_count})")

print()
print("== the subset gadget: every subset of A appears as an out-neighborhood ==")
gadget, a_part = subset_bipartite(2)
print(f"parts |A|=2, |B|=4: {gadget.n} vertices, {gadget.edge_count} edges")
for b in range(2, 6):
    nbrs = [v for v in a_part if gadget.has_edge(b, v)]
    print(f"  B-vertex {b} points at A-subset {set(nbrs) or '{}'}")

print()
print("== the rigid digraph behind the at-most-one-homomorphism bound ==")
rigid = unique_hom_digraph(16)
print(f"16 vertices, {rigid.edge_count} edges; parts s=4, t=11 plus the hub")

print()
print("== orientations of a whole undirected graph, bundled ==")
path2 = UndirectedGraph(3, [(0, 1), (1, 2)])
bundle = all_orientations_union(path2)
print(f"all 4 orientations of the 2-edge path: {bundle.n} vertices, {bundle.edge_count} edges")

print()
print("== orienting trees with at most one even-degree vertex ==")
spider = UndirectedGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
oriented = tree_anti_orientation(spider)
print(
    f"4-leaf star: center in-degree {oriented.in_degree(0)}, "
    f"out-degree {oriented.out_degree(0)} (balanced by the pairing rule)"
)

print()
print("== canonical serialization (DGF/1) ==")
print(dgf_dumps(d_family(2), header="constructed: d-family k=2"), end="")
