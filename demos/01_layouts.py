"""Connectivity layouts: the three graph families and subgraph sampling.

Every generator is deterministic given its parameters and seed, so the
numbers printed here are stable across runs and machines.
"""

from ghz_synth import (
    average_degree,
    connected_erdos_renyi,
    eagle_127,
    random_connected_subgraph,
    rect_grid,
)

# The 127-qubit heavy-hex chip layout, embedded as a static edge list.
eagle = eagle_127()
print("Eagle chip:", eagle.node_count, "qubits,", eagle.edge_count, "couplers")
print("  max degree:", max(eagle.degree(q) for q in range(eagle.node_count)))
print("  average degree:", average_degree(eagle))

# A rectangular lattice, the second hardware-style family.
grid = rect_grid(12, 9)
print("\n12x9 grid:", grid.node_count, "qubits,", grid.edge_count, "couplers")

# Connected Erdos-Renyi graphs model distributed architectures: a random
# recursive tree guarantees connectivity, then each remaining pair is added
# with probability p.
for p in (0.1, 0.5, 1.0):
    g = connected_erdos_renyi(30, p, seed=7)
    print(f"ER(30, p={p}): {g.edge_count} edges, avg degree {average_degree(g):.2f}")

# Benchmarks sample random connected subgraphs by accretion: start anywhere,
# repeatedly pull in a uniformly random neighbor of the current set.
sub, mapping = random_connected_subgraph(eagle, 40, seed=3)
print("\n40-qubit Eagle sample:", sub.edge_count, "couplers")
print("  original qubit indices:", mapping[:10], "...")
