"""The two synthesis routes, side by side on the same layout.

The merging route partitions the layout into stars, prepares each star as a
small GHZ state, and fuses the pieces with mid-circuit measurements and
feedforward corrections; measured qubits are reset and re-entangled, so the
final state covers every qubit. The growing route is purely unitary: one
initial star, then breadth-first CX expansion.
"""

from ghz_synth import (
    HighestDegree,
    ScalingFactor,
    certify,
    count_2q,
    count_measurements,
    depth,
    eagle_127,
    export_qasm,
    random_connected_subgraph,
    select_stars,
    synthesize_growing,
    synthesize_merging,
)

g, _ = random_connected_subgraph(eagle_127(), 16, seed=12)

stars = select_stars(g, HighestDegree())
print("star partition (center: leaves):")
for s in stars:
    print(f"  {s.center}: {sorted(s.leaves)}")

merge = synthesize_merging(g, HighestDegree())
grow = synthesize_growing(g)

print(f"\n{'':12} {'depth':>6} {'CX':>4} {'measurements':>13}")
for name, c in (("merging", merge), ("growing", grow)):
    print(f"{name:12} {depth(c):>6} {count_2q(c):>4} {count_measurements(c):>13}")

# certify raises unless a circuit fits its layout: every CX on an edge, the
# count identity CX = N - 1 + measurements (growing measures nothing; each
# merge costs one measurement and one CX over the N - 1, since its fuse and
# re-add CX take the place of one tree edge), and exact GHZ output.
certify(grow, g)
certify(merge, g)
print("\nboth circuits certified on the layout")

# Different star-size targets trade depth against measurement overhead.
print("\nscaling-factor trade-off on a denser random graph:")
from ghz_synth import connected_erdos_renyi

er = connected_erdos_renyi(60, 0.5, seed=4)
for f in (0.7, 1.0, 1.3):
    c = synthesize_merging(er, ScalingFactor(f))
    print(f"  f={f}: depth {depth(c):>3}, measurements {count_measurements(c)}")

print("\nOpenQASM 3 export of a small merging circuit:")
small, _ = random_connected_subgraph(eagle_127(), 5, seed=1)
print(export_qasm(synthesize_merging(small, HighestDegree())))
