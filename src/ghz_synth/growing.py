"""Unitary GHZ synthesis by breadth-first expansion.

Starts with a star GHZ state at the highest-degree node and then walks the
breadth-first layers outward: each layer is the sorted set of not-yet-included
neighbors of the previous one, and every node of it is entangled into the
state with a CX from an already included neighbor. An `included` bytearray
marks the earlier layers, so the walk touches each edge a constant number of
times. No measurements, no resets: exactly N - 1 CX gates.
"""

from __future__ import annotations

from .circuit import CX, Circuit, Operation, Schedule
from .layouts import LayoutGraph
from .merging import Star, build_star_ghz

__all__ = ["synthesize_growing"]


def synthesize_growing(g: LayoutGraph) -> Circuit:
    """Synthesize the growing circuit for a connected layout.

    The start node is the highest-degree node (ties: lowest index). Frontier
    nodes are processed in breadth-first layers; each picks as parent the
    included neighbor whose qubit frees up earliest under ASAP scheduling
    (ties: lowest index). Deterministic.
    """
    if not g.is_connected():
        raise ValueError("layout graph must be connected")
    n = g.node_count
    start = max(range(n), key=lambda u: (g.degree(u), -u))

    star = Star(start, frozenset(g.neighbors(start)))
    ops: list[Operation] = build_star_ghz(star)
    schedule = Schedule(n, 0)
    for op in ops:
        schedule.emit(op)

    adj = [g.neighbors(u) for u in range(n)]
    included = bytearray(n)
    for u in star.nodes():
        included[u] = 1
    layer = sorted(star.leaves)
    while layer:
        frontier = sorted({v for w in layer for v in adj[w] if not included[v]})
        for v in frontier:
            parents = [w for w in adj[v] if included[w]]
            u = min(parents, key=lambda w: (schedule.last[w], w))
            ops.append(CX(u, v))
            schedule.emit(ops[-1])
        for v in frontier:
            included[v] = 1
        layer = frontier
    return Circuit(qubit_count=n, cbit_count=0, ops=ops)
