"""Unitary GHZ synthesis by breadth-first expansion.

Growing's walk is the op source of the circuit it builds: the circuit emits
each op through its one schedule before the walk draws the next, so the
walk reads the schedule's layers to pick each parent. It starts with a star
GHZ state at the highest-degree node, prepared by merging's
`build_star_ghz`, and then walks the breadth-first layers outward: each
layer is the sorted set of not-yet-included neighbors of the previous one,
and every node of it is entangled into the state with a CX from an already
included neighbor. An `included` bytearray marks the earlier layers, so the
walk touches each edge a constant number of times. No measurements, no
resets: exactly N - 1 CX gates.
"""

from __future__ import annotations

from collections.abc import Iterator

from .circuit import CX, Circuit, Operation
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
    n = g.node_count
    adj = g.adjacency

    def walk(last: list[int]) -> Iterator[Operation]:
        degrees = [len(ns) for ns in adj]
        start = degrees.index(max(degrees))  # the lowest of the highest-degree nodes
        layer = adj[start]
        yield from build_star_ghz(Star(start, layer))
        included = bytearray(n)
        for u in (start, *layer):
            included[u] = 1
        while layer:
            frontier = sorted({v for w in layer for v in adj[w] if not included[v]})
            for v in frontier:
                yield CX(min([(last[w], w) for w in adj[v] if included[w]])[1], v)
            for v in frontier:
                included[v] = 1
            layer = frontier

    return Circuit(n, 0, walk)
