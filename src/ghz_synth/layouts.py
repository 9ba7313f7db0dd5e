"""Connectivity-graph layouts: the IBM Eagle chip, rectangular grids, and
connected Erdős–Rényi random graphs, plus random connected subgraph sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import schema
from .rng import make_rng

__all__ = [
    "LayoutGraph",
    "eagle_127",
    "rect_grid",
    "connected_erdos_renyi",
    "random_connected_subgraph",
    "average_degree",
]


@dataclass(frozen=True)
class LayoutGraph:
    """Simple undirected connectivity graph on qubits 0..node_count-1.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v. Instances
    are immutable; adjacency is computed once on first use.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    _adj: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) out of range or unordered")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted neighbors of node u."""
        if self._adj is None:
            adj = {i: [] for i in range(self.node_count)}
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            object.__setattr__(
                self, "_adj", {i: tuple(sorted(ns)) for i, ns in adj.items()}
            )
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def has_edge(self, u: int, v: int) -> bool:
        a, b = min(u, v), max(u, v)
        return b in self.neighbors(a)

    def is_connected(self) -> bool:
        """BFS reachability from node 0."""
        seen = bytearray(self.node_count)
        seen[0] = 1
        frontier = [0]
        count = 1
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.neighbors(u):
                    if not seen[v]:
                        seen[v] = 1
                        count += 1
                        nxt.append(v)
            frontier = nxt
        return count == self.node_count

    def to_json(self) -> str:
        return json.dumps({"n": self.node_count, "edges": [list(e) for e in self.edges]})

    @classmethod
    def from_json(cls, text: str) -> "LayoutGraph":
        """Parse a layout; InputError names the missing or mistyped field."""
        obj = json.loads(text)
        n = schema.field(obj, "n", "", int, root="layout")
        edges = schema.field(obj, "edges", "", list, root="layout")
        for i, e in enumerate(edges):
            if not (isinstance(e, list) and len(e) == 2 and all(map(schema.is_int, e))):
                raise schema.InputError(f"edges[{i}]: expected a pair of integers, got {e!r}")
        return cls(n, tuple(map(tuple, edges)))


def _from_edge_set(n: int, edges) -> LayoutGraph:
    return LayoutGraph(n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))


@lru_cache(maxsize=None)
def eagle_127() -> LayoutGraph:
    """The 127-qubit IBM Eagle heavy-hex coupling map.

    Loaded from the edge list shipped with the package (one "u v" pair per
    line), taken from the published Eagle r3 coupling map.
    """
    text = resources.files("ghz_synth.data").joinpath("eagle_r3_edges.txt").read_text()
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    return _from_edge_set(127, edges)


def rect_grid(rows: int, cols: int) -> LayoutGraph:
    """rows x cols lattice; node (r, c) has index r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return _from_edge_set(rows * cols, edges)


def connected_erdos_renyi(n: int, p: float, seed: int) -> LayoutGraph:
    """Connected random graph on n nodes.

    A uniformly random recursive tree (node i > 0 attaches to a uniform
    node j < i) guarantees connectivity; every remaining pair is then joined
    independently with probability p. Identical (n, p, seed) reproduce the
    graph bit-for-bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = make_rng(seed)
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((j, i))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in edges:
                continue
            if rng.random() < p:
                edges.add((u, v))
    return _from_edge_set(n, edges)


def random_connected_subgraph(
    g: LayoutGraph, k: int, seed: int
) -> tuple[LayoutGraph, list[int]]:
    """Induced subgraph on k nodes grown by random accretion.

    Starts at a uniformly random node and repeatedly adds a uniformly random
    neighbor of the current node set, so the result is always connected.
    Returns the relabeled subgraph together with the list mapping new index
    -> original node index.
    """
    if not 1 <= k <= g.node_count:
        raise ValueError(f"k must lie in [1, {g.node_count}], got {k}")
    if not g.is_connected():
        raise ValueError("source graph must be connected")
    rng = make_rng(seed)
    start = int(rng.integers(0, g.node_count))
    chosen = {start}
    boundary = list(g.neighbors(start))
    in_boundary = set(boundary)
    while len(chosen) < k:
        idx = int(rng.integers(0, len(boundary)))
        v = boundary[idx]
        # swap-remove keeps the draw O(1); the draw is uniform over the
        # distinct boundary nodes regardless of list order
        boundary[idx] = boundary[-1]
        boundary.pop()
        in_boundary.discard(v)
        chosen.add(v)
        for w in g.neighbors(v):
            if w not in chosen and w not in in_boundary:
                boundary.append(w)
                in_boundary.add(w)
    mapping = sorted(chosen)
    index_of = {orig: new for new, orig in enumerate(mapping)}
    edges = [
        (index_of[u], index_of[v])
        for u, v in g.edges
        if u in chosen and v in chosen
    ]
    return _from_edge_set(k, edges), mapping


def average_degree(g: LayoutGraph) -> Fraction:
    """2*|edges| / node_count as an exact rational."""
    return Fraction(2 * g.edge_count, g.node_count)
