"""Connectivity-graph layouts: the IBM Eagle chip, procedural heavy-hex
lattices, rectangular grids, and connected Erdős–Rényi random graphs, plus
random connected subgraph sampling.

`LayoutGraph(n, edges)` checks its input, since it is where a graph from the
Python API or a JSON document enters. Every generator builds a graph that is
valid by construction and skips those checks; Eagle is `heavy_hex(7, 15)`.
The random generators document their draw order, which is part of their
contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import starmap

import numpy as np

from . import schema
from .rng import BoundedDraws, make_rng

__all__ = [
    "LayoutGraph",
    "eagle_127",
    "heavy_hex",
    "rect_grid",
    "connected_erdos_renyi",
    "random_connected_subgraph",
    "average_degree",
]


@dataclass(frozen=True)
class LayoutGraph:
    """Simple connected undirected graph on qubits 0..node_count-1.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v, and
    adjacency as one sorted tuple of neighbors per node. Instances are
    immutable and connected, so no consumer checks or rebuilds either.

    The constructor is where outside input enters, from the Python API and
    from `from_json`, so it checks every edge once, sorts them, builds the
    adjacency once and searches it from node 0. A bad graph, a disconnected
    one included, raises InputError whose message starts with the JSON
    field: n, edges[i] for a malformed edge i, or edges. The generators,
    whose graphs are valid by construction, build through `_valid` instead,
    which only indexes them.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = schema.check_count(self.node_count)
        object.__setattr__(self, "node_count", n)
        edges = tuple(sorted(starmap(_pair, enumerate(self.edges))))
        prev = None  # sorted, so a duplicate sits right after its twin
        for e in edges:
            u, v = e
            if u == v:
                raise schema.InputError(f"edges: self-loop on node {u}")
            if not (0 <= u < v < n):
                raise schema.InputError(f"edges: edge ({u}, {v}) out of range or unordered")
            if e == prev:
                raise schema.InputError(f"edges: duplicate edge ({u}, {v})")
            prev = e
        object.__setattr__(self, "edges", edges)
        if len(edges) < n - 1:  # refused before anything of size n is built
            raise schema.InputError(
                f"edges: layout graph must be connected; {n} nodes need at least "
                f"{n - 1} edges, got {len(edges)}"
            )
        adj = self._index()
        seen = bytearray(n)
        seen[0] = 1
        todo = [0]
        reached = 1
        while todo and reached < n:  # a dense graph is reached early
            for v in adj[todo.pop()]:
                if not seen[v]:
                    seen[v] = 1
                    reached += 1
                    todo.append(v)
        if reached < n:
            raise schema.InputError(
                f"edges: layout graph must be connected; node {seen.index(0)} "
                "is not reached from node 0"
            )

    @classmethod
    def _valid(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "LayoutGraph":
        """The graph of n nodes and these edges, built without a check.

        The caller guarantees what the constructor would check: n is a
        count, the edges are sorted pairs of ints u < v < n with no
        duplicate, and the graph is connected.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "node_count", n)
        object.__setattr__(g, "edges", edges)
        g._index()
        return g

    def _index(self) -> list[list[int]]:
        """Set the adjacency from the sorted edges; return it as lists."""
        adj = [[] for _ in range(self.node_count)]
        # in sorted edge order, node u meets its lower neighbors (a, u) in
        # ascending a before its higher ones (u, b) in ascending b
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))
        return adj

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _node(self, u: int) -> int:
        """u itself if it is a node, 0 <= u < n; else IndexError."""
        if not 0 <= u < self.node_count:
            raise IndexError(f"node {u} is not in a layout of n = {self.node_count} nodes")
        return u

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted neighbors of node u."""
        return self.adjacency[self._node(u)]

    def degree(self, u: int) -> int:
        return len(self.adjacency[self._node(u)])

    def has_edge(self, u: int, v: int) -> bool:
        a, b = sorted((self._node(u), self._node(v)))
        return b in self.adjacency[a]

    def to_json(self) -> str:
        return json.dumps({"n": self.node_count, "edges": [list(e) for e in self.edges]})

    @classmethod
    def from_json(cls, text: str) -> "LayoutGraph":
        """Parse a layout; InputError names the missing, mistyped or bad field."""
        n, edges = schema.read(schema.parse(text, "layout"), {"n": int, "edges": list}).values()
        return cls(n, edges)


def _pair(i: int, e) -> tuple[int, int]:
    """Edge i, e, as a pair of ints; else InputError naming it by its index."""
    if not (isinstance(e, (tuple, list)) and len(e) == 2 and all(map(schema.is_int, e))):
        raise schema.InputError(f"edges[{i}]: expected a pair of integers, got {e!r}")
    u, v = e
    return int(u), int(v)


@lru_cache(maxsize=None)
def eagle_127() -> LayoutGraph:
    """The 127-qubit IBM Eagle r3 heavy-hex coupling map: heavy_hex(7, 15), built once."""
    return heavy_hex(7, 15)


def heavy_hex(rows: int, cols: int) -> LayoutGraph:
    """Heavy-hex lattice of `rows` chains of `cols` qubits.

    A bridge qubit joins chains r and r + 1 at every column c with
    c = 0 (mod 4) when r is even and c = 2 (mod 4) when r is odd. Corner
    qubits that no bridge reaches (degree 1) are dropped. Qubits are numbered
    row by row: each chain left to right, then the bridges below it. This is
    the IBM numbering: heavy_hex(7, 15) is the published Eagle r3 coupling
    map edge for edge.

    The graph has no duplicate edge, and its bridges connect its chains, so
    it is built without the constructor's checks. rows, cols and rows x cols
    are checked before anything is built, with the messages of rect_grid,
    and the exact node count before the graph is indexed.
    """
    rows = schema.check_count(rows, "rows")
    cols = schema.check_count(cols, "cols", 3)
    _check_area(rows, cols)

    def bridged(r: int, c: int) -> bool:
        return 0 <= r < rows - 1 and c % 4 == 2 * (r % 2)

    edges = []
    n = 0
    above: dict[int, int] = {}  # column -> qubit of the previous chain
    bridges: list[tuple[int, int]] = []  # (column, bridge qubit) below it
    for r in range(rows):
        chain: dict[int, int] = {}
        for c in range(cols):
            corner = r in (0, rows - 1) and c in (0, cols - 1)
            if corner and not (bridged(r - 1, c) or bridged(r, c)):
                continue
            chain[c] = n
            n += 1
            if c - 1 in chain:
                edges.append((chain[c - 1], chain[c]))
        for c, b in bridges:
            edges += [(above[c], b), (b, chain[c])]
        bridges = []
        for c in range(cols):
            if bridged(r, c):
                bridges.append((c, n))
                n += 1
        above = chain
    return LayoutGraph._valid(schema.check_count(n), tuple(sorted(edges)))


def _check_area(rows: int, cols: int) -> None:
    """Refuse a rows x cols lattice above MAX_N cells before any edge is built."""
    if rows * cols > schema.MAX_N:
        raise schema.InputError(f"rows: rows x cols must be <= {schema.MAX_N}, got {rows}x{cols}")


def rect_grid(rows: int, cols: int) -> LayoutGraph:
    """rows x cols lattice; node (r, c) has index r*cols + c.

    A range error's message starts with the bad parameter's name.
    """
    rows = schema.check_count(rows, "rows")
    cols = schema.check_count(cols, "cols")
    _check_area(rows, cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return LayoutGraph._valid(rows * cols, tuple(edges))  # sorted, and connected by its rows


# Pairs per array draw in connected_erdos_renyi: bounds its working memory
# (a few tens of bytes per pair) whatever n is; one block covers n <= 724.
_ER_BLOCK_PAIRS = 1 << 18


def _tree_parents(rng: np.random.Generator, n: int) -> np.ndarray:
    """The parent of each node of a uniform recursive tree on n nodes, -1 for node 0.

    One `integers(0, np.arange(1, n))` call gives the values of the n - 1
    scalar draws `integers(0, i)`, i = 1..n-1, and leaves the stream where
    they would.
    """
    return np.concatenate(([-1], rng.integers(0, np.arange(1, n))))


def connected_erdos_renyi(n: int, p: float, seed: int) -> LayoutGraph:
    """Connected random graph on n nodes.

    A uniformly random recursive tree (node i > 0 attaches to a uniform
    node j < i) guarantees connectivity; every remaining pair is then joined
    independently with probability p. Identical (n, p, seed) reproduce the
    graph bit-for-bit.

    The draw order is part of that contract. One PCG64 stream seeded with
    `seed` first gives the tree: `integers(0, i)` for i = 1..n-1, in turn
    (see `_tree_parents`).
    It then gives one uniform per non-tree pair, in row-major u < v order
    ((0, 1), (0, 2), ..., (1, 2), ...), and the pair is an edge iff its
    uniform is < p. The uniforms are drawn with `random(k)` over blocks of
    whole rows, which yields the same stream as k scalar `random()` calls.

    A range error's message starts with the bad parameter's name.
    """
    n = schema.check_count(n)  # before any draw
    p = schema.check_probability(p, "p")
    rng = make_rng(seed)
    parent = _tree_parents(rng, n)
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2  # row-major index of pair (u, u + 1)
    edges = []
    u0 = 0
    while u0 < n - 1:
        # whole rows u0..u1-1, at most _ER_BLOCK_PAIRS pairs unless one row has more
        u1 = int(np.searchsorted(first, first[u0] + _ER_BLOCK_PAIRS, side="right")) - 1
        u1 = min(max(u1, u0 + 1), n - 1)
        u = np.repeat(rows[u0:u1], n - 1 - rows[u0:u1])
        v = np.arange(first[u0], first[u1]) - first[u] + u + 1
        hit = parent[v] == u  # tree pairs: edges, with no draw
        free = ~hit
        hit[free] = rng.random(np.count_nonzero(free)) < p
        edges += zip(u[hit].tolist(), v[hit].tolist())
        u0 = u1
    return LayoutGraph._valid(n, tuple(edges))  # row-major, and connected by the tree


def random_connected_subgraph(
    g: LayoutGraph, k: int, seed: int
) -> tuple[LayoutGraph, list[int]]:
    """Induced subgraph on k nodes grown by random accretion.

    Starts at a uniformly random node and repeatedly adds a uniformly random
    neighbor of the current node set, so the result is always connected.
    Returns the relabeled subgraph together with the list mapping new index
    -> original node index.

    The draw order is part of the contract. The draws are those of
    `make_rng(seed).integers(0, m)`, read by `rng.BoundedDraws` from one
    block of raw PCG64 words: first the start, m = n; then, for each node
    added, the index into the boundary list, m = its length. The boundary
    starts as the start's neighbors in ascending order. The node drawn at
    index i leaves it, the list's last entry taking its place, and the
    added node's neighbors that are neither chosen nor on the boundary are
    appended in ascending order.
    """
    k = schema.check_count(k, "k", high=g.node_count)
    draws = BoundedDraws(seed, k // 2 + 1)  # k draws of one 32-bit half each, and a spare
    start = draws.below(g.node_count)
    chosen = {start}
    adj = g.adjacency
    boundary = list(adj[start])
    in_boundary = set(boundary)
    while len(chosen) < k:
        idx = draws.below(len(boundary))
        v = boundary[idx]
        # swap-remove keeps the draw O(1); the draw is uniform over the
        # distinct boundary nodes regardless of list order
        boundary[idx] = boundary[-1]
        boundary.pop()
        in_boundary.discard(v)
        chosen.add(v)
        for w in adj[v]:
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
    # the source's sorted edges under the ascending relabel stay sorted, and
    # accretion keeps the node set connected
    return LayoutGraph._valid(k, tuple(edges)), mapping


def average_degree(g: LayoutGraph) -> float:
    """2*|edges| / node_count, correctly rounded."""
    return 2 * g.edge_count / g.node_count
