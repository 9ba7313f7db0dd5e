"""Measurement-based GHZ synthesis by merging star states.

The layout is partitioned into stars (a center plus adjacent leaves), each
star is prepared as a small GHZ state, and the pieces are then fused
pairwise in parallel rounds. One fuse consists of a CX across a bridge edge,
a Z measurement of the absorbed-side bridge qubit, a conditional X
correction on the rest of the absorbed piece, and a reset-plus-CX that
re-adds the measured qubit to the merged state.

`_assemble` is merging's synthesis walk: it prepares any pieces that
partition the layout and fuses them. It is the op source of the circuit it
builds, so every op goes through the circuit's own `Schedule` once, and the
walk reads that schedule's layers to pick bridges. Merging feeds it the
stars. Growing is an op source of its own (`growing.synthesize_growing`)
and shares only `build_star_ghz` with merging.

All choices (star order, leaf order, matching order, bridge edges) are
tie-broken by lowest node index, so synthesis is a pure function of the
layout and strategy.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain
from typing import ClassVar, Optional, Union, get_args, get_type_hints

from . import schema
from .circuit import CX, Circuit, CondX, H, MeasureZ, Operation, Reset, init_through_slots
from .layouts import LayoutGraph, average_degree

__all__ = [
    "HighestDegree",
    "ScalingFactor",
    "AbsoluteSize",
    "StarSelectionStrategy",
    "Star",
    "strategy_to_json",
    "strategy_from_json",
    "strategy_label",
    "strategy_from_label",
    "select_stars",
    "build_star_ghz",
    "plan_merges",
    "synthesize_merging",
]


@dataclass(frozen=True)
class HighestDegree:
    """Always pick the residual node of maximum residual degree."""

    kind: ClassVar[str] = "highest_degree"

    def target(self, g: LayoutGraph) -> int:
        # no residual degree reaches n, so "closest to n" is "highest", and
        # a star keeps all of the center's residual neighbors
        return g.node_count


@dataclass(frozen=True)
class ScalingFactor:
    """Target star degree = round(f * average degree of the input graph), at most n."""

    kind: ClassVar[str] = "scaling_factor"
    f: float

    def __post_init__(self):
        if not 0 < self.f < math.inf:
            raise schema.InputError(f"f: must be positive and finite, got {self.f}")
        object.__setattr__(self, "f", schema.plain(self.f))

    def target(self, g: LayoutGraph) -> int:
        # f > 0 and the average degree >= 0, so halves round up (away from 0);
        # a target of n or more picks HighestDegree's stars, so a product past
        # n, an infinite one included, is capped there before it is rounded
        return math.floor(min(self.f * average_degree(g), g.node_count) + 0.5)


@dataclass(frozen=True)
class AbsoluteSize:
    """Target star size s, i.e. target star degree s - 1."""

    kind: ClassVar[str] = "absolute_size"
    s: int

    def __post_init__(self):
        object.__setattr__(self, "s", schema.check_count(self.s, "s"))

    def target(self, g: LayoutGraph) -> int:
        return self.s - 1


StarSelectionStrategy = Union[HighestDegree, ScalingFactor, AbsoluteSize]

# A strategy class declares its kind (the JSON "strategy" value and the label
# prefix), its parameter as its dataclass field, if it has one, and its target
# star degree; StarSelectionStrategy lists the classes. The (de)serialisers
# read only these tables: the class of each kind, and the {field name: type}
# of each class's parameter, its JSON spec.
_STRATEGIES = {cls.kind: cls for cls in get_args(StarSelectionStrategy)}
_PARAMETERS = {cls: {f.name: get_type_hints(cls)[f.name] for f in fields(cls)}
               for cls in _STRATEGIES.values()}


def _declared(strategy: StarSelectionStrategy) -> tuple[str, dict[str, type]]:
    """The kind and the parameters of a strategy's class; TypeError for a non-strategy."""
    params = _PARAMETERS.get(type(strategy))
    if params is None:
        raise TypeError(f"unknown strategy {strategy!r}")
    return strategy.kind, params


def strategy_to_json(strategy: StarSelectionStrategy) -> dict:
    kind, params = _declared(strategy)
    return {"strategy": kind, **{name: getattr(strategy, name) for name in params}}


def strategy_from_json(obj: dict, path: str = "strategy") -> StarSelectionStrategy:
    """Inverse of strategy_to_json; InputError names the bad field below path."""
    return schema.read_tagged(obj, "strategy", _STRATEGIES, _PARAMETERS, path, "strategy kind")


def strategy_label(strategy: Optional[StarSelectionStrategy]) -> str:
    """Compact single-token form used in CSV output and CLI flags.

    A float parameter is written in the `g` format, to six significant digits.
    """
    if strategy is None:
        return ""
    label, params = _declared(strategy)
    for name, type_ in params.items():
        value = getattr(strategy, name)
        label += f"={value:g}" if type_ is float else f"={value}"
    return label


def strategy_from_label(label: str) -> StarSelectionStrategy:
    """The merging strategy of a label; InputError on a bad label.

    It inverts strategy_label up to the label's rounding: a scaling factor
    comes back to the six significant digits of its `g` format.
    """
    kind, eq, value = label.partition("=")
    cls = _STRATEGIES.get(kind)
    if cls is not None and (_PARAMETERS[cls] or not eq):  # no "=" without a parameter
        return schema.construct(
            repr(label), lambda: cls(*(type_(value) for type_ in _PARAMETERS[cls].values())))
    forms = [k + "".join(f"=<{p}>" for p in _PARAMETERS[c]) for k, c in _STRATEGIES.items()]
    raise schema.InputError(
        f"unknown strategy {label!r}; expected {', '.join(forms[:-1])}, or {forms[-1]}"
    )


@init_through_slots
@dataclass(frozen=True, slots=True)
class Star:
    """A center and its leaves, the leaves in ascending order."""

    center: int
    leaves: tuple[int, ...]

    def nodes(self) -> list[int]:
        """The star's nodes, ascending."""
        return sorted((self.center, *self.leaves))

    def prepare(self, last: list[int]) -> list[Operation]:
        """The star's GHZ preparation, as a piece of `_assemble`; it reads no layers."""
        return build_star_ghz(self)


def select_stars(g: LayoutGraph, strategy: StarSelectionStrategy) -> list[Star]:
    """Partition the nodes of g into stars, selected iteratively.

    Each step picks a center in the residual graph, the node whose residual
    degree is closest to strategy.target(g) (ties fall to the lowest node
    index), takes up to that many of its residual neighbors as leaves and
    removes the star from the residual. Isolated residual nodes end up as
    single-node stars.

    Centers come from a lazy-deletion binary heap of (key, node) entries: a
    node gets a fresh entry whenever its residual degree drops, and popped
    entries of removed nodes or with an outdated key are discarded. Each
    edge lowers a residual degree at most twice, so the selection runs in
    O((N + E) log N). A star that lowers the degree of more than half of
    the nodes left, as on a dense graph, would flood the heap with entries
    that go stale at the next star, so the heap is rebuilt instead, from
    the nodes left (a list compacted at each rebuild, so a rebuild costs
    what is left, not N) with their current keys. Either way every live
    node has an entry with its current key and no entry sorts below it
    unseen: each pop that is taken is the least (key, node) over the live
    nodes, so the stars are the same.
    """
    n = g.node_count
    target = strategy.target(g)
    adj = g.adjacency
    alive = [True] * n
    residual_deg = [len(ns) for ns in adj]
    remaining = list(range(n))
    left = n
    heap = [(abs(d - target), u) for u, d in enumerate(residual_deg)]
    heapq.heapify(heap)
    stars: list[Star] = []
    while heap:
        key, center = heapq.heappop(heap)
        if not alive[center] or key != abs(residual_deg[center] - target):
            continue
        leaves = [v for v in adj[center] if alive[v]][:target]
        stars.append(Star(center, tuple(leaves)))
        alive[center] = False
        for v in leaves:
            alive[v] = False
        left -= 1 + len(leaves)
        touched = set()
        for u in (center, *leaves):
            for w in adj[u]:
                if alive[w]:
                    residual_deg[w] -= 1
                    touched.add(w)
        if 2 * len(touched) > left:
            remaining = [u for u in remaining if alive[u]]
            heap = [(abs(residual_deg[u] - target), u) for u in remaining]
            heapq.heapify(heap)
        else:
            for w in touched:
                heapq.heappush(heap, (abs(residual_deg[w] - target), w))
    return stars


def build_star_ghz(star: Star) -> list[Operation]:
    """H on the center, then CX onto each leaf, in the ascending order of star.leaves."""
    center = star.center
    return [H(center)] + [CX(center, leaf) for leaf in star.leaves]


def _fuse(u: int, v: int, correction: tuple[int, ...], cbit: int) -> list[Operation]:
    """Operations fusing the absorbed component into the keeper.

    CX across the bridge (u, v), u in the keeper and v in the absorbed
    component, Z measurement of v into cbit, conditional X on correction,
    the sorted rest of the absorbed component, then reset and re-entangle
    the measured qubit via the same bridge edge.
    """
    bridge = CX(u, v)
    ops: list[Operation] = [bridge, MeasureZ(v, cbit)]
    if correction:
        ops.append(CondX(correction, cbit))
    ops.append(Reset(v))
    ops.append(bridge)
    return ops


# one merge of the walk: (keeper label, absorbed label, bridge), a label being
# the index of a piece; a component keeps the label of the piece it grew from
_Fused = tuple[int, int, tuple[int, int]]


def _assemble(g: LayoutGraph, pieces: list) -> tuple[tuple[tuple[_Fused, ...], ...], Circuit]:
    """Merging's synthesis walk: prepare each piece, then fuse them into one GHZ state.

    A piece is anything with nodes(), a new list of its nodes in ascending
    order, and prepare(last), such as a Star. The pieces must partition the
    nodes of the layout, which is connected, as every LayoutGraph is. The
    walk is the op source of the circuit it returns: the circuit emits each
    op through its one schedule before the walk draws the next, so a
    preparation, and the choice of each bridge, may read last, the
    schedule's layer of the latest op on each qubit. Beside the circuit it
    returns the rounds of merges it made, each merge as (keeper label,
    absorbed label, bridge), a component's label being the index of the
    piece it grew from; `plan_merges` returns them.

    Per round, components are matched greedily (scanned by smallest member,
    each pairing its unmatched neighbor with the smallest member) and
    contracted. The absorbed side is the smaller component (ties: lower
    minimum node index). The bridge is the crossing edge whose later end is
    free earliest under ASAP scheduling (ties: lexicographic as (keeper end,
    absorbed end)), which lets consecutive merge rounds pipeline instead of
    serializing on hot qubits. Each merge reads its pair's bucket twice:
    once for that earliest layer, as a minimum over plain ints, and once to
    orient only the edges whose two ends are free by that layer, whose
    lexicographic minimum is the bridge.
    Merge k measures into cbit k, and the connected layout takes
    len(pieces) - 1 merges, so the circuit has exactly that many cbits.

    Components are labels in a comp_of list, with a member list and a
    smallest member per label. A merge relabels the absorbed side, the
    smaller one, so each node is relabelled O(log N) times in all. The
    crossing edges are bucketed once, before the first round: one list per
    adjacent component pair, shared by both sides' bucket dicts, so the dict
    keys are the component adjacency and each list the bridge candidates of
    its pair. A merge drops the pair's own bucket and hands the absorbed
    side's other buckets to the keeper, extending the shorter list into the
    longer where both sides had one, so an edge is copied O(log E) times.
    The merges of a round touch disjoint components, so every pair matched
    in a round still has the bucket it had when the round began. A single
    piece puts no edge in a bucket, so the walk never enters a round. Grids
    and heavy-hex lattices contract in O(log N) rounds, each costing
    O(C log C) for its C components besides the merges, so they take
    O((N + E) log N) in all.
    """
    n = g.node_count
    members = [piece.nodes() for piece in pieces]
    if sorted(chain.from_iterable(members)) != list(range(n)):
        raise ValueError("pieces must partition the layout's nodes")
    comp_of = [0] * n
    for i, m in enumerate(members):
        for u in m:
            comp_of[u] = i
    low = [m[0] for m in members]
    rounds: list[tuple[_Fused, ...]] = []

    def walk(last: list[int]) -> Iterator[Operation]:
        for piece in pieces:
            yield from piece.prepare(last)
        buckets: list[dict[int, list[tuple[int, int]]]] = [{} for _ in pieces]
        for e in g.edges:
            a, b = comp_of[e[0]], comp_of[e[1]]
            if a != b:
                bucket = buckets[a].get(b)
                if bucket is None:
                    bucket = buckets[a][b] = buckets[b][a] = []
                bucket.append(e)
        alive = list(range(len(pieces)))
        cbit = 0
        while len(alive) > 1:
            matched: set[int] = set()
            pairs: list[tuple[int, int]] = []
            for i in sorted(alive, key=low.__getitem__):
                if i in matched:
                    continue
                candidates = [j for j in buckets[i] if j not in matched]
                if not candidates:
                    continue
                j = min(candidates, key=low.__getitem__)
                matched.update((i, j))
                pairs.append((i, j))
            merges = []
            for i, j in pairs:
                a, b = len(members[i]), len(members[j])
                if a < b or (a == b and low[i] < low[j]):
                    absorbed, keeper = i, j
                else:
                    absorbed, keeper = j, i
                crossing = buckets[i][j]
                free = min([last[x] if last[x] > last[y] else last[y] for x, y in crossing])
                bridge = min([(x, y) if comp_of[x] == keeper else (y, x) for x, y in crossing
                              if last[x] <= free and last[y] <= free])
                u, v = bridge
                correction = sorted(members[absorbed])
                correction.remove(v)
                yield from _fuse(u, v, tuple(correction), cbit)
                merges.append((keeper, absorbed, bridge))
                cbit += 1
                for w in members[absorbed]:
                    comp_of[w] = keeper
                members[keeper].extend(members[absorbed])
                members[absorbed] = []
                low[keeper] = min(low[keeper], low[absorbed])
                kept = buckets[keeper]
                del kept[absorbed]
                for c, bucket in buckets[absorbed].items():
                    if c == keeper:
                        continue
                    across = buckets[c]
                    del across[absorbed]
                    other = kept.get(c)
                    if other is None:
                        kept[c] = across[keeper] = bucket
                    elif len(other) >= len(bucket):
                        other.extend(bucket)
                    else:
                        bucket.extend(other)
                        kept[c] = across[keeper] = bucket
                buckets[absorbed] = {}
            rounds.append(tuple(merges))
            alive = [c for c in alive if members[c]]

    circuit = Circuit(n, len(pieces) - 1, walk)  # the walk fills rounds
    return tuple(rounds), circuit


def plan_merges(g: LayoutGraph, stars: list[Star]) -> tuple[tuple[_Fused, ...], ...]:
    """The merge rounds of the circuit synthesize_merging builds from the same stars.

    Each round is a tuple of merges (keeper, absorbed, bridge): keeper and
    absorbed are indices into stars, a component keeping the index of the
    star it grew from, and the bridge (u, v) has u on the keeper's side and
    v on the absorbed side. Merge k of the rounds in order writes cbit k.
    A round's merges touch pairwise disjoint components, there are
    len(stars) - 1 merges, and the round count stays logarithmic in the star
    count for well-connected layouts. The bridges read the circuit's
    schedule, so these are the records of the synthesis walk itself.
    """
    return _assemble(g, stars)[0]


def synthesize_merging(g: LayoutGraph, strategy: StarSelectionStrategy) -> Circuit:
    """Synthesize the full merging circuit for a connected layout.

    The noiseless output state is exactly the N-qubit GHZ state; the circuit
    contains (#stars - 1) measurements, one cbit each, and N - 1 + (#stars - 1)
    CX gates.
    """
    return _assemble(g, select_stars(g, strategy))[1]
