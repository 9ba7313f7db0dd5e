"""Measurement-based GHZ synthesis by merging star states.

The layout is partitioned into stars (a center plus adjacent leaves), each
star is prepared as a small GHZ state, and the pieces are then fused
pairwise in parallel rounds. One fuse consists of a CX across a bridge edge,
a Z measurement of the absorbed-side bridge qubit, a conditional X
correction on the rest of the absorbed piece, and a reset-plus-CX that
re-adds the measured qubit to the merged state.

All choices (star order, leaf order, matching order, bridge edges) are
tie-broken by lowest node index, so synthesis is a pure function of the
layout and strategy; the seed parameter exists for interface uniformity and
is unused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from . import schema
from .circuit import CX, Circuit, CondX, H, MeasureZ, Operation, Reset, Schedule
from .layouts import LayoutGraph, average_degree

__all__ = [
    "HighestDegree",
    "ScalingFactor",
    "AbsoluteSize",
    "StarSelectionStrategy",
    "Star",
    "Merge",
    "MergePlan",
    "strategy_to_json",
    "strategy_from_json",
    "strategy_label",
    "select_stars",
    "build_star_ghz",
    "plan_merges",
    "merge_operations",
    "synthesize_merging",
]


@dataclass(frozen=True)
class HighestDegree:
    """Always pick the residual node of maximum residual degree."""


@dataclass(frozen=True)
class ScalingFactor:
    """Target star degree = round(f * average degree of the input graph)."""

    f: float

    def __post_init__(self):
        if self.f <= 0:
            raise ValueError("scaling factor must be positive")


@dataclass(frozen=True)
class AbsoluteSize:
    """Target star size s, i.e. target star degree s - 1."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("absolute star size must be >= 1")


StarSelectionStrategy = Union[HighestDegree, ScalingFactor, AbsoluteSize]


def strategy_to_json(strategy: StarSelectionStrategy) -> dict:
    if isinstance(strategy, HighestDegree):
        return {"strategy": "highest_degree"}
    if isinstance(strategy, ScalingFactor):
        return {"strategy": "scaling_factor", "f": strategy.f}
    if isinstance(strategy, AbsoluteSize):
        return {"strategy": "absolute_size", "s": strategy.s}
    raise TypeError(f"unknown strategy {strategy!r}")


def strategy_from_json(obj: dict, path: str = "strategy") -> StarSelectionStrategy:
    """Inverse of strategy_to_json; InputError names the bad field below path."""
    kind = schema.field(obj, "strategy", path, str)
    if kind == "highest_degree":
        return HighestDegree()
    if kind == "scaling_factor":
        return ScalingFactor(schema.field(obj, "f", path, float))
    if kind == "absolute_size":
        return AbsoluteSize(schema.field(obj, "s", path, int))
    raise schema.InputError(f"{path}.strategy: unknown strategy kind {kind!r}")


def strategy_label(strategy: Optional[StarSelectionStrategy]) -> str:
    """Compact single-token form used in CSV output and CLI flags."""
    if strategy is None:
        return ""
    if isinstance(strategy, HighestDegree):
        return "highest_degree"
    if isinstance(strategy, ScalingFactor):
        return f"scaling_factor={strategy.f:g}"
    if isinstance(strategy, AbsoluteSize):
        return f"absolute_size={strategy.s}"
    raise TypeError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True)
class Star:
    center: int
    leaves: frozenset[int]

    @property
    def degree(self) -> int:
        return len(self.leaves)

    @property
    def size(self) -> int:
        return 1 + len(self.leaves)

    def nodes(self) -> frozenset[int]:
        return self.leaves | {self.center}


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def select_stars(g: LayoutGraph, strategy: StarSelectionStrategy) -> list[Star]:
    """Partition the nodes of g into stars, selected iteratively.

    Each step picks a center in the residual graph (max residual degree for
    HighestDegree, residual degree closest to the target for the other
    strategies; ties fall to the lowest node index) and removes the star from
    the residual. Isolated residual nodes end up as single-node stars.
    """
    target: Optional[int] = None
    if isinstance(strategy, ScalingFactor):
        target = _round_half_away(strategy.f * float(average_degree(g)))
    elif isinstance(strategy, AbsoluteSize):
        target = strategy.s - 1

    alive = [True] * g.node_count
    residual_deg = [g.degree(u) for u in range(g.node_count)]
    remaining = g.node_count
    stars: list[Star] = []
    while remaining > 0:
        best = None
        for u in range(g.node_count):
            if not alive[u]:
                continue
            if target is None:
                key = (-residual_deg[u], u)
            else:
                key = (abs(residual_deg[u] - target), u)
            if best is None or key < best[0]:
                best = (key, u)
        center = best[1]
        neighbors = [v for v in g.neighbors(center) if alive[v]]
        if target is not None:
            neighbors = neighbors[: min(len(neighbors), target)]
        star = Star(center, frozenset(neighbors))
        stars.append(star)
        for u in star.nodes():
            alive[u] = False
            remaining -= 1
            for w in g.neighbors(u):
                if alive[w]:
                    residual_deg[w] -= 1
    assert remaining == 0
    return stars


def build_star_ghz(star: Star) -> list[Operation]:
    """H on the center, then CX onto each leaf in ascending index order."""
    ops: list[Operation] = [H(star.center)]
    for leaf in sorted(star.leaves):
        ops.append(CX(star.center, leaf))
    return ops


@dataclass(frozen=True)
class Merge:
    keeper: frozenset[int]
    absorbed: frozenset[int]
    bridge: tuple[int, int]  # (u in keeper, v in absorbed)


@dataclass(frozen=True)
class MergePlan:
    rounds: tuple[tuple[Merge, ...], ...]

    @property
    def merge_count(self) -> int:
        return sum(len(r) for r in self.rounds)


def merge_operations(merge: Merge, cbit: int) -> list[Operation]:
    """Operations fusing the absorbed component into the keeper.

    CX across the bridge, Z measurement of the absorbed bridge qubit,
    conditional X on the rest of the absorbed component, then reset and
    re-entangle the measured qubit via the same bridge edge.
    """
    u, v = merge.bridge
    ops: list[Operation] = [CX(u, v), MeasureZ(v, cbit)]
    correction = tuple(sorted(merge.absorbed - {v}))
    if correction:
        ops.append(CondX(correction, cbit))
    ops.append(Reset(v))
    ops.append(CX(u, v))
    return ops


def _assemble(g: LayoutGraph, stars: list[Star]) -> tuple[MergePlan, list[Operation]]:
    """Shared planner/emitter behind plan_merges and synthesize_merging.

    Per round, components are matched greedily (scanned by smallest member,
    each pairing its unmatched neighbor with the smallest member) and
    contracted. The absorbed side is the smaller component (ties: lower
    minimum node index). The bridge is the cross edge whose endpoints free
    up earliest under ASAP scheduling (ties: lexicographic), which lets
    consecutive merge rounds pipeline instead of serializing on hot qubits.
    """
    components = [frozenset(star.nodes()) for star in stars]
    covered: set[int] = set()
    for comp in components:
        if covered & comp:
            raise ValueError("stars do not partition the node set")
        covered |= comp
    if covered != set(range(g.node_count)):
        raise ValueError("stars do not cover every node")

    schedule = Schedule(g.node_count)
    ops: list[Operation] = []
    for star in stars:
        for op in build_star_ghz(star):
            ops.append(op)
            schedule.emit(op)

    rounds: list[tuple[Merge, ...]] = []
    cbit = 0
    while len(components) > 1:
        comp_of = {}
        for i, comp in enumerate(components):
            for u in comp:
                comp_of[u] = i
        adjacency: dict[int, set[int]] = {i: set() for i in range(len(components))}
        for u, v in g.edges:
            cu, cv = comp_of[u], comp_of[v]
            if cu != cv:
                adjacency[cu].add(cv)
                adjacency[cv].add(cu)
        matched: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for i in sorted(range(len(components)), key=lambda i: min(components[i])):
            if i in matched:
                continue
            candidates = [j for j in adjacency[i] if j not in matched]
            if not candidates:
                continue
            j = min(candidates, key=lambda j: min(components[j]))
            matched.update((i, j))
            pairs.append((i, j))
        if not pairs:
            # contraction of a connected graph stays connected, so a
            # mergeable pair must exist while two components remain
            raise AssertionError("no adjacent components found; graph disconnected?")
        merges = []
        for i, j in pairs:
            a, b = components[i], components[j]
            if len(a) < len(b) or (len(a) == len(b) and min(a) < min(b)):
                absorbed, keeper = a, b
            else:
                absorbed, keeper = b, a
            cross = [
                (x, y) if x in keeper else (y, x)
                for x, y in g.edges
                if (x in keeper and y in absorbed) or (x in absorbed and y in keeper)
            ]
            bridge = min(
                cross, key=lambda e: (max(schedule.last[e[0]], schedule.last[e[1]]), e)
            )
            merge = Merge(keeper=keeper, absorbed=absorbed, bridge=bridge)
            merges.append(merge)
            for op in merge_operations(merge, cbit):
                ops.append(op)
                schedule.emit(op)
            cbit += 1
        rounds.append(tuple(merges))
        for m in merges:
            components = [c for c in components if c != m.keeper and c != m.absorbed]
            components.append(m.keeper | m.absorbed)
    return MergePlan(rounds=tuple(rounds)), ops


def plan_merges(g: LayoutGraph, stars: list[Star]) -> MergePlan:
    """Pairwise merge schedule contracting the stars down to one component.

    Each round's merges touch pairwise disjoint components, the total merge
    count is len(stars) - 1, and the round count stays logarithmic in the
    star count for well-connected layouts.
    """
    plan, _ = _assemble(g, stars)
    return plan


def synthesize_merging(
    g: LayoutGraph,
    strategy: StarSelectionStrategy,
    seed: int = 0,
) -> Circuit:
    """Synthesize the full merging circuit for a connected layout.

    The noiseless output state is exactly the N-qubit GHZ state; the circuit
    contains (#stars - 1) measurements and N - 1 + (#stars - 1) CX gates.
    The seed is accepted for interface uniformity but the construction is
    deterministic.
    """
    del seed
    if not g.is_connected():
        raise ValueError("layout graph must be connected")
    stars = select_stars(g, strategy)
    _, ops = _assemble(g, stars)
    cbit_count = sum(1 for op in ops if isinstance(op, MeasureZ))
    return Circuit(qubit_count=g.node_count, cbit_count=cbit_count, ops=tuple(ops))
