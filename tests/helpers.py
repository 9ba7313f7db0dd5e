"""Helpers that only tests use: a circuit from its ops, the generic reference
of the scheduler's per-kind branches, the scalar reference of the array-drawn
Erdős–Rényi generator, and the tableau's structural check."""

import numpy as np

from ghz_synth.circuit import CX, Circuit, CondX, MalformedCircuitError, MeasureZ, Reset
from ghz_synth.circuit import Operation, touched_qubits
from ghz_synth.layouts import LayoutGraph
from ghz_synth.rng import make_rng
from ghz_synth.stabilizer import Tableau


def circ(n, cbits, *ops):
    """The circuit of n qubits and cbits classical bits that runs ops in order."""
    return Circuit(n, cbits, tuple(ops))


class ReferenceSchedule:
    """The generic loop of `Schedule.emit` from before it took one branch per op kind.

    Every op goes through `touched_qubits` and one loop over its qubits, and
    the kind-specific rules follow; `Schedule`, with its inline branches,
    must give the same layers and the same first error.
    """

    def __init__(self, n: int, cbits: int):
        self.n, self.cbits = n, cbits
        self.last = [0] * n
        self.emitted = 0
        self._writes: dict[int, list[int]] = {}  # cbit -> layer of each measurement of it
        self._dead: set[int] = set()  # qubits measured and not reset since

    def emit(self, op: Operation) -> Operation:
        """Place op one layer after everything it waits for and return it, or raise.

        MalformedCircuitError names the op's index and the first rule it
        breaks, in this order: each touched qubit is in range and, unless
        op is a Reset, not measured since its last reset; a CX's control
        differs from its target; a MeasureZ's or CondX's cbit is in range;
        a CondX has targets, none twice, and its bit was written by exactly
        one earlier measurement. A CondX also waits for that measurement.
        """
        i, kind, n, last, dead = self.emitted, type(op), self.n, self.last, self._dead
        qs = touched_qubits(op)
        layer = 1
        for q in qs:
            if not 0 <= q < n:
                raise MalformedCircuitError(f"op {i}: qubit {q} out of range")
            if q in dead and kind is not Reset:
                raise MalformedCircuitError(
                    f"op {i}: qubit {q} used after measurement without reset"
                )
            if last[q] >= layer:
                layer = last[q] + 1
        if kind is CX:
            if op.control == op.target:
                raise MalformedCircuitError(f"op {i}: CX control equals target")
        elif kind is MeasureZ or kind is CondX:
            if not 0 <= op.cbit < self.cbits:
                raise MalformedCircuitError(f"op {i}: cbit {op.cbit} out of range")
            if kind is MeasureZ:
                self._writes.setdefault(op.cbit, []).append(layer)
                dead.add(op.q)
            elif not qs:
                raise MalformedCircuitError(f"op {i}: CondX with no targets")
            elif len(set(qs)) != len(qs):
                raise MalformedCircuitError(f"op {i}: CondX duplicate targets")
            elif len(writes := self._writes.get(op.cbit, ())) != 1:
                raise MalformedCircuitError(f"op {i}: cbit {op.cbit} must be written by exactly "
                                            f"one earlier measurement, saw {len(writes)}")
            elif writes[0] >= layer:
                layer = writes[0] + 1
        elif kind is Reset:
            dead.discard(op.q)
        for q in qs:
            last[q] = layer
        self.emitted = i + 1
        return op


def check_invariants(tab: Tableau) -> None:
    """Assert the symplectic commutation structure of the tableau's rows.

    Stabilizer i must anticommute with destabilizer i and commute with
    every other row. That alone makes the stabilizer rows independent: with
    <S_i, D_j> = delta_ij, a combination sum_i c_i S_i = 0 gives
    c_j = <sum_i c_i S_i, D_j> = 0 for every j.
    """
    n = tab.n
    x, z, _ = tab.rows()
    # symplectic product of rows a, b: x_a.z_b + z_a.x_b mod 2
    sym = (x @ z.T + z @ x.T) % 2
    expected = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    idx = np.arange(n)
    expected[idx, idx + n] = 1
    expected[idx + n, idx] = 1
    if not np.array_equal(sym, expected):
        raise AssertionError("tableau commutation relations violated")


def scalar_erdos_renyi(n: int, p: float, seed: int) -> LayoutGraph:
    """Reference for layouts.connected_erdos_renyi: one scalar draw per pair.

    The same draw order, written as the plain loop: n-1 tree draws, then one
    `random()` per non-tree pair in row-major u < v order.
    """
    rng = make_rng(seed)
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(0, i)), i))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return LayoutGraph(n, tuple(edges))
