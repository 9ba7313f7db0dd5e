"""Helpers for randomized cross-validation, which `selfcheck` runs: of the
two simulators, and of the vectorized skip sampler against its scalar
reference. A dense Pauli is applied by the dense oracle's own gates
(`statevector._DenseState`), the package's only dense Pauli code."""

from __future__ import annotations

import numpy as np

from .circuit import CX, Circuit, CondX, H, MeasureZ, Operation, Reset, X
from .rng import CounterStream, _draw, _mix, make_rng
from .stabilizer import Tableau
from .statevector import _DenseState

__all__ = [
    "random_clifford_circuit",
    "apply_pauli_dense",
    "stabilizers_fix_state",
    "scalar_skips",
    "sorted_skips",
]


def random_clifford_circuit(n_qubits: int, n_ops: int, seed: int) -> Circuit:
    """Random circuit over H/X/CX plus measurement, reset, and conditional X.

    Respects the structural invariants: conditional X reads a classical bit
    written by exactly one earlier measurement, and a measured qubit is left
    alone until it is reset.
    """
    rng = make_rng(seed)
    ops: list[Operation] = []
    dead: set[int] = set()
    cbits_written: list[int] = []
    cbit_count = 0

    def alive() -> list[int]:
        return [q for q in range(n_qubits) if q not in dead]

    while len(ops) < n_ops:
        kind = rng.choice(
            ["h", "x", "cx", "measure", "reset", "condx"],
            p=[0.25, 0.15, 0.3, 0.12, 0.1, 0.08],
        )
        live = alive()
        if kind == "h" and live:
            ops.append(H(int(rng.choice(live))))
        elif kind == "x" and live:
            ops.append(X(int(rng.choice(live))))
        elif kind == "cx" and len(live) >= 2:
            a, b = rng.choice(live, size=2, replace=False)
            ops.append(CX(int(a), int(b)))
        elif kind == "measure" and live:
            q = int(rng.choice(live))
            ops.append(MeasureZ(q, cbit_count))
            cbits_written.append(cbit_count)
            cbit_count += 1
            dead.add(q)
        elif kind == "reset":
            q = int(rng.integers(0, n_qubits))
            ops.append(Reset(q))
            dead.discard(q)
        elif kind == "condx" and live and cbits_written:
            k = int(rng.integers(1, len(live) + 1))
            targets = tuple(sorted(int(q) for q in rng.choice(live, size=k, replace=False)))
            cbit = int(rng.choice(cbits_written))
            ops.append(CondX(targets, cbit))
    return Circuit(n_qubits, cbit_count, ops)


def apply_pauli_dense(
    state: np.ndarray, x: np.ndarray, z: np.ndarray, sign: int
) -> np.ndarray:
    """Apply the Pauli given in symplectic form to a dense state vector.

    Convention: the operator is (-1)^sign * prod_q P_q with P_q read off the
    (x, z) bits, where the x/z pair on one qubit means Y = i X Z. The dense
    oracle applies every Z, then every X, and the phase (-1)^sign times one
    factor i per Y multiplies the result.
    """
    dense = _DenseState(len(x))
    dense.psi = state.reshape(dense.psi.shape).copy()
    for q in np.flatnonzero(z):
        dense.apply_z(q)
    for q in np.flatnonzero(x):
        dense.apply_x(q)
    phase = complex(-1) ** sign
    for _ in range(np.count_nonzero(x & z)):
        phase *= 1j
    return phase * dense.psi.reshape(-1)


def stabilizers_fix_state(tab: Tableau, state: np.ndarray, atol: float = 1e-10) -> bool:
    """True iff every stabilizer generator fixes the state with eigenvalue +1."""
    sx, sz, sr = tab.stabilizer_rows()
    for i in range(tab.n):
        transformed = apply_pauli_dense(state, sx[i], sz[i], int(sr[i]))
        if not np.allclose(transformed, state, atol=atol):
            return False
    return True


def scalar_skips(keys, t0: int, p: float, m: int) -> list[tuple[int, int, int]]:
    """Reference for rng.CounterStream.skips: one lane and one skip at a time.

    Returns the sorted (lane, location, draw) of every hit. A skip's gap
    counts k >= 1 while u < (1 - p)**k, each power one float64 product
    more than the last, up to m.
    """
    hits = []
    if p <= 0:
        return hits
    q = 1.0 - p
    for lane, key in enumerate(keys):
        base = _mix(int(key))
        at, t = -1, t0
        while True:
            u = (_draw(base, t) >> 11) * 2.0**-53
            gap, power = 0, q
            while gap < m and u < power:
                gap += 1
                power *= q
            at += gap + 1
            if at >= m:
                break
            hits.append((lane, at, t + 1))
            t += 2
    return sorted(hits)


def sorted_skips(stream: CounterStream, t0: int, p: float, m: int) -> list[tuple[int, int, int]]:
    """stream.skips(t0, p, m)'s hits as the sorted (lane, location, draw) list of scalar_skips."""
    return sorted(
        (lane, loc, t)
        for lanes, locs, ts in stream.skips(t0, p, m).until(m)
        for lane, loc, t in zip(lanes.tolist(), locs.tolist(), ts.tolist())
    )
