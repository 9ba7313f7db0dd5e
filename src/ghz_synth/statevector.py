"""Dense state-vector simulation, used as a brute-force cross-check.

Capped at 14 qubits. Amplitude ordering: qubit 0 is the most significant bit
of the basis-state index, matching the readout bitstring convention (qubit 0
leftmost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circuit import CX, Circuit, CondX, H, MeasureZ, Reset, X
from .rng import make_rng
from .stabilizer import CapacityError, InvalidForcingError, _check_forced

__all__ = [
    "MAX_DENSE_QUBITS",
    "DenseOutcome",
    "run_dense",
    "state_fidelity",
    "ghz_state",
]

MAX_DENSE_QUBITS = 14
_ATOL = 1e-12
_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass
class DenseOutcome:
    state: np.ndarray          # shape (2**n,), qubit 0 = MSB
    cbits: list[int]
    outcome_log: list[int]     # one bit per measurement event, program order
    branch_probability: float = 1.0  # product of the taken outcomes' Born probabilities


def ghz_state(n: int) -> np.ndarray:
    """(|0..0> + |1..1>)/sqrt(2) on n qubits."""
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = _SQRT1_2
    psi[-1] = _SQRT1_2
    return psi


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared inner-product magnitude |<a|b>|^2."""
    if a.shape != b.shape:
        raise ValueError(f"state sizes differ: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)


class _DenseState:
    def __init__(self, n: int):
        self.n = n
        self.psi = np.zeros((2,) * n, dtype=np.complex128)
        self.psi[(0,) * n] = 1.0

    def _axis_fixed(self, q: int, bit: int):
        idx = [slice(None)] * self.n
        idx[q] = bit
        return tuple(idx)

    def apply_z(self, q: int) -> None:
        self.psi[self._axis_fixed(q, 1)] *= -1

    def apply_x(self, q: int) -> None:
        self.psi = np.flip(self.psi, axis=q)

    def apply_h(self, q: int) -> None:
        a = self.psi[self._axis_fixed(q, 0)].copy()
        b = self.psi[self._axis_fixed(q, 1)].copy()
        self.psi[self._axis_fixed(q, 0)] = (a + b) * _SQRT1_2
        self.psi[self._axis_fixed(q, 1)] = (a - b) * _SQRT1_2

    def apply_cx(self, control: int, target: int) -> None:
        sub = self.psi[self._axis_fixed(control, 1)]
        t = target if target < control else target - 1
        self.psi[self._axis_fixed(control, 1)] = np.flip(sub, axis=t)

    def prob_one(self, q: int) -> float:
        slab = self.psi[self._axis_fixed(q, 1)]
        return float(np.sum(np.abs(slab) ** 2))

    def project(self, q: int, outcome: int) -> None:
        keep = self.prob_one(q) if outcome == 1 else 1.0 - self.prob_one(q)
        if keep < _ATOL:
            raise InvalidForcingError(
                f"outcome {outcome} on qubit {q} has probability {keep:.3e}"
            )
        self.psi[self._axis_fixed(q, 1 - outcome)] = 0.0
        self.psi /= math.sqrt(keep)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2))


def run_dense(
    c: Circuit,
    seed: int,
    forced_outcomes: Sequence[Optional[int]] = (),
) -> DenseOutcome:
    """Noiseless dense simulation of the circuit.

    Measurement events (MeasureZ and the measurement inside each Reset) are
    sampled from the Born rule with the seeded generator unless pinned via
    forced_outcomes, indexed by event in program order. Forcing an outcome
    of probability zero raises InvalidForcingError, and more entries than
    events or an entry other than None, 0 or 1 ValueError.
    """
    if c.qubit_count > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{c.qubit_count} qubits exceeds the dense maximum of {MAX_DENSE_QUBITS}"
        )
    _check_forced(forced_outcomes, c.ops)
    rng = make_rng(seed)
    st = _DenseState(c.qubit_count)
    cbits = [0] * c.cbit_count
    log: list[int] = []
    branch_prob = 1.0

    def measure_event(q: int) -> int:
        nonlocal branch_prob
        event = len(log)
        p1 = st.prob_one(q)
        forced = forced_outcomes[event] if event < len(forced_outcomes) else None
        if forced is not None:
            outcome = int(forced)
        elif p1 < _ATOL:
            outcome = 0
        elif p1 > 1.0 - _ATOL:
            outcome = 1
        else:
            outcome = int(rng.random() < p1)
        branch_prob *= p1 if outcome == 1 else 1.0 - p1
        st.project(q, outcome)
        log.append(outcome)
        return outcome

    for op in c.ops:
        if isinstance(op, H):
            st.apply_h(op.q)
        elif isinstance(op, X):
            st.apply_x(op.q)
        elif isinstance(op, CX):
            st.apply_cx(op.control, op.target)
        elif isinstance(op, MeasureZ):
            cbits[op.cbit] = measure_event(op.q)
        elif isinstance(op, Reset):
            if measure_event(op.q) == 1:
                st.apply_x(op.q)
        elif isinstance(op, CondX):
            if cbits[op.cbit] == 1:
                for t in op.targets:
                    st.apply_x(t)
    if abs(st.norm() - 1.0) > 1e-9:
        raise AssertionError(f"state norm drifted to {st.norm()}")
    return DenseOutcome(
        state=st.psi.reshape(-1),
        cbits=cbits,
        outcome_log=log,
        branch_probability=branch_prob,
    )
