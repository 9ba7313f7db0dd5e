"""Exact Clifford simulation on a stabilizer tableau.

The tableau follows Aaronson & Gottesman (Phys. Rev. A 70, 052328): rows
0..n-1 are destabilizers, rows n..2n-1 stabilizers, each row a Pauli in
binary symplectic form (x bits, z bits) with a sign bit.

Shots are simulated in a single batch. The key observation is that H/X/CX
update the x/z bit matrices identically for every shot, measurement collapse
performs the same row operations for every shot, and Pauli noise, classically
controlled X corrections, and measurement outcomes only ever touch the sign
bits. So one (2n, n) x/z pair is shared by all shots while the signs are a
(shots, 2n) matrix, which makes thousand-shot noisy sampling cheap.

Tableau.expectation gives the per-shot expectation (+1, -1 or 0) of any
Hermitian Pauli by the destabilizer method. It is the single Pauli-membership
primitive: deterministic measurement outcomes and metrics.is_ghz both use it.

Randomness contract (part of the reproducibility guarantee): each shot owns
one PCG64 stream. Per operation the stream is consumed in fixed order:
H/X take (error?, which-Pauli), CX takes (error?, which-Pauli-pair), CondX
takes (error?, which-Pauli) per target, MeasureZ and Reset take one
measurement coin followed by (readout-flip) / (reset-error). The error draws
exist only when a noise model is supplied; the coin is consumed whether or
not the outcome turns out to be deterministic. Under this contract a batched
run is bit-identical to independent single-shot runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circuit import CX, Circuit, CondX, H, MeasureZ, Reset, X
from .rng import derive_seed, make_rng

__all__ = [
    "NoiseModel",
    "Tableau",
    "SimOutcome",
    "CapacityError",
    "InvalidForcingError",
    "run",
    "sample_counts",
    "MAX_QUBITS",
]

MAX_QUBITS = 512


class CapacityError(ValueError):
    """Circuit exceeds the simulator's qubit capacity."""


class InvalidForcingError(ValueError):
    """A forced measurement outcome has probability zero."""


@dataclass(frozen=True)
class NoiseModel:
    """Parametric Pauli noise.

    p1: depolarizing probability after each single-qubit gate
    p2: two-qubit depolarizing probability after each CX
    pm: classical readout flip probability per measurement
    pr: reset error probability (qubit left in |1> after a reset)
    """

    p1: float = 0.0
    p2: float = 0.0
    pm: float = 0.0
    pr: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "pm", "pr"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def pauli_phase_exponents(
    x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
) -> np.ndarray:
    """Per-qubit i-exponent when the Pauli (x1, z1) left-multiplies (x2, z2).

    The standard g function of the tableau formalism: 0 for an identity left
    factor, and +/-1 when the product of two non-commuting literals absorbs
    a factor of i (e.g. X*Z = -iY).
    """
    x1, z1 = x1.astype(np.int32), z1.astype(np.int32)
    x2, z2 = x2.astype(np.int32), z2.astype(np.int32)
    g = np.where((x1 == 1) & (z1 == 1), z2 - x2, 0)
    g = g + np.where((x1 == 1) & (z1 == 0), z2 * (2 * x2 - 1), 0)
    g = g + np.where((x1 == 0) & (z1 == 1), x2 * (1 - 2 * z2), 0)
    return g


class Tableau:
    """Batched stabilizer tableau: shared x/z bits, per-shot sign bits."""

    def __init__(self, n: int, shots: int = 1):
        self.n = n
        self.shots = shots
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros((shots, 2 * n), dtype=np.uint8)
        idx = np.arange(n)
        self.x[idx, idx] = 1          # destabilizer i = X_i
        self.z[n + idx, idx] = 1      # stabilizer i = Z_i

    # -- Clifford gates (x/z updates shared across shots) --

    def apply_h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def apply_cx(self, a: int, b: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ 1)
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    # -- Pauli gates / errors: sign flips only --

    def apply_x(self, q: int, mask: Optional[np.ndarray] = None) -> None:
        self._flip(self.z[:, q], mask)

    def apply_z(self, q: int, mask: Optional[np.ndarray] = None) -> None:
        self._flip(self.x[:, q], mask)

    def apply_y(self, q: int, mask: Optional[np.ndarray] = None) -> None:
        self._flip(self.x[:, q] ^ self.z[:, q], mask)

    def _flip(self, rows: np.ndarray, mask: Optional[np.ndarray]) -> None:
        if mask is None:
            self.r ^= rows
        else:
            self.r ^= mask.astype(np.uint8)[:, None] & rows

    # -- Pauli products with phase tracking --

    def _rowmult(self, rows: np.ndarray, p: int) -> None:
        """row_i := row_p * row_i for every i in rows, with sign update."""
        gsum = pauli_phase_exponents(
            self.x[p], self.z[p], self.x[rows], self.z[rows]
        ).sum(axis=1)
        total = 2 * self.r[:, rows].astype(np.int32) + 2 * self.r[:, p : p + 1] + gsum
        total %= 4
        self.r[:, rows] = (total // 2).astype(np.uint8)
        self.x[rows] ^= self.x[p]
        self.z[rows] ^= self.z[p]

    def measure(self, q: int, coins: Optional[np.ndarray]) -> np.ndarray:
        """Z-measurement of qubit q, collapsing in place.

        Returns the per-shot outcome bits. `coins` supplies the per-shot fair
        coin used when the outcome is random; pass None only when the caller
        knows the outcome is deterministic.
        """
        n = self.n
        stab_x = self.x[n:, q]
        if stab_x.any():
            p = n + int(np.argmax(stab_x))
            rows = np.flatnonzero(self.x[:, q].astype(bool))
            rows = rows[rows != p]
            if rows.size:
                self._rowmult(rows, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[:, p - n] = self.r[:, p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            if coins is None:
                raise InvalidForcingError(
                    f"measurement of qubit {q} is random but no coin was supplied"
                )
            self.r[:, p] = coins
            return coins.copy()
        e_q = np.zeros(n, dtype=np.uint8)
        e_q[q] = 1
        return (self.expectation(0, e_q) < 0).astype(np.uint8)

    def expectation(self, px, pz) -> np.ndarray:
        """Per-shot expectation (+1, -1 or 0, as int8) of a Hermitian Pauli.

        The Pauli is given by its x and z bits (length-n 0/1 arrays, or a
        scalar 0), with Y on qubits where both are set and sign +1. It has
        expectation 0 when it anticommutes with some stabilizer. Otherwise
        it is +/- the product of the stabilizers whose destabilizer
        anticommutes with it (Aaronson & Gottesman), and the sign of that
        product is returned.
        """
        n = self.n
        xs, zs = np.flatnonzero(px), np.flatnonzero(pz)
        # row j anticommutes with P iff x_P . z_j + z_P . x_j is odd; XOR the
        # columns on P's support instead of a dense product
        anti = np.bitwise_xor.reduce(self.z[:, xs], axis=1) ^ np.bitwise_xor.reduce(
            self.x[:, zs], axis=1
        )
        if anti[n:].any():
            return np.zeros(self.shots, dtype=np.int8)
        sel = n + np.flatnonzero(anti[:n])
        sx, sz = self.x[sel], self.z[sel]
        # a Hermitian row is i^(x.z) X^x Z^z, and moving Z^z1 past X^x2 gives
        # (-1)^(z1.x2), so the ordered product of the selected rows is
        # i^(y_rows - y_P) (-1)^cross P times their signs
        y = np.count_nonzero(sx & sz) - np.count_nonzero(np.asarray(px) & np.asarray(pz))
        z_before = np.bitwise_xor.accumulate(sz[:-1], axis=0)
        cross = np.count_nonzero(sx[1:] & z_before)
        const = ((y % 4) // 2 + cross) & 1
        bits = np.bitwise_xor.reduce(self.r[:, sel], axis=1) ^ const
        return 1 - 2 * bits.astype(np.int8)

    def is_deterministic(self, q: int) -> bool:
        """True when a Z-measurement of q has a definite outcome."""
        return not self.x[self.n :, q].any()

    def stabilizer_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, sign) of the n stabilizer generators for a 1-shot tableau."""
        if self.shots != 1:
            raise ValueError("stabilizer_rows is defined for single-shot tableaus")
        n = self.n
        return self.x[n:].copy(), self.z[n:].copy(), self.r[0, n:].copy()

    def check_invariants(self) -> None:
        """Assert the symplectic commutation structure of the rows.

        Stabilizer i must anticommute with destabilizer i and commute with
        every other row; the stabilizer rows must be independent.
        """
        n = self.n
        xz = np.concatenate([self.x, self.z], axis=1).astype(np.uint8)
        # symplectic product of rows a, b: x_a.z_b + z_a.x_b mod 2
        sym = (self.x @ self.z.T + self.z @ self.x.T) % 2
        expected = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        idx = np.arange(n)
        expected[idx, idx + n] = 1
        expected[idx + n, idx] = 1
        if not np.array_equal(sym % 2, expected):
            raise AssertionError("tableau commutation relations violated")
        if _gf2_rank(xz[n:]) != n:
            raise AssertionError("stabilizer rows are dependent")


def _gf2_rank(mat: np.ndarray) -> int:
    m = mat.copy().astype(np.uint8)
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivots = np.flatnonzero(m[rank:, c]) + rank
        if pivots.size == 0:
            continue
        p = pivots[0]
        m[[rank, p]] = m[[p, rank]]
        hit = np.flatnonzero(m[:, c].astype(bool))
        hit = hit[hit != rank]
        m[hit] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


@dataclass
class SimOutcome:
    """Result of a stabilizer run.

    cbits holds the recorded classical bits (after any readout error);
    outcome_log holds the true physical outcome of every measurement event
    (MeasureZ and the measurement inside each Reset) in program order, which
    is what a state-vector replay of the same branch must be forced to.
    """

    tableau: Tableau
    cbits: list[int]
    outcome_log: list[int]
    readout: Optional[str] = None


def _draw_budget(c: Circuit, noisy: bool) -> int:
    t = 0
    for op in c.ops:
        if isinstance(op, (H, X)):
            t += 2 if noisy else 0
        elif isinstance(op, CX):
            t += 2 if noisy else 0
        elif isinstance(op, CondX):
            t += 2 * len(op.targets) if noisy else 0
        elif isinstance(op, MeasureZ):
            t += 2 if noisy else 1
        elif isinstance(op, Reset):
            t += 2 if noisy else 1
    return t


class _Draws:
    """Columns of pre-drawn uniforms, one row per shot, consumed in order."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.pos = 0

    def next(self) -> np.ndarray:
        col = self.table[:, self.pos]
        self.pos += 1
        return col


def _batched_run(
    c: Circuit,
    draws: _Draws,
    shots: int,
    noise: Optional[NoiseModel],
    forced: Sequence[Optional[int]] = (),
    terminal_readout: bool = False,
    max_qubits: int = MAX_QUBITS,
) -> tuple[Tableau, np.ndarray, list[np.ndarray], Optional[np.ndarray]]:
    """Shared engine for run() and sample_counts().

    Returns (tableau, cbits(shots, cbit_count), outcome log columns,
    readout bits or None).
    """
    n = c.qubit_count
    if n > max_qubits:
        raise CapacityError(f"{n} qubits exceeds the maximum of {max_qubits}")
    c.validate()
    tab = Tableau(n, shots)
    cbits = np.zeros((shots, max(c.cbit_count, 1)), dtype=np.uint8)
    log: list[np.ndarray] = []
    event = 0

    ops = list(c.ops)
    readout_bits = None
    if terminal_readout:
        ops += [MeasureZ(q, c.cbit_count + q) for q in range(n)]
        cbits = np.zeros((shots, c.cbit_count + n), dtype=np.uint8)

    def depolarize1(q: int, u_err: np.ndarray, u_which: np.ndarray, fire: np.ndarray):
        mask = fire & (u_err < noise.p1)
        if not mask.any():
            return
        which = np.minimum((u_which * 3).astype(np.int64), 2)
        tab.apply_x(q, mask & (which == 0))
        tab.apply_y(q, mask & (which == 1))
        tab.apply_z(q, mask & (which == 2))

    def depolarize2(a: int, b: int, u_err: np.ndarray, u_which: np.ndarray):
        mask = u_err < noise.p2
        if not mask.any():
            return
        which = np.minimum((u_which * 15).astype(np.int64), 14) + 1
        pa, pb = which // 4, which % 4
        for q, pq in ((a, pa), (b, pb)):
            tab.apply_x(q, mask & (pq == 1))
            tab.apply_y(q, mask & (pq == 2))
            tab.apply_z(q, mask & (pq == 3))

    all_shots = np.ones(shots, dtype=bool)

    def measure_event(q: int) -> np.ndarray:
        nonlocal event
        u_coin = draws.next()
        if tab.is_deterministic(q):
            outcome = tab.measure(q, None)
        else:
            coins = (u_coin < 0.5).astype(np.uint8)
            if event < len(forced) and forced[event] is not None:
                coins = np.full(shots, forced[event], dtype=np.uint8)
            outcome = tab.measure(q, coins)
        if event < len(forced) and forced[event] is not None:
            want = int(forced[event])
            if not (outcome == want).all():
                raise InvalidForcingError(
                    f"measurement event {event} on qubit {q} is deterministically "
                    f"{int(outcome[0])}, cannot force {want}"
                )
        log.append(outcome)
        event += 1
        return outcome

    for op in ops:
        if isinstance(op, H):
            tab.apply_h(op.q)
            if noise is not None:
                depolarize1(op.q, draws.next(), draws.next(), all_shots)
        elif isinstance(op, X):
            tab.apply_x(op.q)
            if noise is not None:
                depolarize1(op.q, draws.next(), draws.next(), all_shots)
        elif isinstance(op, CX):
            tab.apply_cx(op.control, op.target)
            if noise is not None:
                depolarize2(op.control, op.target, draws.next(), draws.next())
        elif isinstance(op, CondX):
            fire = cbits[:, op.cbit].astype(bool)
            for t in op.targets:
                tab.apply_x(t, fire.astype(np.uint8))
                if noise is not None:
                    depolarize1(t, draws.next(), draws.next(), fire)
        elif isinstance(op, MeasureZ):
            outcome = measure_event(op.q)
            recorded = outcome
            if noise is not None:
                flips = (draws.next() < noise.pm).astype(np.uint8)
                recorded = outcome ^ flips
            cbits[:, op.cbit] = recorded
        elif isinstance(op, Reset):
            outcome = measure_event(op.q)
            tab.apply_x(op.q, outcome)
            if noise is not None:
                err = (draws.next() < noise.pr).astype(np.uint8)
                tab.apply_x(op.q, err)

    if terminal_readout:
        readout_bits = cbits[:, c.cbit_count :]
        cbits = cbits[:, : c.cbit_count]
    elif c.cbit_count == 0:
        cbits = cbits[:, :0]
    return tab, cbits, log, readout_bits


def run(
    c: Circuit,
    seed: int,
    noise: Optional[NoiseModel] = None,
    forced_outcomes: Sequence[Optional[int]] = (),
    max_qubits: int = MAX_QUBITS,
) -> SimOutcome:
    """Simulate one execution of the circuit.

    Measurement outcomes that are genuinely random are resolved by seeded
    fair coins, unless pinned via forced_outcomes (one optional bit per
    measurement event, in program order; a short list leaves the remaining
    events unforced). Forcing an outcome the state assigns probability zero
    raises InvalidForcingError.
    """
    budget = _draw_budget(c, noise is not None)
    table = make_rng(seed).random((1, budget))
    tab, cbits, log, _ = _batched_run(
        c, _Draws(table), 1, noise, forced=forced_outcomes, max_qubits=max_qubits
    )
    return SimOutcome(
        tableau=tab,
        cbits=[int(b) for b in cbits[0]],
        outcome_log=[int(col[0]) for col in log],
    )


def sample_counts(
    c: Circuit,
    shots: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
    max_qubits: int = MAX_QUBITS,
) -> Counter:
    """Sample terminal all-qubit readout histograms.

    Appends a Z-measurement of every qubit (qubit 0 is the leftmost bit of
    the returned keys) and runs `shots` independent simulations; shot s uses
    the PCG64 stream seeded with derive_seed(seed, "shot", s), so any single
    shot can be reproduced with run() on the extended circuit.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    # terminal readout adds one measurement event per qubit
    per_meas = 2 if noise is not None else 1
    budget = _draw_budget(c, noise is not None) + per_meas * c.qubit_count
    table = np.empty((shots, budget))
    for s in range(shots):
        table[s] = make_rng(derive_seed(seed, "shot", s)).random(budget)
    _, _, _, readout = _batched_run(
        c, _Draws(table), shots, noise, terminal_readout=True
    )
    digits = readout.astype("u1") + ord("0")
    strings = digits.tobytes().decode("ascii")
    n = c.qubit_count
    return Counter(strings[i * n : (i + 1) * n] for i in range(shots))
