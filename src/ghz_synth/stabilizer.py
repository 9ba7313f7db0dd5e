"""Exact Clifford simulation on a stabilizer tableau.

The tableau follows Aaronson & Gottesman (Phys. Rev. A 70, 052328): rows
0..n-1 are destabilizers, rows n..2n-1 stabilizers, each row a Pauli in
binary symplectic form (x bits, z bits) with a sign bit.

Shots are simulated in a single batch. H/X/CX update the x/z bit matrices
identically for every shot, measurement collapse performs the same row
operations for every shot, and Pauli noise, classically controlled X
corrections and measurement outcomes only ever touch the sign bits. So one
(2n, n) x/z pair is shared by all shots, and everything per-shot is
bit-packed, the layout of Stim (Gidney, Quantum 5, 497, 2021): shot s is bit
s % 64 of word s // 64 of a uint64 vector. The signs are a
(2n, ceil(shots / 64)) word matrix; coins, noise masks, outcomes and
classical bits are word vectors. The phase of a row product depends only on
the shared x/z bits, so every sign update is a word-wide XOR and
thousand-shot noisy sampling costs little more than one run. Bits past the
last shot are padding: don't-care in the signs, zero in every other vector.
Only the API edge unpacks (SimOutcome, expectation, stabilizer_rows and the
readout histogram).

Tableau.expectation gives the per-shot expectation (+1, -1 or 0) of any
Hermitian Pauli by the destabilizer method. It is the single Pauli-membership
primitive: deterministic measurement outcomes and metrics.is_ghz both use it.

Randomness contract (part of the reproducibility guarantee): each shot
owns one 64-bit key and reads the counter-based stream of rng.CounterStream,
whose draw t is a fixed function of (key, t). Draw indices are assigned per
operation in fixed program order, the same whatever the outcomes: H/X take
(error?, which-Pauli), CX takes (error?, which-Pauli-pair), CondX takes
(error?, which-Pauli) per target, MeasureZ and Reset take one measurement
coin followed by (readout-flip) / (reset-error). The error draws exist only
when a noise model is supplied. A draw nobody reads is never computed: the
coin of a deterministic or forced measurement, the draws of an error whose
probability is zero, and the which-Pauli draw of a shot that did not err. Shot s of
sample_counts(seed=m) has key derive_seed(m, "shot", s) and run(c, seed)
has key seed, so a batched shot is bit-identical to the single-shot run
with its key.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circuit import CX, Circuit, CondX, H, MeasureZ, Reset, X
from .rng import CounterStream, check_seed, shot_keys
from .rng import make_rng  # noqa: F401  unused here; kept for callers that patch it

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


_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_PLUS_MINUS = np.array([1, -1], dtype=np.int8)  # expectation of a sign bit


def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack a length-shots 0/1 vector into `words` uint64 words.

    Shot s lands at bit s % 64 of word s // 64; the padding bits are zero.
    """
    buf = np.zeros(8 * words, dtype=np.uint8)
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    buf[: packed.size] = packed
    return buf.view("<u8")


def _unpack(words: np.ndarray, shots: int) -> np.ndarray:
    """The 0/1 bits (uint8) of the first `shots` shots, along the last axis."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=shots, bitorder="little")


def _spread(bits: np.ndarray) -> np.ndarray:
    """One column of all-ones words on the rows where bits is 1."""
    return np.negative(bits, dtype=np.uint64)[:, None]


class Tableau:
    """Batched stabilizer tableau: shared x/z bits, bit-packed per-shot signs.

    r has shape (2n, words) with words = ceil(shots / 64); per-shot vectors
    passed to or returned by flip and measure use the same packing.
    """

    def __init__(self, n: int, shots: int = 1):
        self.n = n
        self.shots = shots
        self.words = -(-shots // 64)
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.live = _pack(np.ones(shots, dtype=bool), self.words)
        idx = np.arange(n)
        self.x[idx, idx] = 1          # destabilizer i = X_i
        self.z[n + idx, idx] = 1      # stabilizer i = Z_i

    # -- Clifford gates (x/z updates shared across shots) --

    def apply_h(self, q: int) -> None:
        self._negate(self.x[:, q] & self.z[:, q])
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def apply_cx(self, a: int, b: int) -> None:
        self._negate(self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ 1))
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def _negate(self, rows: np.ndarray) -> None:
        """Flip the sign of every marked row in every shot."""
        # a GHZ preparation never sets an H or CX phase bit; count_nonzero is
        # the cheapest test, well below ndarray.any() on short vectors
        if np.count_nonzero(rows):
            self.r ^= _spread(rows)

    # -- Pauli gates / errors: sign flips only --

    def apply_x(self, q: int, mask: Optional[np.ndarray] = None) -> None:
        """X on qubit q in every shot, or in the shots where the 0/1 mask is 1."""
        self.flip(q, self._words(mask), None)

    def apply_z(self, q: int, mask: Optional[np.ndarray] = None) -> None:
        self.flip(q, None, self._words(mask))

    def apply_y(self, q: int, mask: Optional[np.ndarray] = None) -> None:
        words = self._words(mask)
        self.flip(q, words, words)

    def _words(self, mask: Optional[np.ndarray]) -> np.ndarray:
        return self.live if mask is None else _pack(mask, self.words)

    def flip(
        self, q: int, x_words: Optional[np.ndarray], z_words: Optional[np.ndarray]
    ) -> None:
        """X on qubit q in the shots set in x_words, Z in those set in z_words.

        Both are packed words (None for no shot); a shot in both gets Y. X
        flips the sign of every row with a Z part on q, Z of every row with
        an X part, so Y flips the rows with exactly one of them.
        """
        for words, rows in ((x_words, self.z[:, q]), (z_words, self.x[:, q])):
            if words is not None and np.count_nonzero(words):
                np.bitwise_xor(self.r, words, out=self.r, where=rows.view(bool)[:, None])

    # -- Pauli products with phase tracking --

    def _rowmult(self, rows: np.ndarray, p: int) -> None:
        """row_i := row_p * row_i for every i in rows, with sign update.

        The product picks up i^g with g summed over qubits: 0 where the two
        literals commute, +1 for X*Y, Y*Z and Z*X, -1 for the reverse order.
        Mod 4 an anticommuting qubit adds 1 + 2m, where m = x1^z1^x2^z2^(x1&z2)
        is 1 exactly for the -1 cases, so g = A + 2M (mod 4) for A
        anticommuting qubits, M of them -1. g depends only on the shared x/z
        bits, so in every shot the new sign is r_i ^ r_p ^ ((g mod 4) >> 1).
        """
        x1, z1, x2, z2 = self.x[p], self.z[p], self.x[rows], self.z[rows]
        x1z2 = x1 & z2
        anti = x1z2 ^ (z1 & x2)
        minus = anti & (x1 ^ z1 ^ x2 ^ z2 ^ x1z2)
        half = (np.count_nonzero(anti, axis=1) >> 1) + np.count_nonzero(minus, axis=1)
        self.r[rows] ^= self.r[p] ^ _spread((half & 1).astype(np.uint8))
        self.x[rows] ^= x1
        self.z[rows] ^= z1

    def measure(self, q: int, coins: Optional[np.ndarray]) -> np.ndarray:
        """Z-measurement of qubit q, collapsing in place.

        Returns the per-shot outcomes as packed words. `coins` supplies the
        packed per-shot fair coins used when the outcome is random; pass None
        only when the caller knows the outcome is deterministic.
        """
        n = self.n
        stab_x = self.x[n:, q]
        if np.count_nonzero(stab_x):
            p = n + int(np.argmax(stab_x))
            rows = np.flatnonzero(self.x[:, q].astype(bool))
            rows = rows[rows != p]
            if rows.size:
                self._rowmult(rows, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            if coins is None:
                raise InvalidForcingError(
                    f"measurement of qubit {q} is random but no coin was supplied"
                )
            self.r[p] = coins
            return self.r[p].copy()
        e_q = np.zeros(n, dtype=np.uint8)
        e_q[q] = 1
        return self._signs(0, e_q) & self.live

    def expectation(self, px, pz) -> np.ndarray:
        """Per-shot expectation (+1, -1 or 0, as int8) of a Hermitian Pauli.

        The Pauli is given by its x and z bits (length-n 0/1 arrays, or a
        scalar 0), with Y on qubits where both are set and sign +1. It has
        expectation 0 when it anticommutes with some stabilizer. Otherwise
        it is +/- the product of the stabilizers whose destabilizer
        anticommutes with it (Aaronson & Gottesman), and the sign of that
        product is returned.
        """
        signs = self._signs(px, pz)
        if signs is None:
            return np.zeros(self.shots, dtype=np.int8)
        return _PLUS_MINUS[_unpack(signs, self.shots)]

    def _signs(self, px, pz) -> Optional[np.ndarray]:
        """Packed per-shot sign bits of expectation(px, pz), None where it is 0.

        The padding bits are not cleared.
        """
        n = self.n
        xs, zs = np.flatnonzero(px), np.flatnonzero(pz)
        # row j anticommutes with P iff x_P . z_j + z_P . x_j is odd; XOR the
        # columns on P's support instead of a dense product
        anti = np.bitwise_xor.reduce(self.z[:, xs], axis=1) ^ np.bitwise_xor.reduce(
            self.x[:, zs], axis=1
        )
        if np.count_nonzero(anti[n:]):
            return None
        sel = n + np.flatnonzero(anti[:n])
        sx, sz = self.x[sel], self.z[sel]
        # a Hermitian row is i^(x.z) X^x Z^z, and moving Z^z1 past X^x2 gives
        # (-1)^(z1.x2), so the ordered product of the selected rows is
        # i^(y_rows - y_P) (-1)^cross P times their signs
        y = np.count_nonzero(sx & sz) - np.count_nonzero(np.asarray(px) & np.asarray(pz))
        z_before = np.bitwise_xor.accumulate(sz[:-1], axis=0)
        cross = np.count_nonzero(sx[1:] & z_before)
        signs = np.bitwise_xor.reduce(self.r[sel], axis=0)
        if ((y % 4) // 2 + cross) & 1:
            signs ^= _ONES
        return signs

    def is_deterministic(self, q: int) -> bool:
        """True when a Z-measurement of q has a definite outcome."""
        return not np.count_nonzero(self.x[self.n :, q])

    def stabilizer_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, sign) of the n stabilizer generators for a 1-shot tableau."""
        if self.shots != 1:
            raise ValueError("stabilizer_rows is defined for single-shot tableaus")
        n = self.n
        return self.x[n:].copy(), self.z[n:].copy(), _unpack(self.r[n:], 1)[:, 0]

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


def _check_capacity(c: Circuit, max_qubits: int) -> None:
    if c.qubit_count > max_qubits:
        raise CapacityError(f"{c.qubit_count} qubits exceeds the maximum of {max_qubits}")


def _lanes_in(words: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Whether each of the given shots is set in the packed words."""
    bits = words[lanes >> 6] >> (lanes & 63).astype(np.uint64)
    return (bits & np.uint64(1)).astype(bool)


def _pack_lanes(lanes: np.ndarray, shots: int) -> np.ndarray:
    """Packed words with exactly the given shots set."""
    bits = np.zeros(shots, dtype=bool)
    bits[lanes] = True
    return _pack(bits, -(-shots // 64))


def _batched_run(
    c: Circuit,
    stream: CounterStream,
    shots: int,
    noise: Optional[NoiseModel],
    forced: Sequence[Optional[int]] = (),
    terminal_readout: bool = False,
) -> tuple[Tableau, np.ndarray, list[np.ndarray]]:
    """Shared engine for run() and sample_counts().

    stream has one lane per shot. Draw indices are handed out in the order of
    the randomness contract whether or not the draw is read, and only the
    draws read are computed. Returns (tableau, classical bits, outcome log)
    with every per-shot value in packed words: cbits has one row per
    classical bit, followed by one per qubit when terminal_readout appends
    the readout, and the log has one word vector per measurement event.
    """
    n = c.qubit_count
    c.validate()
    tab = Tableau(n, shots)
    words = tab.words
    ops = list(c.ops)
    if terminal_readout:
        ops += [MeasureZ(q, c.cbit_count + q) for q in range(n)]
    cbits = np.zeros((c.cbit_count + (n if terminal_readout else 0), words), dtype=np.uint64)
    log: list[np.ndarray] = []
    slots = itertools.count()  # index of the next draw
    event = 0

    def below(p: float) -> np.ndarray:
        """Packed words of the shots whose next draw is below p."""
        t = next(slots)
        if p <= 0:
            return np.zeros(words, dtype=np.uint64)
        return _pack(stream.uniforms(t) < p, words)

    def depolarize(qs: tuple[int, ...], p: float, fire: Optional[np.ndarray] = None):
        """Pauli error with probability p, uniform over the 4**k - 1 non-identity ones.

        Takes an error draw and a choice draw; the choice is read only in
        the shots that erred (and, for a CondX, fired).
        """
        t_err, t_which = next(slots), next(slots)
        if p <= 0:
            return
        lanes = np.flatnonzero(stream.uniforms(t_err) < p)
        if fire is not None:
            lanes = lanes[_lanes_in(fire, lanes)]
        if not lanes.size:
            return
        choices = 4 ** len(qs) - 1
        u = stream.uniforms(t_which, lanes)
        code = np.minimum((u * choices).astype(np.int64), choices - 1) + 1
        for i, q in enumerate(qs):
            pauli = (code >> 2 * (len(qs) - 1 - i)) & 3  # 0..3 = I, X, Y, Z
            x_part, z_part = lanes[(pauli == 1) | (pauli == 2)], lanes[pauli >= 2]
            tab.flip(q, _pack_lanes(x_part, shots), _pack_lanes(z_part, shots))

    def measure_event(q: int) -> np.ndarray:
        nonlocal event
        t_coin = next(slots)
        want = forced[event] if event < len(forced) else None
        want_words = None if want is None else tab.live * np.uint64(want)
        if tab.is_deterministic(q):
            outcome = tab.measure(q, None)
        else:
            if want is None:
                want_words = _pack(stream.uniforms(t_coin) < 0.5, words)
            outcome = tab.measure(q, want_words)
        if want is not None and not np.array_equal(outcome, want_words):
            raise InvalidForcingError(
                f"measurement event {event} on qubit {q} is deterministically "
                f"{int(outcome[0] & 1)}, cannot force {int(want)}"
            )
        log.append(outcome)
        event += 1
        return outcome

    for op in ops:
        if isinstance(op, H):
            tab.apply_h(op.q)
            if noise is not None:
                depolarize((op.q,), noise.p1)
        elif isinstance(op, X):
            tab.apply_x(op.q)
            if noise is not None:
                depolarize((op.q,), noise.p1)
        elif isinstance(op, CX):
            tab.apply_cx(op.control, op.target)
            if noise is not None:
                depolarize((op.control, op.target), noise.p2)
        elif isinstance(op, CondX):
            fire = cbits[op.cbit]
            for t in op.targets:
                tab.flip(t, fire, None)
                if noise is not None:
                    depolarize((t,), noise.p1, fire)
        elif isinstance(op, MeasureZ):
            outcome = measure_event(op.q)
            if noise is not None:
                outcome = outcome ^ below(noise.pm)
            cbits[op.cbit] = outcome
        elif isinstance(op, Reset):
            # an X where the outcome is 1 resets to |0>, a reset error adds one more
            flip = measure_event(op.q)
            if noise is not None:
                flip = flip ^ below(noise.pr)
            tab.flip(op.q, flip, None)
    return tab, cbits, log


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
    _check_capacity(c, max_qubits)
    stream = CounterStream(np.array([check_seed(seed)], dtype=np.uint64))
    tab, cbits, log = _batched_run(c, stream, 1, noise, forced=forced_outcomes)
    return SimOutcome(
        tableau=tab,
        cbits=_unpack(cbits, 1)[:, 0].tolist(),
        outcome_log=_unpack(np.array(log, dtype=np.uint64).reshape(-1, 1), 1)[:, 0].tolist(),
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
    the returned keys) and runs `shots` independent simulations; shot s draws
    from the counter-based stream keyed by derive_seed(seed, "shot", s), so
    any single shot can be reproduced with run() on the extended circuit and
    that seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_capacity(c, max_qubits)
    stream = CounterStream(shot_keys(seed, shots))
    _, cbits, _ = _batched_run(c, stream, shots, noise, terminal_readout=True)
    readout = _unpack(cbits[c.cbit_count :], shots).T  # (shots, n)
    strings = (readout + ord("0")).tobytes().decode("ascii")
    n = c.qubit_count
    return Counter(strings[i * n : (i + 1) * n] for i in range(shots))
