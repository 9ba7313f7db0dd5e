"""Exact Clifford simulation on a stabilizer tableau, sampled by Pauli frames.

The tableau follows Aaronson & Gottesman (Phys. Rev. A 70, 052328): rows
0..n-1 are destabilizers, rows n..2n-1 stabilizers, each row a Pauli in
binary symplectic form (x bits, z bits) with a sign bit.

Everything is bit-packed into uint64 words, the layouts of Stim (Gidney,
Quantum 5, 497, 2021). The x/z bits are stored by column: x[q] and z[q] are
qubit q's x and z bits over the 2n rows, row i at bit i % 64 of word i // 64,
so x and z have shape (n, ceil(2n / 64)), and the 2n signs are packed by row
the same way. H swaps two word rows and CX XORs them, each with a one-word-op
sign update; a measurement collapse XORs one row mask into the columns on
the pivot row's support and computes the product phases bit-sliced, for all
rows at once, in word operations.

A Tableau is one shot. Many shots are sampled with Pauli frames (Gidney
2021): the engine walks one reference tableau through the circuit and keeps
beside it one Pauli frame per shot, such that shot s's state is the
reference state with X^a Z^b applied, a and b being shot s's frame bits.
The frames are two (n, ceil(shots / 64)) word matrices packed by shot (shot
s at bit s % 64 of word s // 64), as are the coins, noise masks, outcomes
and classical bits. H swaps a qubit's two frame rows, CX XORs two of them,
and an error, CondX or reset correction XORs its shots into one row, each in
O(shots / 64) words whatever n is. A random measurement reports each shot's
coin; where that differs from the reference's outcome as seen through the
shot's frame, the shot is on the other branch, which the reference's pivot
stabilizer from before the collapse maps onto the reference's, so that row
is multiplied into the shot's frame. A deterministic measurement reports the
reference's outcome XOR the frame's x bit. The reference takes shot 0's
coins, so a noiseless single shot never touches its frame. run is this
engine over one shot with the frame folded into the reference's signs at
the end; sample_counts appends a MeasureZ of every qubit to the ops, so each
sampled shot equals the run of those ops, down to all 2n signs. A qubit
measured since its last reset stays in that measurement's Z eigenstate, since
a valid circuit touches it with nothing but its reset, so its next event (the
reset, or a readout re-measure) takes the reference's outcome of that
measurement untested. The engine tests every other measurement event once, by
its own column (x[q] & stab_mask), and only a random one reaches
Tableau.measure. A deterministic one leaves the tableau unchanged, so it and
the MeasureZ right after it, up to the first random one, mid-circuit or in the
readout, take their outcomes from one GF(2) matrix product. Bits past the
last row or shot are padding and stay zero.
Only the API edge unpacks per-shot bits (SimOutcome, the histogram) or rows
(Tableau.rows, the one row-major view, and its stabilizer half
stabilizer_rows).

Tableau.expectation gives the expectation (+1, -1 or 0) of any Hermitian
Pauli by the destabilizer method. It is the single Pauli-membership
primitive: its sign computation is the engine's product for deterministic
outcomes, and outside the engine a tableau t's determined Z outcome of
qubit q is (1 - t.expectation(0, e_q)) // 2, e_q the unit vector of q.

Randomness contract (part of the reproducibility guarantee): each shot
owns one 64-bit key and reads the counter-based stream of rng.CounterStream,
whose draw t is a fixed function of (key, t). Shot s of
sample_counts(seed=m) has key (derive_seed(m, "shot") + s) mod 2**64
(rng.shot_keys: one hash per call) and run(c, seed) has key seed, so shot s
equals the single-shot run of the ops and readout with that key.

- The coin of measurement event e (each MeasureZ and each Reset, the n
  MeasureZ of the readout too, in program order) is draw e, with or without
  a noise model. A deterministic or forced measurement owns its draw
  without reading it.
- Noise falls into four error classes, each numbering its locations
  0..m-1 in program order: 1-qubit locations (after each H and X, and on
  each CondX target), CX locations, readout flips (every MeasureZ) and
  reset errors (every Reset). Class c (0..3) with probability p > 0 is
  sampled by geometric skipping (rng.CounterStream.skips): a shot's j-th
  skip reads draw B_c + 2j, with B_c = 2**62 + c * 2**58, far above any
  event's coin. Its gap is the number of k >= 1 with u < (1 - p)**k, the
  powers built by sequential float64 multiplication, and the next erring
  location is the previous one + gap + 1, until m is passed. A location
  so errs with probability 1 - fl(1 - p), p rounded to a multiple of
  2**-53 (NoiseModel refuses a p > 0 below that). A class with p = 0
  reads no draw.
- A depolarizing location found by skip j takes its Pauli from draw
  B_c + 2j + 1, uniform over the 4**k - 1 non-identity k-qubit Paulis:
  code = min(floor(u * (4**k - 1)), 4**k - 2) + 1, whose base-4 digits,
  most significant first, give each qubit's I, X, Y, Z (0..3). An error on
  a CondX target counts only in the shots where the correction fired.

Each error class is one stream of noise masks, read in program order: each
gate op takes its locations' packed X/Z masks as the walk reaches it, and
each measurement event its readout-flip or reset-error mask, and the walk
XORs them in. A class draws its masks one block of locations at a time,
and its block holds its share of as many mask rows as the frame, or 1 MiB
of them if that is more, so the masks never take much more memory than
the frame.
"""

from __future__ import annotations

import copy
import itertools
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import schema
from .circuit import CX, Circuit, CondX, H, MeasureZ, Operation, Reset, X, touched_qubits
from .rng import CounterStream, check_seed, shot_keys

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

MAX_QUBITS = 4096


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

    Each is 0 or in [2**-53, 1]: the noise sampler's resolution is 2**-53,
    and a location errs with probability 1 - fl(1 - p), p rounded to it.
    """

    p1: float = 0.0
    p2: float = 0.0
    pm: float = 0.0
    pr: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = schema.check_probability(getattr(self, f.name), f.name)
            if 0.0 < v < 2.0**-53:
                raise schema.InputError(f"{f.name}: must be 0 or at least 2**-53, got {v}")
            object.__setattr__(self, f.name, v)


_ONE = np.uint64(1)
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# whether the Pauli I, X, Y, Z (0..3) has an x part and a z part
_PARTS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=bool)


def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack a 0/1 vector into `words` uint64 words.

    Entry i lands at bit i % 64 of word i // 64; the padding bits are zero.
    """
    buf = np.zeros(8 * words, dtype=np.uint8)
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    buf[: packed.size] = packed
    return buf.view("<u8")


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits (uint8 0/1) of packed words, along the last axis."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=count, bitorder="little")


def _first_bit(words: np.ndarray) -> Optional[int]:
    """Index of the lowest set bit of a packed vector, None if no bit is set."""
    nz = words.nonzero()[0]
    if not nz.size:
        return None
    v = int(words[nz[0]])
    return 64 * int(nz[0]) + (v & -v).bit_length() - 1


def _bits_at(words: np.ndarray, i) -> np.ndarray:
    """Bit i (an int or an index array) of packed words, over the leading axes."""
    i = np.asarray(i)
    return (words[..., i >> 6] >> (i & 63).astype(np.uint64)) & _ONE


class Tableau:
    """Single-shot stabilizer tableau: packed x/z columns and packed signs.

    x and z have shape (n, ceil(2n / 64)): x[q] holds qubit q's x bits over
    the 2n rows, row i at bit i % 64 of word i // 64 (z likewise). They are
    the two halves of one (2, n, ceil(2n / 64)) array xz, so an update that
    treats x and z alike is one operation on xz. r holds the 2n sign bits in
    the same packing and stab_mask the mask of the stabilizer rows n..2n-1,
    so every sign update is one word operation.
    """

    def __init__(self, n: int):
        self.n = n
        row_words = -(-2 * n // 64)
        self.stab_mask = _pack(np.arange(2 * n) >= n, row_words)
        self.xz = np.zeros((2, n, row_words), dtype=np.uint64)
        self.x, self.z = self.xz
        self.r = np.zeros(row_words, dtype=np.uint64)
        idx = np.arange(n)
        stab = n + idx
        self.x[idx, idx >> 6] = _ONE << (idx & 63).astype(np.uint64)  # destabilizer i = X_i
        self.z[idx, stab >> 6] = _ONE << (stab & 63).astype(np.uint64)  # stabilizer i = Z_i

    def copy(self) -> Tableau:
        """An independent copy of the tableau."""
        new = copy.copy(self)
        new.xz, new.r = self.xz.copy(), self.r.copy()
        new.x, new.z = new.xz
        return new

    # -- Clifford gates --

    def apply_h(self, q: int) -> None:
        self.r ^= self.x[q] & self.z[q]
        self.xz[:, q] = self.xz[::-1, q]  # swap; numpy buffers the overlapping source

    def apply_cx(self, a: int, b: int) -> None:
        xa, xb, za, zb = self.x[a], self.x[b], self.z[a], self.z[b]
        self.r ^= xa & zb & ~(xb ^ za)
        xb ^= xa
        za ^= zb

    # -- Pauli gates: sign flips only --

    def flip(self, xs: Sequence[int], zs: Sequence[int]) -> None:
        """The Pauli with X parts on the qubits xs and Z parts on zs (Y on both).

        X on q flips the sign of every row with a Z part on q, Z of every row
        with an X part, so a row's sign flips iff it anticommutes with the
        Pauli. xs and zs may be any sequences or index arrays.
        """
        # index arrays, since x[(q,)] would be qubit q's word row and x[()] every qubit
        self.r ^= self._anticommuting(np.asarray(xs, dtype=np.intp), np.asarray(zs, dtype=np.intp))

    def _anticommuting(self, xs, zs) -> np.ndarray:
        """Packed mask of the rows that anticommute with a Pauli with X parts
        on the qubits xs and Z parts on zs (index arrays).

        Row j anticommutes iff x_P . z_j + z_P . x_j is odd: XOR the z columns
        on xs and the x columns on zs, for all rows at once.
        """
        return np.bitwise_xor.reduce(np.concatenate((self.z[xs], self.x[zs])), axis=0)

    # -- Pauli products with phase tracking --

    def _rowmult(self, rows: np.ndarray, p: int, supp: np.ndarray, p_bits: np.ndarray) -> None:
        """row_i := row_p * row_i for every row i of the packed mask, with sign update.

        supp lists the qubits on row p's support and p_bits (2, len(supp))
        holds row p's x and z bits on them.

        The product picks up i^g with g summed over qubits: 0 where the two
        literals commute, +1 for X*Y, Y*Z and Z*X, -1 for the reverse order.
        Mod 4 an anticommuting qubit adds 1 + 2m, where m = x1^z1^x2^z2^(x1&z2)
        is 1 exactly for the -1 cases, so g = A + 2M (mod 4) for A
        anticommuting qubits, M of them -1, and the sign flips iff bit 1 of
        A, which is the parity of the pairs of anticommuting qubits, differs
        from the parity of M. Only qubits on row p's support contribute, and
        the new sign is r_i ^ r_p ^ that bit.
        """
        ones = np.negative(p_bits[:, :, None])  # all-ones words where row p has x / z
        x1, z1 = ones
        x2z2 = self.xz[:, supp]
        x2, z2 = x2z2
        x1z2 = x1 & z2
        anti = x1z2 ^ (z1 & x2)
        minus = anti & (x1 ^ z1 ^ x2 ^ z2 ^ x1z2)
        pairs = anti[1:] & np.bitwise_xor.accumulate(anti[:-1], axis=0)
        phase = np.bitwise_xor.reduce(pairs, axis=0) ^ np.bitwise_xor.reduce(minus, axis=0)
        if (int(self.r[p >> 6]) >> (p & 63)) & 1:
            phase ^= _ONES
        self.r ^= phase & rows
        self.xz[:, supp] = x2z2 ^ (ones & rows)

    def measure(self, q: int, coin: int) -> tuple[np.ndarray, np.ndarray]:
        """Random Z-measurement of qubit q with outcome coin, collapsing in place.

        Returns the kick, the pivot stabilizer from before the collapse, as
        (its support's qubits, its (2, len(support)) x/z bits there): the
        Pauli that maps the post-measurement state of the other outcome onto
        this one. A measurement is random iff x[q] & stab_mask is nonzero;
        a determined one raises ValueError, its outcome being
        (1 - expectation(0, e_q)) // 2 for e_q the unit vector of q.
        """
        col = self.x[q]
        p = _first_bit(col & self.stab_mask)
        if p is None:
            raise ValueError(
                f"measurement of qubit {q} is deterministic; read its outcome from expectation"
            )
        w, b = p >> 6, np.uint64(p & 63)
        # row p's bits are read once, from one strided word column; later
        # updates of row p touch its support only
        bits = (self.xz[:, :, w] >> b) & _ONE
        supp = (bits[0] | bits[1]).nonzero()[0]
        p_bits = bits[:, supp]
        rows = col.copy()
        rows[w] ^= _ONE << b
        self._rowmult(rows, p, supp, p_bits)
        # row p - n := row p, then row p := Z_q with the coin as its sign
        d = p - self.n
        dw, db = d >> 6, np.uint64(d & 63)
        self.xz[:, :, dw] &= ~(_ONE << db)
        self.xz[:, supp, dw] |= p_bits << db
        self.xz[:, supp, w] &= ~(_ONE << b)
        self.z[q, w] |= _ONE << b
        r_p = (int(self.r[w]) >> int(b)) & 1
        self.r[dw] = (int(self.r[dw]) & ~(1 << int(db))) | (r_p << int(db))
        self.r[w] = (int(self.r[w]) & ~(1 << int(b))) | (coin << int(b))
        return supp, p_bits

    def expectation(self, px, pz) -> int:
        """Expectation (+1, -1 or 0) of a Hermitian Pauli.

        The Pauli is given by its x and z bits (length-n 0/1 arrays, or a
        scalar 0), with Y on qubits where both are set and sign +1. It has
        expectation 0 when it anticommutes with some stabilizer. Otherwise
        it is +/- the product of the stabilizers whose destabilizer
        anticommutes with it (Aaronson & Gottesman), and the sign of that
        product is returned.
        """
        anti = self._anticommuting(np.flatnonzero(px), np.flatnonzero(pz))
        if np.count_nonzero(anti & self.stab_mask):
            return 0
        y_p = np.count_nonzero(np.asarray(px) & np.asarray(pz))
        return 1 - 2 * int(self._signs(anti[None], y_p)[0])

    def _signs(self, anti: np.ndarray, y_p) -> np.ndarray:
        """Sign bits (uint8) of k Paulis that commute with every stabilizer.

        anti (k, row words) holds, per Pauli P, the packed mask of the rows
        that anticommute with P, all of them destabilizers; y_p is P's
        number of Y parts (one int for all, or one per Pauli). P is +/- the
        product of the stabilizers n + j whose destabilizer j is in its
        mask. With A the (k, rows) 0/1 matrix of those choices, the sign is

            A r + floor((A y - y_p mod 4) / 2) + A U A^T  (mod 2, per Pauli)

        over the selected rows: r their signs, y their Y counts, U the strict
        upper triangle of Z X^T mod 2 with Z, X their z and x bits, one row
        each. A Hermitian row is i^(x.z) X^x Z^z, and moving Z^z1 past X^x2
        gives (-1)^(z1.x2), so the ordered product of the chosen rows is
        i^(y_rows - y_P) (-1)^cross P times their signs, cross counting
        z_j . x_l over chosen pairs j < l. Only qubits where a chosen row
        has an x part add to y or to Z X^T, so the products run over those
        (none once every qubit is deterministic, as in a GHZ readout after
        its first outcome: then P is a Z-product and there is no phase).
        They are float64, exact since every entry stays below n^2 < 2^53.
        """
        n = self.n
        a = _unpack(anti, n)
        sel = a.any(axis=0).nonzero()[0]
        rows = n + sel
        a = a[:, sel]
        signs = a @ _unpack(self.r, 2 * n)[rows]  # uint8 wraps, which keeps the parity
        sx = _bits_at(self.x, rows)  # (qubits, rows)
        cols = sx.any(axis=1).nonzero()[0]
        if not cols.size:
            return signs & 1
        sx = sx[cols].astype(np.float64)
        sz = _bits_at(self.z[cols], rows).astype(np.float64)
        a = a.astype(np.float64)
        y = (sx * sz).sum(axis=0)
        upper = np.triu((sz.T @ sx) % 2, 1)
        phase = ((a @ y - y_p) % 4) // 2 + ((a @ upper) * a).sum(axis=1)
        return (signs + phase.astype(np.int64)) & 1

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, sign) of all 2n rows, the tableau's one row-major view.

        x and z are (2n, n) uint8 with one row per destabilizer (0..n-1) and
        stabilizer (n..2n-1), one column per qubit; sign is the 2n sign bits.
        """
        x, z = np.ascontiguousarray(_unpack(self.xz, 2 * self.n).transpose(0, 2, 1))
        return x, z, _unpack(self.r, 2 * self.n)

    def stabilizer_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, sign) of the n stabilizer generators: the lower half of rows()."""
        return tuple(a[self.n:] for a in self.rows())


class PauliFrame:
    """One reference tableau and one Pauli frame per shot (Gidney 2021).

    Shot s's state is the reference state with X^a Z^b applied, up to a
    global phase, where a and b are bit s of fx and fz: f has shape
    (2, n, ceil(shots / 64)), f[0] = fx and f[1] = fz, one packed word row
    per qubit, shot s at bit s % 64 of word s // 64. every has every shot's
    bit set. The reference measures with shot 0's coin. While clean, every
    frame is the identity, which every gate leaves so, and gate updates of
    the frame are skipped.
    """

    def __init__(self, n: int, shots: int):
        self.ref = Tableau(n)
        words = -(-shots // 64)
        self.every = _pack(np.ones(shots, dtype=bool), words)
        self.f = np.zeros((2, n, words), dtype=np.uint64)
        self.fx, self.fz = self.f
        self.clean = True

    def all_or_none(self, bit: int) -> np.ndarray:
        """Packed words with every shot set if bit is 1, none if 0."""
        return self.every * np.uint64(bit)

    def apply_h(self, q: int) -> None:
        self.ref.apply_h(q)
        if not self.clean:
            self.f[:, q] = self.f[::-1, q]

    def apply_cx(self, a: int, b: int) -> None:
        self.ref.apply_cx(a, b)
        if not self.clean:
            self.fx[b] ^= self.fx[a]
            self.fz[a] ^= self.fz[b]

    def xor(self, q: int, xz: np.ndarray) -> None:
        """A Pauli error on qubit q: X in the shots of packed words xz[0], Z in those of xz[1]."""
        self.f[:, q] ^= xz
        self.clean = False

    def flip_x(self, qs: Sequence[int], words: np.ndarray, ref_bit: int) -> None:
        """X on every qubit of qs in the shots set in words, and in the reference iff ref_bit."""
        if ref_bit:
            self.ref.flip(qs, ())
        delta = words ^ self.all_or_none(ref_bit)
        if np.count_nonzero(delta):
            self.fx[list(qs)] ^= delta
            self.clean = False

    def measure(self, q: int, coins: np.ndarray) -> None:
        """Random Z-measurement of qubit q in every shot, the packed coins being the outcomes.

        The reference takes shot 0's coin, bit 0 of coins.
        """
        ref_bit = int(coins[0] & _ONE)
        kick = self.ref.measure(q, ref_bit)
        # a shot whose coin differs from the reference's outcome seen through
        # its frame is on the other branch: the kick maps it onto the reference's
        other = coins ^ self.fx[q] ^ self.all_or_none(ref_bit)
        if np.count_nonzero(other):
            supp, p_bits = kick
            self.f[:, supp] ^= np.negative(p_bits)[:, :, None] & other
            self.clean = False

    def fold(self, shot: int) -> Tableau:
        """The tableau of one shot: the reference with the shot's frame folded into its signs."""
        t = self.ref.copy()
        t.flip(*map(np.flatnonzero, _bits_at(self.f, shot)))
        return t


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


def _check_capacity(c: Circuit) -> None:
    if c.qubit_count > MAX_QUBITS:
        raise CapacityError(f"{c.qubit_count} qubits exceeds the maximum of {MAX_QUBITS}")


def _check_forced(forced: Sequence[Optional[int]], ops: Sequence[Operation]) -> None:
    """ValueError unless there are at most as many forced outcomes as ops has
    measurement events (MeasureZ and Reset) and each is None, 0 or 1."""
    events = sum(isinstance(op, (MeasureZ, Reset)) for op in ops)
    if len(forced) > events:
        raise ValueError(f"forced_outcomes: {len(forced)} entries for {events} measurement events")
    for i, bit in enumerate(forced):
        if bit is not None and bit not in (0, 1):
            raise ValueError(f"forced_outcomes[{i}]: must be None, 0 or 1, got {bit!r}")


# B_c = _SKIP_BASE + c * _SKIP_STRIDE, the first skip draw of error class c
_SKIP_BASE, _SKIP_STRIDE = 2**62, 2**58
# the mask blocks of the error classes together hold as many rows as the
# frame, or this many bytes if more
_WINDOW_BYTES = 2**20
# the error class of each op type: 1-qubit locations, CX locations, readout
# flips and reset errors, in the order of NoiseModel's p1, p2, pm and pr
_ERROR_CLASS = {H: 0, X: 0, CondX: 0, CX: 1, MeasureZ: 2, Reset: 3}
# the qubits of one location of each class: a CX's two, one, and none for a flip
_QUBITS = (1, 2, 0, 0)


def _noise(
    ops: Sequence[Operation],
    stream: CounterStream,
    words: int,
    noise: Optional[NoiseModel],
    rows: int,
) -> list[Callable[[], Optional[np.ndarray]]]:
    """Per error class, the function that gives its next location's masks, in
    program order (see the randomness contract above).

    A gate location's masks are packed (k, 2, words) x/z words for its k
    qubits, a readout flip's or reset error's one row of words; a location
    where no shot errs gives None, and so does every location of a class
    with p = 0. A class with p > 0 is drawn by its skip sampler one block of
    locations at a time, as the walk reaches them. Its block is its share
    of `rows` mask rows, two per qubit of a gate location and one per
    event, in proportion to the class's rows in ops, so the blocks together
    take about as much memory as `rows` frame rows.
    """
    probabilities = (noise.p1, noise.p2, noise.pm, noise.pr) if noise else (0.0,) * 4
    draws = [itertools.repeat(None).__next__] * 4
    if not any(probabilities):
        return draws
    counts = [0] * 4
    for op in ops:
        c = _ERROR_CLASS[type(op)]
        counts[c] += len(touched_qubits(op)) if c == 0 else 1
    held = sum(max(2 * k, 1) * m for k, m in zip(_QUBITS, counts))
    for c, (k, m, p) in enumerate(zip(_QUBITS, counts, probabilities)):
        if m and p > 0:
            sampler = stream.skips(_SKIP_BASE + c * _SKIP_STRIDE, p, m)
            block = -(-rows * m // held)
            draws[c] = _masks(sampler, stream, m, k, block, words).__next__
    return draws


def _masks(
    sampler, stream: CounterStream, m: int, k: int, block: int, words: int
) -> Iterator[Optional[np.ndarray]]:
    """The masks of a class's m locations of k qubits each, in turn, drawn
    `block` locations at a time (see _noise)."""
    shape = (k, 2, words) if k else (words,)
    for first in range(0, m, block):
        end = min(first + block, m)
        masks = np.zeros((end - first, *shape), dtype=np.uint64)
        flat = masks.reshape(-1)
        hit = np.zeros(end - first, dtype=bool)
        for lanes, at_loc, t in sampler.until(end):
            locs = at_loc - first  # within the block
            hit[locs] = True
            at = locs * masks[0].size + (lanes >> 6)  # each error's word in flat
            # lanes of one word may share a location
            bit = _ONE << (lanes & 63).astype(np.uint64)
            if not k:
                np.bitwise_or.at(flat, at, bit)
                continue
            # uniform over the 4**k - 1 non-identity Paulis, from the draw after the
            # skip; qubit j's Pauli is base-4 digit k - 1 - j of the code, 0..3 = I, X, Y, Z
            choices = 4**k - 1
            u = stream.uniforms(t, lanes)
            code = np.minimum((u * choices).astype(np.int64), choices - 1) + 1
            for j in range(k):
                pauli = (code >> 2 * (k - 1 - j)) & 3
                for part in (0, 1):
                    has = _PARTS[pauli, part]
                    np.bitwise_or.at(flat, at[has] + (2 * j + part) * words, bit[has])
        for loc, erred in enumerate(hit.tolist()):
            yield masks[loc] if erred else None


def _simulate(
    n: int,
    cbit_count: int,
    ops: Sequence[Operation],
    stream: CounterStream,
    shots: int,
    noise: Optional[NoiseModel],
    forced: Sequence[Optional[int]] = (),
) -> tuple[PauliFrame, np.ndarray, list[np.ndarray]]:
    """Shared engine for run() and sample_counts(): ops on n qubits and cbit_count bits.

    ops are a valid Circuit's, followed in sample_counts by its readout,
    which may re-measure a qubit: apart from that readout, only its Reset
    touches a qubit measured since its last reset. stream has one lane per
    shot. Each op takes its noise masks from its error class's stream (see
    _noise), which the walk XORs in, and the walk reads only the coins of
    the random measurements. The walk is the only code that decides
    determinism. A measured qubit's next event, its Reset or a readout
    re-measure, takes the reference's outcome of that measurement, kept in
    `measured`: by the precondition the reference is still in that Z
    eigenstate, and each shot in it XOR the frame's x bit. The walk tests
    every other measurement event once, and a deterministic one waits in a
    pending list, which settle() gives its outcomes from one _signs product
    before any op that is not a deterministic MeasureZ, and at the end.
    Returns (frame, classical bits, outcome log) with every per-shot value in
    packed words: cbits has one row per classical bit and the log one word
    vector per measurement event.
    """
    frame = PauliFrame(n, shots)
    ref = frame.ref
    cbits = np.zeros((cbit_count, frame.every.size), np.uint64)
    ref_cbits = [0] * cbit_count  # the reference's (noiseless) classical bits
    measured: dict[int, int] = {}  # qubit -> the reference's outcome, until its reset
    log: list[np.ndarray] = []
    words = frame.every.size
    draw = _noise(ops, stream, words, noise, max(2 * n, _WINDOW_BYTES // (8 * words)))

    def event(i: int, ref_bit: Optional[int]) -> None:
        """Coin, forcing and log entry of the event ops[i], then its cbit (after any
        readout flip) or reset; ref_bit is the reference's outcome if deterministic."""
        op, e = ops[i], len(log)  # event e's coin is draw e
        want = forced[e] if e < len(forced) else None
        if ref_bit is None:
            outcome = stream.coins(e) if want is None else frame.all_or_none(want)
            frame.measure(op.q, outcome)
            ref_bit = int(outcome[0] & _ONE)
        else:
            outcome = frame.all_or_none(ref_bit) ^ frame.fx[op.q]
            if want is not None and not np.array_equal(outcome, frame.all_or_none(want)):
                raise InvalidForcingError(
                    f"measurement event {e} on qubit {op.q} is deterministically "
                    f"{int(outcome[0] & _ONE)}, cannot force {int(want)}"
                )
        log.append(outcome)
        flip = draw[_ERROR_CLASS[type(op)]]()
        noisy = outcome if flip is None else outcome ^ flip
        if isinstance(op, MeasureZ):
            cbits[op.cbit] = noisy
            ref_cbits[op.cbit] = measured[op.q] = ref_bit
        else:  # an X where the outcome is 1 resets to |0>, a reset error adds one more
            frame.flip_x((op.q,), noisy, ref_bit)
            measured.pop(op.q, None)

    pending: list[int] = []  # deterministic events, their outcomes not yet taken

    def settle() -> None:
        """Give every pending event its outcome, all from one product."""
        if pending:
            qs = [ops[k].q for k in pending]
            for k, bit in zip(pending, ref._signs(ref.x[qs], 0).tolist()):
                event(k, bit)
            pending.clear()

    for i, op in enumerate(ops):
        if isinstance(op, (MeasureZ, Reset)):
            # a measured qubit's event takes that measurement's outcome; any
            # other is tested once, by its own column. A deterministic event
            # leaves the tableau as it is, so its outcome can wait, but a
            # reset's X may change the signs, so a deterministic reset settles
            # at once
            if op.q in measured:
                settle()
                event(i, measured[op.q])
            elif np.count_nonzero(ref.x[op.q] & ref.stab_mask):
                settle()
                event(i, None)
            else:
                pending.append(i)
                if isinstance(op, Reset):
                    settle()
            continue
        settle()
        if isinstance(op, H):
            frame.apply_h(op.q)
        elif isinstance(op, X):
            frame.flip_x((op.q,), frame.every, 1)
        elif isinstance(op, CX):
            frame.apply_cx(op.control, op.target)
        elif isinstance(op, CondX):
            # the X corrections commute, so all targets flip at once before their errors
            fire = cbits[op.cbit]
            frame.flip_x(op.targets, fire, ref_cbits[op.cbit])
        if isinstance(op, CX):  # one location over both qubits
            xz = draw[1]()
            if xz is not None:
                frame.xor(op.control, xz[0])
                frame.xor(op.target, xz[1])
            continue
        for q in touched_qubits(op):  # one location per qubit
            xz = draw[0]()
            if xz is not None:
                # a correction errs only where it fired
                frame.xor(q, xz[0] & fire if isinstance(op, CondX) else xz[0])
    settle()
    return frame, cbits, log


def run(
    c: Circuit,
    seed: int,
    noise: Optional[NoiseModel] = None,
    forced_outcomes: Sequence[Optional[int]] = (),
) -> SimOutcome:
    """Simulate one execution of the circuit.

    Random measurement outcomes are resolved by seeded fair coins unless
    pinned via forced_outcomes (None, 0 or 1 per measurement event, in
    program order; a short list leaves the rest unforced, and a longer list
    or another value raises ValueError). Forcing an outcome the state assigns
    probability zero raises InvalidForcingError.
    """
    _check_capacity(c)
    _check_forced(forced_outcomes, c.ops)
    stream = CounterStream(np.array([check_seed(seed)], dtype=np.uint64))
    frame, cbits, log = _simulate(c.qubit_count, c.cbit_count, c.ops, stream, 1, noise,
                                  forced_outcomes)
    return SimOutcome(
        tableau=frame.fold(0),
        cbits=_unpack(cbits, 1)[:, 0].tolist(),
        outcome_log=_unpack(np.array(log, dtype=np.uint64).reshape(-1, 1), 1)[:, 0].tolist(),
    )


def sample_counts(
    c: Circuit,
    shots: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
) -> Counter:
    """Sample terminal all-qubit readout histograms.

    Simulates the ops and then MeasureZ(q, cbit_count + q) for every qubit q
    (the leftmost bit of the keys is qubit 0) in the loop of run(), for `shots`
    shots; shot s draws from the stream keyed by (derive_seed(seed, "shot") + s)
    mod 2**64, so it equals the single-shot run of those ops with that key.
    """
    schema.check_count(shots, "shots")
    _check_capacity(c)
    stream = CounterStream(shot_keys(check_seed(seed), shots))
    n, m = c.qubit_count, c.cbit_count
    ops = c.ops + tuple(MeasureZ(q, m + q) for q in range(n))
    _, cbits, _ = _simulate(n, m + n, ops, stream, shots, noise)
    # one ASCII row of '0'/'1' per shot, counted as bytes, decoded once per key
    readout = np.ascontiguousarray(_unpack(cbits[m:], shots).T + ord("0"))
    rows = readout.view(f"S{n}")[:, 0].tolist()
    return Counter({row.decode("ascii"): k for row, k in Counter(rows).items()})
