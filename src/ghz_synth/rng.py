"""Seeding policy shared by the whole package.

Derived seeds are computed by hashing a label tuple with BLAKE2b, so adding
new consumers never perturbs the streams of existing ones.

Two kinds of stream consume them. Layout sampling, the dense oracle and the
test helpers draw from numpy's PCG64 generator (make_rng); BoundedDraws
reproduces that generator's integers(0, m) from raw words, draw for draw,
for subgraph accretion, which makes one such draw per node. The stabilizer
engine draws from a counter-based stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): draw t of a 64-bit key K is

    u_t = (mix(mix(K) + (t + 1) * GAMMA) >> 11) * 2**-53

in wrapping uint64 arithmetic, where mix is the SplitMix64 finalizer and
GAMMA = 0x9E3779B97F4A7C15. Every draw is addressed by its index, so a
caller computes only the draws it reads, for any subset of keys at once.
Pre-mixing the key keeps nearby keys such as 0, 1, 2 from giving related
streams.

Rare events are sampled by geometric skipping (Gidney, Quantum 5, 497,
2021), one draw per event rather than one per place it may happen:
CounterStream.skips finds each lane's hits among m locations that each hit
with probability p, reading draw t0 + 2j for the lane's j-th skip. The gap
to the next hit is the number of k >= 1 with u < (1 - p)**k, the powers
being built by sequential float64 multiplication and compared (a log only
guesses which powers to compare), so every IEEE-754 platform and every
lane count gives the same gap.
A location's rate is thus 1 - fl(1 - p), not p exactly: p is rounded to a
multiple of 2**-53, and p <= 2**-54 never hits.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator, Optional

import numpy as np

from .schema import InputError, is_int, plain

MAX_SEED = 2**64 - 1

_GAMMA = 0x9E3779B97F4A7C15
_HALF = 2**63  # a draw's z is below this iff its uniform is below 1/2
# below this many lanes a loop over Python ints beats a dozen numpy calls
_FEW_LANES = 8


def check_seed(seed: int) -> int:
    """The seed as a plain int, if it is a 64-bit unsigned integer (an int or a
    numpy integer, not a bool); else InputError."""
    if not (is_int(seed) and 0 <= seed <= MAX_SEED):
        raise InputError(f"seed: must be a 64-bit unsigned integer, got {seed!r}")
    return plain(seed)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit unsigned seed."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


_LOW = 0xFFFFFFFF


class BoundedDraws:
    """The draws `make_rng(seed).integers(0, m)` of a sequence of bounds, draw for
    draw, read from raw PCG64 words rather than one Generator call per draw.

    numpy draws a bound 2 <= m < 2**32 from the 32-bit halves of the raw
    64-bit words, the low half of a word first, by Lemire's method: a half x
    gives (x * m) >> 32, unless (x * m) mod 2**32 is below (2**32 - m) mod m,
    when the next half is read instead. A bound of 1 reads no half. The words
    are read `block` at a time with one `random_raw` call, and a block more
    whenever the halves run out, which leaves the values unchanged.
    """

    def __init__(self, seed: int, block: int):
        self._bitgen = make_rng(seed).bit_generator
        self._block = max(block, 1)
        self._halves: list[int] = []
        self._next = 0

    def below(self, m: int) -> int:
        """The next draw of integers(0, m), for 1 <= m < 2**32; else ValueError."""
        if not 1 < m < 2**32:
            if m == 1:
                return 0
            raise ValueError(f"m: must lie in [1, 2**32), got {m}")
        x = self._half() * m
        if (x & _LOW) < m:  # m bounds the threshold, so this skips its modulo
            threshold = (2**32 - m) % m
            while (x & _LOW) < threshold:
                x = self._half() * m
        return x >> 32

    def _half(self) -> int:
        j = self._next
        if j == len(self._halves):
            # '<u8' then '<u4' gives each word's low half before its high one on any host
            words = self._bitgen.random_raw(self._block).astype("<u8")
            self._halves = words.view("<u4").tolist()
            j = 0
        self._next = j + 1
        return self._halves[j]


def derive_seed(master: int, *labels: object) -> int:
    """Derive an independent 64-bit seed from a master seed and a label tuple.

    The labels are serialized into a canonical string, so the derivation is
    stable across runs, processes, and platforms.
    """
    text = ":".join([str(int(master))] + [str(lab) for lab in labels])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shot_keys(master: int, shots: int) -> np.ndarray:
    """Shot s's key (derive_seed(master, "shot") + s) mod 2**64, for s in range(shots),
    as a uint64 vector: one hash per call. CounterStream mixes each key before its
    first draw, so consecutive keys give unrelated streams."""
    return np.arange(shots, dtype=np.uint64) + np.uint64(derive_seed(master, "shot"))


def _mix(z: int) -> int:
    """SplitMix64 finalizer of a Python int below 2**64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MAX_SEED
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MAX_SEED
    return z ^ (z >> 31)


_ONE = np.uint64(1)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix_words(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """_mix of every element of the uint64 array z, in place; tmp is a work array of z's shape."""
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)  # wraps modulo 2**64
    return z


def _counter(t: int) -> int:
    """The offset (t + 1) * GAMMA that draw t adds to a mixed key."""
    return ((t + 1) * _GAMMA) & MAX_SEED


def _draw(base: int, t: int) -> int:
    """The integer z of draw t of the key whose mix(K) is base: u_t = (z >> 11) * 2**-53."""
    return _mix((base + _counter(t)) & MAX_SEED)


class CounterStream:
    """The counter-based uniforms of a vector of keys, one lane per key.

    The keys are mixed once, here, rather than on every draw. coins() mixes
    into work buffers that the stream keeps, so a draw over thousands of
    lanes allocates only its packed result.
    """

    def __init__(self, keys: np.ndarray):
        self._base = np.array(keys, dtype=np.uint64)
        self._z, self._tmp = np.empty_like(self._base), np.empty_like(self._base)
        _mix_words(self._base, self._tmp)
        self._hit = np.zeros(-(-self._base.size // 64) * 64, dtype=bool)  # padding stays False

    def uniforms(self, t, lanes: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw t of every lane, or of the given lane indices, as float64.

        t is one draw index for all, or an int64 array of one per lane.
        """
        base = self._base if lanes is None else self._base[lanes]
        if base.size < _FEW_LANES:
            ts = np.broadcast_to(t, base.shape).tolist()
            return np.array([(_draw(b, s) >> 11) * 2.0**-53 for b, s in zip(base.tolist(), ts)])
        if np.ndim(t):  # (t + 1) * GAMMA per lane, wrapping modulo 2**64
            z = base + (np.asarray(t, dtype=np.uint64) + _ONE) * np.uint64(_GAMMA)
        else:
            z = base + np.uint64(_counter(t))
        return (_mix_words(z, np.empty_like(z)) >> 11) * 2.0**-53

    def coins(self, t: int) -> np.ndarray:
        """The lanes whose draw t is below 1/2, as packed uint64 words.

        Lane s is bit s % 64 of word s // 64 and the padding bits are zero;
        the lanes are exactly those of uniforms(t) < 0.5. The comparison is
        made on the integer z before the shift: u = (z >> 11) * 2**-53 is
        below 1/2 iff z < 2**63.
        """
        lanes = self._base.size
        if lanes < _FEW_LANES:
            word = sum((_draw(b, t) < _HALF) << s for s, b in enumerate(self._base.tolist()))
            return np.array([word], dtype=np.uint64)
        z = np.add(self._base, np.uint64(_counter(t)), out=self._z)
        np.less(_mix_words(z, self._tmp), np.uint64(_HALF), out=self._hit[:lanes])
        return np.packbits(self._hit, bitorder="little").view("<u8")

    def skips(self, t0: int, p: float, m: int) -> "Skips":
        """The skip sampler of this stream's lanes over m locations that each hit
        with probability p, its j-th skips reading draw t0 + 2j (see Skips)."""
        return Skips(self, t0, p, m)


class Skips:
    """Every lane's hits among locations 0..m-1 that each hit with probability p.

    A lane's j-th skip reads its draw t0 + 2j, u, and moves from the previous
    hit (-1 at the start) by gap + 1 locations, gap being the number of k >= 1
    with u < T[k] for T[k] = (1 - p)**k, so that P(gap >= g) = (1 - p)**g;
    the lane stops at the first location past m - 1. T is built by
    sequential float64 multiplication and only compared, so the gap is the
    same for any lane count. A location's rate is therefore 1 - fl(1 - p):
    p rounded to a multiple of 2**-53, and 0 for p <= 2**-54.

    The sampler keeps one pending hit per lane, as an int32 location (m once
    the lane has none left) and an int32 count of its skips, 8 bytes a lane,
    so m must be below 2**31. A caller reads the hits a block of locations
    at a time (until) and holds one step's arrays of one block, never every
    hit. p <= 0 reads no draw.
    """

    def __init__(self, stream: CounterStream, t0: int, p: float, m: int):
        if m >= 2**31:
            raise ValueError(f"m: must be below 2**31, got {m}")
        self._stream, self._t0, self._m = stream, t0, m
        self._lanes = stream._base.size if p > 0 and m > 0 else 0
        # T[m + 1 - i] for i = 0..m + 1: T[m + 1] = 0 (a sentinel below every
        # u), T[m], ..., T[1], T[0] = 1, ascending
        powers = np.multiply.accumulate(np.full(m if self._lanes else 0, 1.0 - p))
        self._table = np.concatenate(([0.0], powers[::-1], [1.0]))
        # (1 - p)**g = u at g = log(u) / log(1 - p), a guess of the gap that the table checks
        self._slope = 1 / math.log1p(-p) if 0 < p < 1 else 0.0
        # per lane: its next hit and the number of skips it has drawn
        self._at = np.zeros(self._lanes, dtype=np.int32)
        self._j = np.ones(self._lanes, dtype=np.int32)
        if self._lanes:  # every lane's first skip, from location 0
            self._skip(np.arange(self._lanes), -1, t0)

    def until(self, stop: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The hits at locations below stop that were not yielded yet, skip by skip.

        Yields (lanes, locations, t), each int64: the ascending lanes whose
        next hit lies below stop, those hits' locations, and per lane t, the
        draw after the skip that found it, which the stream leaves for the
        caller.
        """
        while True:
            lanes = np.flatnonzero(self._at < stop)
            if not lanes.size:
                return
            at, j = self._at[lanes].astype(np.int64), self._j[lanes]
            t = 2 * j.astype(np.int64) + self._t0  # the draw of each lane's next skip
            yield lanes, at, t - 1  # the draw after the hit's skip
            self._skip(lanes, at, t)
            self._j[lanes] = j + 1

    def _skip(self, lanes: np.ndarray, at, t) -> None:
        """Draw the next skip of each of the lanes, whose draw is t, and move the lane
        from its hit at (-1 before the first) by the gap + 1, to m at most."""
        m, table = self._m, self._table
        u = self._stream.uniforms(t, lanes)
        # gap g = #{k in 1..m: u < T[k]} is the g with T[g] > u >= T[g + 1];
        # a lane whose guess is not, because of rounding, searches the table
        with np.errstate(divide="ignore", invalid="ignore"):  # u = 0: an infinite gap
            gap = np.fmin(np.log(u) * self._slope, m).astype(np.int64)
        wrong = (table[m + 1 - gap] <= u) | (table[m - gap] > u)
        if np.count_nonzero(wrong):
            gap[wrong] = m + 1 - np.searchsorted(table, u[wrong], side="right")
        gap += at + 1
        self._at[lanes] = np.minimum(gap, m, out=gap).astype(np.int32)
