"""Seeding policy shared by the whole package.

Derived seeds are computed by hashing a label tuple with BLAKE2b, so adding
new consumers never perturbs the streams of existing ones.

Two kinds of stream consume them. Layout sampling, the dense oracle and the
test helpers draw from numpy's PCG64 generator (make_rng). The stabilizer
engine draws from a counter-based stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): draw t of a 64-bit key K is

    u_t = (mix(mix(K) + (t + 1) * GAMMA) >> 11) * 2**-53

in wrapping uint64 arithmetic, where mix is the SplitMix64 finalizer and
GAMMA = 0x9E3779B97F4A7C15. Every draw is addressed by its index, so a
caller computes only the draws it reads, for any subset of keys at once.
Pre-mixing the key keeps nearby keys such as 0, 1, 2 from giving related
streams.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import numpy as np

MAX_SEED = 2**64 - 1

_GAMMA = 0x9E3779B97F4A7C15
# below this many lanes a loop over Python ints beats a dozen numpy calls
_FEW_LANES = 8


def check_seed(seed: int) -> int:
    """The seed itself, if it is a 64-bit unsigned integer; else ValueError."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed: must be a 64-bit unsigned integer, got {seed}")
    return seed


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit unsigned seed."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def derive_seed(master: int, *labels: object) -> int:
    """Derive an independent 64-bit seed from a master seed and a label tuple.

    The labels are serialized into a canonical string, so the derivation is
    stable across runs, processes, and platforms.
    """
    text = ":".join([str(int(master))] + [str(lab) for lab in labels])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shot_keys(master: int, shots: int) -> np.ndarray:
    """[derive_seed(master, "shot", s) for s in range(shots)] as a uint64 vector.

    The common prefix is hashed once; each key continues a copy of that hasher.
    """
    prefix = hashlib.blake2b(f"{int(master)}:shot:".encode("utf-8"), digest_size=8)
    digests = bytearray()
    for s in range(shots):
        h = prefix.copy()
        h.update(str(s).encode("utf-8"))
        digests += h.digest()
    return np.frombuffer(bytes(digests), dtype=">u8").astype(np.uint64)


def _mix(z: int) -> int:
    """SplitMix64 finalizer of a Python int below 2**64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MAX_SEED
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MAX_SEED
    return z ^ (z >> 31)


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

    The keys are mixed once, here, rather than on every draw. below() mixes
    into work buffers that the stream keeps, so a draw over thousands of
    lanes allocates only its packed result.
    """

    def __init__(self, keys: np.ndarray):
        self._base = np.array(keys, dtype=np.uint64)
        self._z, self._tmp = np.empty_like(self._base), np.empty_like(self._base)
        _mix_words(self._base, self._tmp)
        self._hit = np.zeros(-(-self._base.size // 64) * 64, dtype=bool)  # padding stays False

    def uniforms(self, t: int, lanes: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw t of every lane, or of the given lane indices, as float64."""
        base = self._base if lanes is None else self._base[lanes]
        if base.size < _FEW_LANES:
            return np.array([(_draw(b, t) >> 11) * 2.0**-53 for b in base.tolist()])
        z = base + np.uint64(_counter(t))
        return (_mix_words(z, np.empty_like(z)) >> 11) * 2.0**-53

    def below(self, t: int, p: float) -> np.ndarray:
        """The lanes whose draw t is below p, as packed uint64 words.

        Lane s is bit s % 64 of word s // 64 and the padding bits are zero;
        the lanes are exactly those of uniforms(t) < p. The comparison is
        made on the integer z before the shift: u = (z >> 11) * 2**-53 is
        below p iff z >> 11 < ceil(p * 2**53) (p * 2**53 is exact in
        float64), iff z < ceil(p * 2**53) << 11, which for p >= 1 holds for
        every z.
        """
        lanes = self._base.size
        if p <= 0:
            return np.zeros(self._hit.size // 64, dtype=np.uint64)
        top = min(math.ceil(p * 2**53) << 11, 2**64) - 1  # u < p iff z <= top
        if lanes < _FEW_LANES:
            word = sum((_draw(b, t) <= top) << s for s, b in enumerate(self._base.tolist()))
            return np.array([word], dtype=np.uint64)
        z = np.add(self._base, np.uint64(_counter(t)), out=self._z)
        np.less_equal(_mix_words(z, self._tmp), np.uint64(top), out=self._hit[:lanes])
        return np.packbits(self._hit, bitorder="little").view("<u8")
