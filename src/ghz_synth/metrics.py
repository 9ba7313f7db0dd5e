"""Distribution metrics and GHZ verification.

hellinger_fidelity implements the product-sum form (sum_i sqrt(p_i q_i))^2,
which is numerically stable on sparse supports. is_ghz decides whether a
tableau's stabilizer group is exactly the n-qubit GHZ group
<X..X, Z0 Z1, ..., Z_{n-2} Z_{n-1}> by checking, with Tableau.expectation,
that each of those n generators has expectation +1. One direction suffices:
the tableau's n stabilizer rows are independent, so its group has 2^n
elements, as does the GHZ group, and containment of one in the other makes
them equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stabilizer import Tableau

__all__ = [
    "Distribution",
    "SummaryStats",
    "hellinger_fidelity",
    "ghz_ideal_distribution",
    "counts_to_distribution",
    "is_ghz",
    "summarize",
]

Distribution = dict[str, float]

_SUM_TOL = 1e-9


def _validate_distribution(d: Distribution, name: str) -> None:
    total = 0.0
    for key, p in d.items():
        if p < 0:
            raise ValueError(f"{name}[{key!r}] is negative: {p}")
        total += p
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"{name} sums to {total}, expected 1")


def hellinger_fidelity(p: Distribution, q: Distribution) -> float:
    """(sum_i sqrt(p_i q_i))^2 over the union of supports."""
    _validate_distribution(p, "P")
    _validate_distribution(q, "Q")
    total = 0.0
    for key in p.keys() & q.keys():
        total += math.sqrt(p[key] * q[key])
    return min(total * total, 1.0)


def ghz_ideal_distribution(n: int) -> Distribution:
    """Measurement statistics of the n-qubit GHZ state in the Z basis."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return {"0" * n: 0.5, "1" * n: 0.5}


def counts_to_distribution(counts: dict[str, int], shots: int) -> Distribution:
    if shots <= 0:
        raise ValueError("shots must be positive")
    total = sum(counts.values())
    if total != shots:
        raise ValueError(f"counts sum to {total}, expected {shots}")
    return {key: c / shots for key, c in counts.items()}


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    max: float
    count: int


def summarize(values) -> SummaryStats:
    """Mean, population standard deviation, max, and count."""
    vals = list(values)
    if not vals:
        raise ValueError("cannot summarize an empty list")
    arr = np.asarray(vals, dtype=float)
    return SummaryStats(
        mean=float(arr.mean()),
        std=float(arr.std()),  # population (ddof=0)
        max=float(arr.max()),
        count=len(vals),
    )


def is_ghz(t: Tableau, n: int) -> bool:
    """True iff the tableau's state is exactly the n-qubit GHZ state."""
    if t.n != n:
        raise ValueError(f"tableau has {t.n} qubits, expected {n}")
    if t.shots != 1:
        raise ValueError("is_ghz is defined for single-shot tableaus")
    if t.expectation(np.ones(n, dtype=np.uint8), 0)[0] != 1:
        return False
    for i in range(n - 1):
        zz = np.zeros(n, dtype=np.uint8)
        zz[i : i + 2] = 1
        if t.expectation(0, zz)[0] != 1:
            return False
    return True
