"""Distribution metrics, GHZ verification and the certificate of a GHZ circuit.

hellinger_fidelity implements the product-sum form (sum_i sqrt(p_i q_i))^2,
which is numerically stable on sparse supports. is_ghz decides whether a
tableau's state is exactly the n-qubit GHZ state by uncomputing it: it
applies the inverse of the canonical preparation to a copy of the tableau
and checks that the result is |0...0> (see is_ghz for the proof). certify
is the one check of a synthesized circuit against its layout: qubit count,
every CX on an edge, the count identity and exact GHZ output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .circuit import CX, Circuit, count_2q, count_measurements
from .layouts import LayoutGraph
from .stabilizer import Tableau, run

__all__ = [
    "Distribution",
    "SummaryStats",
    "hellinger_fidelity",
    "ghz_ideal_distribution",
    "counts_to_distribution",
    "is_ghz",
    "certify",
    "summarize",
]

Distribution = dict[str, float]

_SUM_TOL = 1e-9


def _validate_distribution(d: Distribution, name: str) -> None:
    total = 0.0
    for key, p in d.items():
        if not p >= 0:  # NaN too
            raise ValueError(f"{name}[{key!r}] must be >= 0, got {p}")
        total += p
    if not abs(total - 1.0) <= _SUM_TOL:
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
    schema.check_count(n)
    return {"0" * n: 0.5, "1" * n: 0.5}


def counts_to_distribution(counts: dict[str, int], shots: int) -> Distribution:
    schema.check_count(shots, "shots")
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
    """True iff the tableau's state is exactly the n-qubit GHZ state.

    The canonical preparation C = CX(n-2, n-1) ... CX(0, 1) H(0) maps
    |0...0> to GHZ, so its inverse U = H(0) CX(0, 1) ... CX(n-2, n-1) maps a
    state psi to |0...0> iff psi = U^dagger |0...0> = C |0...0> = GHZ. is_ghz
    applies U to a copy of the tableau (the CX(i, i+1) for i = n-2 down to
    0, then H(0)) and accepts iff no stabilizer row has an x bit and no
    stabilizer sign is set. That is exact: if every one of the n
    independent stabilizer generators of U psi is a Z-product with sign +,
    each fixes |0...0>, and the common +1 eigenspace of n independent
    commuting generators is one-dimensional, so U psi = |0...0>. Conversely
    the stabilizer group of |0...0> is {+Z^v}, so every generator of it is
    a Z-product with sign +. The check costs n Clifford updates of
    O(n / 32) words each.
    """
    if t.n != n:
        raise ValueError(f"tableau has {t.n} qubits, expected {n}")
    u = t.copy()
    for i in range(n - 2, -1, -1):
        u.apply_cx(i, i + 1)
    u.apply_h(0)
    return not np.count_nonzero(u.x & u.stab_mask) and not np.count_nonzero(u.r & u.stab_mask)


def certify(c: Circuit, g: LayoutGraph, seed: int = 0) -> None:
    """None if c prepares GHZ on layout g; else ValueError naming the first property that fails.

    In order: c has g.node_count qubits; every CX acts across an edge of g
    (a CondX is classically controlled, so it needs none); the CX count is
    N - 1 + the measurement count, which both protocols meet (growing with
    no measurement, merging with one CX per merge over a spanning tree);
    and run(c, seed) leaves exactly the N-qubit GHZ state.
    """
    n = g.node_count
    if c.qubit_count != n:
        raise ValueError(f"qubit count: circuit has {c.qubit_count} qubits, layout has {n} nodes")
    for i, op in enumerate(c.ops):
        if isinstance(op, CX) and not g.has_edge(op.control, op.target):
            raise ValueError(f"layout edge: op {i}, {op}, is not on an edge of the layout")
    n_2q, n_meas = count_2q(c), count_measurements(c)
    if n_2q != n - 1 + n_meas:
        raise ValueError(f"count identity: {n_2q} CX, expected N - 1 + {n_meas} measurements "
                         f"= {n - 1 + n_meas}")
    if not is_ghz(run(c, seed).tableau, n):
        raise ValueError(f"exact GHZ: run with seed {seed} does not leave the {n}-qubit GHZ state")
