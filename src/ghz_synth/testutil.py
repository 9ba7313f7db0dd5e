"""Helpers for randomized cross-validation: of the two simulators, of the
array-drawn Erdős–Rényi generator and of the vectorized skip sampler against
their scalar references; plus the tableau's structural checks and masked
Paulis, which only tests use."""

from __future__ import annotations

import numpy as np

from .circuit import CX, Circuit, CondX, H, MeasureZ, Operation, Reset, X
from .layouts import LayoutGraph
from .rng import CounterStream, _draw, _mix, make_rng
from .stabilizer import Tableau, _unpack

__all__ = [
    "random_clifford_circuit",
    "apply_pauli_dense",
    "stabilizers_fix_state",
    "scalar_erdos_renyi",
    "scalar_skips",
    "sorted_skips",
    "tableau_bits",
    "check_invariants",
    "apply_pauli",
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
    (x, z) bits, where the x/z pair on one qubit means Y (so the phase
    bookkeeping i*XZ = ... is handled explicitly).
    """
    n = len(x)
    psi = state.reshape((2,) * n).copy()
    phase = complex(-1) ** sign
    for q in range(n):
        if x[q] and z[q]:
            # Y = i X Z
            psi = _apply_z_axis(psi, q)
            psi = np.flip(psi, axis=q)
            phase *= 1j
        elif x[q]:
            psi = np.flip(psi, axis=q)
        elif z[q]:
            psi = _apply_z_axis(psi, q)
    return phase * psi.reshape(-1)


def _apply_z_axis(psi: np.ndarray, q: int) -> np.ndarray:
    idx = [slice(None)] * psi.ndim
    idx[q] = 1
    psi = psi.copy()
    psi[tuple(idx)] *= -1
    return psi


def stabilizers_fix_state(tab: Tableau, state: np.ndarray, atol: float = 1e-10) -> bool:
    """True iff every stabilizer generator fixes the state with eigenvalue +1."""
    sx, sz, sr = tab.stabilizer_rows()
    for i in range(tab.n):
        transformed = apply_pauli_dense(state, sx[i], sz[i], int(sr[i]))
        if not np.allclose(transformed, state, atol=atol):
            return False
    return True


def tableau_bits(tab: Tableau) -> tuple[np.ndarray, np.ndarray]:
    """The tableau's x and z bits row-major: two (2n, n) uint8 arrays, one row per
    destabilizer (0..n-1) and stabilizer (n..2n-1), one column per qubit."""
    x, z = np.ascontiguousarray(_unpack(tab.xz, 2 * tab.n).transpose(0, 2, 1))
    return x, z


def apply_pauli(tab: Tableau, q: int, pauli: str) -> None:
    """Pauli "x", "y" or "z" on qubit q: one `Tableau.flip`."""
    tab.flip((q,), pauli in "xy", pauli in "yz")


def check_invariants(tab: Tableau) -> None:
    """Assert the symplectic commutation structure of the tableau's rows.

    Stabilizer i must anticommute with destabilizer i and commute with
    every other row; the stabilizer rows must be independent.
    """
    n = tab.n
    x, z = tableau_bits(tab)
    xz = np.concatenate([x, z], axis=1)
    # symplectic product of rows a, b: x_a.z_b + z_a.x_b mod 2
    sym = (x @ z.T + z @ x.T) % 2
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
