"""Helpers that only tests use: a circuit from its ops, the scalar reference of
the array-drawn Erdős–Rényi generator, and the tableau's structural check."""

import numpy as np

from ghz_synth.circuit import Circuit
from ghz_synth.layouts import LayoutGraph
from ghz_synth.rng import make_rng
from ghz_synth.stabilizer import Tableau


def circ(n, cbits, *ops):
    """The circuit of n qubits and cbits classical bits that runs ops in order."""
    return Circuit(n, cbits, tuple(ops))


def check_invariants(tab: Tableau) -> None:
    """Assert the symplectic commutation structure of the tableau's rows.

    Stabilizer i must anticommute with destabilizer i and commute with
    every other row. That alone makes the stabilizer rows independent: with
    <S_i, D_j> = delta_ij, a combination sum_i c_i S_i = 0 gives
    c_j = <sum_i c_i S_i, D_j> = 0 for every j.
    """
    n = tab.n
    x, z, _ = tab.rows()
    # symplectic product of rows a, b: x_a.z_b + z_a.x_b mod 2
    sym = (x @ z.T + z @ x.T) % 2
    expected = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    idx = np.arange(n)
    expected[idx, idx + n] = 1
    expected[idx + n, idx] = 1
    if not np.array_equal(sym, expected):
        raise AssertionError("tableau commutation relations violated")


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
