"""Cross-validation between the tableau simulator and the dense oracle."""

import itertools

import numpy as np
import pytest

from ghz_synth.circuit import Circuit
from ghz_synth.rng import derive_seed, make_rng
from ghz_synth.stabilizer import InvalidForcingError, Tableau, sample_counts
from ghz_synth.stabilizer import run
from ghz_synth.statevector import run_dense
from ghz_synth.testutil import apply_pauli_dense, random_clifford_circuit, stabilizers_fix_state
from helpers import check_invariants


class TestTableauInvariantsPerOp:
    def test_commutation_relations_after_every_op(self):
        # drive the tableau directly, checking the symplectic structure
        # after each gate and collapse, up to 32 qubits
        for n in (4, 12, 32):
            rng = make_rng(derive_seed(41, n))
            tab = Tableau(n)
            for _ in range(120):
                kind = rng.choice(["h", "x", "cx", "measure"], p=[0.3, 0.15, 0.4, 0.15])
                if kind == "h":
                    tab.apply_h(int(rng.integers(0, n)))
                elif kind == "x":
                    tab.flip([int(rng.integers(0, n))], [])
                elif kind == "cx":
                    a, b = rng.choice(n, size=2, replace=False)
                    tab.apply_cx(int(a), int(b))
                else:
                    q = int(rng.integers(0, n))
                    if np.count_nonzero(tab.x[q] & tab.stab_mask):  # only a random one collapses
                        tab.measure(q, int(rng.integers(0, 2)))
                check_invariants(tab)


class TestFlipAgainstDense:
    def test_mixed_multi_qubit_flip_matches_dense_pauli(self):
        # a flip with X, Y and Z parts on several qubits at once must turn the
        # tableau into the stabilizers of the dense state the same Pauli gives
        for i in range(24):
            n = 4 + i % 3
            c = random_clifford_circuit(n, 30, seed=derive_seed(47, i))
            out = run(c, derive_seed(48, i))
            state = run_dense(c, 0, forced_outcomes=out.outcome_log).state
            x, z = make_rng(derive_seed(49, i)).integers(0, 2, size=(2, n), dtype=np.uint8)
            tab = out.tableau
            tab.flip(np.flatnonzero(x), np.flatnonzero(z))
            assert stabilizers_fix_state(tab, apply_pauli_dense(state, x, z, 0)), i


class TestHelpersKnownAnswers:
    @pytest.mark.parametrize(
        "state, x, z, sign, want",
        [
            ([1, 0], [1], [0], 0, [0, 1]),  # X|0> = |1>
            ([0, 1], [0], [1], 0, [0, -1]),  # Z|1> = -|1>
            ([1, 0], [1], [1], 0, [0, 1j]),  # Y|0> = i|1>
            ([0, 1], [1], [1], 0, [-1j, 0]),  # Y|1> = -i|0>
            ([1, 0], [0], [0], 1, [-1, 0]),  # sign 1 negates
            ([0, 1], [1], [0], 1, [-1, 0]),  # -X|1> = -|0>
            # X (x) Y on |01>: X|0> (x) Y|1> = |1> (x) -i|0> = -i|10>, qubit 0 the MSB
            ([0, 1, 0, 0], [1, 1], [0, 1], 0, [0, 0, -1j, 0]),
        ],
    )
    def test_apply_pauli_dense_on_basis_states(self, state, x, z, sign, want):
        state = np.array(state, dtype=np.complex128)
        x, z = np.array(x, dtype=np.uint8), np.array(z, dtype=np.uint8)
        before = state.copy()
        assert np.array_equal(apply_pauli_dense(state, x, z, sign), want)
        assert np.array_equal(state, before)  # the input is left alone

    def test_check_invariants_refuses_equal_stabilizer_rows(self):
        tab = run(random_clifford_circuit(5, 40, seed=3), seed=0).tableau
        check_invariants(tab)
        n, one = tab.n, np.uint64(1)
        # copy stabilizer 0 (row n) onto stabilizer 1 (row n + 1) in every x and z
        # column; with 5 qubits all 10 rows sit in word 0
        bit = (tab.xz[..., 0] >> np.uint64(n)) & one
        tab.xz[..., 0] &= ~(one << np.uint64(n + 1))
        tab.xz[..., 0] |= bit << np.uint64(n + 1)
        x, z, _ = tab.rows()
        assert np.array_equal(x[n], x[n + 1]) and np.array_equal(z[n], z[n + 1])
        with pytest.raises(AssertionError, match="commutation relations violated"):
            check_invariants(tab)


class TestExpectationAgainstDense:
    def test_matches_dense_expectation_on_the_same_branch(self):
        # uniformly random Paulis mostly anticommute with the state (exact 0);
        # products of stabilizer rows give +/-1, and a destabilizer factor
        # turns one of those into an anticommuting Pauli again
        zeros = ones = 0
        for i in range(40):
            n = 2 + i % 5
            c = random_clifford_circuit(n, 30, seed=derive_seed(44, i))
            out = run(c, derive_seed(45, i))
            state = run_dense(c, 0, forced_outcomes=out.outcome_log).state
            tab = out.tableau
            rng = make_rng(derive_seed(46, i))
            for k in range(12):
                if k % 3 == 0:
                    px, pz = rng.integers(0, 2, size=(2, n), dtype=np.uint8)
                else:
                    pick = rng.integers(0, 2, size=2 * n).astype(bool)
                    if k % 3 == 1:
                        pick[:n] = False
                    x, z, _ = tab.rows()
                    px = np.bitwise_xor.reduce(x[pick], axis=0)
                    pz = np.bitwise_xor.reduce(z[pick], axis=0)
                want = np.vdot(state, apply_pauli_dense(state, px, pz, 0))
                assert abs(want.imag) < 1e-10
                got = tab.expectation(px, pz)
                assert type(got) is int
                assert abs(got - want.real) < 1e-10, (i, k, px, pz)
                zeros += got == 0
                ones += got != 0
        assert zeros > 50 and ones > 50


def dense_readout_distribution(c: Circuit, max_events: int = 12) -> dict[str, float]:
    """Exact terminal-readout distribution from the dense oracle.

    Enumerates every measurement branch by forcing, weights each leaf by its
    Born probability, and accumulates the final state's readout weights.
    """
    n = c.qubit_count
    probe = run_dense(c, seed=0)
    k = len(probe.outcome_log)
    assert k <= max_events, f"too many measurement events to enumerate ({k})"
    dist: dict[str, float] = {}
    total = 0.0
    for branch in itertools.product((0, 1), repeat=k):
        try:
            out = run_dense(c, seed=0, forced_outcomes=list(branch))
        except InvalidForcingError:
            continue
        w = out.branch_probability
        if w == 0.0:
            continue
        total += w
        weights = np.abs(out.state) ** 2
        for idx in np.flatnonzero(weights > 1e-15):
            key = format(idx, f"0{n}b")
            dist[key] = dist.get(key, 0.0) + w * float(weights[idx])
    assert abs(total - 1.0) < 1e-9, f"branch probabilities sum to {total}"
    return dist


class TestReadoutDistributionAgreement:
    def test_tvd_against_dense_oracle(self):
        # sampled tableau readout vs the oracle's exact distribution;
        # 1e5 shots keeps the empirical TVD floor well below 0.02 for
        # these supports
        shots = 100_000
        for i in range(5):
            c = random_clifford_circuit(6, 25, seed=derive_seed(42, i))
            exact = dense_readout_distribution(c)
            counts = sample_counts(c, shots, seed=derive_seed(43, i))
            keys = set(exact) | set(counts)
            tvd = 0.5 * sum(
                abs(exact.get(kk, 0.0) - counts.get(kk, 0) / shots) for kk in keys
            )
            assert tvd < 0.02, f"circuit {i}: TVD {tvd:.4f}"


class TestBranchProbabilities:
    def test_fair_coin_branches_sum_to_one(self):
        from ghz_synth.circuit import CX, H, MeasureZ

        # measuring half a Bell pair has two equally likely branches
        c = Circuit(2, 1, (H(0), CX(0, 1), MeasureZ(0, 0)))
        p = [run_dense(c, 0, forced_outcomes=[b]).branch_probability for b in (0, 1)]
        assert p[0] == pytest.approx(0.5, abs=1e-12)
        assert p[1] == pytest.approx(0.5, abs=1e-12)
        assert abs(sum(p) - 1.0) < 1e-12

    def test_deterministic_branch_probability_one(self):
        from ghz_synth.circuit import MeasureZ

        c = Circuit(1, 1, (MeasureZ(0, 0),))
        assert run_dense(c, 0).branch_probability == 1.0
