import math

import numpy as np
import pytest

from ghz_synth.circuit import CX, Circuit, CondX, H, MeasureZ, Reset, X
from ghz_synth.stabilizer import CapacityError, InvalidForcingError
from ghz_synth.statevector import ghz_state, run_dense, state_fidelity
from helpers import circ


class TestBasics:
    def test_hadamard_amplitudes(self):
        out = run_dense(circ(1, 0, H(0)), seed=0)
        np.testing.assert_allclose(out.state, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_qubit0_is_msb(self):
        out = run_dense(circ(2, 0, X(0)), seed=0)
        np.testing.assert_allclose(out.state, [0, 0, 1, 0], atol=1e-12)  # |10>

    def test_cx_bell(self):
        out = run_dense(circ(2, 0, H(0), CX(0, 1)), seed=0)
        expect = np.zeros(4)
        expect[0] = expect[3] = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.state, expect, atol=1e-12)

    def test_norm_preserved(self):
        out = run_dense(
            circ(3, 1, H(0), CX(0, 1), H(2), MeasureZ(2, 0), CondX((1,), 0)), seed=3
        )
        assert abs(np.vdot(out.state, out.state) - 1.0) < 1e-12

    def test_capacity(self):
        with pytest.raises(CapacityError):
            run_dense(Circuit(15, 0, ()), seed=0)


class TestFidelity:
    def test_self_fidelity(self):
        psi = ghz_state(3)
        assert state_fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        zero = np.array([1, 0], dtype=complex)
        one = np.array([0, 1], dtype=complex)
        assert state_fidelity(zero, one) == 0.0

    def test_ghz3_vs_uniform_superposition(self):
        out = run_dense(circ(3, 0, H(0), H(1), H(2)), seed=0)
        assert state_fidelity(ghz_state(3), out.state) == pytest.approx(0.25, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            state_fidelity(ghz_state(2), ghz_state(3))


def merge_circuit(n: int, m: int) -> Circuit:
    """Two star GHZ states fused across one bridge.

    Qubits: 0 = keeper center, 1..n keeper leaves, n+1 = absorbed center,
    n+2..n+m+1 absorbed leaves. Bridge edge (0, n+1).
    """
    keeper_center, absorbed_center = 0, n + 1
    ops = [H(keeper_center)]
    ops += [CX(keeper_center, i) for i in range(1, n + 1)]
    ops += [H(absorbed_center)]
    ops += [CX(absorbed_center, i) for i in range(n + 2, n + m + 2)]
    ops += [CX(keeper_center, absorbed_center), MeasureZ(absorbed_center, 0)]
    correction = tuple(range(n + 2, n + m + 2))
    if correction:
        ops.append(CondX(correction, 0))
    ops += [Reset(absorbed_center), CX(keeper_center, absorbed_center)]
    return Circuit(n + m + 2, 1, tuple(ops))


class TestMergePrimitive:
    @pytest.mark.parametrize("branch", [0, 1])
    def test_smallest_merge_both_branches(self, branch):
        c = merge_circuit(1, 1)
        out = run_dense(c, seed=0, forced_outcomes=[branch])
        assert out.outcome_log[0] == branch
        assert state_fidelity(out.state, ghz_state(4)) == pytest.approx(1.0, abs=1e-12)

    def test_branch_probabilities_half(self):
        c = merge_circuit(1, 1)
        outcomes = [run_dense(c, seed=s).outcome_log[0] for s in range(64)]
        assert 10 < sum(outcomes) < 54  # fair coin over seeds

    def test_forcing_zero_probability_raises(self):
        c = circ(1, 1, MeasureZ(0, 0))
        with pytest.raises(InvalidForcingError):
            run_dense(c, seed=0, forced_outcomes=[1])

    @pytest.mark.parametrize("bad", [2, -1, 0.5, "1"])
    def test_out_of_range_forced_outcome_raises(self, bad):
        c = merge_circuit(1, 1)
        with pytest.raises(ValueError, match=r"^forced_outcomes\[1\]: ") as info:
            run_dense(c, seed=0, forced_outcomes=[0, bad])
        assert info.type is ValueError

    def test_more_forced_outcomes_than_events_raises(self):
        c = merge_circuit(1, 1)  # its MeasureZ and its Reset
        assert run_dense(c, seed=0, forced_outcomes=[1, 1]).outcome_log == [1, 1]
        with pytest.raises(
            ValueError, match=r"^forced_outcomes: 3 entries for 2 measurement events$"
        ):
            run_dense(c, seed=0, forced_outcomes=[1, 1, 0])


class TestResetSemantics:
    def test_reset_entangled_pair(self):
        c = circ(2, 0, H(0), CX(0, 1), Reset(0))
        for branch in (0, 1):
            out = run_dense(c, seed=0, forced_outcomes=[branch])
            # qubit 0 back to |0>, qubit 1 collapsed to the branch value
            idx = branch  # state |0, branch>
            assert abs(out.state[idx]) == pytest.approx(1.0, abs=1e-12)

    def test_condx_applies_on_recorded_one(self):
        c = circ(2, 1, X(0), MeasureZ(0, 0), CondX((1,), 0))
        out = run_dense(c, seed=0)
        # |11>
        assert abs(out.state[3]) == pytest.approx(1.0, abs=1e-12)
