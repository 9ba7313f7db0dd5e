import typing
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth import schema
from ghz_synth.circuit import CX, Circuit, CondX, H, MeasureZ, Operation, Reset, X
from ghz_synth.rng import CounterStream, shot_keys
from ghz_synth.rng import derive_seed, make_rng
from ghz_synth.stabilizer import (
    MAX_QUBITS,
    CapacityError,
    InvalidForcingError,
    NoiseModel,
    PauliFrame,
    Tableau,
    _ERROR_CLASS,
    _pack,
    _simulate,
    _unpack,
    run,
    sample_counts,
)
from ghz_synth.testutil import random_clifford_circuit
from helpers import check_invariants, circ


def decode_stabilizers(tab):
    sx, sz, sr = tab.stabilizer_rows()
    rows = []
    for i in range(tab.n):
        label = "-" if sr[i] else "+"
        for q in range(tab.n):
            label += "IXZY"[sx[i, q] + 2 * sz[i, q]]
        rows.append(label)
    return set(rows)


class TestGates:
    def test_bell_state_stabilizers(self):
        out = run(circ(2, 0, H(0), CX(0, 1)), seed=0)
        assert decode_stabilizers(out.tableau) == {"+XX", "+ZZ"}

    def test_x_flips_z_sign(self):
        out = run(circ(1, 0, X(0)), seed=0)
        assert decode_stabilizers(out.tableau) == {"-Z"}

    def test_ghz3_stabilizers(self):
        out = run(circ(3, 0, H(0), CX(0, 1), CX(0, 2)), seed=0)
        stabs = decode_stabilizers(out.tableau)
        assert "+XXX" in stabs

    def test_invariants_after_random_circuits(self):
        for i in range(30):
            c = random_clifford_circuit(6, 40, seed=derive_seed(31, i))
            out = run(c, seed=i)
            check_invariants(out.tableau)


class TestFlipAndRows:
    def test_one_qubit_tuple_flips_like_a_list(self):
        # a tuple side must index qubits, never x/z's whole word rows
        for n in (3, 40):
            t = run(random_clifford_circuit(n, 60, seed=derive_seed(51, n)), seed=n).tableau
            for q in range(n):
                by_tuple, by_list = t.copy(), t.copy()
                by_tuple.flip((q,), ())
                by_list.flip([q], [])
                assert np.array_equal(by_tuple.r, by_list.r), (n, q)
                by_tuple.flip((), (q,))
                by_list.flip([], [q])
                assert np.array_equal(by_tuple.r, by_list.r), (n, q)

    def test_fresh_tableau_rows(self):
        # destabilizer i = X_i and stabilizer i = Z_i, all signs +
        for n in (1, 5, 40):
            x, z, sign = Tableau(n).rows()
            eye, zero = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
            assert np.array_equal(x, np.vstack([eye, zero]))
            assert np.array_equal(z, np.vstack([zero, eye]))
            assert np.array_equal(sign, np.zeros(2 * n, dtype=np.uint8))

    def test_stabilizer_rows_are_the_lower_half_of_rows(self):
        for i, n in enumerate((2, 7, 33, 40)):
            t = run(random_clifford_circuit(n, 80, seed=derive_seed(52, i)), seed=i).tableau
            for half, whole in zip(t.stabilizer_rows(), t.rows()):
                assert np.array_equal(half, whole[n:])


def frame_pauli(frame, q, pauli, mask):
    """Pauli "x", "y" or "z" on qubit q in the shots where the 0/1 mask is 1."""
    words = _pack(mask, frame.every.size)
    frame.xor(q, np.array([words * (pauli in "xy"), words * (pauli in "yz")]))


def shot_tableaus(frame, singles):
    """Every shot of the frame folded into the reference; each must equal the
    one-shot tableau of singles that applied that shot's Paulis and coins,
    x/z bits and all 2n signs included (H and CX phases too)."""
    shots = [frame.fold(s) for s in range(len(singles))]
    for s, (got, want) in enumerate(zip(shots, singles)):
        assert np.array_equal(got.xz, want.xz), s
        assert np.array_equal(got.r, want.r), s
    return shots


class TestExpectation:
    def test_masked_flip_changes_one_shot(self):
        # Bell pair in two shots, then X on qubit 1 in shot 0 only
        frame = PauliFrame(2, 2)
        singles = [Tableau(2) for _ in range(2)]
        for t in [frame] + singles:
            t.apply_h(0)
            t.apply_cx(0, 1)
        frame_pauli(frame, 1, "x", [1, 0])
        singles[0].flip([1], [])
        shots = shot_tableaus(frame, singles)
        zz = [t.expectation(0, np.array([1, 1], dtype=np.uint8)) for t in shots]
        xx = [t.expectation(np.array([1, 1], dtype=np.uint8), 0) for t in shots]
        assert zz == [-1, 1]
        assert xx == [1, 1]
        assert [t.expectation(0, np.array([1, 0], dtype=np.uint8)) for t in shots] == [0, 0]

    def test_masked_flip_across_word_boundaries(self):
        # 130 shots span three words, the last holding two shots and padding
        frame = PauliFrame(3, 130)
        singles = [Tableau(3) for _ in range(130)]
        for t in [frame] + singles:
            t.apply_h(0)
            t.apply_cx(0, 1)
            t.apply_cx(0, 2)
        mask = np.zeros(130, dtype=np.uint8)
        mask[[0, 5, 63, 64, 100, 127, 128, 129]] = 1
        mask[make_rng(3).random(130) < 0.3] = 1
        frame_pauli(frame, 1, "x", mask)
        for s in np.flatnonzero(mask):
            singles[s].flip([1], [])
        shots = shot_tableaus(frame, singles)

        def expect(px, pz):
            return np.array([t.expectation(px, pz) for t in shots])

        z0z1 = expect(0, np.array([1, 1, 0], dtype=np.uint8))
        z1z2 = expect(0, np.array([0, 1, 1], dtype=np.uint8))
        z0z2 = expect(0, np.array([1, 0, 1], dtype=np.uint8))
        assert np.array_equal(z0z1, 1 - 2 * mask.astype(np.int8))
        assert np.array_equal(z1z2, z0z1)
        assert (z0z2 == 1).all()
        assert (expect(np.ones(3, dtype=np.uint8), 0) == 1).all()

    def test_batch_matches_one_tableau_per_shot(self):
        # random H / CX / masked Pauli / measurement sequences on 130 shots:
        # every shot of the frame must equal a one-shot tableau that applies
        # that shot's Paulis and coins, outcomes and signs included
        shots, n = 130, 5
        for i in range(4):
            rng = make_rng(derive_seed(81, i))
            frame = PauliFrame(n, shots)
            singles = [Tableau(n) for _ in range(shots)]
            for _ in range(80):
                kind = int(rng.integers(0, 6))
                q, other = (int(v) for v in rng.choice(n, size=2, replace=False))
                if kind == 0:
                    for t in [frame] + singles:
                        t.apply_h(q)
                elif kind == 1:
                    for t in [frame] + singles:
                        t.apply_cx(q, other)
                elif kind < 5:
                    mask = (rng.random(shots) < 0.4).astype(np.uint8)
                    pauli = "xyz"[kind - 2]
                    frame_pauli(frame, q, pauli, mask)
                    for s in np.flatnonzero(mask):
                        singles[s].flip([q] * (pauli in "xy"), [q] * (pauli in "yz"))
                else:
                    coins = rng.integers(0, 2, size=shots).astype(np.uint8)
                    if np.count_nonzero(frame.ref.x[q] & frame.ref.stab_mask):
                        frame.measure(q, _pack(coins, frame.every.size))
                        for s, t in enumerate(singles):
                            t.measure(q, int(coins[s]))
                    else:
                        # a determined step: the reference's outcome through each frame
                        e_q = np.eye(n, dtype=np.uint8)[q]
                        ref_bit = (1 - frame.ref.expectation(0, e_q)) // 2
                        got = frame.all_or_none(ref_bit) ^ frame.fx[q]
                        want = [(1 - t.expectation(0, e_q)) // 2 for t in singles]
                        assert _unpack(got, shots).tolist() == want, i
            shot_tableaus(frame, singles)


class TestMeasurement:
    def test_deterministic_zero(self):
        out = run(circ(1, 1, MeasureZ(0, 0)), seed=5)
        assert out.cbits == [0]

    def test_plus_state_random_by_seed(self):
        seen = {run(circ(1, 1, H(0), MeasureZ(0, 0)), seed=s).cbits[0] for s in range(32)}
        assert seen == {0, 1}

    def test_noiseless_determinism(self):
        c = random_clifford_circuit(5, 30, seed=77)
        a = run(c, seed=123)
        b = run(c, seed=123)
        assert a.cbits == b.cbits and a.outcome_log == b.outcome_log
        assert np.array_equal(a.tableau.r, b.tableau.r)

    def test_forced_outcomes(self):
        c = circ(1, 1, H(0), MeasureZ(0, 0))
        assert run(c, 0, forced_outcomes=[0]).cbits == [0]
        assert run(c, 0, forced_outcomes=[1]).cbits == [1]

    def test_forcing_deterministic_outcome_wrong_raises(self):
        with pytest.raises(InvalidForcingError):
            run(circ(1, 1, MeasureZ(0, 0)), 0, forced_outcomes=[1])

    def test_forcing_deterministic_outcome_right_ok(self):
        assert run(circ(1, 1, MeasureZ(0, 0)), 0, forced_outcomes=[0]).cbits == [0]

    @pytest.mark.parametrize("bad", [2, -1, 0.5, "1"])
    def test_out_of_range_forced_outcome_raises(self, bad):
        c = circ(1, 2, H(0), MeasureZ(0, 0), Reset(0), MeasureZ(0, 1))
        with pytest.raises(ValueError, match=r"^forced_outcomes\[2\]: ") as info:
            run(c, 0, forced_outcomes=[None, 1, bad])
        assert info.type is ValueError

    def test_more_forced_outcomes_than_events_raises(self):
        # one MeasureZ and one Reset are two events; a third entry forces nothing
        c = circ(2, 1, H(0), CX(0, 1), MeasureZ(0, 0), Reset(1))
        assert run(c, 1, forced_outcomes=[1, 1]).outcome_log == [1, 1]
        with pytest.raises(
            ValueError, match=r"^forced_outcomes: 3 entries for 2 measurement events$"
        ):
            run(c, 1, forced_outcomes=[1, 1, 0])

    def test_forcing_wrong_value_inside_a_deterministic_run_raises(self):
        # three consecutive deterministic MeasureZ take their outcomes from one
        # product; the wrong value on the second still names its own event
        c = circ(3, 3, X(1), MeasureZ(0, 0), MeasureZ(1, 1), MeasureZ(2, 2))
        with pytest.raises(
            InvalidForcingError,
            match=r"^measurement event 1 on qubit 1 is deterministically 1, cannot force 0$",
        ):
            run(c, 0, forced_outcomes=[None, 0])
        assert run(c, 0, forced_outcomes=[0, 1, 0]).cbits == [0, 1, 0]

    def test_forcing_deterministic_reset_wrong_raises(self):
        c = circ(1, 1, MeasureZ(0, 0), Reset(0))
        with pytest.raises(
            InvalidForcingError,
            match=r"^measurement event 1 on qubit 0 is deterministically 0, cannot force 1$",
        ):
            run(c, 0, forced_outcomes=[None, 1])
        assert run(c, 0, forced_outcomes=[None, 0]).outcome_log == [0, 0]

    def test_measurement_after_a_deterministic_reset_sees_the_reset(self):
        # a Reset ends its run of determined events, since it changes the state
        c = circ(2, 2, X(0), X(1), Reset(0), MeasureZ(0, 0), MeasureZ(1, 1))
        assert run(c, 0).outcome_log == [1, 0, 1]
        assert sample_counts(circ(1, 0, X(0), Reset(0)), 8, seed=0) == Counter({"0": 8})

    def test_tableau_measure_rejects_a_determined_qubit(self):
        # 2n = 80 rows span two words; qubit 39's x column is destabilizer 39 only
        for n, q in ((2, 0), (40, 39)):
            t = Tableau(n)
            t.apply_h(1)
            t.flip([q], [])
            xz, r = t.xz.copy(), t.r.copy()
            message = (
                rf"^measurement of qubit {q} is deterministic; "
                r"read its outcome from expectation$"
            )
            with pytest.raises(ValueError, match=message):
                t.measure(q, 1)
            assert np.array_equal(t.xz, xz) and np.array_equal(t.r, r)
            assert (1 - t.expectation(0, np.eye(n, dtype=np.uint8)[q])) // 2 == 1

    def test_only_random_events_reach_tableau_measure(self, monkeypatch):
        # each merge's MeasureZ is random and each reset deterministic, so the
        # collapse runs once per MeasureZ and every determined outcome is the
        # engine's own
        from ghz_synth.circuit import count_measurements
        from ghz_synth.layouts import eagle_127
        from ghz_synth.merging import HighestDegree, synthesize_merging
        from ghz_synth.metrics import is_ghz

        c = synthesize_merging(eagle_127(), HighestDegree())
        calls = []
        collapse = Tableau.measure

        def counted(self, q, coin):
            calls.append(q)
            return collapse(self, q, coin)

        monkeypatch.setattr(Tableau, "measure", counted)
        out = run(c, seed=3)
        assert len(calls) == count_measurements(c) > 0
        assert len(out.outcome_log) == 2 * len(calls)
        assert is_ghz(out.tableau, 127)

    def test_forcing_random_event_right_after_a_run(self):
        # qubits 0 and 1 are deterministic, 2 is random and 3 follows it
        c = circ(4, 4, X(0), H(2), CX(2, 3), *(MeasureZ(q, q) for q in range(4)))
        for branch in (0, 1):
            out = run(c, 0, forced_outcomes=[None, None, branch])
            assert out.outcome_log == out.cbits == [1, 0, branch, branch]
        with pytest.raises(InvalidForcingError, match=r"^measurement event 3 on qubit 3 "):
            run(c, 0, forced_outcomes=[None, None, 0, 1])

    def test_ghz_measurement_collapses_all(self):
        c = circ(3, 3, H(0), CX(0, 1), CX(0, 2), MeasureZ(0, 0), MeasureZ(1, 1), MeasureZ(2, 2))
        for s in range(16):
            bits = run(c, s).cbits
            assert bits in ([0, 0, 0], [1, 1, 1])

    def test_outcome_log_covers_resets(self):
        c = circ(2, 1, H(0), CX(0, 1), MeasureZ(0, 0), Reset(0))
        out = run(c, seed=9)
        assert len(out.outcome_log) == 2
        # the reset re-measures the collapsed qubit: same outcome
        assert out.outcome_log[0] == out.outcome_log[1] == out.cbits[0]


class TestMeasuredQubitKeepsItsOutcome:
    """A qubit measured since its last reset takes that outcome at its reset or readout."""

    def test_merging_resets_reach_no_sign_product(self, monkeypatch):
        # every merge's reset follows its qubit's measurement, so a run asks
        # _signs for nothing and a sampling only for its readout batch
        from ghz_synth.layouts import eagle_127, rect_grid
        from ghz_synth.merging import AbsoluteSize, HighestDegree, synthesize_merging

        calls = []
        signs = Tableau._signs

        def counted(self, anti, y_p):
            calls.append(len(anti))
            return signs(self, anti, y_p)

        monkeypatch.setattr(Tableau, "_signs", counted)
        for g in (eagle_127(), rect_grid(16, 16)):
            for strategy in (HighestDegree(), AbsoluteSize(4)):
                c = synthesize_merging(g, strategy)
                calls.clear()
                run(c, seed=5)
                assert calls == [], (g.node_count, strategy)
                for noise in (None, NoiseModel(0.001, 0.01, 0.01, 0.01)):
                    calls.clear()
                    sample_counts(c, 128, seed=5, noise=noise)
                    assert len(calls) == 1, (g.node_count, strategy, noise)

    def test_forcing_the_reset_of_a_random_measurement(self):
        c = circ(1, 1, H(0), MeasureZ(0, 0), Reset(0))
        with pytest.raises(
            InvalidForcingError,
            match=r"^measurement event 1 on qubit 0 is deterministically 1, cannot force 0$",
        ):
            run(c, 0, forced_outcomes=[1, 0])
        assert run(c, 0, forced_outcomes=[1, 1]).outcome_log == [1, 1]

    def test_reset_error_after_a_random_measurement(self):
        c = circ(1, 1, H(0), MeasureZ(0, 0), Reset(0))
        assert sample_counts(c, 200, seed=4, noise=NoiseModel(pr=1.0)) == Counter({"1": 200})

    @pytest.mark.parametrize("noise", [None, NoiseModel(pm=1.0)])
    def test_readout_re_measures_an_unreset_qubit(self, noise):
        # the readout re-measures qubit 0 with its physical outcome, not with
        # its flipped cbit, so with every readout flipped both bits still agree
        c = circ(2, 1, H(0), CX(0, 1), MeasureZ(0, 0))
        counts = sample_counts(c, 400, seed=6, noise=noise)
        assert set(counts) == {"00", "11"} and sum(counts.values()) == 400


class TestCondXAndReset:
    def test_condx_fires_on_one(self):
        c = circ(2, 1, X(0), MeasureZ(0, 0), CondX((1,), 0))
        out = run(c, seed=0)
        assert out.cbits == [1]
        # both qubits end in |1>
        assert decode_stabilizers(out.tableau) == {"-ZI", "-IZ"}

    def test_condx_idle_on_zero(self):
        c = circ(2, 1, MeasureZ(0, 0), CondX((1,), 0))
        out = run(c, seed=0)
        assert "+IZ" in decode_stabilizers(out.tableau)

    def test_reset_returns_qubit_to_zero(self):
        c = circ(1, 1, X(0), MeasureZ(0, 0), Reset(0))
        out = run(c, seed=0)
        assert decode_stabilizers(out.tableau) == {"+Z"}

    def test_reset_collapses_entangled_partner(self):
        # after resetting half a Bell pair, the partner holds the outcome
        c = circ(2, 1, H(0), CX(0, 1), Reset(0), MeasureZ(1, 0))
        for branch in (0, 1):
            out = run(c, seed=3, forced_outcomes=[branch])
            assert out.outcome_log == [branch, branch]
            assert out.cbits == [branch]


class TestCapacityAndErrors:
    def test_capacity_error(self):
        with pytest.raises(CapacityError, match=f"exceeds the maximum of {MAX_QUBITS}"):
            run(Circuit(MAX_QUBITS + 1, 0, ()), seed=0)

    def test_sample_counts_honours_max_qubits(self):
        from ghz_synth.growing import synthesize_growing
        from ghz_synth.layouts import rect_grid

        c = synthesize_growing(rect_grid(24, 24))
        counts = sample_counts(c, 4, seed=1)
        assert sum(counts.values()) == 4
        assert set(counts) <= {"0" * 576, "1" * 576}

        with pytest.raises(CapacityError):
            sample_counts(Circuit(MAX_QUBITS + 1, 0, ()), 4, seed=1)

    def test_malformed_circuit_rejected(self):
        from ghz_synth.circuit import MalformedCircuitError

        with pytest.raises(MalformedCircuitError):
            run(circ(1, 1, CondX((0,), 0)), seed=0)


class TestSampleCounts:
    def test_ghz_support(self):
        c = circ(4, 0, H(0), CX(0, 1), CX(0, 2), CX(0, 3))
        counts = sample_counts(c, 4096, seed=2)
        assert set(counts) <= {"0000", "1111"}
        assert sum(counts.values()) == 4096

    def test_ghz3_five_sigma(self):
        c = circ(3, 0, H(0), CX(0, 1), CX(0, 2))
        shots = 100_000
        counts = sample_counts(c, shots, seed=3)
        sigma = (shots * 0.25) ** 0.5
        assert abs(counts["000"] - shots / 2) < 5 * sigma
        assert abs(counts["111"] - shots / 2) < 5 * sigma

    def test_noise_spreads_support(self):
        from ghz_synth.layouts import rect_grid
        from ghz_synth.merging import HighestDegree, synthesize_merging

        g = rect_grid(2, 5)
        c = synthesize_merging(g, HighestDegree())
        counts = sample_counts(c, 2048, seed=4, noise=NoiseModel(p2=0.01))
        assert set(counts) - {"0" * 10, "1" * 10}

    def test_batched_matches_single_shot_replay(self):
        from ghz_synth.layouts import connected_erdos_renyi
        from ghz_synth.merging import ScalingFactor, synthesize_merging

        g = connected_erdos_renyi(7, 0.4, seed=6)
        c = synthesize_merging(g, ScalingFactor(0.7))
        noise = NoiseModel(p1=0.03, p2=0.05, pm=0.04, pr=0.02)
        counts = sample_counts(c, 48, seed=55, noise=noise)
        ext = Circuit(
            c.qubit_count,
            c.cbit_count + c.qubit_count,
            c.ops + tuple(MeasureZ(q, c.cbit_count + q) for q in range(c.qubit_count)),
        )
        replay = Counter()
        for key in shot_keys(55, 48).tolist():
            out = run(ext, key, noise=noise)
            replay["".join(map(str, out.cbits[c.cbit_count:]))] += 1
        assert counts == replay

    @settings(max_examples=15, deadline=None)
    @given(
        shots=st.sampled_from([1, 63, 64, 65, 130]),
        n=st.integers(4, 9),
        graph_seed=st.integers(0, 2**32),
        seed=st.integers(0, 2**32),
    )
    def test_packed_shots_match_single_shot_replay(self, shots, n, graph_seed, seed):
        # heavy noise so that readout flips, reset errors and noisy CondX
        # corrections all occur, on shot counts around the 64-shot word size
        from ghz_synth.layouts import connected_erdos_renyi
        from ghz_synth.merging import ScalingFactor, synthesize_merging

        c = synthesize_merging(connected_erdos_renyi(n, 0.4, seed=graph_seed), ScalingFactor(0.7))
        noise = NoiseModel(p1=0.05, p2=0.1, pm=0.1, pr=0.1)
        counts = sample_counts(c, shots, seed=seed, noise=noise)
        ext = Circuit(
            c.qubit_count,
            c.cbit_count + c.qubit_count,
            c.ops + tuple(MeasureZ(q, c.cbit_count + q) for q in range(c.qubit_count)),
        )
        replay = Counter()
        for key in shot_keys(seed, shots).tolist():
            out = run(ext, key, noise=noise)
            replay["".join(map(str, out.cbits[c.cbit_count:]))] += 1
        assert counts == replay

    def test_reproducible(self):
        c = circ(2, 0, H(0), CX(0, 1))
        a = sample_counts(c, 512, seed=9, noise=NoiseModel(p1=0.1))
        b = sample_counts(c, 512, seed=9, noise=NoiseModel(p1=0.1))
        assert a == b


class TestNoiseChannels:
    def test_readout_flip_only_affects_record(self):
        # pm=1 flips every recorded bit but not the state
        c = circ(1, 1, MeasureZ(0, 0))
        out = run(c, seed=0, noise=NoiseModel(pm=1.0))
        assert out.cbits == [1]
        assert out.outcome_log == [0]
        assert decode_stabilizers(out.tableau) == {"+Z"}

    def test_reset_error_leaves_one(self):
        c = circ(1, 0, Reset(0))
        out = run(c, seed=0, noise=NoiseModel(pr=1.0))
        assert decode_stabilizers(out.tableau) == {"-Z"}

    def test_depolarizing_p1_one_changes_state_sometimes(self):
        c = circ(1, 0, H(0), H(0))  # identity without noise
        rows = {tuple(decode_stabilizers(run(c, seed=s, noise=NoiseModel(p1=1.0)).tableau)) for s in range(20)}
        assert len(rows) > 1

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=1.5)

    def test_bad_probability_is_an_input_error(self):
        with pytest.raises(schema.InputError, match=r"^p1: must lie in \[0, 1\], got 2$"):
            NoiseModel(2, 0, 0, 0)

    def test_probability_below_the_sampler_resolution(self):
        # 1 - p would round to 1: the errors would silently never happen
        with pytest.raises(ValueError, match=r"^p2: must be 0 or at least 2\*\*-53, got "):
            NoiseModel(p2=2.0**-54)
        assert NoiseModel(p2=2.0**-53).p2 == 2.0**-53


class TestSkipNoise:
    """The noise drawn by one skip sampler per error class, one stream of masks
    per class read in program order (see stabilizer._noise)."""

    def test_zero_noise_is_the_noiseless_run(self):
        # the coin of measurement event e is draw e with or without a noise model
        from ghz_synth.layouts import rect_grid
        from ghz_synth.merging import HighestDegree, synthesize_merging

        c = synthesize_merging(rect_grid(4, 4), HighestDegree())
        assert sample_counts(c, 256, 5, NoiseModel()) == sample_counts(c, 256, 5)
        for seed in range(8):
            clean, zero = run(c, seed), run(c, seed, noise=NoiseModel())
            assert (zero.cbits, zero.outcome_log) == (clean.cbits, clean.outcome_log)
            assert np.array_equal(zero.tableau.xz, clean.tableau.xz)
            assert np.array_equal(zero.tableau.r, clean.tableau.r)

    def test_every_op_type_has_an_error_class(self):
        assert set(_ERROR_CLASS) == set(typing.get_args(Operation))

    def test_condx_target_errs_only_where_it_fired(self):
        # the CondX target's location errs in every shot (p1 = 1), but a
        # correction that did not fire takes no error: qubit 1 reads 0
        # wherever qubit 0 read 0, and X then X, Y or Z where it fired
        c = circ(2, 1, H(0), MeasureZ(0, 0), CondX((1,), 0))
        counts = sample_counts(c, 512, 7, NoiseModel(p1=1.0))
        assert counts["01"] == 0
        assert min(counts["00"], counts["10"], counts["11"]) > 0

    def test_noise_memory_stays_near_the_frame(self):
        # one block of noise masks per error class lives at a time, the
        # blocks together about one frame of rows: heavy noise on 16x16
        # merging at 2**14 shots adds less than twice the frame plus 64
        # bytes a shot (3 MiB in all), which covers the skip samplers' 8
        # bytes a shot per class; the masks of every location that errs,
        # held at once, would add 6.5 MiB
        import tracemalloc

        from ghz_synth.layouts import rect_grid
        from ghz_synth.merging import HighestDegree, synthesize_merging

        c = synthesize_merging(rect_grid(16, 16), HighestDegree())
        n, m, shots = c.qubit_count, c.cbit_count, 2**14
        ops = c.ops + tuple(MeasureZ(q, m + q) for q in range(n))
        stream = CounterStream(shot_keys(3, shots))
        peaks = []
        for noise in (None, NoiseModel(0.1, 0.2, 0.1, 0.1)):
            tracemalloc.start()
            try:
                _simulate(n, m + n, ops, stream, shots, noise)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        frame = 2 * n * shots // 8
        assert peaks[1] - peaks[0] < 2 * frame + 64 * shots

    def test_block_edges_move_no_mask(self, monkeypatch):
        # with 8-byte windows every class's block is a few locations (rows =
        # 2n), but a location's masks come from its class's sampler alone,
        # so every sample equals the one drawn in default-size blocks
        from ghz_synth import rng, stabilizer
        from ghz_synth.layouts import rect_grid
        from ghz_synth.merging import HighestDegree, synthesize_merging

        c = synthesize_merging(rect_grid(5, 5), HighestDegree())
        heavy = NoiseModel(0.1, 0.2, 0.1, 0.1)

        def draw():
            runs = [run(c, seed, heavy) for seed in range(4)]
            return ([sample_counts(c, shots, 9, heavy) for shots in (70, 4096)],
                    [(r.cbits, r.outcome_log, r.tableau.xz.tobytes(), r.tableau.r.tobytes())
                     for r in runs])

        blocks = []  # the stop of every block drawn
        until = rng.Skips.until

        def counted(self, stop):
            blocks.append(stop)
            return until(self, stop)

        monkeypatch.setattr(rng.Skips, "until", counted)
        default, large = draw(), len(blocks)
        monkeypatch.setattr(stabilizer, "_WINDOW_BYTES", 8)
        assert draw() == default
        # six simulations of four classes: one block each by default, many after
        assert large == 6 * 4 and len(blocks) - large >= 3 * large

    def test_noisy_eagle_mixing_passes(self, monkeypatch):
        # one pass over the lanes per random measurement's coin and per skip
        # step of each error class, not one per error location
        from ghz_synth import rng
        from ghz_synth.layouts import eagle_127
        from ghz_synth.merging import HighestDegree, synthesize_merging

        passes = []
        mix_words = rng._mix_words

        def counted(z, tmp):
            passes.append(1)
            return mix_words(z, tmp)

        monkeypatch.setattr(rng, "_mix_words", counted)
        c = synthesize_merging(eagle_127(), HighestDegree())
        sample_counts(c, 4096, seed=3, noise=NoiseModel(0.001, 0.01, 0.01, 0.01))
        assert 0 < len(passes) < 150


class TestSignsOneRow:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 70), n_ops=st.integers(0, 160), seed=st.integers(0, 2**32))
    def test_matches_general_path(self, n, n_ops, seed):
        # stabilizer generator j, as a Pauli, anticommutes with destabilizer
        # j alone: the product's sign of that one row, alone or beside the
        # identity, must equal the row's sign as stabilizer_rows unpacks it
        # and the sign of generators j and l taken together
        t = run(random_clifford_circuit(n, n_ops, seed), seed).tableau
        sx, sz, sr = t.stabilizer_rows()
        masks, y = [], []
        for j in range(n):
            anti = np.bitwise_xor.reduce(t.z[np.flatnonzero(sx[j])], axis=0)
            anti ^= np.bitwise_xor.reduce(t.x[np.flatnonzero(sz[j])], axis=0)
            assert _unpack(anti, 2 * n).nonzero()[0].tolist() == [j]
            masks.append(anti)
            y.append(int(np.count_nonzero(sx[j] & sz[j])))
            assert t._signs(anti[None], y[j]).tolist() == [sr[j]]
            assert t._signs(np.stack([0 * anti, anti]), np.array([0, y[j]])).tolist() == [0, sr[j]]
        for j, l in zip(range(n), range(1, n)):
            general = t._signs(np.stack([masks[j], masks[l]]), np.array([y[j], y[l]]))
            assert general.tolist() == [sr[j], sr[l]]


class TestCounterDraws:
    """Where the engine reads the counter-based stream (see rng.CounterStream)."""

    def test_coin_is_draw_zero_of_the_shot_key(self):
        c = circ(1, 0, H(0))
        keys = shot_keys(21, 300)
        coins = CounterStream(keys).uniforms(0) < 0.5
        counts = sample_counts(c, 300, seed=21)
        assert counts == Counter({"1": int(coins.sum()), "0": int((~coins).sum())})
        for s in (0, 1, 299):
            assert run(circ(1, 1, H(0), MeasureZ(0, 0)), int(keys[s])).cbits == [int(coins[s])]

    def test_skipped_draws_keep_their_index(self):
        # the deterministic first measurement owns draw 0 without reading it,
        # so the random second one reads draw 1
        c = circ(2, 2, MeasureZ(0, 0), H(1), MeasureZ(1, 1))
        for seed in range(40):
            u = CounterStream(np.array([seed], dtype=np.uint64)).uniforms(1)[0]
            assert run(c, seed).cbits == [0, int(u < 0.5)]

    def test_which_pauli_is_the_draw_after_the_error(self):
        # X then a certain error: X or Y undo it, Z leaves |1>. The error is
        # location 0 of the 1-qubit class, found by its skip 0 (draw 2**62),
        # so its Pauli is the draw after that skip, 2**62 + 1
        c = circ(1, 1, X(0), MeasureZ(0, 0))
        noise = NoiseModel(p1=1.0)
        for seed in range(60):
            u = CounterStream(np.array([seed], dtype=np.uint64)).uniforms(2**62 + 1)[0]
            assert run(c, seed, noise=noise).cbits == [int(u * 3 >= 2)]

    def test_no_draw_before_capacity_check(self, monkeypatch):
        from ghz_synth import stabilizer
        from ghz_synth.growing import synthesize_growing
        from ghz_synth.layouts import rect_grid

        def no_draws(*args, **kwargs):
            raise AssertionError("drew random numbers before the capacity check")

        monkeypatch.setattr(stabilizer, "shot_keys", no_draws)
        monkeypatch.setattr(stabilizer, "CounterStream", no_draws)
        c = synthesize_growing(rect_grid(64, 65))
        assert c.qubit_count > MAX_QUBITS
        with pytest.raises(CapacityError):
            sample_counts(c, 4, seed=1)
        with pytest.raises(CapacityError):
            run(c, seed=1)

    def test_run_rejects_out_of_range_seed(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit"):
                run(circ(1, 0, H(0)), seed)

    def test_sample_counts_rejects_out_of_range_seed(self):
        c = circ(2, 0, H(0), CX(0, 1))
        for seed in (-1, 2**64):
            with pytest.raises(ValueError) as from_run:
                run(c, seed)
            with pytest.raises(ValueError) as from_sample:
                sample_counts(c, 8, seed)
            assert str(from_sample.value) == str(from_run.value)

    def test_noisy_eagle_sampling_memory(self):
        import tracemalloc

        from ghz_synth.layouts import eagle_127
        from ghz_synth.merging import HighestDegree, synthesize_merging

        c = synthesize_merging(eagle_127(), HighestDegree())
        noise = NoiseModel(p1=0.001, p2=0.01, pm=0.01, pr=0.01)
        tracemalloc.start()
        try:
            counts = sample_counts(c, 4096, seed=3, noise=noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 4096
        assert peak < 16 * 2**20
