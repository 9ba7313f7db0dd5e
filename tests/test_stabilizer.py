from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth.circuit import CX, Circuit, CondX, H, MeasureZ, Reset, X
from ghz_synth.rng import CounterStream, shot_keys
from ghz_synth.rng import derive_seed, make_rng
from ghz_synth.stabilizer import (
    CapacityError,
    InvalidForcingError,
    NoiseModel,
    Tableau,
    _pack,
    _unpack,
    run,
    sample_counts,
)
from ghz_synth.testutil import random_clifford_circuit


def circ(n, cbits, *ops):
    return Circuit(n, cbits, tuple(ops))


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
            out.tableau.check_invariants()


class TestExpectation:
    def test_masked_flip_changes_one_shot(self):
        # Bell pair in two shots, then X on qubit 1 in shot 0 only
        tab = Tableau(2, shots=2)
        tab.apply_h(0)
        tab.apply_cx(0, 1)
        tab.apply_x(1, np.array([1, 0], dtype=np.uint8))
        zz = tab.expectation(0, np.array([1, 1], dtype=np.uint8))
        xx = tab.expectation(np.array([1, 1], dtype=np.uint8), 0)
        assert zz.tolist() == [-1, 1]
        assert xx.tolist() == [1, 1]
        assert tab.expectation(0, np.array([1, 0], dtype=np.uint8)).tolist() == [0, 0]

    def test_masked_flip_across_word_boundaries(self):
        # 130 shots span three words, the last holding two shots and padding
        tab = Tableau(3, shots=130)
        tab.apply_h(0)
        tab.apply_cx(0, 1)
        tab.apply_cx(0, 2)
        mask = np.zeros(130, dtype=np.uint8)
        mask[[0, 5, 63, 64, 100, 127, 128, 129]] = 1
        mask[make_rng(3).random(130) < 0.3] = 1
        tab.apply_x(1, mask)
        z0z1 = tab.expectation(0, np.array([1, 1, 0], dtype=np.uint8))
        z1z2 = tab.expectation(0, np.array([0, 1, 1], dtype=np.uint8))
        z0z2 = tab.expectation(0, np.array([1, 0, 1], dtype=np.uint8))
        assert z0z1.shape == (130,)
        assert np.array_equal(z0z1, 1 - 2 * mask.astype(np.int8))
        assert np.array_equal(z1z2, z0z1)
        assert (z0z2 == 1).all()
        assert (tab.expectation(np.ones(3, dtype=np.uint8), 0) == 1).all()

    def test_batch_matches_one_tableau_per_shot(self):
        # random H / CX / masked Pauli / measurement sequences on 130 shots:
        # every shot of the batch must equal a one-shot tableau that applies
        # that shot's Paulis and coins, signs included (H and CX phases too)
        shots, n = 130, 5
        for i in range(4):
            rng = make_rng(derive_seed(81, i))
            batch = Tableau(n, shots)
            singles = [Tableau(n) for _ in range(shots)]
            for _ in range(80):
                kind = int(rng.integers(0, 6))
                q, other = (int(v) for v in rng.choice(n, size=2, replace=False))
                if kind == 0:
                    for t in [batch] + singles:
                        t.apply_h(q)
                elif kind == 1:
                    for t in [batch] + singles:
                        t.apply_cx(q, other)
                elif kind < 5:
                    mask = (rng.random(shots) < 0.4).astype(np.uint8)
                    name = ("apply_x", "apply_y", "apply_z")[kind - 2]
                    getattr(batch, name)(q, mask)
                    for s in np.flatnonzero(mask):
                        getattr(singles[s], name)(q)
                else:
                    coins = rng.integers(0, 2, size=shots).astype(np.uint8)
                    random = not batch.is_deterministic(q)
                    batch.measure(q, _pack(coins, batch.words) if random else None)
                    for s, t in enumerate(singles):
                        t.measure(q, coins[s : s + 1] if random else None)
            signs = _unpack(batch.r, shots)
            for s, t in enumerate(singles):
                assert np.array_equal(t.x, batch.x) and np.array_equal(t.z, batch.z)
                assert np.array_equal(signs[:, s], t.r[:, 0] & 1), (i, s)


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
        with pytest.raises(CapacityError):
            run(Circuit(513, 0, ()), seed=0)

    def test_sample_counts_honours_max_qubits(self, monkeypatch):
        from ghz_synth import stabilizer
        from ghz_synth.growing import synthesize_growing
        from ghz_synth.layouts import rect_grid

        c = synthesize_growing(rect_grid(24, 24))
        counts = sample_counts(c, 4, seed=1, max_qubits=1024)
        assert sum(counts.values()) == 4
        assert set(counts) <= {"0" * 576, "1" * 576}

        def no_draws(seed):
            raise AssertionError("drew random numbers before the capacity check")

        monkeypatch.setattr(stabilizer, "make_rng", no_draws)
        with pytest.raises(CapacityError):
            sample_counts(c, 4, seed=1)

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
        for s in range(48):
            out = run(ext, derive_seed(55, "shot", s), noise=noise)
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
        for s in range(shots):
            out = run(ext, derive_seed(seed, "shot", s), noise=noise)
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
        # X then a certain error: X or Y undo it, Z leaves |1>; the
        # measurement's coin and readout flip are draws 2 and 3
        c = circ(1, 1, X(0), MeasureZ(0, 0))
        noise = NoiseModel(p1=1.0)
        for seed in range(60):
            u = CounterStream(np.array([seed], dtype=np.uint64)).uniforms(1)[0]
            assert run(c, seed, noise=noise).cbits == [int(u * 3 >= 2)]

    def test_no_draw_before_capacity_check(self, monkeypatch):
        from ghz_synth import stabilizer
        from ghz_synth.growing import synthesize_growing
        from ghz_synth.layouts import rect_grid

        def no_draws(*args, **kwargs):
            raise AssertionError("drew random numbers before the capacity check")

        monkeypatch.setattr(stabilizer, "shot_keys", no_draws)
        monkeypatch.setattr(stabilizer, "CounterStream", no_draws)
        c = synthesize_growing(rect_grid(24, 24))
        with pytest.raises(CapacityError):
            sample_counts(c, 4, seed=1)
        with pytest.raises(CapacityError):
            run(c, seed=1)

    def test_run_rejects_out_of_range_seed(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit"):
                run(circ(1, 0, H(0)), seed)

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
