import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth import layouts, rng
from ghz_synth.rng import MAX_SEED, BoundedDraws, CounterStream, derive_seed, make_rng, shot_keys
from ghz_synth.testutil import scalar_skips, sorted_skips

# u_t * 2**53 for t = 0..7, from the SplitMix64 definition; the first entry
# for key 0 is SplitMix64's first output from state 0 (0xE220A8397B1DCDAF)
# shifted right by 11
KNOWN_DRAWS = {
    0: [7956156453446585, 3886858653415212, 238094247788840, 8744927430068624,
        957885841028366, 2948288379523028, 1566062512695462, 6949473567187669],
    1: [6753131800803418, 3354221761027669, 3947710474051195, 8593919372450035,
        1819991942690861, 5366200474610031, 4105204980679492, 1674847770677717],
    MAX_SEED: [5821841146422611, 6351485825719474, 2866233736223230, 257362132124406,
               7480115465318255, 503352288065440, 4248165739312345, 6972874209677968],
}


def draws(keys, count):
    """(count, len(keys)) matrix of the first draws of every key."""
    stream = CounterStream(np.asarray(keys, dtype=np.uint64))
    return np.array([stream.uniforms(t) for t in range(count)])


class TestCounterStream:
    @pytest.mark.parametrize("key", sorted(KNOWN_DRAWS))
    def test_known_answers_single_lane(self, key):
        got = draws([key], 8)[:, 0] * 2.0**53
        assert got.tolist() == KNOWN_DRAWS[key]

    def test_known_answers_vector_lanes(self):
        # 3 known keys padded to 64 lanes takes the vectorized path
        keys = sorted(KNOWN_DRAWS) + list(range(2, 63))
        got = draws(keys, 8)[:, :3].T * 2.0**53
        assert got.tolist() == [KNOWN_DRAWS[k] for k in sorted(KNOWN_DRAWS)]

    @pytest.mark.parametrize("count", [1, 5, 7, 8, 9, 300])
    def test_lane_subset_matches_full_draw(self, count):
        keys = shot_keys(5, 512)
        stream = CounterStream(keys)
        lanes = np.sort(np.random.default_rng(count).choice(512, count, replace=False))
        for t in (0, 1, 17, 10**6):
            full = stream.uniforms(t)
            assert np.array_equal(stream.uniforms(t, lanes), full[lanes])
            one = [CounterStream(keys[[s]]).uniforms(t)[0] for s in lanes[:8]]
            assert one == full[lanes[:8]].tolist()

    @pytest.mark.parametrize("lanes", [1, 7, 8, 63, 64, 65, 4096])
    def test_below_equals_uniforms_below_p(self, lanes):
        # coins(t), the integer comparison in place, gives the lanes of uniforms(t) < 0.5,
        # packed lane s at bit s % 64 of word s // 64 with the padding zero
        stream = CounterStream(shot_keys(11, lanes))
        words = -(-lanes // 64)
        for t in (0, 1, 17, 10**6):
            hit = stream.uniforms(t) < 0.5
            bits = np.zeros(64 * words, dtype=bool)
            bits[:lanes] = hit
            want = np.packbits(bits, bitorder="little").view("<u8")
            got = stream.coins(t)
            assert got.dtype == np.uint64 and got.shape == (words,)
            assert np.array_equal(got, want), t

    def test_range(self):
        u = draws(np.arange(4096), 4)
        assert u.dtype == np.float64
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_uniform_chi_square(self):
        # 10**6 draws from 1000 adjacent keys; 63 degrees of freedom
        u = draws(np.arange(1000), 1000).ravel()
        observed = np.bincount((u * 64).astype(np.int64), minlength=64)
        expected = u.size / 64
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 63 + 5 * (2 * 63) ** 0.5

    def test_adjacent_shots_and_draws_uncorrelated(self):
        u = draws(shot_keys(9, 1000), 1000) - 0.5  # (draw, shot)
        for a, b in ((u[:, :-1], u[:, 1:]), (u[:-1], u[1:])):
            r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(r) * a.size**0.5 < 5

    def test_nearby_keys_uncorrelated(self):
        u = draws(np.arange(1001), 1000) - 0.5
        r = np.corrcoef(u[:, :-1].ravel(), u[:, 1:].ravel())[0, 1]
        assert abs(r) * u[:, :-1].size ** 0.5 < 5


class TestSkips:
    @pytest.mark.parametrize("lanes", [1, 63, 64, 65, 4096])
    def test_matches_scalar_reference(self, lanes):
        # every (lane, location, draw) of the vectorized sampler is the plain
        # loop's, for rare, common and certain errors, on a word's edges; t0
        # is the engine's highest class base
        keys = shot_keys(13, lanes)
        stream = CounterStream(keys)
        t0 = 2**62 + 3 * 2**58
        for p in (1e-3, 0.01, 0.2, 1.0):
            for m in (1, 7, 700):
                assert sorted_skips(stream, t0, p, m) == scalar_skips(keys, t0, p, m), (p, m)

    @pytest.mark.parametrize("scale", [0.3, 2.5])
    def test_a_wrong_guess_is_corrected(self, scale, monkeypatch):
        # the log only guesses each gap; with every guess off by a factor
        # the table still decides, so the hits stay the reference's
        keys = shot_keys(29, 65)
        stream = CounterStream(keys)
        log1p = rng.math.log1p
        monkeypatch.setattr(rng.math, "log1p", lambda x: scale * log1p(x))
        for p, m in ((0.01, 700), (0.2, 700), (0.9, 7)):
            assert sorted_skips(stream, 2**62, p, m) == scalar_skips(keys, 2**62, p, m), (p, m)

    def test_rate_is_one_minus_rounded_one_minus_p(self):
        # 1 - p rounds to 1 for p <= 2**-54: such a class never hits (and
        # NoiseModel refuses it), while p = 2**-53 keeps its (1 - p)**k < 1
        keys = shot_keys(31, 64)
        stream = CounterStream(keys)
        for p in (2.0**-54, 2.0**-53):
            assert sorted_skips(stream, 2**62, p, 5000) == scalar_skips(keys, 2**62, p, 5000) == []
        assert rng.Skips(stream, 2**62, 2.0**-54, 3)._table.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
        assert rng.Skips(stream, 2**62, 2.0**-53, 3)._table[1:4].max() < 1.0

    @pytest.mark.parametrize("p, m", [(0.01, 200), (0.3, 40)])
    def test_law(self, p, m):
        # each location errs with probability p, independently: per location
        # hit rates, and the per-lane error count is Binomial(m, p) in mean
        # and variance, all within 5 sigma over 2**16 lanes
        lanes = 2**16
        steps = list(CounterStream(shot_keys(17, lanes)).skips(2**62, p, m).until(m))
        hit_lanes = np.concatenate([hit for hit, _, _ in steps])
        locs = np.concatenate([at for _, at, _ in steps])
        per_location = np.bincount(locs, minlength=m)
        assert per_location.size == m
        assert np.abs(per_location - lanes * p).max() < 5 * (lanes * p * (1 - p)) ** 0.5
        count = np.bincount(hit_lanes, minlength=lanes)
        mean, var = m * p, m * p * (1 - p)
        assert abs(count.mean() - mean) < 5 * (var / lanes) ** 0.5
        kappa4 = var * (1 - 6 * p * (1 - p))  # the binomial's fourth cumulant
        assert abs(count.var() - var) < 5 * ((2 * var**2 + kappa4) / lanes) ** 0.5

    def test_state_is_eight_bytes_a_lane(self):
        # once drawn, a sampler keeps an int32 location and an int32 skip
        # count per lane, beside its power table; int64 state would be 16
        lanes = 2**16
        sampler = CounterStream(shot_keys(37, lanes)).skips(2**62, 0.01, 100)
        assert next(sampler.until(50))[0].size
        held = sum(v.nbytes for v in vars(sampler).values() if isinstance(v, np.ndarray))
        assert held - sampler._table.nbytes <= 8 * lanes

    def test_refuses_2_to_the_31_locations(self):
        # the int32 state counts locations and skips below 2**31; p = 0 builds
        # no power table, so neither call allocates m of anything
        stream = CounterStream(shot_keys(41, 1))
        with pytest.raises(ValueError, match=r"m: must be below 2\*\*31, got 2147483648"):
            stream.skips(2**62, 0.0, 2**31)
        assert list(stream.skips(2**62, 0.0, 2**31 - 1).until(2**31 - 1)) == []

    @pytest.mark.parametrize("lanes", [1, 4096])
    def test_zero_probability_reads_no_draw(self, lanes, monkeypatch):
        stream = CounterStream(shot_keys(23, lanes))

        def no_draw(*args):
            raise AssertionError("read a draw at p = 0")

        monkeypatch.setattr(rng, "_mix_words", no_draw)
        monkeypatch.setattr(rng, "_draw", no_draw)
        assert list(stream.skips(2**62, 0.0, 700).until(700)) == []


class TestShotKeys:
    @pytest.mark.parametrize("master", [0, 1, MAX_SEED])
    def test_equals_derive_seed(self, master):
        # shot s's key is the call's one derived seed plus s, wrapping
        keys = shot_keys(master, 4096)
        assert keys.dtype == np.uint64
        base = derive_seed(master, "shot")
        assert keys.tolist() == [(base + s) % 2**64 for s in range(4096)]

    def test_keys_wrap_modulo_2_64(self, monkeypatch):
        monkeypatch.setattr(rng, "derive_seed", lambda master, *labels: MAX_SEED - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = shot_keys(3, 4)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [MAX_SEED - 1, MAX_SEED, 0, 1]

    def test_empty(self):
        keys = shot_keys(3, 0)
        assert keys.dtype == np.uint64 and keys.size == 0


# bounds of every kind: 1, which reads no half; small ones; and ones above
# 2**31, which reject close to half of all halves
_BOUNDS = st.one_of(st.just(1), st.integers(2, 200), st.integers(1, 2**32 - 1),
                    st.integers(2**31 + 1, 2**32 - 1))


class TestBoundedDraws:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, MAX_SEED), bounds=st.lists(_BOUNDS, max_size=60),
           block=st.integers(1, 40))
    def test_equals_generator_integers_draw_for_draw(self, seed, bounds, block):
        draws, generator = BoundedDraws(seed, block), make_rng(seed)
        assert [draws.below(m) for m in bounds] == [int(generator.integers(0, m)) for m in bounds]

    @pytest.mark.parametrize("m", [0, -1, 2**32, 2**40])
    def test_refuses_a_bound_outside_1_to_2_to_the_32(self, m):
        with pytest.raises(ValueError, match=rf"^m: must lie in \[1, 2\*\*32\), got {m}$"):
            BoundedDraws(0, 4).below(m)


class _NoIntegers(np.random.Generator):
    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers called")


def test_random_connected_subgraph_makes_no_integers_call(monkeypatch):
    from test_golden import SUBGRAPH_GOLDEN, SUBGRAPH_SOURCES, _sha256

    sources = {name: make() for name, make in SUBGRAPH_SOURCES.items()}  # built unpatched
    no_integers = lambda seed: _NoIntegers(np.random.PCG64(rng.check_seed(seed)))
    monkeypatch.setattr(rng, "make_rng", no_integers)
    monkeypatch.setattr(layouts, "make_rng", no_integers)
    with pytest.raises(AssertionError, match="Generator.integers called"):
        rng.make_rng(0).integers(0, 2)  # the patch is in place
    for (source, k, seed), digest in SUBGRAPH_GOLDEN.items():
        sub, mapping = layouts.random_connected_subgraph(sources[source], k, seed)
        assert _sha256(sub.to_json() + repr(mapping)) == digest
