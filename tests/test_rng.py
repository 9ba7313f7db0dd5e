import numpy as np
import pytest

from ghz_synth.rng import MAX_SEED, CounterStream, derive_seed, shot_keys

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


class TestShotKeys:
    @pytest.mark.parametrize("master", [0, 1, MAX_SEED])
    def test_equals_derive_seed(self, master):
        keys = shot_keys(master, 4096)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [derive_seed(master, "shot", s) for s in range(4096)]

    def test_empty(self):
        assert shot_keys(3, 0).size == 0
