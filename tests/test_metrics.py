import numpy as np
import pytest

from ghz_synth.circuit import CX, Circuit, CondX, H, X
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import eagle_127, random_connected_subgraph, rect_grid
from ghz_synth.merging import HighestDegree, synthesize_merging
from ghz_synth.metrics import (
    certify,
    counts_to_distribution,
    ghz_ideal_distribution,
    hellinger_fidelity,
    is_ghz,
    summarize,
)
from ghz_synth.rng import make_rng
from ghz_synth.stabilizer import Tableau, run


class TestHellinger:
    def test_identical(self):
        p = {"00": 0.5, "11": 0.5}
        assert hellinger_fidelity(p, p) == pytest.approx(1.0)

    def test_disjoint(self):
        assert hellinger_fidelity({"0": 1.0}, {"1": 1.0}) == 0.0

    def test_half_overlap(self):
        p = {"0": 0.5, "1": 0.5}
        q = {"0": 1.0}
        assert hellinger_fidelity(p, q) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = make_rng(42)
        for _ in range(25):
            keys = [format(i, "03b") for i in range(8)]
            a = rng.random(8)
            b = rng.random(8)
            p = dict(zip(keys, a / a.sum()))
            q = dict(zip(keys, b / b.sum()))
            assert hellinger_fidelity(p, q) == pytest.approx(hellinger_fidelity(q, p))

    def test_bounds_and_equality_condition(self):
        rng = make_rng(7)
        for _ in range(25):
            a = rng.random(4)
            p = dict(zip("abcd", a / a.sum()))
            f = hellinger_fidelity(p, p)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(1.0)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            hellinger_fidelity({"0": 0.7}, {"0": 1.0})
        with pytest.raises(ValueError):
            hellinger_fidelity({"0": -0.1, "1": 1.1}, {"0": 1.0})
        for bad in ({"0": float("nan"), "1": 1.0}, {"0": float("nan"), "1": 0.5}):
            with pytest.raises(ValueError):
                hellinger_fidelity(bad, {"0": 0.5, "1": 0.5})
            with pytest.raises(ValueError):
                hellinger_fidelity({"0": 0.5, "1": 0.5}, bad)


class TestGhzIdeal:
    def test_n1(self):
        assert ghz_ideal_distribution(1) == {"0": 0.5, "1": 0.5}

    def test_n3(self):
        assert ghz_ideal_distribution(3) == {"000": 0.5, "111": 0.5}

    def test_support_size_two(self):
        for n in range(1, 12):
            assert len(ghz_ideal_distribution(n)) == 2

    def test_n0_rejected(self):
        with pytest.raises(ValueError, match=r"^n: must be >= 1, got 0$"):
            ghz_ideal_distribution(0)


class TestCountsToDistribution:
    def test_even_split(self):
        assert counts_to_distribution({"00": 2048, "11": 2048}, 4096) == {
            "00": 0.5, "11": 0.5,
        }

    def test_single_key(self):
        assert counts_to_distribution({"0": 4096}, 4096) == {"0": 1.0}

    def test_quarters(self):
        assert counts_to_distribution({"00": 1, "01": 3}, 4) == {"00": 0.25, "01": 0.75}

    def test_sum_mismatch(self):
        with pytest.raises(ValueError):
            counts_to_distribution({"0": 10}, 11)

    def test_no_shots_rejected(self):
        with pytest.raises(ValueError, match=r"^shots: must be >= 1, got 0$"):
            counts_to_distribution({}, 0)


class TestIsGhz:
    def test_canonical_ghz3(self):
        out = run(Circuit(3, 0, (H(0), CX(0, 1), CX(0, 2))), seed=0)
        assert is_ghz(out.tableau, 3)

    def test_all_zero_not_ghz(self):
        out = run(Circuit(3, 0, ()), seed=0)
        assert not is_ghz(out.tableau, 3)

    def test_single_qubit_plus(self):
        out = run(Circuit(1, 0, (H(0),)), seed=0)
        assert is_ghz(out.tableau, 1)

    def test_wrong_sign_rejected(self):
        # X on one leaf gives (|001> + |110>)/sqrt2: same group up to signs
        out = run(Circuit(3, 0, (H(0), CX(0, 1), CX(0, 2), X(2))), seed=0)
        assert not is_ghz(out.tableau, 3)

    def test_product_plus_states_not_ghz(self):
        out = run(Circuit(3, 0, (H(0), H(1), H(2))), seed=0)
        assert not is_ghz(out.tableau, 3)

    def test_bell_pairs_not_ghz4(self):
        out = run(Circuit(4, 0, (H(0), CX(0, 1), H(2), CX(2, 3))), seed=0)
        assert not is_ghz(out.tableau, 4)

    def test_grown_eagle_subgraph(self):
        g, _ = random_connected_subgraph(eagle_127(), 20, seed=2)
        out = run(synthesize_growing(g), seed=0)
        assert is_ghz(out.tableau, 20)

    @pytest.mark.parametrize("protocol", ["growing", "merging"])
    def test_grid_32x32(self, protocol):
        _check_grid(32, 32, protocol, flip=517)

    @pytest.mark.parametrize("protocol", ["growing", "merging"])
    def test_grid_64x64(self, protocol):
        _check_grid(64, 64, protocol, flip=2080)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
    def test_chain_faults_match_expectation_criterion(self, n):
        # the GHZ chain and its single faults, at sizes whose 2n tableau rows
        # end around 64-bit word boundaries
        chain = [H(0)] + [CX(i, i + 1) for i in range(n - 1)]
        variants = [chain]
        for k in sorted({0, n // 2, n - 1}):
            variants.append(chain + [X(k)])
            variants.append(chain + [H(k), X(k), H(k)])  # Z
            variants.append(chain + [H(k)])
        for j in sorted({0, (n - 2) // 2, n - 2}) if n > 1 else ():
            variants.append(chain[: j + 1] + chain[j + 2 :])  # drop CX(j, j+1)
            variants.append(chain[: j + 1] + [CX(j + 1, j)] + chain[j + 2 :])
        for i, ops in enumerate(variants):
            tab = run(Circuit(n, 0, tuple(ops)), seed=0).tableau
            got = is_ghz(tab, n)
            assert got == _ghz_by_expectation(tab, n), (n, i)
            # X on the one qubit of |+> leaves it; every other fault breaks GHZ
            assert got == (i == 0 or (n == 1 and i == 1)), (n, i)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            is_ghz(run(Circuit(3, 0, ()), seed=0).tableau, 4)


def _check_grid(rows: int, cols: int, protocol: str, flip: int) -> None:
    """is_ghz holds on the synthesized grid circuit and fails after one more X."""
    n = rows * cols
    g = rect_grid(rows, cols)
    if protocol == "growing":
        c = synthesize_growing(g)
    else:
        c = synthesize_merging(g, HighestDegree())
    assert is_ghz(run(c, seed=0).tableau, n)
    flipped = Circuit(c.qubit_count, c.cbit_count, c.ops + (X(flip),))
    assert not is_ghz(run(flipped, seed=0).tableau, n)


def _ghz_by_expectation(t: Tableau, n: int) -> bool:
    """Reference criterion: X^n and each Z_i Z_{i+1} have expectation +1.

    The tableau's n stabilizer rows are independent, so its group has 2^n
    elements, as does the GHZ group it then contains: the two are equal.
    """
    if t.expectation(np.ones(n, dtype=np.uint8), 0) != 1:
        return False
    for i in range(n - 1):
        zz = np.zeros(n, dtype=np.uint8)
        zz[i : i + 2] = 1
        if t.expectation(0, zz) != 1:
            return False
    return True


class TestSummarize:
    def test_constant(self):
        s = summarize([1, 1, 1])
        assert (s.mean, s.std, s.max, s.count) == (1.0, 0.0, 1.0, 3)

    def test_two_values_population_std(self):
        s = summarize([0, 1])
        assert s.mean == 0.5 and s.std == 0.5 and s.max == 1.0

    def test_single_value(self):
        s = summarize([4.2])
        assert s.mean == 4.2 and s.std == 0.0 and s.count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


_PATH = rect_grid(1, 5)
_GROWN = synthesize_growing(_PATH).ops  # H(1), CX(1, 0), CX(1, 2), CX(2, 3), CX(3, 4)
_MERGED = synthesize_merging(rect_grid(2, 4), HighestDegree())
_CONDX = next(i for i, op in enumerate(_MERGED.ops) if isinstance(op, CondX))


@pytest.mark.parametrize("c, g, seed, message", [
    # N - 1 CX and exact GHZ, but qubit 4 joins from qubit 2, off the path
    (Circuit(5, 0, _GROWN[:4] + (CX(2, 4),)), _PATH, 0,
     "layout edge: op 4, CX(control=2, target=4), is not on an edge of the layout"),
    # seed 2 measures 1 where the dropped correction would fire
    (Circuit(8, 2, _MERGED.ops[:_CONDX] + _MERGED.ops[_CONDX + 1:]), rect_grid(2, 4), 2,
     "exact GHZ: run with seed 2 does not leave the 8-qubit GHZ state"),
    # the pair cancels, so the state stays GHZ, but the CX count is 2 too many
    (Circuit(5, 0, _GROWN + (CX(0, 1), CX(0, 1))), _PATH, 0,
     "count identity: 6 CX, expected N - 1 + 0 measurements = 4"),
    (Circuit(5, 0, _GROWN), rect_grid(2, 3), 0,
     "qubit count: circuit has 5 qubits, layout has 6 nodes"),
], ids=["off-layout-cx", "dropped-condx", "extra-cx-pair", "other-layout-size"])
def test_certify_names_the_first_failing_property(c, g, seed, message):
    with pytest.raises(ValueError) as refused:
        certify(c, g, seed)
    assert str(refused.value) == message
