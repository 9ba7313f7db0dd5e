"""Fuzzing the JSON loaders: whatever document they are given, they raise
only InputError, and a node or qubit count past the bound fails before
anything of that size is built. Every public entry point refuses a bad
count, probability or seed with InputError, in the words of check_count,
check_probability or check_seed."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth import InputError, LayoutGraph, SweepConfig
from ghz_synth.bench import ProtocolSpec, run_sweep
from ghz_synth.circuit import Circuit, MalformedCircuitError
from ghz_synth.layouts import (
    connected_erdos_renyi, heavy_hex, random_connected_subgraph, rect_grid,
)
from ghz_synth.merging import AbsoluteSize, ScalingFactor
from ghz_synth.metrics import counts_to_distribution, ghz_ideal_distribution
from ghz_synth.rng import make_rng
from ghz_synth.schema import MAX_N, check_count
from ghz_synth.stabilizer import MAX_QUBITS, NoiseModel, run, sample_counts

# Counts between 10**4 and MAX_N would build an n-element schedule; the ints
# skip them, so no example allocates much. Past MAX_N they reach 2**70, and
# the numbers reach past float range.
INTS = st.one_of(
    st.integers(-2, 12), st.integers(-10**4, 10**4),
    st.integers(MAX_N + 1, 2**70), st.integers(-2**70, -1),
)
NUMBERS = INTS | st.integers(2**1024, 2**1100) | st.floats()  # NaN and the infinities included
JUNK = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
)


def either(*plausible):
    """Mostly a plausible value for a field, sometimes anything at all."""
    return st.integers(0, 7).flatmap(lambda k: st.one_of(*plausible) if k else JUNK)


def obj(**fields):
    """An object holding every one of the given fields, or any subset of them."""
    return either(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields))


def words(*names):
    return either(st.sampled_from(names))


def int_list(max_size):
    return either(st.lists(either(INTS), max_size=max_size))


CIRCUITS = obj(
    n=either(INTS), cbits=either(INTS),
    ops=either(st.lists(obj(
        tag=words("h", "x", "cx", "measure_z", "reset", "cond_x"),
        q=either(INTS), control=either(INTS), target=either(INTS), cbit=either(INTS),
        targets=int_list(3),
    ), max_size=6)),
)
LAYOUTS = obj(n=either(INTS), edges=either(st.lists(int_list(3), max_size=6)))
STRATEGIES = obj(
    strategy=words("highest_degree", "scaling_factor", "absolute_size"),
    f=either(NUMBERS), s=either(INTS),
)
CONFIGS = obj(
    family=words("eagle_subgraph", "rect_grid_subgraph", "erdos_renyi"),
    sizes=int_list(4),
    protocols=either(st.lists(obj(protocol=words("growing", "merging"), strategy=STRATEGIES),
                              max_size=3)),
    samples=either(INTS), shots=either(INTS), er_p=either(NUMBERS),
    grid_rows=either(INTS), grid_cols=either(INTS),
    noise=either(st.dictionaries(st.sampled_from(["p1", "p2", "pm", "pr", "p9"]),
                                 either(NUMBERS), max_size=4)),
    compute_fidelity=either(st.booleans()), seed=either(INTS),
)


LOADERS = pytest.mark.parametrize("load, documents", [
    (Circuit.from_json, CIRCUITS),
    (LayoutGraph.from_json, LAYOUTS),
    (SweepConfig.from_json, CONFIGS),
], ids=["circuit", "layout", "config"])
# far past the recursion limit, so the parser cannot follow them
DEEP = ["[" * 10**5, "[" * 10**5 + "]" * 10**5, '{"n": ' * 10**5]


@LOADERS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_input_error(load, documents, data):
    text = json.dumps(data.draw(documents))
    try:
        load(text)
    except InputError:
        pass


@LOADERS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_input_error_on_any_text(load, documents, data):
    """Arbitrary strings, a document cut short, or nesting too deep to parse."""
    whole = json.dumps(data.draw(documents))
    text = data.draw(st.one_of(
        st.text(max_size=12), st.integers(0, len(whole)).map(lambda k: whole[:k]),
        st.sampled_from(DEEP),
    ))
    try:
        load(text)
    except InputError:
        pass


@pytest.mark.parametrize("n", [MAX_N + 1, 2**63])
def test_count_past_the_bound_is_rejected(n):
    message = rf"^n: must be <= {MAX_N}, got {n}$"
    with pytest.raises(InputError, match=message):
        Circuit.from_json(json.dumps({"n": n, "cbits": 0, "ops": []}))
    with pytest.raises(InputError, match=message):
        LayoutGraph.from_json(json.dumps({"n": n, "edges": []}))


class _Refused(Exception):
    pass


@pytest.mark.parametrize("n, low, error, refused", [
    (-1, 0, _Refused, "k: must be >= 0, got -1"),
    (0, 0, _Refused, None),
    (0, 1, ValueError, "k: must be >= 1, got 0"),
    (1, 1, ValueError, None),
    (MAX_N, 1, MalformedCircuitError, None),
    (MAX_N + 1, 1, MalformedCircuitError, f"k: must be <= {MAX_N}, got {MAX_N + 1}"),
    (MAX_N + 1, 0, None, f"k: must be <= {MAX_N}, got {MAX_N + 1}"),  # InputError by default
    # an integer is an int or a numpy integer, never a bool or a float
    (np.int64(7), 1, None, None),
    (np.uint8(0), 0, None, None),
    (True, 0, None, "k: expected int, got True"),
    (2.0, 1, MalformedCircuitError, "k: expected int, got 2.0"),
])
def test_check_count_bounds_both_ends(n, low, error, refused):
    kwargs = {} if error is None else {"error": error}
    if refused is None:
        assert check_count(n, "k", low, **kwargs) == n
        return
    with pytest.raises(Exception) as info:
        check_count(n, "k", low, **kwargs)
    assert type(info.value) is (error or InputError)
    assert str(info.value) == refused


def _sweep(**overrides):
    fields = dict(family="erdos_renyi", sizes=(5,), protocols=(ProtocolSpec("growing"),))
    return SweepConfig(**{**fields, **overrides})


_SEED = "seed: must be a 64-bit unsigned integer, got -1"
_REFUSALS = {
    "rect_grid-rows": (lambda: rect_grid(0, 3), "rows: must be >= 1, got 0"),
    "rect_grid-cols": (lambda: rect_grid(3, 0), "cols: must be >= 1, got 0"),
    "heavy_hex-rows": (lambda: heavy_hex(0, 5), "rows: must be >= 1, got 0"),
    "heavy_hex-cols": (lambda: heavy_hex(3, 2), "cols: must be >= 3, got 2"),
    "LayoutGraph": (lambda: LayoutGraph(0, ()), "n: must be >= 1, got 0"),
    "connected_erdos_renyi": (lambda: connected_erdos_renyi(0, 0.5, 1), "n: must be >= 1, got 0"),
    "AbsoluteSize": (lambda: AbsoluteSize(0), "s: must be >= 1, got 0"),
    "ghz_ideal_distribution": (lambda: ghz_ideal_distribution(0), "n: must be >= 1, got 0"),
    "counts_to_distribution": (lambda: counts_to_distribution({}, 0),
                               "shots: must be >= 1, got 0"),
    "SweepConfig-sizes": (lambda: _sweep(sizes=(0, 5)), "sizes: must be >= 1, got 0"),
    "SweepConfig-samples": (lambda: _sweep(samples=0), "samples: must be >= 1, got 0"),
    "SweepConfig-grid_rows": (lambda: _sweep(grid_rows=-2), "grid_rows: must be >= 1, got -2"),
    "SweepConfig-shots": (lambda: _sweep(shots=0), "shots: must be >= 1, got 0"),
    "SweepConfig-seed": (lambda: _sweep(seed=-1), _SEED),
    "run_sweep-workers": (lambda: run_sweep(_sweep(), workers=0), "workers: must be >= 1, got 0"),
    "run-seed": (lambda: run(Circuit(1, 0, ()), -1), _SEED),
    "sample_counts-seed": (lambda: sample_counts(Circuit(1, 0, ()), 8, -1), _SEED),
    "make_rng-seed": (lambda: make_rng(-1), _SEED),
    # a size past the family's source layout or, when fidelity is sampled, the simulator
    "SweepConfig-sizes-eagle": (lambda: _sweep(family="eagle_subgraph", sizes=(128,)),
                                "sizes: must be <= 127, got 128"),
    "SweepConfig-sizes-grid": (lambda: _sweep(family="rect_grid_subgraph", sizes=(109,)),
                               "sizes: must be <= 108, got 109"),
    "SweepConfig-sizes-fidelity": (lambda: _sweep(sizes=(MAX_QUBITS + 1,), compute_fidelity=True),
                                   f"sizes: must be <= {MAX_QUBITS}, got {MAX_QUBITS + 1}"),
    "random_connected_subgraph-k-low": (lambda: random_connected_subgraph(rect_grid(2, 2), 0, 0),
                                        "k: must be >= 1, got 0"),
    "random_connected_subgraph-k-high": (lambda: random_connected_subgraph(rect_grid(2, 2), 5, 0),
                                         "k: must be <= 4, got 5"),
    "NoiseModel-p1": (lambda: NoiseModel(p1=2), "p1: must lie in [0, 1], got 2"),
    "NoiseModel-p2-resolution": (lambda: NoiseModel(p2=2.0**-54),
                                 f"p2: must be 0 or at least 2**-53, got {2.0**-54}"),
    "connected_erdos_renyi-p": (lambda: connected_erdos_renyi(5, 2, 1),
                                "p: must lie in [0, 1], got 2"),
    "SweepConfig-er_p": (lambda: _sweep(er_p=3), "er_p: must lie in [0, 1], got 3"),
    "ScalingFactor": (lambda: ScalingFactor(-1), "f: must be positive and finite, got -1"),
    # a float, a bool or a string where an integer or a number belongs, from the Python API
    "SweepConfig-samples-float": (lambda: _sweep(samples=2.5), "samples: expected int, got 2.5"),
    "SweepConfig-sizes-float": (lambda: _sweep(sizes=(20.0,)), "sizes: expected int, got 20.0"),
    "SweepConfig-sizes-between": (lambda: _sweep(sizes=(5, 7.5, 9)),
                                  "sizes: expected int, got 7.5"),
    "rect_grid-rows-float": (lambda: rect_grid(2.0, 3), "rows: expected int, got 2.0"),
    "connected_erdos_renyi-n-float": (lambda: connected_erdos_renyi(5.0, 0.5, 1),
                                      "n: expected int, got 5.0"),
    "run-seed-float": (lambda: run(Circuit(1, 0, ()), 2.5),
                       "seed: must be a 64-bit unsigned integer, got 2.5"),
    "make_rng-seed-float": (lambda: make_rng(1.5),
                            "seed: must be a 64-bit unsigned integer, got 1.5"),
    "AbsoluteSize-bool": (lambda: AbsoluteSize(True), "s: expected int, got True"),
    "rect_grid-rows-bool": (lambda: rect_grid(True, 3), "rows: expected int, got True"),
    "random_connected_subgraph-k-bool": (lambda: random_connected_subgraph(rect_grid(2, 2), True, 0),
                                         "k: expected int, got True"),
    "SweepConfig-seed-bool": (lambda: _sweep(seed=True),
                              "seed: must be a 64-bit unsigned integer, got True"),
    "NoiseModel-p1-bool": (lambda: NoiseModel(p1=True), "p1: expected a number, got True"),
    "SweepConfig-samples-str": (lambda: _sweep(samples="3"), "samples: expected int, got '3'"),
    # a sweep that samples no fidelity bounds its shots only below, but as an integer
    "SweepConfig-shots-float": (lambda: _sweep(shots=1e30), "shots: expected int, got 1e+30"),
    "SweepConfig-shots-str": (lambda: _sweep(shots="64"), "shots: expected int, got '64'"),
    "LayoutGraph-n-str": (lambda: LayoutGraph("3", ((0, 1), (1, 2))), "n: expected int, got '3'"),
    "ghz_ideal_distribution-str": (lambda: ghz_ideal_distribution("3"),
                                   "n: expected int, got '3'"),
    "sample_counts-shots-str": (lambda: sample_counts(Circuit(1, 0, ()), "8", 0),
                                "shots: expected int, got '8'"),
    "run-seed-str": (lambda: run(Circuit(1, 0, ()), "1"),
                     "seed: must be a 64-bit unsigned integer, got '1'"),
    "connected_erdos_renyi-p-str": (lambda: connected_erdos_renyi(5, "0.5", 1),
                                    "p: expected a number, got '0.5'"),
}


@pytest.mark.parametrize("call, refused", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_every_count_and_seed_refusal_is_one_input_error(call, refused):
    # from the Python API as from a document or a flag: InputError itself, not
    # a ValueError of its own, with a message that starts with the bad value's name
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is InputError
    assert str(info.value) == refused
