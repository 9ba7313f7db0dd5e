"""Fuzzing the JSON loaders: whatever document they are given, they raise
only InputError, and a node or qubit count past the bound fails before
anything of that size is built."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth import InputError, LayoutGraph, SweepConfig
from ghz_synth.circuit import Circuit, MalformedCircuitError
from ghz_synth.schema import MAX_N, check_count

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
