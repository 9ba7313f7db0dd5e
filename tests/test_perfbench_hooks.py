"""The benchmark tracer (perfbench/tracer.py) hooks into ghz_synth by name.

It replaces the functions it lists in `TRACED` wherever a ghz_synth module
binds them, and its checks read the arguments of `depth` and `sample_counts`
by parameter name. A refactor that renames or moves one of these hooks fails
here, in the test suite, rather than in a benchmark run. The tracer is
loaded from its file as it is; nothing in it is edited or stubbed.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from ghz_synth import Circuit, HighestDegree, ProtocolSpec, SweepConfig, run_sweep

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """(module name, attribute) -> bound object, over every ghz_synth module."""
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "ghz_synth" or name.startswith("ghz_synth."))
        for key, value in vars(module).items()
    }


def test_patched_installs_and_restores_every_traced_hook(tracer):
    before = _bindings()
    wrappers = {}

    def replace(owner, attr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        wrappers[id(owner), attr] = (fn, wrapper)
        return wrapper

    with tracer.patched(replace):
        for _, owner, attrs in tracer.TRACED:
            for attr in attrs:
                original, wrapper = wrappers[id(owner), attr]
                assert callable(original), attr
                assert getattr(owner, attr) is wrapper, attr
    assert len(wrappers) == sum(len(attrs) for _, _, attrs in tracer.TRACED)
    after = _bindings()
    assert after.keys() == before.keys()
    moved = sorted(key for key, value in before.items() if after[key] is not value)
    assert not moved, moved


@pytest.mark.parametrize(
    "spec", [ProtocolSpec("growing"), ProtocolSpec("merging", HighestDegree())],
    ids=["growing", "merging"],
)
def test_observing_depth_sees_one_circuit_per_single_cell_sweep(tracer, spec):
    cell = SweepConfig("eagle_subgraph", (16,), (spec,), samples=1)
    seen = []
    with tracer.observing("depth", lambda arguments, result: seen.append((arguments, result))):
        (record,) = run_sweep(cell, workers=1)
    assert len(seen) == 1
    arguments, depth = seen[0]
    assert isinstance(arguments["c"], Circuit)
    assert arguments["c"].qubit_count == 16
    assert depth == record.depth


def test_observing_sample_counts_binds_circuit_shots_and_seed(tracer):
    cell = SweepConfig(
        "eagle_subgraph", (8,), (ProtocolSpec("growing"),), samples=1, shots=64,
        compute_fidelity=True,
    )
    seen = []
    with tracer.observing("sample_counts", lambda arguments, result: seen.append(arguments)):
        run_sweep(cell, workers=1)
    assert len(seen) == 1
    arguments = seen[0]
    assert isinstance(arguments["c"], Circuit)
    assert arguments["shots"] == 64
    assert isinstance(arguments["seed"], int)
