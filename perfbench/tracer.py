"""Span tracing of ghz_synth from outside the package.

The tracer replaces public functions of ghz_synth with timing wrappers at
every module attribute that binds them (and on the class for methods), so a
traced run follows whatever call path the program takes, including calls
made between its own modules. Nothing is installed unless a `patched` block
is active; leaving the block restores every original binding.

Spans nest by a parent stack and stay in memory until `layer_table` reduces
them. A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import ghz_synth
from ghz_synth.circuit import Circuit
from ghz_synth.stabilizer import Tableau


def _sample_counts_span(args, kwargs) -> str:
    noise = args[3] if len(args) > 3 else kwargs.get("noise")
    return "stabilizer.sample_counts." + ("noiseless" if noise is None else "noisy")


# (span name, owner, attribute names). An owner is a module, whose bindings
# are replaced everywhere in the package, or a class, patched in place.
# A callable span name is resolved per call from (args, kwargs).
TRACED = (
    ("layouts", ghz_synth.layouts, (
        "eagle_127", "rect_grid", "connected_erdos_renyi",
        "random_connected_subgraph", "average_degree",
    )),
    ("merging.select_stars", ghz_synth.merging, ("select_stars",)),
    ("merging.synthesize", ghz_synth.merging, ("synthesize_merging",)),
    ("growing.synthesize", ghz_synth.growing, ("synthesize_growing",)),
    ("circuit.depth", ghz_synth.circuit, ("depth",)),
    ("circuit.validate", Circuit, ("validate",)),
    ("stabilizer.run", ghz_synth.stabilizer, ("run",)),
    (_sample_counts_span, ghz_synth.stabilizer, ("sample_counts",)),
    ("stabilizer.measure", Tableau, ("measure",)),
    ("rng.make_rng", ghz_synth.rng, ("make_rng",)),
    ("rng.derive_seed", ghz_synth.rng, ("derive_seed",)),
    ("metrics.is_ghz", ghz_synth.metrics, ("is_ghz",)),
    ("metrics.hellinger", ghz_synth.metrics, ("hellinger_fidelity",)),
    ("bench.run_sweep", ghz_synth.bench, ("run_sweep",)),
    ("bench.csv", ghz_synth.bench, ("raw_csv", "aggregate_csv", "write_outputs")),
)

SPAN_NAMES = tuple(
    name
    for span, _, _ in TRACED
    for name in ([span] if isinstance(span, str) else [
        "stabilizer.sample_counts.noisy", "stabilizer.sample_counts.noiseless",
    ])
)


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "ghz_synth" or name.startswith("ghz_synth."))
    ]


@contextmanager
def patched(replace):
    """Install wrappers while the block runs.

    `replace(owner, attr, original)` returns the wrapper for one traced
    function. Module-level functions are swapped at every ghz_synth module
    attribute bound to the same object; methods are swapped on their class.
    """
    undo = []
    swaps = {}
    for _, owner, attrs in TRACED:
        for attr in attrs:
            original = getattr(owner, attr)
            wrapper = replace(owner, attr, original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                swaps[id(original)] = (original, wrapper)
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, key, value))
                setattr(module, key, hit[1])
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


@contextmanager
def observing(attr: str, callback):
    """While the block runs, call `callback(arguments, result)` after every
    call of the traced function named `attr`; `arguments` maps parameter
    names to the values passed."""

    def replace(owner, name, fn):
        if name != attr:
            return fn

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            callback(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    with patched(replace):
        yield


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs),
                    0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def active(self):
        names = {
            (id(owner), attr): name for name, owner, attrs in TRACED for attr in attrs
        }
        with patched(lambda owner, attr, fn: self._wrap(names[id(owner), attr], fn)):
            yield

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans only) and self_s."""
        table = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["busy_s"] += end - start
        return table

    def root_seconds(self) -> float:
        """Total duration of spans with no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
