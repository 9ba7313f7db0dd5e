"""The three benchmark workloads: what one pass runs and how it is checked.

A pass is a fixed list of chunks generated from the workload seed, run in
order and timed one by one; every pass of a run repeats the same chunks, so
its outputs must repeat exactly. A sweep chunk is one `run_sweep` call for a
single (size, protocol) cell, which yields the same records as the whole
sweep in one call, followed per config by a chunk for the CSV writers. A
verify-grid chunk is one (grid, protocol) item.

The program is driven only through the public ghz_synth API, always through
module attributes (`gs.run_sweep`, `gs_bench.raw_csv`, ...) so that the
tracer's wrappers see the benchmark's own calls too.

Checks come in two strengths. Exact checks hold for every seed: the count
identities, `is_ghz` on every verified circuit, a noiseless histogram on
`0...0`/`1...1` only, and repetition across passes. Pinned checks compare
against `pinned.json`, written by `pin.py` for DEFAULT_SEED: structural
columns of that seed, the seed-independent grid items, and reference noisy
fidelities with a tolerance derived from the shot count. The CSV digest is
reported, never gated, because a declared change to the randomness contract
legitimately changes sampled fidelities.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import ghz_synth as gs
from ghz_synth import bench as gs_bench

from tracer import observing

DEFAULT_SEED = 0
PINNED_PATH = Path(__file__).with_name("pinned.json")

SWEEP_PROTOCOLS = (
    gs.ProtocolSpec("growing"),
    gs.ProtocolSpec("merging", gs.HighestDegree()),
    gs.ProtocolSpec("merging", gs.ScalingFactor(0.7)),
    gs.ProtocolSpec("merging", gs.AbsoluteSize(4)),
)
NOISE = gs.NoiseModel(p1=0.001, p2=0.01, pm=0.01, pr=0.01)
SHOTS = 4096
# Standard deviations allowed between a sampled noisy fidelity and its
# reference; the tolerance itself scales with 1/sqrt(shots).
FIDELITY_Z = 5.0


def load_pins() -> dict:
    return json.loads(PINNED_PATH.read_text())


def run_pass(workload):
    """Run the chunks of one pass in order: (results, seconds) by chunk key."""
    results, seconds = {}, {}
    for key, fn in workload.chunks:
        t0 = time.perf_counter()
        results[key] = fn(results)
        seconds[key] = time.perf_counter() - t0
    return results, seconds


@dataclass
class Report:
    """Outcome of checking the passes of one run."""

    bad: set = field(default_factory=set)          # item keys failing a check
    notes: list = field(default_factory=list)      # one line per failure
    counters: dict = field(default_factory=dict)   # exact per-pass counters
    info: dict = field(default_factory=dict)       # reported, not gated

    def fail(self, key: str, why: str) -> None:
        self.bad.add(key)
        self.notes.append(f"{key}: {why}")


def changed_items(workload, first, results) -> set:
    """Keys of the items of a pass that differ from the first pass."""
    a, b = workload.items(first), workload.items(results)
    if list(a) != list(b):
        return set(a) | set(b)
    return {key for key in a if a[key] != b[key]}


# -- sweeps ------------------------------------------------------------------


def record_key(label: str, r) -> str:
    return f"{label}/{r.family}/{r.n}/{r.protocol}/{r.strategy}/{r.sample}"


def structure(r) -> list:
    """The seed-determined columns of a record that no speed-up may change."""
    return [r.seed, r.depth, r.n_2q, r.n_meas, r.mean_star_size, r.scaling_factor]


def check_identities(key: str, r, report: Report) -> None:
    if r.depth < 1:
        report.fail(key, f"depth {r.depth}")
    if r.protocol == "growing":
        if r.n_2q != r.n - 1 or r.n_meas != 0 or r.mean_star_size is not None:
            report.fail(key, f"growing counts n_2q={r.n_2q} n_meas={r.n_meas}")
    else:
        if r.n_2q != r.n - 1 + r.n_meas:
            report.fail(key, f"merging n_2q={r.n_2q} != N-1+n_meas={r.n - 1 + r.n_meas}")
        # stars partition the N nodes and each merge measures once
        if r.mean_star_size != r.n / (r.n_meas + 1):
            report.fail(key, f"mean_star_size {r.mean_star_size} != N/(n_meas+1)")


def _sweep_cell(cfg, done):
    return gs.run_sweep(cfg, workers=1)


def _write_csv(cells, done):
    records = [r for key in cells for r in done[key]]
    return gs_bench.raw_csv(records) + gs_bench.aggregate_csv(records)


class _Sweep:
    """Sweep configs cut into one chunk per (size, protocol) cell."""

    name = ""
    warm_up_config = 0  # index of the config whose first size is warmed up
    nominal_pass_s: float  # about one pass at baseline; fixes a run's pass count

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = self.make_configs(seed)
        self.items_per_pass = sum(
            len(c.sizes) * len(c.protocols) * c.samples for _, c in self.configs
        )
        self.chunks = []
        for label, cfg in self.configs:
            cells = []
            for n in cfg.sizes:
                # canonical record order, so the CSVs equal those of one call
                for spec in sorted(cfg.protocols, key=lambda s: (s.protocol, s.label)):
                    key = f"{label}/{n}/{spec.protocol}/{spec.label}"
                    cell = replace(cfg, sizes=(n,), protocols=(spec,))
                    self.chunks.append((key, functools.partial(_sweep_cell, cell)))
                    cells.append(key)
            self.chunks.append((f"{label}/csv", functools.partial(_write_csv, cells)))

    def make_configs(self, seed: int):
        raise NotImplementedError

    def warm_up(self) -> None:
        _, cfg = self.configs[self.warm_up_config]
        one_item = replace(cfg, sizes=cfg.sizes[:1], protocols=cfg.protocols[1:2], samples=1)
        gs.run_sweep(one_item, workers=1)

    @staticmethod
    def items(results) -> dict:
        return {
            record_key(key.split("/")[0], r): r
            for key, value in results.items() if not key.endswith("/csv")
            for r in value
        }

    def check(self, first) -> Report:
        """Check the first pass; later passes only have to repeat it."""
        report = Report()
        records = self.items(first)
        if len(records) != self.items_per_pass:
            report.fail("pass", f"{len(records)} records for {self.items_per_pass} items")
        for key, r in records.items():
            check_identities(key, r, report)
        report.counters.update({
            "circuit.depth_sum": sum(r.depth for r in records.values()),
            "circuit.cx_sum": sum(r.n_2q for r in records.values()),
            "circuit.meas_sum": sum(r.n_meas for r in records.values()),
            "merging.stars": sum(
                r.n_meas + 1 for r in records.values() if r.protocol == "merging"
            ),
            "stabilizer.shots": 0,
            "stabilizer.shot_ops": 0,
        })
        pins = load_pins()[self.name] if self.seed == DEFAULT_SEED else None
        if pins is not None:
            for key, r in records.items():
                if structure(r) != pins["structure"].get(key):
                    report.fail(key, f"columns {structure(r)} != pinned {pins['structure'].get(key)}")
        digest = self.csv_digest(first)
        report.info["csv_sha256"] = digest
        report.info["csv_digest_matches_pin"] = (
            f"n/a (pinned for seed {DEFAULT_SEED})" if pins is None
            else str(digest == pins["csv_sha256"]).lower()
        )
        self.verify_circuits(records, report)
        self.check_more(records, pins, report)
        return report

    def verify_circuits(self, records, report: Report) -> None:
        """Synthesize sample 0 of every distinct cell again, untimed, and
        check that one noiseless run of its circuit is exactly GHZ."""
        circuits = []
        cells = {}
        for label, cfg in self.configs:
            for n in cfg.sizes:
                for spec in cfg.protocols:
                    cell = replace(cfg, sizes=(n,), protocols=(spec,), samples=1,
                                   compute_fidelity=False, noise=None)
                    cells.setdefault(cell, label)
        with observing("depth", lambda arguments, _: circuits.append(arguments["c"])):
            for cell, label in cells.items():
                circuits.clear()
                (r,) = gs.run_sweep(cell, workers=1)
                key = record_key(label, r)
                if key not in records or structure(r) != structure(records[key]):
                    report.fail(key, "re-synthesis gave other columns")
                if len(circuits) != 1:
                    report.fail(key, f"{len(circuits)} circuits reached ghz_synth.depth, expected 1")
                    continue
                outcome = gs.run(circuits[0], gs.rng.derive_seed(self.seed, "perfbench-verify", key))
                if not gs.is_ghz(outcome.tableau, r.n):
                    report.fail(key, "is_ghz is false")

    def csv_digest(self, results) -> str:
        text = "".join(results[f"{label}/csv"] for label, _ in self.configs)
        return hashlib.sha256(text.encode()).hexdigest()

    def check_more(self, records, pins, report: Report) -> None:
        pass

    def extra_metrics(self, best: dict) -> dict:
        """Workload-specific end-to-end figures from per-chunk best times:
        name -> (value, unit)."""
        return {}


class SweepSynth(_Sweep):
    """The paper's structural sweep: many small synthesis items, no simulation."""

    name = "sweep-synth"
    nominal_pass_s = 1.5

    def make_configs(self, seed: int):
        common = dict(protocols=SWEEP_PROTOCOLS, samples=8, seed=seed)
        return (
            ("eagle", gs.SweepConfig(
                family="eagle_subgraph", sizes=(20, 40, 60, 80, 100, 127), **common)),
            ("er", gs.SweepConfig(
                family="erdos_renyi", sizes=(20, 40, 60, 80, 100), er_p=0.5, **common)),
        )


class SweepFidelity(_Sweep):
    """Eagle subgraph cells sampled noiseless and noisy on identical layouts."""

    name = "sweep-fidelity"
    warm_up_config = 1
    nominal_pass_s = 12.0

    def make_configs(self, seed: int):
        common = dict(
            family="eagle_subgraph", sizes=(16, 64, 127), protocols=SWEEP_PROTOCOLS,
            samples=1, shots=SHOTS, compute_fidelity=True, seed=seed,
        )
        return (
            ("noiseless", gs.SweepConfig(**common)),
            ("noisy", gs.SweepConfig(noise=NOISE, **common)),
        )

    def check_more(self, records, pins, report: Report) -> None:
        noiseless = {k.split("/", 1)[1]: r for k, r in records.items() if k.startswith("noiseless/")}
        noisy = {k.split("/", 1)[1]: r for k, r in records.items() if k.startswith("noisy/")}
        references = load_pins()[self.name]["noisy_reference"]
        for cell, r in noisy.items():
            key = "noisy/" + cell
            clean = noiseless.get(cell)
            if clean is None or structure(clean) != structure(r):
                report.fail(key, "noisy pass did not run the noiseless pass's circuits")
            elif not 0.0 < r.fidelity < clean.fidelity:
                report.fail(key, f"noisy fidelity {r.fidelity} outside (0, {clean.fidelity})")
            # away from the pinned seed, only the whole chip is the same circuit
            ref = references.get(key) if pins is not None or r.n == 127 else None
            if ref is not None:
                tol = FIDELITY_Z * math.sqrt(ref * (1.0 - ref) / SHOTS) + 1.0 / SHOTS
                if abs(r.fidelity - ref) > tol:
                    report.fail(key, f"noisy fidelity {r.fidelity:.5f} not within {tol:.5f} of {ref:.5f}")

        # Re-run the noiseless sweep untimed, capturing every histogram by
        # its sampling seed, which the record carries.
        captured = {}

        def capture(arguments, counts):
            c, shots = arguments["c"], arguments["shots"]
            captured[arguments["seed"]] = (c.qubit_count, len(c.ops), shots, counts)

        label, cfg = self.configs[0]
        with observing("sample_counts", capture):
            rerun = gs.run_sweep(cfg, workers=1)
        if rerun != [r for k, r in records.items() if k.startswith(label + "/")]:
            report.fail(label, "re-running the noiseless sweep gave other records")
        shots = shot_ops = 0
        for r in rerun:
            key = record_key(label, r)
            if r.seed not in captured:
                report.fail(key, "no histogram captured")
                continue
            n, n_ops, n_shots, counts = captured[r.seed]
            shots += n_shots
            shot_ops += (n_ops + n) * n_shots  # terminal readout adds n events
            stray = set(counts) - {"0" * n, "1" * n}
            if stray:
                report.fail(key, f"noiseless histogram has {len(stray)} non-GHZ outcomes")
            # a fair coin between the two GHZ outcomes, within 5 standard deviations
            if abs(counts["0" * n] - n_shots / 2) > 2.5 * math.sqrt(n_shots):
                report.fail(key, f"{counts['0' * n]} of {n_shots} shots read all zeros")
        # the noisy pass samples the same circuits, checked above
        report.counters.update({"stabilizer.shots": 2 * shots, "stabilizer.shot_ops": 2 * shot_ops})

    def extra_metrics(self, best: dict) -> dict:
        return {"shots_per_s": (self.items_per_pass * SHOTS / sum(best.values()), "1/s")}


# -- verify-grid ---------------------------------------------------------------

# (rows, cols, verified): the verified sizes are fixed here, independent of
# the simulator's capacity limit.
GRIDS = ((16, 16, True), (16, 32, True), (64, 64, False))
GRID_PROTOCOLS = (gs.ProtocolSpec("growing"), gs.ProtocolSpec("merging", gs.HighestDegree()))


@dataclass(frozen=True)
class VerifyItem:
    n: int
    depth: int
    n_2q: int
    n_meas: int
    n_ops: int
    ghz: bool | None  # None when the item is synthesized only


def _synthesize(g, spec):
    if spec.protocol == "growing":
        return gs.synthesize_growing(g)
    return gs.synthesize_merging(g, spec.strategy)


def _verify_item(rows, cols, spec, run_seed, done) -> VerifyItem:
    """Synthesize and schedule; with a run seed, also run once and check is_ghz."""
    g = gs.rect_grid(rows, cols)
    circ = _synthesize(g, spec)
    d = gs.depth(circ)
    ghz = None
    if run_seed is not None:
        ghz = gs.is_ghz(gs.run(circ, run_seed).tableau, g.node_count)
    return VerifyItem(g.node_count, d, gs.count_2q(circ), gs.count_measurements(circ),
                      len(circ.ops), ghz)


class VerifyGrid:
    """Few large items: synthesize, schedule and exactly verify grid layouts."""

    name = "verify-grid"
    items_per_pass = len(GRIDS) * len(GRID_PROTOCOLS)
    nominal_pass_s = 6.0

    def __init__(self, seed: int):
        self.seed = seed
        self.chunks = [
            (f"{rows}x{cols}/{spec.protocol}", functools.partial(
                _verify_item, rows, cols, spec,
                gs.rng.derive_seed(seed, "verify-grid", rows, cols, spec.protocol)
                if verified else None,
            ))
            for rows, cols, verified in GRIDS for spec in GRID_PROTOCOLS
        ]

    def warm_up(self) -> None:
        _verify_item(16, 16, GRID_PROTOCOLS[1], self.seed, {})

    @staticmethod
    def items(results) -> dict:
        return results

    def check(self, first) -> Report:
        """Check the first pass; later passes only have to repeat it."""
        report = Report()
        items = first
        pins = load_pins()[self.name]["structure"]
        for key, it in items.items():
            merging = key.endswith("/merging")
            if it.n_2q != it.n - 1 + it.n_meas or (not merging and it.n_meas):
                report.fail(key, f"counts n_2q={it.n_2q} n_meas={it.n_meas}")
            if it.ghz is False:
                report.fail(key, "is_ghz is false")
            if [it.depth, it.n_2q, it.n_meas] != pins.get(key):
                report.fail(key, f"depth/n_2q/n_meas {[it.depth, it.n_2q, it.n_meas]} != pinned {pins.get(key)}")
        verified = [it for it in items.values() if it.ghz is not None]
        report.counters.update({
            "circuit.depth_sum": sum(it.depth for it in items.values()),
            "circuit.cx_sum": sum(it.n_2q for it in items.values()),
            "circuit.meas_sum": sum(it.n_meas for it in items.values()),
            "merging.stars": sum(it.n_meas + 1 for k, it in items.items() if k.endswith("/merging")),
            "stabilizer.shots": len(verified),
            "stabilizer.shot_ops": sum(it.n_ops for it in verified),
        })
        return report

    def extra_metrics(self, best: dict) -> dict:
        def grid_seconds(grid):
            return sum(s for key, s in best.items() if key.startswith(grid + "/"))

        return {
            "verify_s.n256": (grid_seconds("16x16"), "s"),
            "verify_s.n512": (grid_seconds("16x32"), "s"),
            "synth_s.n4096": (grid_seconds("64x64"), "s"),
        }


WORKLOADS = {w.name: w for w in (SweepSynth, SweepFidelity, VerifyGrid)}


def setup(name: str, seed: int):
    """Everything a run does before measuring: import (done by the caller
    importing this module), load the Eagle layout, and one warm-up item."""
    gs.eagle_127()
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload
