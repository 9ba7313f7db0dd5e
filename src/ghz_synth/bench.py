"""Benchmark sweeps over layout families, protocols, and star strategies.

A sweep samples layouts per (size, sample index), synthesizes every
requested protocol variant on the same layout, and records depth, two-qubit
gate count, measurement count, star statistics, and (opt-in) sampled
Hellinger fidelity. Seeds are derived per work item from the master seed, so
adding sizes or strategies never perturbs the randomness of existing cells,
and re-running a config reproduces the CSV byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial
from itertools import repeat
from typing import Optional

from . import layouts, schema
from .circuit import Circuit, count_2q, count_measurements, depth
from .growing import synthesize_growing
from .merging import (
    StarSelectionStrategy,
    strategy_from_json,
    strategy_label,
    strategy_to_json,
    synthesize_merging,
)
from .metrics import (
    counts_to_distribution, ghz_ideal_distribution, hellinger_fidelity, summarize,
)
from .rng import check_seed, derive_seed
from .stabilizer import MAX_QUBITS, NoiseModel, sample_counts

__all__ = [
    "ProtocolSpec",
    "SweepConfig",
    "BenchmarkRecord",
    "run_sweep",
    "raw_csv",
    "aggregate_csv",
    "write_outputs",
    "worker_count",
]

FAMILIES = ("eagle_subgraph", "rect_grid_subgraph", "erdos_renyi")

AGG_COLUMNS = ["family", "N", "protocol", "strategy", "metric", "mean", "std", "max", "count"]


@dataclass(frozen=True)
class ProtocolSpec:
    protocol: str  # "growing" | "merging"
    strategy: Optional[StarSelectionStrategy] = None

    def __post_init__(self):
        if self.protocol not in ("growing", "merging"):
            raise schema.InputError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "merging" and self.strategy is None:
            raise schema.InputError("merging requires a star selection strategy")
        if self.protocol == "growing" and self.strategy is not None:
            raise schema.InputError("growing takes no star selection strategy")

    @property
    def label(self) -> str:
        return strategy_label(self.strategy)

    def synthesize(self, g: layouts.LayoutGraph) -> Circuit:
        """This protocol variant's circuit on g: the one protocol dispatch."""
        if self.protocol == "growing":
            return synthesize_growing(g)
        return synthesize_merging(g, self.strategy)

    def to_json(self) -> dict:
        if self.strategy is None:
            return {"protocol": self.protocol}
        return {"protocol": self.protocol, "strategy": strategy_to_json(self.strategy)}

    @classmethod
    def from_json(cls, obj, path: str) -> "ProtocolSpec":
        """Parse one protocols[i] entry; InputError names the bad field below path."""
        protocol, strategy = schema.read(obj, {"protocol": str, "strategy": (dict, None)},
                                         path).values()
        if strategy is not None:
            strategy = strategy_from_json(strategy, f"{path}.strategy")
        return schema.construct(path, cls, protocol, strategy)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep; the field defaults are the defaults of its JSON form too.

    A config is valid by construction: a bad field raises InputError that
    names it when the config is built, from Python or from JSON. Each size
    is bounded by the layout the family samples from (127 for Eagle,
    grid_rows x grid_cols for the grid) and, when fidelity is sampled, by the
    simulator's MAX_QUBITS, so every config built can be run.
    """

    family: str
    sizes: tuple[int, ...]
    protocols: tuple[ProtocolSpec, ...]
    samples: int = 100
    shots: int = 4096
    er_p: float = 0.5
    grid_rows: int = 12
    grid_cols: int = 9
    noise: Optional[NoiseModel] = None
    compute_fidelity: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise schema.InputError(f"family: unknown family {self.family!r}")
        keep = partial(object.__setattr__, self)  # each bound's plain value
        if not self.sizes:
            raise schema.InputError("sizes: must list at least one size")
        # every one, so none between the least and greatest slips by
        keep("sizes", tuple(schema.check_count(size, "sizes") for size in self.sizes))
        twice = sorted(s for s, k in Counter(self.sizes).items() if k > 1)
        if twice:
            raise schema.InputError(f"sizes: {twice} listed more than once")
        if not self.protocols:
            raise schema.InputError("protocols: must list at least one protocol")
        # variants with one label would share their derived seeds and CSV rows
        keys = [(p.protocol, p.label) for p in self.protocols]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise schema.InputError(f"protocols[{i}]: repeats protocols[{keys.index(key)}]"
                                        f" ({', '.join(filter(None, key))})")
        keep("samples", schema.check_count(self.samples, "samples"))
        # every sweep bounds its shots below; only a fidelity sweep, which draws them, above
        keep("shots", schema.check_count(self.shots, "shots",
                                         high=None if self.compute_fidelity else math.inf))
        keep("grid_rows", schema.check_count(self.grid_rows, "grid_rows"))
        keep("grid_cols", schema.check_count(self.grid_cols, "grid_cols"))
        # a size is bounded by the layout it is sampled from (the grid is
        # counted, not built) and, when fidelity is sampled, by the simulator
        high = schema.MAX_N
        if self.family == "eagle_subgraph":
            high = layouts.eagle_127().node_count
        elif self.family == "rect_grid_subgraph":
            high = self.grid_rows * self.grid_cols
            if high > schema.MAX_N:  # only a grid family builds the grid
                raise schema.InputError(f"grid_rows: grid_rows x grid_cols must be <="
                                        f" {schema.MAX_N}, got {self.grid_rows}x{self.grid_cols}")
        if self.compute_fidelity:
            high = min(high, MAX_QUBITS)
        schema.check_count(max(self.sizes), "sizes", high=high)
        keep("er_p", schema.check_probability(self.er_p, "er_p"))
        keep("seed", check_seed(self.seed))

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        """Parse a sweep config; InputError names the missing, mistyped or bad field.

        Every field with a default may be left out, and reads as its default.
        """
        # a field reads as the type of its default; the fields without one, and
        # noise, whose default is None, are given their kinds
        spec = {f.name: (type(f.default), f.default) for f in fields(cls)}
        spec.update(family=str, sizes=tuple, protocols=list, noise=(dict, None))
        args = schema.read(schema.parse(text, "config"), spec)
        args["protocols"] = tuple(ProtocolSpec.from_json(p, f"protocols[{i}]")
                                  for i, p in enumerate(args["protocols"]))
        if noise := args.pop("noise"):
            params = {f.name: (float, f.default) for f in fields(NoiseModel)}
            params = schema.read(noise, params, "noise", "noise parameter")
            noise = schema.construct("noise", NoiseModel, **params)
        return cls(**args, noise=noise or None)

    def to_json(self) -> str:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["protocols"] = [p.to_json() for p in self.protocols]
        obj["noise"] = None if self.noise is None else asdict(self.noise)
        return json.dumps(obj, indent=2)


@dataclass(frozen=True)
class BenchmarkRecord:
    family: str
    n: int
    protocol: str
    strategy: str
    sample: int
    seed: int
    depth: int
    n_2q: int
    n_meas: int
    mean_star_size: Optional[float]
    scaling_factor: Optional[float]
    fidelity: Optional[float]


@lru_cache(maxsize=1)  # a sweep's cells share one source, built once per process
def _source_graph(family: str, rows: int, cols: int) -> layouts.LayoutGraph:
    """The layout a subgraph family samples from: Eagle, or else the rows x cols grid."""
    return layouts.eagle_127() if family == "eagle_subgraph" else layouts.rect_grid(rows, cols)


def _make_layout(cfg: SweepConfig, n: int, sample: int) -> layouts.LayoutGraph:
    layout_seed = derive_seed(cfg.seed, cfg.family, n, "layout", sample)
    if cfg.family == "erdos_renyi":
        return layouts.connected_erdos_renyi(n, cfg.er_p, layout_seed)
    source = _source_graph(cfg.family, cfg.grid_rows, cfg.grid_cols)
    sub, _ = layouts.random_connected_subgraph(source, n, layout_seed)
    return sub


def _run_cell(cfg: SweepConfig, n: int, sample: int) -> list[BenchmarkRecord]:
    """One (size, sample) cell: its layout, and every protocol variant run on it."""
    g = _make_layout(cfg, n, sample)
    return [_run_protocol(cfg, n, sample, spec, g) for spec in cfg.protocols]


def _run_protocol(cfg: SweepConfig, n: int, sample: int, spec: ProtocolSpec,
                  g: layouts.LayoutGraph) -> BenchmarkRecord:
    seed = derive_seed(cfg.seed, cfg.family, n, spec.protocol, spec.label, sample)
    mean_star_size = scaling_factor = fidelity = None
    circ = spec.synthesize(g)
    if spec.protocol == "merging":
        # each merge writes one cbit, so there is one star more than cbits;
        # the stars partition the n nodes, and a star's degree is its size - 1
        star_count = circ.cbit_count + 1
        mean_star_size = n / star_count
        avg_deg = layouts.average_degree(g)
        mean_degree = (n - star_count) / star_count
        scaling_factor = mean_degree / avg_deg if avg_deg > 0 else 0.0
    if cfg.compute_fidelity:
        counts = sample_counts(circ, cfg.shots, seed, cfg.noise)
        fidelity = hellinger_fidelity(
            ghz_ideal_distribution(n), counts_to_distribution(counts, cfg.shots)
        )
    return BenchmarkRecord(
        family=cfg.family,
        n=n,
        protocol=spec.protocol,
        strategy=spec.label,
        sample=sample,
        seed=seed,
        depth=depth(circ),
        n_2q=count_2q(circ),
        n_meas=count_measurements(circ),
        mean_star_size=mean_star_size,
        scaling_factor=scaling_factor,
        fidelity=fidelity,
    )


def worker_count() -> int:
    """Worker processes for run_sweep: GHZ_SYNTH_THREADS if set, else the CPU count.

    A value that is not a count is an InputError whose message starts
    `GHZ_SYNTH_THREADS: `.
    """
    env = os.environ.get("GHZ_SYNTH_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        raise schema.InputError(f"GHZ_SYNTH_THREADS: expected an integer, got {env!r}") from None
    return schema.check_count(threads, "GHZ_SYNTH_THREADS")


def run_sweep(cfg: SweepConfig, workers: Optional[int] = None) -> list[BenchmarkRecord]:
    """Run every (size, sample, protocol) item of the sweep.

    A (size, sample) cell builds its layout once and runs every protocol
    variant on it, so protocols are compared on identical graphs. Records
    come back in canonical order regardless of worker count, and no more
    workers start than there are cells. cfg was checked when it was built,
    so no config is refused here; workers goes through the one count bound,
    as GHZ_SYNTH_THREADS does.
    """
    # the cells, as the parallel arguments of _run_cell
    sizes = [n for n in cfg.sizes for _ in range(cfg.samples)]
    cells = (repeat(cfg), sizes, [*range(cfg.samples)] * len(cfg.sizes))
    workers = min(worker_count() if workers is None else schema.check_count(workers, "workers"),
                  len(sizes))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_run_cell, *cells, chunksize=2))
    else:
        per_cell = list(map(_run_cell, *cells))
    records = [r for cell_records in per_cell for r in cell_records]
    records.sort(key=lambda r: (r.family, r.n, r.protocol, r.strategy, r.sample))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


_RECORD_FIELDS = [f.name for f in fields(BenchmarkRecord)]
RAW_COLUMNS = ["N" if name == "n" else name for name in _RECORD_FIELDS]
# the figures of merit: every record field after the seed
_METRICS = _RECORD_FIELDS[_RECORD_FIELDS.index("seed") + 1 :]


def raw_csv(records: list[BenchmarkRecord]) -> str:
    """One row per record: its fields in declaration order, under RAW_COLUMNS."""
    rows = [RAW_COLUMNS]
    rows += [[_fmt(getattr(r, name)) for name in _RECORD_FIELDS] for r in records]
    return "".join(",".join(row) + "\n" for row in rows)


def aggregate_csv(records: list[BenchmarkRecord]) -> str:
    """Per-point mean/std/max/count of each figure of merit that has values."""
    groups: dict[tuple, list[BenchmarkRecord]] = {}
    for r in records:
        groups.setdefault((r.family, r.n, r.protocol, r.strategy), []).append(r)
    rows = [AGG_COLUMNS]
    for key in sorted(groups):
        for metric in _METRICS:
            values = [getattr(r, metric) for r in groups[key]]
            values = [v for v in values if v is not None]
            if values:
                stats = summarize(values)
                rows.append([*key, metric, stats.mean, stats.std, stats.max, stats.count])
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_outputs(records: list[BenchmarkRecord], out_dir: str) -> tuple[str, str]:
    """Write raw.csv and agg.csv; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(out_dir, "raw.csv")
    agg_path = os.path.join(out_dir, "agg.csv")
    with open(raw_path, "w") as f:
        f.write(raw_csv(records))
    with open(agg_path, "w") as f:
        f.write(aggregate_csv(records))
    return raw_path, agg_path
