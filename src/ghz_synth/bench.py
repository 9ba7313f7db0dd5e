"""Benchmark sweeps over layout families, protocols, and star strategies.

A sweep samples layouts per (size, sample index), synthesizes every
requested protocol variant on the same layout, and records depth, two-qubit
gate count, measurement count, star statistics, and (opt-in) sampled
Hellinger fidelity. Seeds are derived per work item from the master seed, so
adding sizes or strategies never perturbs the randomness of existing cells,
and re-running a config reproduces the CSV byte for byte.
"""

from __future__ import annotations

import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

from . import layouts, schema
from .circuit import count_2q, count_measurements, depth
from .growing import synthesize_growing
from .merging import (
    StarSelectionStrategy,
    _circuit_from_stars,
    select_stars,
    strategy_from_json,
    strategy_label,
    strategy_to_json,
)
from .metrics import counts_to_distribution, ghz_ideal_distribution, hellinger_fidelity
from .rng import derive_seed
from .stabilizer import NoiseModel, sample_counts

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

RAW_COLUMNS = [
    "family", "N", "protocol", "strategy", "sample", "seed",
    "depth", "n_2q", "n_meas", "mean_star_size", "scaling_factor", "fidelity",
]
AGG_COLUMNS = ["family", "N", "protocol", "strategy", "metric", "mean", "std", "max", "count"]


@dataclass(frozen=True)
class ProtocolSpec:
    protocol: str  # "growing" | "merging"
    strategy: Optional[StarSelectionStrategy] = None

    def __post_init__(self):
        if self.protocol not in ("growing", "merging"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "merging" and self.strategy is None:
            raise ValueError("merging requires a star selection strategy")
        if self.protocol == "growing" and self.strategy is not None:
            raise ValueError("growing takes no star selection strategy")

    @property
    def label(self) -> str:
        return strategy_label(self.strategy)


@dataclass(frozen=True)
class SweepConfig:
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
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise schema.InputError("sizes: every size must be >= 1")
        for name in ("samples", "shots", "grid_rows", "grid_cols"):
            if getattr(self, name) < 1:
                raise schema.InputError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.er_p <= 1.0:
            raise schema.InputError(f"er_p: must lie in [0, 1], got {self.er_p}")

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        """Parse a sweep config; InputError names the missing, mistyped or bad field."""
        obj = json.loads(text)

        def get(key: str, kind: type, *default):
            return schema.field(obj, key, "", kind, *default, root="config")

        family, sizes = get("family", str), get("sizes", tuple)
        protocols = []
        for i, p in enumerate(get("protocols", list)):
            path = f"protocols[{i}]"
            protocol = schema.field(p, "protocol", path, str)
            strategy = schema.field(p, "strategy", path, dict, None)
            if strategy is not None:
                strategy = strategy_from_json(strategy, f"{path}.strategy")
            protocols.append(schema.construct(path, ProtocolSpec, protocol, strategy))
        noise = get("noise", dict, None)
        if noise:
            known = [f.name for f in fields(NoiseModel)]
            for key in noise:
                if key not in known:
                    raise schema.InputError(f"noise.{key}: unknown noise parameter")
            params = {k: schema.field(noise, k, "noise", float) for k in noise}
            noise = schema.construct("noise", NoiseModel, **params)
        return cls(
            family=family,
            sizes=sizes,
            protocols=tuple(protocols),
            samples=get("samples", int, 100),
            shots=get("shots", int, 4096),
            er_p=get("er_p", float, 0.5),
            grid_rows=get("grid_rows", int, 12),
            grid_cols=get("grid_cols", int, 9),
            noise=noise or None,
            compute_fidelity=get("compute_fidelity", bool, False),
            seed=get("seed", int, 0),
        )

    def to_json(self) -> str:
        obj = {
            "family": self.family,
            "sizes": list(self.sizes),
            "protocols": [
                {"protocol": p.protocol, **(
                    {"strategy": strategy_to_json(p.strategy)} if p.strategy else {}
                )}
                for p in self.protocols
            ],
            "samples": self.samples,
            "shots": self.shots,
            "er_p": self.er_p,
            "grid_rows": self.grid_rows,
            "grid_cols": self.grid_cols,
            "compute_fidelity": self.compute_fidelity,
            "seed": self.seed,
        }
        if self.noise is not None:
            obj["noise"] = {
                "p1": self.noise.p1, "p2": self.noise.p2,
                "pm": self.noise.pm, "pr": self.noise.pr,
            }
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


def _source_graph(cfg: SweepConfig) -> Optional[layouts.LayoutGraph]:
    if cfg.family == "eagle_subgraph":
        return layouts.eagle_127()
    if cfg.family == "rect_grid_subgraph":
        return layouts.rect_grid(cfg.grid_rows, cfg.grid_cols)
    return None


def _make_layout(cfg: SweepConfig, n: int, sample: int) -> layouts.LayoutGraph:
    layout_seed = derive_seed(cfg.seed, cfg.family, n, "layout", sample)
    if cfg.family == "erdos_renyi":
        return layouts.connected_erdos_renyi(n, cfg.er_p, layout_seed)
    sub, _ = layouts.random_connected_subgraph(_source_graph(cfg), n, layout_seed)
    return sub


@dataclass(frozen=True)
class _Cell:
    """One (size, sample) cell: a layout and every protocol variant run on it."""

    cfg: SweepConfig
    n: int
    sample: int


def _run_cell(cell: _Cell) -> list[BenchmarkRecord]:
    g = _make_layout(cell.cfg, cell.n, cell.sample)
    return [_run_protocol(cell, spec, g) for spec in cell.cfg.protocols]


def _run_protocol(cell: _Cell, spec: ProtocolSpec, g: layouts.LayoutGraph) -> BenchmarkRecord:
    cfg, n, sample = cell.cfg, cell.n, cell.sample
    seed = derive_seed(cfg.seed, cfg.family, n, spec.protocol, spec.label, sample)
    mean_star_size = None
    scaling_factor = None
    if spec.protocol == "growing":
        circ = synthesize_growing(g)
    else:
        stars = select_stars(g, spec.strategy)
        circ = _circuit_from_stars(g, stars)
        mean_star_size = sum(s.size for s in stars) / len(stars)
        avg_deg = float(layouts.average_degree(g))
        mean_degree = sum(s.degree for s in stars) / len(stars)
        scaling_factor = mean_degree / avg_deg if avg_deg > 0 else 0.0
    fidelity = None
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
    """Worker processes for run_sweep: GHZ_SYNTH_THREADS if set, else the CPU count."""
    env = os.environ.get("GHZ_SYNTH_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"GHZ_SYNTH_THREADS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def run_sweep(cfg: SweepConfig, workers: Optional[int] = None) -> list[BenchmarkRecord]:
    """Run every (size, sample, protocol) item of the sweep.

    A (size, sample) cell builds its layout once and runs every protocol
    variant on it, so protocols are compared on identical graphs. Records
    come back in canonical order regardless of worker count.
    """
    source = _source_graph(cfg)
    if source is not None:
        too_big = [s for s in cfg.sizes if s > source.node_count]
        if too_big:
            raise ValueError(
                f"sizes {too_big} exceed the {source.node_count}-node source layout"
            )
    cells = [_Cell(cfg, n, sample) for n in cfg.sizes for sample in range(cfg.samples)]
    if workers is None:
        workers = worker_count()
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_run_cell, cells, chunksize=2))
    else:
        per_cell = [_run_cell(cell) for cell in cells]
    records = [r for cell_records in per_cell for r in cell_records]
    records.sort(key=lambda r: (r.family, r.n, r.protocol, r.strategy, r.sample))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def raw_csv(records: list[BenchmarkRecord]) -> str:
    out = io.StringIO()
    out.write(",".join(RAW_COLUMNS) + "\n")
    for r in records:
        out.write(
            ",".join(
                [
                    r.family, str(r.n), r.protocol, r.strategy, str(r.sample),
                    str(r.seed), str(r.depth), str(r.n_2q), str(r.n_meas),
                    _fmt(r.mean_star_size), _fmt(r.scaling_factor), _fmt(r.fidelity),
                ]
            )
            + "\n"
        )
    return out.getvalue()


def aggregate_csv(records: list[BenchmarkRecord]) -> str:
    """Per-point mean/std/max/count for each figure of merit."""
    from .metrics import summarize

    groups: dict[tuple, list[BenchmarkRecord]] = {}
    for r in records:
        groups.setdefault((r.family, r.n, r.protocol, r.strategy), []).append(r)
    out = io.StringIO()
    out.write(",".join(AGG_COLUMNS) + "\n")
    for key in sorted(groups):
        rows = groups[key]
        metrics: list[tuple[str, list[float]]] = [
            ("depth", [r.depth for r in rows]),
            ("n_2q", [r.n_2q for r in rows]),
            ("n_meas", [r.n_meas for r in rows]),
        ]
        for name, getter in (
            ("mean_star_size", lambda r: r.mean_star_size),
            ("scaling_factor", lambda r: r.scaling_factor),
            ("fidelity", lambda r: r.fidelity),
        ):
            values = [getter(r) for r in rows if getter(r) is not None]
            if values:
                metrics.append((name, values))
        for metric, values in metrics:
            stats = summarize(values)
            out.write(
                ",".join(
                    [
                        key[0], str(key[1]), key[2], key[3], metric,
                        _fmt(stats.mean), _fmt(stats.std), _fmt(stats.max),
                        str(stats.count),
                    ]
                )
                + "\n"
            )
    return out.getvalue()


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
