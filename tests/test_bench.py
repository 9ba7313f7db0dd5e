import hashlib
import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from ghz_synth import bench, schema
from ghz_synth.bench import (
    BenchmarkRecord,
    ProtocolSpec,
    SweepConfig,
    aggregate_csv,
    raw_csv,
    run_sweep,
    worker_count,
    write_outputs,
)
from ghz_synth.merging import AbsoluteSize, HighestDegree, ScalingFactor
from ghz_synth.rng import MAX_SEED
from ghz_synth.schema import InputError
from ghz_synth.stabilizer import MAX_QUBITS, NoiseModel


def small_config(**overrides):
    base = dict(
        family="erdos_renyi",
        sizes=(6, 9),
        protocols=(
            ProtocolSpec("growing"),
            ProtocolSpec("merging", HighestDegree()),
            ProtocolSpec("merging", ScalingFactor(0.7)),
        ),
        samples=4,
        er_p=0.5,
        seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


# each object from numpy scalars, and from the plain numbers they hold: it keeps
# its bounds' plain values, so its JSON is the same
_NUMPY_BUILT = {
    "AbsoluteSize": lambda num: ProtocolSpec("merging", AbsoluteSize(num(np.int64, 3))).to_json(),
    "ScalingFactor": lambda num: ProtocolSpec("merging",
                                              ScalingFactor(num(np.float32, 0.7))).to_json(),
    "NoiseModel": lambda num: small_config(noise=NoiseModel(
        num(np.float32, 0.01), num(np.float64, 0.02), num(np.float16, 0.5), num(np.int64, 0)
    )).to_json(),
    "SweepConfig": lambda num: small_config(
        sizes=(num(np.int64, 6), num(np.uint8, 9)), samples=num(np.int32, 4),
        shots=num(np.int64, 64), er_p=num(np.float32, 0.3), grid_rows=num(np.int64, 3),
        grid_cols=num(np.uint16, 4), seed=num(np.uint64, 2**63 + 1),
    ).to_json(),
}


@pytest.mark.parametrize("build", _NUMPY_BUILT.values(), ids=_NUMPY_BUILT)
def test_numpy_scalar_arguments_give_plain_json(build):
    assert json.dumps(build(lambda kind, x: kind(x))) == json.dumps(
        build(lambda kind, x: kind(x).item()))


class TestRunSweep:
    def test_forced_counts_single_growing_record(self):
        cfg = SweepConfig(
            family="erdos_renyi", sizes=(5,), protocols=(ProtocolSpec("growing"),),
            samples=1, seed=0,
        )
        records = run_sweep(cfg, workers=1)
        assert len(records) == 1
        rec = records[0]
        assert rec.n_meas == 0 and rec.n_2q == 4
        assert rec.mean_star_size is None and rec.fidelity is None

    def test_record_identities(self):
        records = run_sweep(small_config(), workers=1)
        for r in records:
            if r.protocol == "growing":
                assert r.n_meas == 0 and r.n_2q == r.n - 1
            else:
                assert r.n_2q == r.n - 1 + r.n_meas
                assert r.mean_star_size is not None

    def test_canonical_order_and_count(self):
        cfg = small_config()
        records = run_sweep(cfg, workers=1)
        assert len(records) == len(cfg.sizes) * len(cfg.protocols) * cfg.samples
        keys = [(r.family, r.n, r.protocol, r.strategy, r.sample) for r in records]
        assert keys == sorted(keys)

    def test_layouts_shared_across_protocols(self):
        # paired comparisons: growing and merging see identical gate budgets
        # per sample, so n_2q(merging) - n_meas == n_2q(growing)
        records = run_sweep(small_config(), workers=1)
        by_key = {}
        for r in records:
            by_key.setdefault((r.n, r.sample), {})[(r.protocol, r.strategy)] = r
        for cell in by_key.values():
            grow = cell[("growing", "")]
            for (proto, _), rec in cell.items():
                if proto == "merging":
                    assert rec.n_2q - rec.n_meas == grow.n_2q

    def test_layout_built_once_per_cell(self, monkeypatch):
        calls = []
        make_layout = bench._make_layout

        def counting(cfg, n, sample):
            calls.append((n, sample))
            return make_layout(cfg, n, sample)

        monkeypatch.setattr(bench, "_make_layout", counting)
        cfg = small_config()
        records = run_sweep(cfg, workers=1)
        assert len(records) == len(cfg.sizes) * len(cfg.protocols) * cfg.samples
        assert sorted(calls) == [(n, s) for n in cfg.sizes for s in range(cfg.samples)]

    def test_grid_source_built_once_per_sweep(self, monkeypatch):
        calls = []
        rect_grid = bench.layouts.rect_grid

        def counting(rows, cols):
            calls.append((rows, cols))
            return rect_grid(rows, cols)

        bench._source_graph.cache_clear()
        monkeypatch.setattr(bench.layouts, "rect_grid", counting)
        cfg = small_config(family="rect_grid_subgraph", samples=3, grid_rows=5, grid_cols=4)
        records = run_sweep(cfg, workers=1)
        assert len(records) == len(cfg.sizes) * len(cfg.protocols) * cfg.samples
        assert calls == [(5, 4)]

    def test_import_leaves_the_process_pool_unloaded(self):
        # only a run with workers > 1 imports concurrent.futures
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = "import sys, ghz_synth; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_parallel_equals_serial(self):
        cfg = small_config(samples=3)
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        assert serial == parallel

    def test_oversized_request_rejected(self):
        with pytest.raises(InputError, match=r"^sizes: must be <= 127, got 128$"):
            SweepConfig(
                family="eagle_subgraph", sizes=(128,),
                protocols=(ProtocolSpec("growing"),), samples=1,
            )

    def test_fidelity_beyond_simulator_refused_before_any_item(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "_make_layout", lambda *args: calls.append(args))
        with pytest.raises(InputError, match=(
            rf"^sizes: must be <= {MAX_QUBITS}, got {MAX_QUBITS + 1}$"
        )):
            SweepConfig(
                family="erdos_renyi", sizes=(8, MAX_QUBITS + 1),
                protocols=(ProtocolSpec("growing"),), samples=2, er_p=0.001,
                compute_fidelity=True, shots=64,
            )
        assert calls == []

    def test_eagle_full_size_allowed(self):
        cfg = SweepConfig(
            family="eagle_subgraph", sizes=(127,),
            protocols=(ProtocolSpec("growing"),), samples=1,
        )
        records = run_sweep(cfg, workers=1)
        assert records[0].n == 127

    def test_every_agg_row_counts_the_samples(self):
        agg = aggregate_csv(run_sweep(small_config(samples=2), workers=1)).splitlines()[1:]
        assert {row.split(",")[-1] for row in agg} == {"2"}

    @pytest.mark.parametrize("overrides, message", [
        (dict(sizes=(5, 5)), r"^sizes: \[5\] listed more than once$"),
        (dict(protocols=(ProtocolSpec("growing"), ProtocolSpec("growing"))),
         r"^protocols\[1\]: repeats protocols\[0\] \(growing\)$"),
        # one label, so one derived seed and one CSV key for both
        (dict(protocols=(ProtocolSpec("merging", ScalingFactor(0.7)),
                         ProtocolSpec("merging", ScalingFactor(0.7000001)))),
         r"^protocols\[1\]: repeats protocols\[0\] \(merging, scaling_factor=0.7\)$"),
        (dict(protocols=()), r"^protocols: must list at least one protocol$"),
        # a master seed outside 64 bits, as every other seed entry point refuses
        (dict(seed=-5), r"^seed: must be a 64-bit unsigned integer, got -5$"),
        (dict(seed=MAX_SEED + 1),
         rf"^seed: must be a 64-bit unsigned integer, got {MAX_SEED + 1}$"),
    ])
    def test_duplicate_or_no_cells_rejected(self, overrides, message):
        # sizes [5, 5] with growing twice once gave 8 records, each agg count 8
        with pytest.raises(InputError, match=message):
            run_sweep(small_config(samples=2, **overrides), workers=1)

    def test_size_above_max_n_rejected_on_load(self, monkeypatch):
        monkeypatch.setattr(schema, "MAX_N", 100)
        doc = {"family": "erdos_renyi", "sizes": [5, 101], "protocols": [{"protocol": "growing"}]}
        with pytest.raises(InputError, match=r"^sizes: must be <= 100, got 101$"):
            SweepConfig.from_json(json.dumps(doc))
        doc["sizes"] = [5, 100]
        assert SweepConfig.from_json(json.dumps(doc)).sizes == (5, 100)

    def test_size_above_the_grid_rejected_on_load_without_building_it(self, monkeypatch):
        # the grid's cell count is under MAX_N, so only the grid bounds the size
        monkeypatch.setattr(bench.layouts, "rect_grid", lambda *args: pytest.fail("grid built"))
        doc = {"family": "rect_grid_subgraph", "grid_rows": 4096, "grid_cols": 4095,
               "sizes": [16773121], "protocols": [{"protocol": "growing"}]}
        with pytest.raises(InputError, match=r"^sizes: must be <= 16773120, got 16773121$"):
            SweepConfig.from_json(json.dumps(doc))

    def test_seed_bounds_accepted_on_load(self):
        doc = {"family": "erdos_renyi", "sizes": [5], "protocols": [{"protocol": "growing"}]}
        for doc["seed"] in (0, MAX_SEED):
            assert SweepConfig.from_json(json.dumps(doc)).seed == doc["seed"]

    def test_fidelity_opt_in(self):
        cfg = SweepConfig(
            family="erdos_renyi", sizes=(4,), protocols=(ProtocolSpec("growing"),),
            samples=2, shots=256, compute_fidelity=True, seed=3,
        )
        records = run_sweep(cfg, workers=1)
        for r in records:
            assert r.fidelity is not None and r.fidelity > 0.9


PROTOCOLS = (
    ProtocolSpec("growing"),
    ProtocolSpec("merging", HighestDegree()),
    ProtocolSpec("merging", ScalingFactor(0.7)),
    ProtocolSpec("merging", AbsoluteSize(4)),
)
PINNED_CONFIGS = (
    SweepConfig(family="eagle_subgraph", sizes=(10, 30), protocols=PROTOCOLS,
                samples=3, seed=17),
    SweepConfig(family="rect_grid_subgraph", sizes=(12, 40), protocols=PROTOCOLS,
                samples=3, grid_rows=8, grid_cols=8, seed=17),
    SweepConfig(family="erdos_renyi", sizes=(8, 25), protocols=PROTOCOLS, samples=3,
                er_p=0.3, seed=17, compute_fidelity=True, shots=64,
                noise=NoiseModel(p1=0.001, p2=0.01, pm=0.01, pr=0.01)),
)
# SHA-256 of raw.csv + agg.csv of each config in turn, in two digests. The
# noiseless configs' digest was computed just before the engine began drawing
# its errors by geometric skipping, which left those bytes as they were; the
# noisy ER config's digest was re-pinned then, since its samples changed, and
# again when shot s's key became derive_seed(m, "shot") + s. The noiseless
# configs sample nothing, so that change left their digest as it was.
PINNED_CSV_SHA256 = "d8d74a9a34a67076770398378037c9f9accc89c1127c8c20036df46940efe967"
PINNED_NOISY_CSV_SHA256 = "0f7b18d826e0de121c9518bd7ac315bca46a4f6fe4320da3c719bff4cb8002c8"


class TestCsv:
    def test_pinned_digest_multi_family(self):
        noiseless, noisy = hashlib.sha256(), hashlib.sha256()
        for cfg in PINNED_CONFIGS:
            records = run_sweep(cfg, workers=1)
            digest = noiseless if cfg.noise is None else noisy
            digest.update((raw_csv(records) + aggregate_csv(records)).encode())
        assert noiseless.hexdigest() == PINNED_CSV_SHA256
        assert noisy.hexdigest() == PINNED_NOISY_CSV_SHA256

    def test_empty_records_header_only(self):
        assert raw_csv([]).strip().count("\n") == 0
        assert aggregate_csv([]).strip().count("\n") == 0

    def test_single_record_rows(self):
        rec = BenchmarkRecord(
            family="erdos_renyi", n=5, protocol="growing", strategy="",
            sample=0, seed=1, depth=5, n_2q=4, n_meas=0,
            mean_star_size=None, scaling_factor=None, fidelity=None,
        )
        raw = raw_csv([rec]).splitlines()
        assert len(raw) == 2
        agg = aggregate_csv([rec]).splitlines()
        assert len(agg) == 1 + 3  # depth, n_2q, n_meas

    def test_aggregate_mean_matches_recompute(self):
        records = run_sweep(small_config(), workers=1)
        agg = aggregate_csv(records).splitlines()[1:]
        rows = [line.split(",") for line in agg]
        target = [
            r for r in rows
            if r[2] == "growing" and r[1] == "6" and r[4] == "depth"
        ]
        assert len(target) == 1
        depths = [r.depth for r in records if r.protocol == "growing" and r.n == 6]
        assert float(target[0][5]) == pytest.approx(sum(depths) / len(depths))

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(samples=2)
        a = run_sweep(cfg, workers=1)
        b = run_sweep(cfg, workers=2)
        assert raw_csv(a) == raw_csv(b)
        assert aggregate_csv(a) == aggregate_csv(b)
        p1, p2 = write_outputs(a, str(tmp_path / "one"))
        q1, q2 = write_outputs(b, str(tmp_path / "two"))
        assert open(p1).read() == open(q1).read()
        assert open(p2).read() == open(q2).read()

    def test_config_json_round_trip(self):
        cfg = small_config()
        back = SweepConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_config_with_noise_round_trip(self):
        from ghz_synth.stabilizer import NoiseModel

        cfg = small_config(noise=NoiseModel(p1=0.001, p2=0.01, pm=0.01, pr=0.01))
        back = SweepConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_config_json_round_trip_every_field_set(self):
        cfg = SweepConfig(
            family="rect_grid_subgraph", sizes=(3, 8), protocols=PROTOCOLS, samples=2,
            shots=100, er_p=0.25, grid_rows=5, grid_cols=6,
            noise=NoiseModel(p1=0.001, p2=0.01, pm=0.02, pr=0.03),
            compute_fidelity=True, seed=99,
        )
        for f in fields(SweepConfig):
            assert f.default is MISSING or getattr(cfg, f.name) != f.default, f.name
        assert SweepConfig.from_json(cfg.to_json()) == cfg

    def test_config_json_required_fields_only_loads_the_defaults(self):
        doc = {"family": "erdos_renyi", "sizes": [5], "protocols": [{"protocol": "growing"}]}
        cfg = SweepConfig.from_json(json.dumps(doc))
        assert cfg == SweepConfig("erdos_renyi", (5,), (ProtocolSpec("growing"),))
        for f in fields(SweepConfig):
            if f.default is not MISSING:
                assert getattr(cfg, f.name) == f.default, f.name

    @pytest.mark.parametrize("protocol, strategy, message", [
        ("bogus", None, "unknown protocol 'bogus'"),
        ("merging", None, "merging requires a star selection strategy"),
        ("growing", HighestDegree(), "growing takes no star selection strategy"),
    ])
    def test_bad_protocol_spec_is_an_input_error(self, protocol, strategy, message):
        with pytest.raises(InputError) as refused:
            ProtocolSpec(protocol, strategy)
        assert str(refused.value) == message

    def test_protocol_spec_json_round_trip(self):
        for spec in PROTOCOLS:
            assert ProtocolSpec.from_json(spec.to_json(), "protocols[0]") == spec
        assert ProtocolSpec("growing").to_json() == {"protocol": "growing"}

    def test_raw_columns(self):
        header = raw_csv([]).splitlines()[0]
        assert header == (
            "family,N,protocol,strategy,sample,seed,depth,n_2q,n_meas,"
            "mean_star_size,scaling_factor,fidelity"
        )

    def test_agg_columns(self):
        header = aggregate_csv([]).splitlines()[0]
        assert header == "family,N,protocol,strategy,metric,mean,std,max,count"

    def test_nine_significant_digits(self):
        rec = BenchmarkRecord(
            family="erdos_renyi", n=3, protocol="merging", strategy="highest_degree",
            sample=0, seed=1, depth=4, n_2q=3, n_meas=1,
            mean_star_size=1.5, scaling_factor=1.0 / 3.0, fidelity=None,
        )
        line = raw_csv([rec]).splitlines()[1]
        assert "0.333333333" in line


class TestWorkerCount:
    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("GHZ_SYNTH_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("GHZ_SYNTH_THREADS", "0")
        with pytest.raises(InputError, match=r"^GHZ_SYNTH_THREADS: must be >= 1, got 0$"):
            worker_count()

    @pytest.mark.parametrize("threads, started", [("10000", [8]), ("3", [3]), ("1", [])])
    def test_pool_capped_by_cell_count(self, monkeypatch, threads, started):
        # a stand-in pool records its size and maps serially, so no process starts
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("GHZ_SYNTH_THREADS", threads)
        cfg = small_config()  # 2 sizes x 4 samples: 8 cells
        assert run_sweep(cfg) == run_sweep(cfg, workers=1)
        assert sizes == started
        sizes.clear()
        run_sweep(cfg, workers=10**6)
        assert sizes == [8]

    def test_bad_env_names_variable_and_value(self, monkeypatch):
        for env, message in (("abc", "expected an integer, got 'abc'"),
                             ("-3", "must be >= 1, got -3")):
            monkeypatch.setenv("GHZ_SYNTH_THREADS", env)
            with pytest.raises(InputError, match=f"^GHZ_SYNTH_THREADS: {message}$"):
                worker_count()
