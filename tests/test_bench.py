import pytest

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
from ghz_synth.merging import HighestDegree, ScalingFactor


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

    def test_parallel_equals_serial(self):
        cfg = small_config(samples=3)
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        assert serial == parallel

    def test_oversized_request_rejected(self):
        cfg = SweepConfig(
            family="eagle_subgraph", sizes=(128,),
            protocols=(ProtocolSpec("growing"),), samples=1,
        )
        with pytest.raises(ValueError):
            run_sweep(cfg, workers=1)

    def test_eagle_full_size_allowed(self):
        cfg = SweepConfig(
            family="eagle_subgraph", sizes=(127,),
            protocols=(ProtocolSpec("growing"),), samples=1,
        )
        records = run_sweep(cfg, workers=1)
        assert records[0].n == 127

    def test_fidelity_opt_in(self):
        cfg = SweepConfig(
            family="erdos_renyi", sizes=(4,), protocols=(ProtocolSpec("growing"),),
            samples=2, shots=256, compute_fidelity=True, seed=3,
        )
        records = run_sweep(cfg, workers=1)
        for r in records:
            assert r.fidelity is not None and r.fidelity > 0.9


class TestCsv:
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
        assert worker_count() == 1

    def test_bad_env_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("GHZ_SYNTH_THREADS", "abc")
        with pytest.raises(ValueError, match=r"GHZ_SYNTH_THREADS must be an integer, got 'abc'"):
            worker_count()
