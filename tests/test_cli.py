import json

import pytest

from ghz_synth.circuit import Circuit
from ghz_synth.cli import cli_main


def test_layout_grid_2x2(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = cli_main(["layout", "--family", "grid", "--rows", "2", "--cols", "2",
                     "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 4 and len(obj["edges"]) == 4


def test_layout_stdout(capsys):
    assert cli_main(["layout", "--family", "grid", "--rows", "1", "--cols", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 3


def test_layout_er_requires_n(capsys):
    assert cli_main(["layout", "--family", "er"]) == 1


def test_synth_grow_path5(tmp_path, capsys):
    layout = tmp_path / "path5.json"
    cli_main(["layout", "--family", "grid", "--rows", "1", "--cols", "5",
              "--out", str(layout)])
    out = tmp_path / "c.json"
    code = cli_main(["synth", "--protocol", "grow", "--layout", str(layout),
                     "--out", str(out)])
    assert code == 0
    circ = Circuit.from_json(out.read_text())
    assert sum(1 for op in circ.ops if type(op).__name__ == "CX") == 4


def test_synth_merge_qasm(tmp_path):
    layout = tmp_path / "path5.json"
    cli_main(["layout", "--family", "grid", "--rows", "1", "--cols", "5",
              "--out", str(layout)])
    qasm = tmp_path / "c.qasm"
    code = cli_main(["synth", "--protocol", "merge", "--strategy", "scaling_factor=1.0",
                     "--layout", str(layout), "--qasm", str(qasm)])
    assert code == 0
    text = qasm.read_text()
    assert "measure" in text and "reset" in text and "if (" in text


def test_simulate_noiseless_fidelity(tmp_path, capsys):
    layout = tmp_path / "l.json"
    circ = tmp_path / "c.json"
    cli_main(["layout", "--family", "grid", "--rows", "2", "--cols", "3",
              "--out", str(layout)])
    cli_main(["synth", "--protocol", "grow", "--layout", str(layout),
              "--out", str(circ)])
    capsys.readouterr()
    code = cli_main(["simulate", "--circuit", str(circ), "--shots", "4096",
                     "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    fid = float([l for l in out.splitlines() if l.startswith("hellinger")][0].split()[1])
    assert fid >= 0.98
    assert "is_ghz True" in out


def test_simulate_with_noise(tmp_path, capsys):
    layout = tmp_path / "l.json"
    circ = tmp_path / "c.json"
    cli_main(["layout", "--family", "grid", "--rows", "1", "--cols", "4",
              "--out", str(layout)])
    cli_main(["synth", "--protocol", "merge", "--layout", str(layout),
              "--out", str(circ)])
    capsys.readouterr()
    code = cli_main(["simulate", "--circuit", str(circ), "--shots", "256",
                     "--seed", "5", "--noise", "0.001,0.01,0.01,0.01"])
    assert code == 0
    assert "is_ghz" not in capsys.readouterr().out  # exact check is noiseless-only


def test_bench_subcommand(tmp_path, capsys):
    cfg = {
        "family": "erdos_renyi",
        "sizes": [5, 7],
        "protocols": [
            {"protocol": "growing"},
            {"protocol": "merging", "strategy": {"strategy": "highest_degree"}},
        ],
        "samples": 2,
        "er_p": 0.5,
        "seed": 4,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    code = cli_main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert code == 0
    raw = (out_dir / "raw.csv").read_text().splitlines()
    assert len(raw) == 1 + 2 * 2 * 2
    assert (out_dir / "agg.csv").exists()


def test_verify_subcommand(capsys):
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_prints_failure_reason(monkeypatch, capsys):
    from ghz_synth import selfcheck

    def boom():
        raise RuntimeError("tableau exploded")

    monkeypatch.setattr(selfcheck, "check_depth_examples", boom)
    assert cli_main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  ASAP depth hand-scheduled examples: RuntimeError: tableau exploded" in out
    assert "1 of 6 checks failed" in out


def test_unknown_flag_usage_error(capsys):
    assert cli_main(["layout", "--family", "grid", "--bogus"]) == 1


def test_unknown_command_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_missing_file_runtime_error(capsys):
    assert cli_main(["simulate", "--circuit", "/nonexistent/c.json"]) == 2


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    for sub in ("layout", "synth", "simulate", "bench", "verify"):
        assert cli_main([sub, "--help"]) == 0


def test_bad_strategy_usage_error(tmp_path, capsys):
    layout = tmp_path / "l.json"
    cli_main(["layout", "--family", "grid", "--rows", "1", "--cols", "3",
              "--out", str(layout)])
    code = cli_main(["synth", "--protocol", "merge", "--strategy", "nonsense",
                     "--layout", str(layout)])
    assert code == 1


def test_simulate_malformed_circuit_runtime_error(tmp_path, capsys):
    missing_n = tmp_path / "no_n.json"
    missing_n.write_text(json.dumps({"cbits": 0, "ops": []}))
    missing_target = tmp_path / "no_target.json"
    missing_target.write_text(
        json.dumps({"n": 2, "cbits": 0, "ops": [{"tag": "cx", "control": 0}]})
    )
    for path, field in ((missing_n, "n"), (missing_target, "ops[0].target")):
        assert cli_main(["simulate", "--circuit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {field}: missing field\n"


def test_bench_bad_threads_env_runtime_error(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "family": "erdos_renyi", "sizes": [5], "protocols": [{"protocol": "growing"}],
        "samples": 1, "er_p": 0.5, "seed": 4,
    }))
    monkeypatch.setenv("GHZ_SYNTH_THREADS", "abc")
    code = cli_main(["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "GHZ_SYNTH_THREADS must be an integer, got 'abc'" in capsys.readouterr().err


def test_synth_malformed_layout_runtime_error(tmp_path, capsys):
    cases = [
        ({"edges": [[0, 1]]}, "n: missing field"),
        ({"n": 3}, "edges: missing field"),
        ({"n": 3, "edges": [[0, 1], [1]]}, "edges[1]: expected a pair of integers, got [1]"),
        ([], "layout: expected an object"),
    ]
    for i, (doc, message) in enumerate(cases):
        path = tmp_path / f"layout{i}.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["synth", "--protocol", "grow", "--layout", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_bench_malformed_config_runtime_error(tmp_path, capsys):
    base = {"family": "erdos_renyi", "sizes": [5], "protocols": [{"protocol": "growing"}]}
    cases = [
        ({k: v for k, v in base.items() if k != "protocols"}, "protocols: missing field"),
        ({**base, "protocols": [{}]}, "protocols[0].protocol: missing field"),
        ({**base, "protocols": [{"protocol": "bogus"}]},
         "protocols[0]: unknown protocol 'bogus'"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "scaling_factor"}}]},
         "protocols[0].strategy.f: missing field"),
        ({**base, "noise": {"p9": 0.1}}, "noise.p9: unknown noise parameter"),
        ({**base, "noise": {"p1": "high"}}, "noise.p1: expected a number, got 'high'"),
        ({**base, "samples": "3"}, "samples: expected int, got '3'"),
        ({**base, "sizes": 5}, "sizes: expected a list of integers"),
    ]
    for i, (doc, message) in enumerate(cases):
        path = tmp_path / f"sweep{i}.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_loader_errors_are_input_errors():
    from ghz_synth import InputError, LayoutGraph, MalformedCircuitError, SweepConfig

    with pytest.raises(InputError, match=r"^n: missing field$"):
        LayoutGraph.from_json("{}")
    with pytest.raises(InputError, match=r"^family: missing field$"):
        SweepConfig.from_json("{}")
    assert issubclass(MalformedCircuitError, InputError)
    assert issubclass(InputError, ValueError)
