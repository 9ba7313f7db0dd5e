import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from ghz_synth import bench, layouts, selfcheck
from ghz_synth.circuit import CX, Circuit, CondX, Schedule, X
from ghz_synth.cli import cli_main
from ghz_synth.growing import synthesize_growing
from ghz_synth.merging import select_stars, synthesize_merging
from ghz_synth.stabilizer import Tableau


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


def test_layout_eagle_is_the_published_map(capsys):
    # the SHA-256 of the published Eagle r3 coupling map's JSON
    assert cli_main(["layout", "--family", "eagle"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == (
        "4fcc915ef5b6f8234fff967ffad7426eac9cf9934ba9960ff159b618c49029e2")


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


def test_synth_huge_scaling_factor_picks_highest_degree_stars(tmp_path, capsys):
    # f * average degree overflows to inf; a target past n is capped at n,
    # which picks HighestDegree's stars
    layout = tmp_path / "grid.json"
    cli_main(["layout", "--family", "grid", "--rows", "3", "--cols", "3", "--out", str(layout)])
    for strategy in ("scaling_factor=1e308", "highest_degree"):
        code = cli_main(["synth", "--protocol", "merge", "--strategy", strategy,
                         "--layout", str(layout), "--out", str(tmp_path / f"{strategy}.json")])
        assert code == 0
    capsys.readouterr()
    assert ((tmp_path / "scaling_factor=1e308.json").read_text()
            == (tmp_path / "highest_degree.json").read_text())


def test_bench_huge_scaling_factor_runs(tmp_path):
    rows = {}
    for strategy in ({"strategy": "scaling_factor", "f": 1e308}, {"strategy": "highest_degree"}):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "family": "erdos_renyi", "sizes": [6, 9], "samples": 2, "seed": 4,
            "protocols": [{"protocol": "merging", "strategy": strategy}],
        }))
        out_dir = tmp_path / strategy["strategy"]
        assert cli_main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        raw = [line.split(",") for line in (out_dir / "raw.csv").read_text().splitlines()[1:]]
        # family, N, sample and the figures of merit; the label and its seed differ
        rows[strategy["strategy"]] = [[r[0], r[1], *r[4:5], *r[6:]] for r in raw]
    assert len(rows["scaling_factor"]) == 4
    assert rows["scaling_factor"] == rows["highest_degree"]


def test_verify_subcommand(capsys):
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "PASS  noisy sampled shots replay as single runs" in out


def test_verify_prints_failure_reason(monkeypatch, capsys):
    def boom():
        raise RuntimeError("tableau exploded")

    monkeypatch.setattr(selfcheck, "check_depth_examples", boom)
    assert cli_main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  ASAP depth hand-scheduled examples: RuntimeError: tableau exploded" in out
    assert "1 of 8 checks failed" in out


def test_noise_sampler_check_fails_on_a_wrong_sampler(monkeypatch):
    from ghz_synth.rng import CounterStream

    assert selfcheck.check_skip_sampler()
    right = CounterStream.skips
    # the right skips from the wrong draws
    monkeypatch.setattr(CounterStream, "skips", lambda self, t0, p, m: right(self, t0 + 2, p, m))
    assert not selfcheck.check_skip_sampler()


@pytest.mark.parametrize("generator", ["eagle_127", "heavy_hex", "rect_grid"])
def test_layout_check_fails_on_a_wrong_generator(generator, monkeypatch):
    assert selfcheck.check_layout_invariants()
    wrong = {
        "eagle_127": lambda: layouts.heavy_hex(7, 11),
        "heavy_hex": lambda rows, cols: layouts.rect_grid(rows, cols),
        # a path on the r x c nodes: connected, but a tree
        "rect_grid": lambda rows, cols: layouts.LayoutGraph(
            rows * cols, tuple((i, i + 1) for i in range(rows * cols - 1))
        ),
    }
    monkeypatch.setattr(layouts, generator, wrong[generator])
    assert not selfcheck.check_layout_invariants()


def _grown_then(*extra):
    """A growing synthesizer whose circuits end with the extra ops."""

    def synthesize(g):
        c = synthesize_growing(g)
        return Circuit(c.qubit_count, c.cbit_count, c.ops + extra)

    return synthesize


def _merged_without_condx(g, strategy):
    c = synthesize_merging(g, strategy)
    ops = list(c.ops)
    ops.remove(next(op for op in ops if isinstance(op, CondX)))
    return Circuit(c.qubit_count, c.cbit_count, ops)


def _cx_without_signs(self, a, b):
    """Tableau.apply_cx that forgets the sign update."""
    self.x[b] ^= self.x[a]
    self.z[a] ^= self.z[b]


def _grown_on_complete_graph(g):
    """A growing synthesizer that ignores the layout's edges: N - 1 CX, exact GHZ."""
    n = g.node_count
    return synthesize_growing(layouts.LayoutGraph(n, tuple(combinations(range(n), 2))))


CERTIFIED = "synthesized circuits are certified on their layouts"

# each `verify` check that fails, beside a fault it exists to catch:
# (check name, object to patch, attribute, stand-in, reason). The certificate
# check fails with certify's refusal, whose message names the property that
# fails, or, when a circuit's measurements disagree with the star count, with
# no reason; every other check returns False and raises nothing.
CHECK_FAULTS = [
    # a redundant CX pair keeps the GHZ state but breaks the CX count
    pytest.param(CERTIFIED, bench, "synthesize_growing", _grown_then(CX(0, 1), CX(0, 1)),
                 "ValueError: count identity: ", id="extra-cx-pair"),
    pytest.param(CERTIFIED, bench, "synthesize_growing", _grown_then(X(0)),
                 "ValueError: exact GHZ: ", id="appended-x"),
    pytest.param(CERTIFIED, bench, "synthesize_growing", _grown_on_complete_graph,
                 "ValueError: layout edge: op ", id="off-layout-cx"),
    # a star reference one star short, which no merging's measurement count matches
    pytest.param(CERTIFIED, selfcheck, "select_stars",
                 lambda g, strategy: select_stars(g, strategy)[1:], "", id="one-star-short"),
    # a merging that fuses nothing leaves no measurement branch to check
    pytest.param("merge corrections on both branches", selfcheck, "synthesize_merging",
                 lambda g, strategy: synthesize_growing(g), "", id="merging-without-measurement"),
    pytest.param("merge corrections on both branches", selfcheck, "synthesize_merging",
                 _merged_without_condx, "", id="dropped-condx"),
    pytest.param("tableau agrees with dense state vector", Tableau, "apply_cx",
                 _cx_without_signs, "", id="cx-without-signs"),
    # a schedule that checks no rule, so no malformed circuit raises
    pytest.param("malformed circuits are rejected when built", Schedule, "emit",
                 lambda self, op: op, "", id="unchecked-schedule"),
]


@pytest.mark.parametrize("check, owner, attr, fault, reason", CHECK_FAULTS)
def test_verify_check_fails_on_its_fault(check, owner, attr, fault, reason, monkeypatch):
    monkeypatch.setattr(owner, attr, fault)
    results = {name: (passed, why) for name, passed, why in selfcheck.run_all()}
    passed, why = results[check]
    assert not passed and (why.startswith(reason) if reason else why == "")


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
    capsys.readouterr()
    for strategy in ("nonsense", "scaling_factor=abc", "scaling_factor=-1",
                     "absolute_size=0", "absolute_size=2.5", "scaling_factor=inf",
                     "scaling_factor=nan"):
        code = cli_main(["synth", "--protocol", "merge", "--strategy", strategy,
                         "--layout", str(layout)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("protocol, strategy, message", [
    ("grow", "nonsense", "unknown strategy 'nonsense'; expected highest_degree, "
                         "scaling_factor=<f>, or absolute_size=<s>"),
    ("grow", "highest_degree", "'highest_degree': growing takes no star selection strategy"),
    ("grow", "absolute_size=3", "'absolute_size=3': growing takes no star selection strategy"),
    ("merge", "nonsense", "unknown strategy 'nonsense'; expected highest_degree, "
                          "scaling_factor=<f>, or absolute_size=<s>"),
    ("merge", "scaling_factor=abc",
     "'scaling_factor=abc': could not convert string to float: 'abc'"),
    ("merge", "absolute_size=0", "'absolute_size=0': s: must be >= 1, got 0"),
    ("merge", "scaling_factor=-1",
     "'scaling_factor=-1': f: must be positive and finite, got -1.0"),
    ("merge", "scaling_factor", "'scaling_factor': could not convert string to float: ''"),
    ("merge", "highest_degree=1", "unknown strategy 'highest_degree=1'; expected "
                                  "highest_degree, scaling_factor=<f>, or absolute_size=<s>"),
])
def test_synth_strategy_usage_error_names_flag(protocol, strategy, message, tmp_path, capsys):
    # the flag is checked before the layout file is read
    code = cli_main(["synth", "--protocol", protocol, "--strategy", strategy,
                     "--layout", str(tmp_path / "missing.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: --strategy: {message}\n"


def test_synth_strategy_defaults_to_highest_degree_for_merge_only(tmp_path, capsys):
    layout = tmp_path / "l.json"
    cli_main(["layout", "--family", "grid", "--rows", "2", "--cols", "3",
              "--out", str(layout)])
    outputs = {}
    for argv in (["merge"], ["merge", "--strategy", "highest_degree"], ["grow"]):
        capsys.readouterr()
        assert cli_main(["synth", "--protocol", *argv, "--layout", str(layout)]) == 0
        outputs[" ".join(argv)] = capsys.readouterr().out
    assert outputs["merge"] == outputs["merge --strategy highest_degree"]
    assert "measurements=0" in outputs["grow"]
    assert "measurements=0" not in outputs["merge"]


def test_bad_noise_usage_error(tmp_path, capsys):
    layout = tmp_path / "l.json"
    circ = tmp_path / "c.json"
    cli_main(["layout", "--family", "grid", "--rows", "1", "--cols", "3",
              "--out", str(layout)])
    cli_main(["synth", "--protocol", "grow", "--layout", str(layout), "--out", str(circ)])
    capsys.readouterr()
    for noise, message in (
        ("a,0,0,0", "error: --noise: could not convert string to float: 'a'"),
        ("2,0,0,0", "error: --noise: p1: must lie in [0, 1], got 2.0"),
        ("0,0,nan,0", "error: --noise: pm: must lie in [0, 1], got nan"),
        ("0,0,0", "error: --noise expects four comma-separated values: p1,p2,pm,pr"),
    ):
        code = cli_main(["simulate", "--circuit", str(circ), "--noise", noise])
        assert code == 1
        assert capsys.readouterr().err == message + "\n"
    # a bad flag value is reported before any file is read
    code = cli_main(["simulate", "--circuit", str(tmp_path / "missing.json"),
                     "--noise", "a,0,0,0"])
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


@pytest.mark.parametrize("doc, message", [
    ({"n": 1, "cbits": 0, "ops": [], "depth": 0}, "depth: unknown field"),
    ({"n": 1, "cbits": 1, "ops": [{"tag": "h", "q": 0, "cbit": 0}]}, "ops[0].cbit: unknown field"),
])
def test_simulate_unknown_circuit_field_runtime_error(doc, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["simulate", "--circuit", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, problem", [
    ("ghz", "Expecting value: line 1 column 1 (char 0)"),
    ('{"n": 4', "Expecting ',' delimiter: line 1 column 8 (char 7)"),
    ("[" * 10**5, "nested too deeply"),
    ('{"n": ' * 10**5, "nested too deeply"),
], ids=["word", "cut-short", "deep-array", "deep-object"])
@pytest.mark.parametrize("argv, root", [
    (["synth", "--protocol", "grow", "--layout"], "layout"),
    (["simulate", "--circuit"], "circuit"),
    (["bench", "--out-dir", "out", "--config"], "config"),
], ids=["layout", "circuit", "config"])
def test_non_json_document_runtime_error(argv, root, text, problem, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(text)
    assert cli_main([*argv, "doc.json"]) == 2
    assert capsys.readouterr().err == f"error: {root}: not a JSON document: {problem}\n"


def test_simulate_oversized_cbits_names_the_field(tmp_path, capsys):
    # rejected when the circuit is built, before a classical-bit matrix is sized
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 1, "cbits": 2**63, "ops": []}))
    assert cli_main(["simulate", "--circuit", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cbits: must be <= {2**24}, got {2**63}\n"


def test_bench_bad_threads_env_runtime_error(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "family": "erdos_renyi", "sizes": [5], "protocols": [{"protocol": "growing"}],
        "samples": 1, "er_p": 0.5, "seed": 4,
    }))
    monkeypatch.setenv("GHZ_SYNTH_THREADS", "abc")
    code = cli_main(["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: GHZ_SYNTH_THREADS: expected an integer, got 'abc'\n"


def test_synth_malformed_layout_runtime_error(tmp_path, capsys):
    cases = [
        ({"edges": [[0, 1]]}, "n: missing field"),
        ({"n": 3}, "edges: missing field"),
        ({"n": 3, "edges": [[0, 1], [1]]}, "edges[1]: expected a pair of integers, got [1]"),
        ([], "layout: expected an object"),
        ({"n": 0, "edges": []}, "n: must be >= 1, got 0"),
        ({"n": 3, "edges": [[1, 1]]}, "edges: self-loop on node 1"),
        ({"n": 4, "edges": [[0, 1], [2, 3]]},
         "edges: layout graph must be connected; 4 nodes need at least 3 edges, got 2"),
        ({"n": 4, "edges": [[0, 1], [0, 2], [1, 2]]},
         "edges: layout graph must be connected; node 3 is not reached from node 0"),
        ({"n": 2**24 + 1, "edges": []}, "n: must be <= 16777216, got 16777217"),
        ({"n": 2**63, "edges": []}, "n: must be <= 16777216, got 9223372036854775808"),
        ({"n": 2, "edges": [[0, 1]], "weights": [1]}, "weights: unknown field"),
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
        ({**base, "protocols": [{"protocol": "merging"}]},
         "protocols[0]: merging requires a star selection strategy"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "scaling_factor"}}]},
         "protocols[0].strategy.f: missing field"),
        ({**base, "protocols": [{"protocol": "merging", "strategy": {"strategy": "x"}}]},
         "protocols[0].strategy.strategy: unknown strategy kind 'x'"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "absolute_size"}}]},
         "protocols[0].strategy.s: missing field"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "absolute_size", "s": 2.5}}]},
         "protocols[0].strategy.s: expected int, got 2.5"),
        ({**base, "noise": {"p9": 0.1}}, "noise.p9: unknown noise parameter"),
        ({**base, "noise": {"p1": "high"}}, "noise.p1: expected a number, got 'high'"),
        ({**base, "samples": "3"}, "samples: expected int, got '3'"),
        ({**base, "sizes": 5}, "sizes: expected a list of integers"),
        ({**base, "shots": 0}, "shots: must be >= 1, got 0"),
        ({**base, "er_p": 3}, "er_p: must lie in [0, 1], got 3.0"),
        ({**base, "grid_rows": 0}, "grid_rows: must be >= 1, got 0"),
        ({**base, "family": "rect_grid_subgraph", "grid_rows": 5000, "grid_cols": 5000},
         "grid_rows: grid_rows x grid_cols must be <= 16777216, got 5000x5000"),
        ({**base, "family": "foo"}, "family: unknown family 'foo'"),
        ({**base, "sizes": [0]}, "sizes: must be >= 1, got 0"),
        ({**base, "sizes": []}, "sizes: must list at least one size"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "absolute_size", "s": 0}}]},
         "protocols[0].strategy: s: must be >= 1, got 0"),
        ({**base, "noise": {"p1": 2}}, "noise: p1: must lie in [0, 1], got 2.0"),
        ({**base, "sizes": [5, 7, 5]}, "sizes: [5] listed more than once"),
        ({**base, "protocols": []}, "protocols: must list at least one protocol"),
        ({**base, "protocols": [{"protocol": "growing"}, {"protocol": "growing"}]},
         "protocols[1]: repeats protocols[0] (growing)"),
        # distinct factors with one label would share seeds and CSV rows
        ({**base, "protocols": [
            {"protocol": "merging", "strategy": {"strategy": "scaling_factor", "f": 0.7}},
            {"protocol": "growing"},
            {"protocol": "merging", "strategy": {"strategy": "scaling_factor", "f": 0.7000001}},
        ]}, "protocols[2]: repeats protocols[0] (merging, scaling_factor=0.7)"),
        ({**base, "sampels": 5}, "sampels: unknown field"),
        ({**base, "protocols": [{"protocol": "growing", "strategy": None, "f": 1}]},
         "protocols[0].f: unknown field"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "absolute_size", "s": 4, "f": 0.7}}]},
         "protocols[0].strategy.f: unknown field"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "highest_degree", "f": 1}}]},
         "protocols[0].strategy.f: unknown field"),
        ({**base, "samples": 2**24 + 1}, "samples: must be <= 16777216, got 16777217"),
        ({**base, "shots": 10**11, "compute_fidelity": True},
         "shots: must be <= 16777216, got 100000000000"),
        ({**base, "seed": -5}, "seed: must be a 64-bit unsigned integer, got -5"),
        ({**base, "seed": 2**64}, f"seed: must be a 64-bit unsigned integer, got {2**64}"),
        # exact JSON integers past float range
        ({**base, "er_p": 10**400},
         "er_p: expected a number, got an integer too large for a float"),
        ({**base, "protocols": [{"protocol": "merging",
                                 "strategy": {"strategy": "scaling_factor", "f": 10**400}}]},
         "protocols[0].strategy.f: expected a number, got an integer too large for a float"),
        ({**base, "noise": {"p1": 10**400}},
         "noise.p1: expected a number, got an integer too large for a float"),
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


@pytest.mark.parametrize("argv, message", [
    (["layout", "--family", "er", "--n", "5", "--p", "2"], "--p: must lie in [0, 1], got 2.0"),
    (["layout", "--family", "er", "--n", "5", "--p", "nan"], "--p: must lie in [0, 1], got nan"),
    (["layout", "--family", "er", "--n", "0"], "--n: must be >= 1, got 0"),
    (["layout", "--family", "er", "--n", "5", "--seed", "-1"],
     "--seed: must be a 64-bit unsigned integer, got -1"),
    (["layout", "--family", "grid", "--rows", "0"], "--rows: must be >= 1, got 0"),
    (["layout", "--family", "grid", "--cols", "0"], "--cols: must be >= 1, got 0"),
])
def test_bad_layout_flag_usage_error(argv, message, capsys):
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_layout_size_cap_names_the_flag(monkeypatch, capsys):
    from ghz_synth import schema

    monkeypatch.setattr(schema, "MAX_N", 100)
    for argv, message in (
        (["--family", "grid", "--rows", "20", "--cols", "20"],
         "--rows: rows x cols must be <= 100, got 20x20"),
        (["--family", "er", "--n", "101"], "--n: must be <= 100, got 101"),
    ):
        assert cli_main(["layout", *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_simulate_flag_usage_error(tmp_path, capsys):
    circ = tmp_path / "c.json"
    circ.write_text(Circuit(2, 0, ()).to_json())
    for flags, message in (
        (["--shots", "0"], "--shots: must be >= 1, got 0"),
        (["--shots", "100000000000"], "--shots: must be <= 16777216, got 100000000000"),
        (["--seed", "-1"], "--seed: must be a 64-bit unsigned integer, got -1"),
        (["--seed", "18446744073709551616"],
         "--seed: must be a 64-bit unsigned integer, got 18446744073709551616"),
        (["--seed", "-1", "--noise", "0.1,0,0,0"],
         "--seed: must be a 64-bit unsigned integer, got -1"),
    ):
        assert cli_main(["simulate", "--circuit", str(circ), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    # a bad flag value is reported before any file is read
    assert cli_main(["simulate", "--circuit", str(tmp_path / "missing.json"),
                     "--shots", "0"]) == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def ghz_synth(*argv):
        return subprocess.run([sys.executable, "-m", "ghz_synth", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = ghz_synth("layout", "--family", "grid", "--rows", "2", "--cols", "2")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["n"] == 4
    bad = ghz_synth("layout", "--family", "grid", "--rows", "0")
    assert bad.returncode == 1
    assert bad.stderr == "error: --rows: must be >= 1, got 0\n"
