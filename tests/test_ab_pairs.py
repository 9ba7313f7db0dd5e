"""tools/ab_pairs.py: the alternated-pairs comparison behind the speed tables."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_a_higher_is_better_metric(tool):
    s = tool.summary([100, 110, 90, 105, 95], [120, 115, 100, 130, 90], higher_is_better=True)
    assert s["parent"] == (100, 95, 105)
    assert s["change"] == (115, 100, 120)
    assert s["parent_iqr_pct"] == pytest.approx(10.0)
    assert s["worse_by_pct"] == pytest.approx(-15.0)
    assert (s["wins"], s["pairs"]) == (4, 5)
    assert tool.table_row("sweep-synth", "items_per_s", s) == (
        "| sweep-synth | `items_per_s` | 100 [95, 105] | 10.0 % | 115 [100, 120] "
        "| -15.0 % | 4/5 | unresolved |")


def test_summary_of_a_lower_is_better_metric_with_a_tie(tool):
    # inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25; the pair (1, 1) is a tie
    s = tool.summary([1, 2, 3, 4], [1, 1, 4, 3], higher_is_better=False)
    assert s["parent"] == (2.5, 1.75, 3.25)
    assert s["change"] == (2, 1, 3.25)
    assert s["parent_iqr_pct"] == pytest.approx(60.0)
    assert s["worse_by_pct"] == pytest.approx(-20.0)
    assert s["wins"] == 2


# ten pairs of a higher-is-better metric, each list's quartiles 99.25 and 100.75
PARENT = [98, 99, 100, 101, 102, 100, 99, 101, 100, 100]


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound(tool):
    # parent IQR 1.5 % over a 1 % bound; one change run (99) is below a parent run
    s = tool.summary(PARENT, [103, 104, 105, 106, 107, 105, 99, 106, 105, 105], True, bound=0.01)
    assert s["verdict"] == "unresolved"
    # the same change, every run above every parent run, is resolved
    s = tool.summary(PARENT, [103, 104, 105, 106, 107, 105, 103, 106, 105, 105], True, bound=0.01)
    assert s["verdict"] == "gain"


def test_verdict_worse_past_the_bound(tool):
    s = tool.summary(PARENT, [x - 30 for x in PARENT], True, bound=0.25)
    assert s["worse_by_pct"] == pytest.approx(30.0) and s["verdict"] == "worse"


def test_verdict_gain_needs_nine_tenths_of_the_pairs(tool):
    # 2 % better in the median, past the parent's 1.5 % IQR, in 9 of 10 pairs
    change = [x + 2 for x in PARENT[:9]] + [PARENT[9] - 1]
    s = tool.summary(PARENT, change, True, bound=0.25)
    assert (s["wins"], s["verdict"]) == (9, "gain")
    # 2.5 % better in the median, but in 8 of 10 pairs
    change = [x + 3 for x in PARENT[:8]] + [PARENT[8] - 1, PARENT[9] - 1]
    s = tool.summary(PARENT, change, True, bound=0.25)
    assert s["worse_by_pct"] == pytest.approx(-2.5)
    assert (s["wins"], s["verdict"]) == (8, "same")


def test_verdict_same_within_the_bound_and_the_spread(tool):
    # 1 % worse in the median: within the 25 % bound, and no gain
    s = tool.summary(PARENT, [x - 1 for x in PARENT], True, bound=0.25)
    assert s["worse_by_pct"] == pytest.approx(1.0) and s["verdict"] == "same"


def test_single_pair_has_its_run_as_every_quartile(tool):
    assert tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _checkout(root: Path, name: str, log: Path, last_line: dict) -> Path:
    """A directory whose perfbench/run.py logs its name and prints last_line."""
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "items_per_s", "better": "higher", "bound": 0.25}]}))
    (checkout / "perfbench" / "run.py").write_text(
        f"import json\nopen({str(log)!r}, 'a').write({name!r} + '\\n')\n"
        f"print('# human line')\nprint(json.dumps({last_line!r}))\n")
    return checkout


def _result(items_per_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"}}}


def test_pairs_alternate_which_side_runs_first(tool, tmp_path, capsys):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path, "parent", log, _result(10.0))
    change = _checkout(tmp_path, "change", log, _result(12.0))
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "w", "--pairs", "3", "--seconds", "1"]) == 0
    assert log.read_text().split() == ["parent", "change", "change", "parent", "parent", "change"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "| w | `items_per_s` | 10 [10, 10] | 0.0 % | 12 [12, 12] | -20.0 % | 3/3 | gain |")


@pytest.mark.parametrize("last_line", [_result(12.0, correct=False), _result(12.0, failed=1)])
def test_a_run_that_is_not_correct_is_refused(tool, tmp_path, last_line):
    log = tmp_path / "order.log"
    parent = _checkout(tmp_path, "parent", log, _result(10.0))
    change = _checkout(tmp_path, "change", log, last_line)
    with pytest.raises(SystemExit, match="run refused"):
        tool.main(["--parent", str(parent), "--change", str(change),
                   "--workload", "w", "--pairs", "1", "--seconds", "1"])
