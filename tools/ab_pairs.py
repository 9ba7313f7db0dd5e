"""Compare two checkouts on perfbench workloads by alternated pairs of runs.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload W[,W...] \\
        --pairs N --seconds S

Each pair runs `python3 DIR/perfbench/run.py --workload W --seed 0
--seconds S --trace 0` once in each checkout, from that checkout's root,
and the side that runs first alternates from one pair to the next. A run
whose last line is not a JSON object with `correct` true and `failed` 0 is
refused, and the comparison stops. Each end-to-end metric of
`BENCHMARK.json` (read from the change's checkout, for its direction and
bound) is then printed as one row of a Markdown table: each side's median
and inclusive quartiles, the parent's spread between quartiles as a share
of its median, how much worse the change's median is (positive when worse),
the number of pairs the change won, ties counting for neither, and a
verdict, the first of these that holds:

- unresolved: the parent's spread exceeds the bound, and not every change
  run beats every parent run;
- worse: the change's median is worse by more than the bound;
- gain: the change won at least nine tenths of the pairs, and its median
  is better by more than the parent's spread;
- same: anything else.

The tool only reads the two checkouts; it writes nothing into them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEADER = ("| workload | metric | parent median [Q1, Q3] | parent IQR "
          "| change median [Q1, Q3] | change worse by | change wins | verdict |\n"
          "|---|---|---|---|---|---|---|---|")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) by the inclusive method; all three are the value of a single run."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(parent: list[float], change: list[float], higher_is_better: bool,
            bound: float = 0.0) -> dict:
    """The table's numbers for one metric; parent[i] and change[i] are pair i's runs.

    bound is the metric's BENCHMARK.json bound, a share of the parent's
    median; the default 0 leaves no slack.
    """
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = -1 if higher_is_better else 1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    iqr_pct = 100 * (p3 - p1) / pm
    worse_pct = 100 * sign * (cm - pm) / pm
    if iqr_pct > 100 * bound and not all(sign * (c - p) < 0 for p in parent for c in change):
        verdict = "unresolved"
    elif worse_pct > 100 * bound:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and -worse_pct > iqr_pct:
        verdict = "gain"
    else:
        verdict = "same"
    return {
        "parent": (pm, p1, p3), "change": (cm, c1, c3),
        "parent_iqr_pct": iqr_pct, "worse_by_pct": worse_pct,
        "wins": wins, "pairs": len(parent), "verdict": verdict,
    }


def table_row(workload: str, metric: str, s: dict) -> str:
    def spread(median, q1, q3):
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    return (f"| {workload} | `{metric}` | {spread(*s['parent'])} | {s['parent_iqr_pct']:.1f} % "
            f"| {spread(*s['change'])} | {s['worse_by_pct']:+.1f} % | {s['wins']}/{s['pairs']} "
            f"| {s['verdict']} |")


def run_once(checkout: Path, workload: str, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one perfbench run; SystemExit if it is not correct."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not (isinstance(result, dict) and result.get("correct") is True
            and result.get("failed") == 0):
        raise SystemExit(f"{checkout} {workload}: run refused (exit {proc.returncode}): "
                         f"{lines[-1] if lines else proc.stderr.strip()[-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    workloads = args.workload.split(",")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    runs = {(w, side): [] for w in workloads for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                metrics = run_once(sides[side], w, args.seconds)
                runs[w, side].append(metrics)
                print(f"# pair {pair} {w} {side}: {json.dumps(metrics)}", file=sys.stderr)
    print(HEADER)
    for w in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [m[name] for m in runs[w, "parent"]]
            change = [m[name] for m in runs[w, "change"]]
            s = summary(parent, change, metric["better"] == "higher", metric["bound"])
            print(table_row(w, name, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
