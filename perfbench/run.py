"""ghz-synth benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root; the program is imported from ./src:

    python3 perfbench/run.py --workload sweep-synth --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

A run sets up, then makes a fixed number of identical passes of the
workload (all in this process, `run_sweep(..., workers=1)`), as many as
take about `--seconds` at baseline, then checks every pass. `--trace 0`
reports the end-to-end metrics; `--trace 1` alternates untraced and traced
passes and reports per-layer metrics per traced pass. Human-readable lines
come first; the last line of standard output is one JSON object with keys
correct, attempted, failed and metrics.
`--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-synth", "sweep-fidelity", "verify-grid")
SETUP_REPEATS = 11
# Seconds of passes after which a run stops early, so that it exits within
# 180 s even on a commit several times slower than the nominal pass times.
MEASURE_CAP_S = 120.0
MAX_NOTES = 20

# Times a fresh interpreter from before `import ghz_synth` to the end of the
# warm-up item; interpreter start-up itself is not the program's cost.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def git_revision() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def setup_seconds(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return min(times)


def pass_count(workload, seconds: float) -> int:
    """Untraced passes a run makes. It depends on `--seconds` and the
    workload's nominal pass time only, never on how fast this run goes, so
    that commits compared at the same `--seconds` take the best of the same
    number of repetitions."""
    return max(1, int(seconds / workload.nominal_pass_s))


def measure(workload, seconds: float, trace: bool):
    """Run pass_count passes, or with trace half as many untraced/traced
    pairs whose order alternates, so drift in machine speed does not bias
    the overhead estimate. A run stops early only past MEASURE_CAP_S, so it
    still ends in time on a much slower commit. Only the first pass's
    results are kept; every pass is recorded as (keys of items differing
    from the first pass, chunk seconds, traced).
    Returns (first results, passes, passes planned, tracer, error)."""
    from tracer import Tracer
    from workloads import changed_items, run_pass

    tracer = Tracer() if trace else None
    first, passes = None, []
    planned = pass_count(workload, seconds)
    units = -(-planned // 2) if trace else planned
    planned = 2 * units if trace else units
    start = time.perf_counter()
    for unit in range(units):
        if unit and time.perf_counter() - start > MEASURE_CAP_S:
            break
        for traced in ((False, True) if unit % 2 == 0 else (True, False)) if trace else (False,):
            try:
                if traced:
                    with tracer.active():
                        results, chunk_s = run_pass(workload)
                else:
                    results, chunk_s = run_pass(workload)
            except Exception:
                return first, passes, planned, tracer, traceback.format_exc()
            if first is None:
                first = results
            passes.append((changed_items(workload, first, results), chunk_s, traced))
    return first, passes, planned, tracer, None


def best_chunk_seconds(passes, traced: bool) -> dict:
    """Fastest repetition of each chunk over the run's passes of one kind."""
    runs = [chunk_s for _, chunk_s, t in passes if t == traced]
    return {key: min(r[key] for r in runs) for key in runs[0]} if runs else {}


def layer_metrics(tracer, passes, counters) -> dict:
    from tracer import SPAN_NAMES

    walls = [sum(chunk_s.values()) for _, chunk_s, traced in passes if traced]
    k = len(walls)
    table = tracer.layer_table()
    m = {}
    for name in SPAN_NAMES:
        row = table[name]
        m[f"{name}.calls"] = (row["calls"] / k, "count")
        m[f"{name}.busy_s"] = (row["busy_s"] / k, "s")
        m[f"{name}.self_s"] = (row["self_s"] / k, "s")
    for name, value in counters.items():
        m[name] = (value, "count")
    sim_s = sum(
        table[name]["busy_s"] for name in (
            "stabilizer.run", "stabilizer.sample_counts.noisy",
            "stabilizer.sample_counts.noiseless",
        )
    ) / k
    shot_ops = counters["stabilizer.shot_ops"]
    m["stabilizer.ns_per_shot_op"] = (sim_s * 1e9 / shot_ops if shot_ops else 0.0, "ns")
    m["trace.wall_s"] = (statistics.fmean(walls), "s")
    m["trace.overhead_s"] = (
        sum(best_chunk_seconds(passes, True).values())
        - sum(best_chunk_seconds(passes, False).values()),
        "s",
    )
    m["trace.unattributed_s"] = ((sum(walls) - tracer.root_seconds()) / k, "s")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy

    import ghz_synth
    import workloads

    if Path(ghz_synth.__file__).resolve().parent != SRC / "ghz_synth":
        print(f"error: imported ghz_synth from {ghz_synth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.setup(name, seed)
    setup_s = None if trace else setup_seconds(name, seed)

    first, passes, planned, tracer, error = measure(workload, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = workload.items_per_pass * (len(passes) + (error is not None))
    failed = workload.items_per_pass if error else 0
    report = None
    check_s = time.perf_counter()
    if passes:
        try:
            report = workload.check(first)
            failed += sum(len(report.bad | changed) for changed, _, _ in passes)
        except Exception:
            report, failed = None, attempted
            error = (error or "") + traceback.format_exc()
    check_s = time.perf_counter() - check_s
    best = best_chunk_seconds(passes, False)
    best_pass_s = sum(best.values())
    walls = [sum(chunk_s.values()) for _, chunk_s, traced in passes if not traced]

    print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(
        f"# provenance python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} git={git_revision()} seed={seed} workers=1 "
        "GHZ_SYNTH_THREADS=not-consulted(run_sweep is called with workers=1)"
    )
    print(f"# passes={len(passes)} of {planned} planned"
          + ("" if error or len(passes) == planned else f" (stopped past {MEASURE_CAP_S:g} s)"))
    print(f"# untraced passes={len(walls)} items_per_pass={workload.items_per_pass} "
          f"best_pass_s={best_pass_s:.6f} "
          f"median_pass_s={statistics.median(walls) if walls else 0.0:.6f} check_s={check_s:.3f}")
    end_to_end = {"items_per_s": (workload.items_per_pass / best_pass_s if best else 0.0, "1/s")}
    if setup_s is not None:
        end_to_end["setup_s"] = (setup_s, "s")
    end_to_end["peak_rss_mb"] = (peak_rss_mb, "MiB")
    if best:
        end_to_end.update(workload.extra_metrics(best))
    for metric, (value, unit) in end_to_end.items():
        print(f"metric {metric} = {value!r} {unit}")
    print(f"metric failed_frac = {failed / attempted!r} ({failed} of {attempted} items)")
    if report is not None:
        for counter, value in report.counters.items():
            print(f"counter {counter} = {value}")
        for key, value in report.info.items():
            print(f"info {key} = {value}")
        for note in report.notes[:MAX_NOTES]:
            print(f"FAIL {note}")
    if error:
        print(error, file=sys.stderr)

    if trace:
        traced = any(t for _, _, t in passes) and report is not None
        metrics = layer_metrics(tracer, passes, report.counters) if traced else {}
        for metric, (value, unit) in metrics.items():
            print(f"layer {metric} = {value!r} {unit}")
    else:
        metrics = {k: end_to_end[k] for k in ("items_per_s", "setup_s", "peak_rss_mb")}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    if not (SRC / "ghz_synth" / "__init__.py").is_file():
        print(f"error: no ghz_synth package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
