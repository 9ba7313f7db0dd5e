"""Regenerate perfbench/pinned.json, the reference values the checks compare to.

Run from the repository root, only when a change is meant to alter the
pinned outputs, and say so in the change:

    python3 perfbench/pin.py

Pins are taken at workloads.DEFAULT_SEED: the structural columns and the CSV
digest of each sweep, the (seed-independent) grid items, and for every noisy
fidelity item a reference fidelity from REFERENCE_CHUNKS x SHOTS shots drawn
with seeds independent of the benchmark's own.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import ghz_synth as gs  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import patched  # noqa: E402

REFERENCE_CHUNKS = 4


def sweep_pins(workload) -> dict:
    results, _ = wl.run_pass(workload)
    return {
        "structure": {key: wl.structure(r) for key, r in workload.items(results).items()},
        "csv_sha256": workload.csv_digest(results),
    }


def noisy_references(workload) -> dict:
    """Reference fidelity per noisy item, keyed like the workload's records."""
    label, cfg = workload.configs[1]
    refs = {}

    def reference(owner, attr, fn):
        if attr != "sample_counts":
            return fn

        def sample_counts(c, shots, seed, noise=None, *args, **kwargs):
            total = Counter()
            for chunk in range(REFERENCE_CHUNKS):
                total += fn(c, shots, gs.rng.derive_seed(seed, "perfbench-reference", chunk), noise)
            dist = gs.counts_to_distribution(total, REFERENCE_CHUNKS * shots)
            refs[seed] = gs.hellinger_fidelity(gs.ghz_ideal_distribution(c.qubit_count), dist)
            return fn(c, shots, seed, noise, *args, **kwargs)

        return sample_counts

    with patched(reference):
        records = gs.run_sweep(cfg, workers=1)
    return {wl.record_key(label, r): refs[r.seed] for r in records}


def main() -> None:
    pins = {}
    synth = wl.SweepSynth(wl.DEFAULT_SEED)
    pins[synth.name] = sweep_pins(synth)

    fidelity = wl.SweepFidelity(wl.DEFAULT_SEED)
    pins[fidelity.name] = sweep_pins(fidelity)
    pins[fidelity.name]["noisy_reference"] = noisy_references(fidelity)

    grid = wl.VerifyGrid(wl.DEFAULT_SEED)
    pins[grid.name] = {
        "structure": {
            key: [it.depth, it.n_2q, it.n_meas] for key, it in wl.run_pass(grid)[0].items()
        }
    }
    wl.PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.PINNED_PATH}")


if __name__ == "__main__":
    main()
