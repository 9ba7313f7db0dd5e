"""Command-line interface.

Subcommands: layout, synth, simulate, bench, verify. Exit codes: 0 success,
1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import layouts, schema, selfcheck
from .bench import ProtocolSpec, SweepConfig, run_sweep, write_outputs
from .circuit import Circuit, count_2q, count_measurements, depth, export_qasm
from .merging import strategy_from_label
from .metrics import (
    counts_to_distribution,
    ghz_ideal_distribution,
    hellinger_fidelity,
    is_ghz,
)
from .rng import check_seed
from .stabilizer import NoiseModel, run, sample_counts


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_noise(text: str) -> NoiseModel:
    """p1,p2,pm,pr as a NoiseModel; any bad value is a usage error."""
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--noise expects four comma-separated values: p1,p2,pm,pr")
    return _usage("--noise: ", lambda: NoiseModel(*map(float, parts)))


def _usage(prefix: str, make, *args):
    """make(*args); a ValueError it raises is a usage error, its message after prefix.

    A range error of a layout or simulation parameter starts with the
    parameter's name, which is its flag's name, so "--" names the flag.
    """
    try:
        return make(*args)
    except ValueError as exc:
        raise _UsageError(f"{prefix}{exc}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="ghz-synth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="generate a connectivity layout as JSON")
    p_layout.add_argument("--family", required=True, choices=["eagle", "grid", "er"])
    p_layout.add_argument("--rows", type=int, default=12)
    p_layout.add_argument("--cols", type=int, default=9)
    p_layout.add_argument("--n", type=int, help="node count (er family)")
    p_layout.add_argument("--p", type=float, default=0.5, help="edge probability (er)")
    p_layout.add_argument("--seed", type=int, default=0)
    p_layout.add_argument("--out", help="output path (default: stdout)")
    p_layout.set_defaults(run=_cmd_layout)

    p_synth = sub.add_parser("synth", help="synthesize a GHZ preparation circuit")
    p_synth.add_argument("--protocol", required=True, choices=["merge", "grow"])
    p_synth.add_argument(
        "--strategy",
        help="highest_degree (default) | scaling_factor=<f> | absolute_size=<s> (merge only)",
    )
    p_synth.add_argument("--layout", required=True, help="layout JSON file")
    p_synth.add_argument("--out", help="write circuit JSON here")
    p_synth.add_argument("--qasm", help="write OpenQASM 3 here")
    p_synth.set_defaults(run=_cmd_synth)

    p_sim = sub.add_parser("simulate", help="sample a circuit on the stabilizer simulator")
    p_sim.add_argument("--circuit", required=True, help="circuit JSON file")
    p_sim.add_argument("--shots", type=int, default=4096)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--noise", help="p1,p2,pm,pr")
    p_sim.set_defaults(run=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out-dir", required=True)
    p_bench.set_defaults(run=_cmd_bench)

    p_verify = sub.add_parser("verify", help="run the built-in property suite on small instances")
    p_verify.set_defaults(run=_cmd_verify)
    return parser


def _cmd_layout(args) -> int:
    if args.family == "eagle":
        g = layouts.eagle_127()
    elif args.family == "grid":
        g = _usage("--", layouts.rect_grid, args.rows, args.cols)
    else:
        if args.n is None:
            raise _UsageError("--n is required for the er family")
        g = _usage("--", layouts.connected_erdos_renyi, args.n, args.p, args.seed)
    text = g.to_json()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_synth(args) -> int:
    label = args.strategy
    if label is None and args.protocol == "merge":
        label = "highest_degree"
    # a bad label's error names it already
    strategy = None if label is None else _usage("--strategy: ", strategy_from_label, label)
    protocol = "merging" if args.protocol == "merge" else "growing"
    spec = _usage(f"--strategy: {label!r}: ", ProtocolSpec, protocol, strategy)
    with open(args.layout) as f:
        g = layouts.LayoutGraph.from_json(f.read())
    circ = spec.synthesize(g)
    if args.out:
        with open(args.out, "w") as f:
            f.write(circ.to_json() + "\n")
    if args.qasm:
        with open(args.qasm, "w") as f:
            f.write(export_qasm(circ))
    print(
        f"qubits={circ.qubit_count} depth={depth(circ)} "
        f"cx={count_2q(circ)} measurements={count_measurements(circ)}"
    )
    return 0


def _cmd_simulate(args) -> int:
    noise = _parse_noise(args.noise) if args.noise else None
    _usage("--", schema.check_count, args.shots, "shots")
    _usage("--", check_seed, args.seed)
    with open(args.circuit) as f:
        circ = Circuit.from_json(f.read())
    counts = sample_counts(circ, args.shots, args.seed, noise)
    n = circ.qubit_count
    fid = hellinger_fidelity(
        ghz_ideal_distribution(n), counts_to_distribution(counts, args.shots)
    )
    for key in sorted(counts):
        print(f"{key} {counts[key]}")
    print(f"hellinger_fidelity_vs_ghz {fid:.6f}")
    if noise is None:
        outcome = run(circ, args.seed)
        print(f"is_ghz {is_ghz(outcome.tableau, n)}")
    return 0


def _cmd_bench(args) -> int:
    with open(args.config) as f:
        cfg = SweepConfig.from_json(f.read())
    records = run_sweep(cfg)
    raw_path, agg_path = write_outputs(records, args.out_dir)
    print(f"wrote {len(records)} records to {raw_path} and {agg_path}")
    return 0


def _cmd_verify(args) -> int:
    results = selfcheck.run_all()
    failures = 0
    for name, ok, reason in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f": {reason}" if reason else ""))
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # argparse exits itself on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
