"""Command line entry point: run the experiment and write all outputs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    resolve_jobs,
    run_experiment,
)

STATE_CSV_NAME = "states.csv"
REPORT_NAME = "census.txt"


def _eps_pair(text: str) -> tuple[str, float]:
    """Split ``measure=value``; ``ExperimentConfig`` checks key and value."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected measure=value, got {text!r}")
    try:
        return key, float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entqfi",
        description=(
            "Generate seeded random two-qubit states, compute entanglement "
            "measures and rotation-optimized mean QFI, and write the per-state "
            "CSV, plot data and ordering census."
        ),
    )
    parser.add_argument("--states", type=int, default=1000, metavar="N",
                        help="ensemble size (default 1000)")
    parser.add_argument("--seed", type=int, default=1, metavar="S",
                        help="master seed (default 1)")
    parser.add_argument("--grid-divisor", type=int, default=4, metavar="K",
                        help="base grid step 2*pi/K (default 4)")
    parser.add_argument("--refine-divisor", type=int, default=6, metavar="K2",
                        help="refinement grid step 2*pi/K2 (default 6)")
    parser.add_argument("--eps-order", type=_eps_pair, action="append", default=[],
                        metavar="MEASURE=VALUE",
                        help="ordering tolerance override, repeatable "
                             "(keys: concurrence, negativity, ree, mqfi)")
    parser.add_argument("--witness-limit", type=int, default=10, metavar="L",
                        help="witnesses kept per discordant cell (default 10)")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default ./out)")
    parser.add_argument("--jobs", type=int, default=None, metavar="J",
                        help="worker processes (default: CPU count)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig(
            count=args.states,
            master_seed=args.seed,
            grid_divisor=args.grid_divisor,
            refine_divisor=args.refine_divisor,
            eps_order=dict(args.eps_order),
            witness_limit=args.witness_limit,
        )
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        print(f"entqfi: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(config, jobs=jobs)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_state_csv(result, out_dir / STATE_CSV_NAME)
        emit_plot_data(result, out_dir)
        emit_census_report(result, out_dir / REPORT_NAME)
    except OSError as exc:
        print(f"entqfi: I/O error: {exc}", file=sys.stderr)
        return 1
    separable = sum(1 for record in result.records if record.separable)
    print(f"states={config.count} separable={separable} out={out_dir}")
    print(
        "wall seconds: states={:.1f} census={:.1f} total={:.1f}".format(
            result.timing["states_wall"],
            result.timing["census_wall"],
            result.timing["total_wall"],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
