"""Command line entry point: run the experiment and write all outputs."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    run_experiment,
)
from .states import EigendecompositionError

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
    # Each dest is an ExperimentConfig field, whose default it takes.
    defaults = ExperimentConfig
    parser.add_argument("--states", dest="count", type=int, default=defaults.count,
                        metavar="N", help="ensemble size (default %(default)s)")
    parser.add_argument("--seed", dest="master_seed", type=int,
                        default=defaults.master_seed, metavar="S",
                        help="master seed (default %(default)s)")
    parser.add_argument("--eps-order", type=_eps_pair, action="append", default=[],
                        metavar="MEASURE=VALUE",
                        help="ordering tolerance override, repeatable "
                             "(keys: concurrence, negativity, ree, mqfi)")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default ./out)")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    out_dir = Path(args.pop("out"))
    try:
        config = ExperimentConfig(**args)
    except ValueError as exc:
        print(f"entqfi: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(config)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_started = time.perf_counter()
        emit_state_csv(result, out_dir / STATE_CSV_NAME)
        emit_plot_data(result, out_dir)
        emit_census_report(result, out_dir / REPORT_NAME)
        emit_wall = time.perf_counter() - emit_started
    except OSError as exc:
        print(f"entqfi: I/O error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, EigendecompositionError, RuntimeError) as exc:
        # A failure in one state's work; its message names the state.
        print(f"entqfi: {exc}", file=sys.stderr)
        return 1
    separable = sum(1 for record in result.records if record.separable)
    print(f"states={config.count} separable={separable} out={out_dir}")
    # total= covers the run, not emit=, the three file writers.
    print(
        "wall seconds: states={states_wall:.3f} census={census_wall:.3f}"
        " total={total_wall:.3f} sampling={sampling_wall:.3f}"
        " closed-forms={closed_forms_wall:.3f} rotations={rotations_wall:.3f}"
        " ree={ree_wall:.3f} emit={emit_wall:.3f}".format(**result.timing, emit_wall=emit_wall)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
