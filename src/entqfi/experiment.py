"""End-to-end experiment orchestration and file output.

A run draws ``count`` seeded states, computes concurrence, negativity,
PPT separability and REE for each, grid-optimizes the mean QFI over local
rotations (with the finer rerun where a direction stalls), then builds the
pairwise ordering censuses and counterexample witnesses.

Every byte written is a pure function of the configuration: the per-state
work depends only on ``(master_seed, index)``, floats print with a fixed
12-significant-digit positional format, and the report carries no
timestamps or timing.  Wall-clock numbers live only on the in-memory
result.  Worker-pool fan-out therefore cannot change any output file.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .measures import concurrence, is_separable, negativity, ree
from .ordering import (
    MEASURE_NAMES,
    MEASURE_RELATIONS,
    MQFI_RELATIONS,
    OrderingClass,
    PairWitness,
    StateRecord,
    _normalize_eps,
    census,
    find_counterexamples,
)
from .rotations import REFINEMENT_TRIGGER, optimize_with_refinement
from .sampling import derive_stream, random_density_matrix
from .states import EigendecompositionError

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "resolve_jobs",
    "emit_state_csv",
    "emit_plot_data",
    "emit_census_report",
    "format_value",
    "STATE_CSV_HEADER",
    "PLOT_CSV_HEADER",
]

STATE_CSV_HEADER = (
    "id,separable,concurrence,negativity,ree,ree_converged,"
    "qfi_raw,qfi_max,qfi_min,refined,max_angles,min_angles"
)
PLOT_CSV_HEADER = "measure,qfi_raw,qfi_max,qfi_min"


@dataclass(frozen=True)
class ExperimentConfig:
    count: int = 1000
    master_seed: int = 1
    grid_divisor: int = 4
    refine_divisor: int = 6
    eps_order: Mapping[str, float] = field(default_factory=dict)
    # The REE solver reads none of the ree_* fields; they and their checks
    # stay only because the benchmark (benchmarks/workloads.py) passes them.
    ree_components: int = 5
    ree_multistarts: int = 5
    ree_max_sweeps: int = 10000
    ree_threshold: float = 1e-7
    witness_limit: int = 10

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.grid_divisor < 2:
            raise ValueError("grid_divisor must be at least 2")
        if self.refine_divisor <= self.grid_divisor:
            raise ValueError("refine_divisor must exceed grid_divisor")
        if not 2 <= self.ree_components <= 5:
            raise ValueError("ree_components must lie in 2..5")
        if self.ree_multistarts < 1:
            raise ValueError("ree_multistarts must be at least 1")
        if self.ree_max_sweeps < 1:
            raise ValueError("ree_max_sweeps must be at least 1")
        if self.ree_threshold <= 0.0:
            raise ValueError("ree_threshold must be positive")
        if self.witness_limit < 1:
            raise ValueError("witness_limit must be at least 1")
        object.__setattr__(self, "eps_order", _normalize_eps(self.eps_order))


@dataclass(frozen=True)
class ExperimentResult:
    records: list[StateRecord]
    censuses: dict[str, dict[OrderingClass, int]]
    witnesses: dict[str, list[PairWitness]]
    timing: dict[str, float]
    config: ExperimentConfig

    @functools.cached_property
    def _formatted(self) -> list[tuple[StateRecord, tuple[str, str, str], str]]:
        """The records in id order, each with its three measures formatted
        and its ``qfi_raw,qfi_max,qfi_min`` cells joined, built on the first
        emit so that every value is formatted once per result."""
        return [
            (
                record,
                tuple(format_value(getattr(record, measure)) for measure in MEASURE_NAMES),
                f"{format_value(record.qfi_raw)},{format_value(record.qfi_max)},"
                f"{format_value(record.qfi_min)}",
            )
            for record in sorted(self.records, key=lambda r: r.id)
        ]


def _compute_record(task: tuple[int, ExperimentConfig]):
    """One state's record and timings; any failure names the state.

    Numerical failures keep their type; any other exception becomes a
    ``RuntimeError`` whose message carries the original type, so it still
    pickles back from a worker with the state named."""
    index, cfg = task
    where = f"state {index} (master seed {cfg.master_seed})"
    try:
        return _measure_state(index, cfg)
    except EigendecompositionError as exc:
        raise EigendecompositionError(exc.matrix, f"{where}: {exc}") from exc
    except ArithmeticError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"{where}: {type(exc).__name__}: {exc}") from exc


def _measure_state(index: int, cfg: ExperimentConfig):
    started = time.perf_counter()
    rng = derive_stream(cfg.master_seed, index)
    rho = random_density_matrix(rng)
    conc = concurrence(rho)
    neg = negativity(rho)
    separable = is_separable(rho)
    solution = ree(rho)
    measured = time.perf_counter()
    optimum = optimize_with_refinement(rho, cfg.grid_divisor, cfg.refine_divisor)
    finished = time.perf_counter()
    record = StateRecord(
        id=index,
        concurrence=conc,
        negativity=neg,
        ree=solution.value,
        separable=separable,
        ree_converged=solution.converged,
        qfi_raw=optimum.raw_value,
        qfi_max=optimum.max_value,
        qfi_min=optimum.min_value,
        max_angles=optimum.max_angles,
        min_angles=optimum.min_angles,
        refined=optimum.refined,
        base_max_value=optimum.base_max_value,
        base_min_value=optimum.base_min_value,
    )
    return record, measured - started, finished - measured


def resolve_jobs(jobs: int | None) -> int:
    """Worker processes for ``jobs``: the CPU count when None; a count below
    1 raises ``ValueError``."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


def run_experiment(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    """Full deterministic pipeline; jobs only sets worker fan-out."""
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    tasks = [(index, cfg) for index in range(cfg.count)]
    workers = min(jobs, cfg.count)
    if workers > 1:
        chunk = max(1, cfg.count // (workers * 8))
        with multiprocessing.Pool(processes=workers) as pool:
            outcomes = pool.map(_compute_record, tasks, chunksize=chunk)
    else:
        outcomes = [_compute_record(task) for task in tasks]
    records = [record for record, _, _ in outcomes]
    measure_seconds = sum(t for _, t, _ in outcomes)
    grid_seconds = sum(t for _, _, t in outcomes)
    states_done = time.perf_counter()
    censuses = census(records, cfg.eps_order)
    witnesses = {
        measure: find_counterexamples(records, measure, cfg.eps_order, cfg.witness_limit)
        for measure in MEASURE_NAMES
    }
    finished = time.perf_counter()
    timing = {
        "generation_measures": measure_seconds,
        "grid_search": grid_seconds,
        "states_wall": states_done - started,
        "census_wall": finished - states_done,
        "total_wall": finished - started,
    }
    return ExperimentResult(records, censuses, witnesses, timing, cfg)


def format_value(x: float) -> str:
    """Positional float format with 12 significant digits."""
    if x == 0.0:
        return "0.000000000000"
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x!r}")
    exponent = math.floor(math.log10(abs(x)))
    decimals = max(0, 11 - exponent)
    return "%.*f" % (decimals, x)


# One Euler angle set: six angles with six decimals, separated by ';'.
_ANGLES_FORMAT = ";".join(["%.6f"] * 6)


def _flag(value: bool) -> str:
    return "1" if value else "0"


def emit_state_csv(result: ExperimentResult, path) -> None:
    """Per-state CSV, rows ordered by id."""
    lines = [STATE_CSV_HEADER]
    lines.extend(
        f"{record.id},{_flag(record.separable)},{measures[0]},{measures[1]},{measures[2]},"
        f"{_flag(record.ree_converged)},{qfi},{_flag(record.refined)},"
        f"{_ANGLES_FORMAT % record.max_angles},{_ANGLES_FORMAT % record.min_angles}"
        for record, measures, qfi in result._formatted
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_plot_data(result: ExperimentResult, directory) -> None:
    """fig1_<measure>.csv files, rows sorted by measure value then id."""
    directory = Path(directory)
    for m, measure in enumerate(MEASURE_NAMES):
        rows = sorted(result._formatted, key=lambda row: (getattr(row[0], measure), row[0].id))
        lines = [PLOT_CSV_HEADER]
        lines.extend(f"{measures[m]},{qfi}" for _, measures, qfi in rows)
        (directory / f"fig1_{measure}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )


def unresolved_ids(records: Sequence[StateRecord]) -> list[int]:
    """States still flat against the raw value in some direction after
    the finer pass ran."""
    out = []
    for record in records:
        if not record.refined:
            continue
        stuck_up = record.qfi_max - record.qfi_raw <= REFINEMENT_TRIGGER
        stuck_down = record.qfi_raw - record.qfi_min <= REFINEMENT_TRIGGER
        if stuck_up or stuck_down:
            out.append(record.id)
    return out


def emit_census_report(result: ExperimentResult, path) -> None:
    """Plain-text census report: config echo, ensemble summary, one
    ordering table per measure, then discordant-cell witnesses."""
    cfg = result.config
    records = sorted(result.records, key=lambda r: r.id)
    lines: list[str] = []
    lines.append("# two-qubit ordering census: entanglement measures vs optimized mean QFI")
    lines.append("# qfi columns are mean QFI per particle; range [0, 2], shot noise at 1")
    lines.append("")
    lines.append(f"states={cfg.count}")
    lines.append(f"master_seed={cfg.master_seed}")
    lines.append(f"grid_divisor={cfg.grid_divisor}")
    lines.append(f"refine_divisor={cfg.refine_divisor}")
    for key in ("concurrence", "negativity", "ree", "mqfi"):
        lines.append(f"eps_{key}={cfg.eps_order[key]:.12g}")
    lines.append(f"witness_limit={cfg.witness_limit}")
    lines.append("")
    separable_count = sum(1 for r in records if r.separable)
    improved_max = sum(1 for r in records if r.base_max_value - r.qfi_raw > REFINEMENT_TRIGGER)
    improved_min = sum(1 for r in records if r.qfi_raw - r.base_min_value > REFINEMENT_TRIGGER)
    stuck = unresolved_ids(records)
    lines.append(f"separable_count={separable_count}")
    lines.append(f"entangled_count={len(records) - separable_count}")
    lines.append(f"ree_nonconverged_count={sum(1 for r in records if not r.ree_converged)}")
    lines.append(f"improved_max_count={improved_max}")
    lines.append(f"improved_min_count={improved_min}")
    lines.append(f"refined_count={sum(1 for r in records if r.refined)}")
    lines.append(f"unresolved_count={len(stuck)}")
    lines.append("unresolved_ids=" + ";".join(str(i) for i in stuck))
    lines.append(f"pairs_total={len(records) * (len(records) - 1) // 2}")
    for measure in MEASURE_NAMES:
        lines.append("")
        lines.append(f"[census {measure}]")
        lines.append(
            f"{'relation':<15}{'mqfi-greater':>14}{'mqfi-equal':>14}{'mqfi-less':>14}"
        )
        table = result.censuses[measure]
        for relation in MEASURE_RELATIONS:
            row = "".join(
                f"{table[OrderingClass(relation, mqfi)]:>14}" for mqfi in MQFI_RELATIONS
            )
            lines.append(f"{relation:<15}{row}")
    for measure in MEASURE_NAMES:
        lines.append("")
        lines.append(f"[witnesses {measure}]")
        for witness in result.witnesses[measure]:
            lines.append(
                f"cell={witness.ordering.measure_relation}/{witness.ordering.mqfi_relation}"
                f" id_1={witness.id_1} id_2={witness.id_2}"
                f" measure_1={format_value(witness.values[0])}"
                f" measure_2={format_value(witness.values[1])}"
                f" mqfi_1={format_value(witness.values[2])}"
                f" mqfi_2={format_value(witness.values[3])}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
