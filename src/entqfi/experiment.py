"""End-to-end experiment orchestration and file output.

A run draws ``count`` seeded states, computes concurrence, negativity,
PPT separability and REE for each, grid-optimizes the mean QFI over local
rotations (with the finer rerun where a direction stalls), then builds the
pairwise ordering censuses and counterexample witnesses, all from one scan
of the pairs.  The states are measured a chunk at a time, every layer on
stacked kernels: REE's face polish and its certificate run over the
chunk's entangled states at once, and the barrier fallback per state.

Every byte written is a pure function of the configuration: the per-state
work depends only on ``(master_seed, index)``, not on the chunk, floats
print with a fixed 12-significant-digit positional format, and the report
carries no timestamps or timing.  Wall-clock numbers live only on the
in-memory result.  A run is one process, which measures the chunks one
after another.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

# concurrence, negativity, is_separable, random_density_matrix, census and
# find_counterexamples stay importable here for benchmarks/workloads.py, which
# calls them through this module.
from .fisher import _spin_qfi_matrices
from .measures import (
    _check_cross_measure_bounds,
    _concurrences,
    _negativities,
    _ppt,
    _pt_eigh,
    _ree_inputs,
    concurrence,
    is_separable,
    negativity,
    ree,
)
from .ordering import (
    DEFAULT_WITNESS_LIMIT,
    MEASURE_NAMES,
    MEASURE_RELATIONS,
    MQFI_RELATIONS,
    OrderingClass,
    PairWitness,
    StateRecord,
    _normalize_eps,
    census,
    census_and_witnesses,
    find_counterexamples,
)
from .rotations import DEFAULT_BASE_DIVISOR, DEFAULT_REFINE_DIVISOR, _optimize, stalled
from .sampling import _density_matrices, derive_stream, random_density_matrix
from .states import EigendecompositionError, herm_eig

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
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

# States measured by one pass of the stacked kernels: a 1000-state run is four
# chunks of 250.
_CHUNK_STATES = 256
# The timing keys of the chunk pass's layers: sampling; concurrence and
# negativity, with the one spectrum of rho that G shares and the one eigh of
# rho^G that REE's face start shares; the rotation scan with G; and REE, its
# stacked face polish and certificate.
_LAYER_TIMES = ("sampling_wall", "closed_forms_wall", "rotations_wall", "ree_wall")


@dataclass(frozen=True)
class ExperimentConfig:
    count: int = 1000
    master_seed: int = 1
    eps_order: Mapping[str, float] = field(default_factory=dict)
    # Not settings: the run reads the module constants, and the REE solver
    # ignores ree_*; benchmarks/workloads.py and benchmarks/tracing.py read them.
    grid_divisor = DEFAULT_BASE_DIVISOR
    refine_divisor = DEFAULT_REFINE_DIVISOR
    witness_limit = DEFAULT_WITNESS_LIMIT
    ree_components = 5
    ree_multistarts = 5
    ree_max_sweeps = 10000
    ree_threshold = 1e-7

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
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
        in ``MEASURE_NAMES`` order and its ``qfi_raw,qfi_max,qfi_min`` cells
        joined, built on the first emit so that every value is formatted
        once per result."""
        fmt = format_value
        return [
            (
                record,
                (fmt(record.concurrence), fmt(record.negativity), fmt(record.ree)),
                f"{fmt(record.qfi_raw)},{fmt(record.qfi_max)},{fmt(record.qfi_min)}",
            )
            for record in sorted(self.records, key=lambda r: r.id)
        ]


def _compute_record(index: int, cfg: ExperimentConfig) -> tuple[StateRecord, dict[str, float]]:
    """One state as a chunk of one; any failure names the state.

    Numerical failures keep their type; any other exception becomes a
    ``RuntimeError`` whose message carries the original type."""
    where = f"state {index} (master seed {cfg.master_seed})"
    try:
        (record,), layers = _measure_chunk(range(index, index + 1), cfg)
    except EigendecompositionError as exc:
        raise EigendecompositionError(exc.matrix, f"{where}: {exc}") from exc
    except ArithmeticError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"{where}: {type(exc).__name__}: {exc}") from exc
    return record, layers


def _compute_chunk(
    indices: range, cfg: ExperimentConfig
) -> tuple[list[StateRecord], dict[str, float]]:
    """One chunk's records and its seconds per layer.

    A stacked kernel fails for its whole stack, and a range rule or a bound
    checked over a stacked pass does not name its state either, so a chunk
    that fails reruns state by state: the first failing state raises, named."""
    try:
        return _measure_chunk(indices, cfg)
    except Exception:
        results = [_compute_record(index, cfg) for index in indices]
    layers = {name: sum(layer[name] for _, layer in results) for name in _LAYER_TIMES}
    return [record for record, _ in results], layers


def _measure_chunk(
    indices: range, cfg: ExperimentConfig
) -> tuple[list[StateRecord], dict[str, float]]:
    """The records of one chunk of states and the wall seconds of each layer.

    Each state draws from its own stream.  The Haar QR, one ``herm_eig`` of
    the rho stack (for the concurrence and G), one ``eigh`` of the rho^G
    stack (for ``separable``, the negativity and REE's face start), G, both
    grid passes with their read-off, and REE's face polish and certificate
    over the entangled rows run stacked, in ``measures._ree_inputs``, which
    ``ree_wall`` times with a ``ree`` call per state that hands back its
    solution, and with the check of the entangled rows against the bounds
    between their measures.  No number depends on the chunk."""
    started = time.perf_counter()
    rhos = _density_matrices([derive_stream(cfg.master_seed, index) for index in indices])
    sampled = time.perf_counter()
    spectra, pt_spectra = herm_eig(rhos), _pt_eigh(rhos)
    lowest = pt_spectra[0][:, 0]
    concurrences, negativities = _concurrences(spectra), _negativities(lowest)
    measured = time.perf_counter()
    optima = _optimize(_spin_qfi_matrices(spectra))
    rotated = time.perf_counter()
    solutions = [
        ree(rho, measured=solution)
        for rho, solution in zip(rhos, _ree_inputs(rhos, spectra, pt_spectra))
    ]
    _check_cross_measure_bounds(concurrences, negativities, solutions)
    solved = time.perf_counter()
    records = [
        StateRecord(
            id=index,
            concurrence=conc,
            negativity=neg,
            ree=solution.value,
            separable=_ppt(low),
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
        for index, low, conc, neg, solution, optimum in zip(
            indices, lowest, concurrences, negativities, solutions, optima
        )
    ]
    seconds = (sampled - started, measured - sampled, rotated - measured, solved - rotated)
    return records, dict(zip(_LAYER_TIMES, seconds))


def _chunks(count: int) -> list[range]:
    """``range(count)`` in the fewest chunks of at most ``_CHUNK_STATES``,
    whose sizes differ by at most one."""
    chunks = math.ceil(count / _CHUNK_STATES)
    cuts = [k * count // chunks for k in range(chunks + 1)]
    return [range(start, stop) for start, stop in zip(cuts, cuts[1:])]


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Full deterministic pipeline, run in this process a chunk at a time.

    ``timing`` holds the wall seconds of the state work, the one scan of
    the pairs for the census and the witnesses, and the whole run, and the
    ``_LAYER_TIMES`` of the chunk passes, summed over chunks.  ``jobs`` is
    not a setting: it is kept for ``benchmarks/workloads.py``, which passes
    1, and any other value raises ``ValueError``."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}: a run is one process")
    started = time.perf_counter()
    results = [_compute_chunk(chunk, cfg) for chunk in _chunks(cfg.count)]
    records = [record for chunk_records, _ in results for record in chunk_records]
    states_done = time.perf_counter()
    censuses, witnesses = census_and_witnesses(records, cfg.eps_order)
    finished = time.perf_counter()
    timing = {
        "states_wall": states_done - started,
        "census_wall": finished - states_done,
        "total_wall": finished - started,
    }
    for name in _LAYER_TIMES:
        timing[name] = sum(layers[name] for _, layers in results)
    return ExperimentResult(records, censuses, witnesses, timing, cfg)


def format_value(x: float) -> str:
    """Positional float format with 12 significant digits."""
    if 1e-4 <= abs(x) < 1e10:
        # Here %g prints positionally with 11 - exp decimals, exp the decimal
        # exponent after rounding to 12 digits, and '#' keeps trailing zeros.
        # Below 1e-4 %g switches to exponent form; from 1e10 up a value can
        # round to exponent 11, where '#' would print a trailing '.'.
        return "%#.12g" % x
    if x == 0.0:
        return "0.000000000000"
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x!r}")
    exponent = math.floor(math.log10(abs(x)))
    decimals = max(0, 11 - exponent)
    text = "%.*f" % (decimals, x)
    # Rounding can carry into the next decade (0.9999999999999999 would read
    # 1.000000000000); one decimal fewer then keeps 12 significant digits.
    # A carry leaves the digits 1000000000000, so only a text ending in 0
    # needs the digit count.
    if decimals and text[-1] == "0" and len(text.lstrip("-0.").replace(".", "")) > 12:
        text = "%.*f" % (decimals - 1, x)
    return text


# One Euler angle set: six angles with six decimals, separated by ';'.
_ANGLES_FORMAT = ";".join(["%.6f"] * 6)


def _flag(value: bool) -> str:
    return "1" if value else "0"


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write the lines, each ended by a newline, to the file at path.  An old
    file there is written over in place, opened without ``O_TRUNC``, and
    then truncated to the new length, so a rerun frees none of its blocks
    but those past the new end: where the old blocks are on disk, freeing
    them (an unlink or a truncation to 0) took 35-65 ms per 150 kB file on a
    root mount with ``discard``.  The file keeps its inode, so a hard link
    to it reads the new bytes."""
    # The buffered write repeats a short write until every byte is written.
    with open(path, "wb", opener=_open_in_place) as file:
        file.write(("\n".join(lines) + "\n").encode("utf-8"))
        file.truncate()


def _open_in_place(name, flags: int) -> int:
    """``open``'s opener without the ``O_TRUNC`` that mode ``"wb"`` asks for."""
    return os.open(name, flags & ~os.O_TRUNC, 0o666)


def emit_state_csv(result: ExperimentResult, path) -> None:
    """Per-state CSV, rows ordered by id."""
    lines = [STATE_CSV_HEADER]
    lines.extend(
        f"{record.id},{_flag(record.separable)},{measures[0]},{measures[1]},{measures[2]},"
        f"{_flag(record.ree_converged)},{qfi},{_flag(record.refined)},"
        f"{_ANGLES_FORMAT % record.max_angles},{_ANGLES_FORMAT % record.min_angles}"
        for record, measures, qfi in result._formatted
    )
    _write_lines(Path(path), lines)


def emit_plot_data(result: ExperimentResult, directory) -> None:
    """fig1_<measure>.csv files, rows sorted by measure value then id."""
    directory = Path(directory)
    for m, measure in enumerate(MEASURE_NAMES):
        # The rows come in id order and the sort is stable, so ties keep it.
        rows = sorted(result._formatted, key=lambda row: getattr(row[0], measure))
        lines = [PLOT_CSV_HEADER]
        lines.extend(f"{measures[m]},{qfi}" for _, measures, qfi in rows)
        _write_lines(directory / f"fig1_{measure}.csv", lines)


def unresolved_ids(records: Sequence[StateRecord]) -> list[int]:
    """States still flat against the raw value in some direction after
    the finer pass ran."""
    return [
        r.id for r in records if r.refined and any(stalled(r.qfi_raw, r.qfi_max, r.qfi_min))
    ]


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
    lines.append(f"grid_divisor={DEFAULT_BASE_DIVISOR}")
    lines.append(f"refine_divisor={DEFAULT_REFINE_DIVISOR}")
    for key in ("concurrence", "negativity", "ree", "mqfi"):
        lines.append(f"eps_{key}={cfg.eps_order[key]:.12g}")
    lines.append(f"witness_limit={DEFAULT_WITNESS_LIMIT}")
    lines.append("")
    separable_count = sum(1 for r in records if r.separable)
    base_stalls = [stalled(r.qfi_raw, r.base_max_value, r.base_min_value) for r in records]
    improved_max = sum(not up for up, _ in base_stalls)
    improved_min = sum(not down for _, down in base_stalls)
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
    _write_lines(Path(path), lines)
