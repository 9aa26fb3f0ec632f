"""The three benchmark workloads and the set-up they share.

Each workload splits its inputs into chunks made from the seed (untimed),
runs timed passes over one chunk at a time through the entqfi call sites
that ``tracing.CALL_SITES`` wraps, and checks each pass's outputs
(untimed).  ``chunk_seconds`` is the cost of one chunk on the seed code;
run.py sizes the chunk count from it.  See README.md for why each workload
exists and which metrics it should move.
"""

from __future__ import annotations

import math
import traceback
from pathlib import Path

import numpy as np

from entqfi import experiment, rotations
from entqfi.experiment import ExperimentConfig, ExperimentResult, format_value
from entqfi.measures import ReeSolverConfig
from entqfi.ordering import MEASURE_NAMES, StateRecord
from entqfi.rotations import EulerAngleSet

from checks import (
    Failure,
    check_files,
    check_measures,
    check_ordering,
    check_record,
    digest_files,
    digest_lines,
)

PAPER_CHUNK_STATES = 5
REE_CHUNK_STATES = 4
CENSUS_RECORDS = 3000
# Chunk k of seed s draws from master seed s * CHUNK_SEED_STRIDE + k.
CHUNK_SEED_STRIDE = 10_000

# Fixed warm-up inputs, on a master seed far from those the workloads draw.
WARM_SEED = 2**31 - 1


def warm_up() -> None:
    """First call through every layer, so lazy set-up is paid before timing."""
    cfg = ExperimentConfig(count=2, master_seed=WARM_SEED)
    result = experiment.run_experiment(cfg, jobs=1)
    rho = experiment.random_density_matrix(experiment.derive_stream(WARM_SEED, 0))
    for divisor in (cfg.grid_divisor, cfg.refine_divisor):
        rotations.grid_search(rho, 2.0 * math.pi / divisor)
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    experiment.ree(0.8 * bell + 0.05 * np.eye(4), _ree_config(cfg, np.random.default_rng(0)))
    experiment.find_counterexamples(result.records, MEASURE_NAMES[0], cfg.eps_order)


def _ree_config(cfg: ExperimentConfig, rng) -> ReeSolverConfig:
    """The solver settings run_experiment passes for this config."""
    return ReeSolverConfig(
        components=cfg.ree_components,
        multistarts=cfg.ree_multistarts,
        max_sweeps=cfg.ree_max_sweeps,
        threshold=cfg.ree_threshold,
        rng=rng,
    )


def _emit(result: ExperimentResult, workdir: Path) -> None:
    """The three emitters, as the command line calls them."""
    experiment.emit_state_csv(result, workdir / "states.csv")
    experiment.emit_plot_data(result, workdir)
    experiment.emit_census_report(result, workdir / "census.txt")


def _chunk_seed(seed: int, k: int) -> int:
    if k >= CHUNK_SEED_STRIDE:
        raise ValueError(f"at most {CHUNK_SEED_STRIDE} chunks per seed")
    return seed * CHUNK_SEED_STRIDE + k


class PaperRun:
    """Chunk k is ``entqfi --jobs 1 --states 5 --seed s*10000+k``: the
    full pipeline and the three emitters."""

    name = "paper_run"
    chunk_seconds = 0.18

    def make_chunks(self, seed: int, count: int):
        return [
            ExperimentConfig(count=PAPER_CHUNK_STATES, master_seed=_chunk_seed(seed, k))
            for k in range(count)
        ]

    def items(self, cfg) -> int:
        return cfg.count

    def pairs(self, cfg) -> int:
        return cfg.count * (cfg.count - 1) // 2

    def run(self, cfg, workdir: Path):
        result = experiment.run_experiment(cfg, jobs=1)
        _emit(result, workdir)
        return result

    def check(self, cfg, result, workdir: Path, layers=None):
        failures = []
        for record in result.records:
            rng = experiment.derive_stream(cfg.master_seed, record.id)
            rho = experiment.random_density_matrix(rng)
            closest = None
            if not record.ree_converged:
                # The solver's flag is not a certificate either way: re-solve
                # from the same stream and certify the value from the
                # closest state.
                solution = experiment.ree(rho, _ree_config(cfg, rng))
                closest = solution.closest_state
                again = float(np.clip(solution.value, 0.0, 1.0))
                if again != record.ree:
                    failures.append(
                        Failure(record.id, "REE re-solve reproduces record",
                                f"{again!r} vs {record.ree!r}")
                    )
            failures += check_record(record, rho, closest)
        failures += check_ordering(result.records, result.censuses, result.witnesses, cfg.eps_order)
        failures += check_files(workdir, result.records)
        if layers is not None:
            # check_files has matched census.txt's entangled_count to this.
            entangled = sum(1 for r in result.records if not r.separable)
            solved = layers["measures.ree.calls"] - layers["measures.ree.shortcut"]
            if solved != entangled:
                failures.append(
                    Failure(None, "trace ree calls - shortcut = entangled_count",
                            f"{solved} != {entangled}", "pass")
                )
        return failures, digest_files(workdir)


class ReeEntangled:
    """The measures layer on the PPT-violating states of the seeded ensemble."""

    name = "ree_entangled"
    chunk_seconds = 0.11

    def make_chunks(self, seed: int, count: int):
        """Consecutive runs of 4 entangled indices of master seed ``seed``."""
        cfg = ExperimentConfig(master_seed=seed)
        indices = []
        index = 0
        while len(indices) < count * REE_CHUNK_STATES:
            rho = experiment.random_density_matrix(experiment.derive_stream(seed, index))
            if not experiment.is_separable(rho):
                indices.append(index)
            index += 1
        return [
            (cfg, indices[k : k + REE_CHUNK_STATES])
            for k in range(0, len(indices), REE_CHUNK_STATES)
        ]

    def items(self, inputs) -> int:
        return len(inputs[1])

    def pairs(self, inputs) -> int:
        return 0

    def run(self, inputs, workdir: Path):
        cfg, indices = inputs
        rows = []
        for index in indices:
            # Same stream use as the pipeline: the state's own stream, after
            # sampling, seeds the REE multistarts.
            try:
                rng = experiment.derive_stream(cfg.master_seed, index)
                rho = experiment.random_density_matrix(rng)
                conc = experiment.concurrence(rho)
                neg = experiment.negativity(rho)
                separable = experiment.is_separable(rho)
                solution = experiment.ree(rho, _ree_config(cfg, rng))
            except Exception:  # one state's failure must not hide the others
                rows.append((index, None, traceback.format_exc()))
                continue
            ree_value = float(np.clip(solution.value, 0.0, 1.0))
            values = (conc, neg, ree_value, separable, solution.converged, solution.closest_state)
            rows.append((index, rho, values))
        return rows

    def check(self, inputs, rows, workdir: Path, layers=None):
        failures = []
        lines = []
        for index, rho, values in rows:
            if rho is None:
                failures.append(Failure(index, "raised", values.strip().splitlines()[-1]))
                lines.append(f"{index},raised")
                continue
            conc, neg, ree_value, separable, converged, closest = values
            if separable:
                failures.append(Failure(index, "input violates PPT", "is_separable returned True"))
            failures += check_measures(index, rho, conc, neg, ree_value, separable, closest)
            lines.append(
                f"{index},{int(separable)},{format_value(conc)},{format_value(neg)},"
                f"{format_value(ree_value)},{int(converged)}"
            )
        if layers is not None:
            rotation_calls = layers["rotations.base.calls"] + layers["rotations.refine.calls"]
            if rotation_calls != 0:
                failures.append(Failure(None, "trace rotations calls = 0", str(rotation_calls), "pass"))
            if layers["measures.ree.calls"] != len(rows):
                failures.append(
                    Failure(None, "trace ree calls = inputs",
                            f"{layers['measures.ree.calls']} != {len(rows)}", "pass")
                )
        return failures, digest_lines(lines)


def synthetic_records(seed: int, n: int) -> list[StateRecord]:
    """Ensemble-shaped records: ~37% entangled, the rest tied at zero,
    mean QFI in [0, 2] (separable ones at most 1), and a third of each
    quantity snapped near shared anchors so that near-ties fall inside
    every ordering eps."""
    rng = np.random.default_rng(seed)
    eps = ExperimentConfig().eps_order
    entangled = np.zeros(n, dtype=bool)
    entangled[rng.choice(n, round(0.37 * n), replace=False)] = True

    def near_ties(values, tol, low, high):
        snap = rng.random(n) < 1.0 / 3.0
        anchors = rng.uniform(low, high, size=20)[rng.integers(0, 20, size=n)]
        jitter = rng.uniform(-0.5 * tol, 0.5 * tol, size=n)
        return np.where(snap, np.clip(anchors + jitter, low, high), values)

    conc = near_ties(rng.uniform(0.01, 1.0, n), eps["concurrence"], 0.01, 1.0)
    neg = np.minimum(conc, near_ties(conc * rng.uniform(0.3, 1.0, n), eps["negativity"], 0.01, 1.0))
    ree = np.minimum(neg, near_ties(neg * rng.uniform(0.2, 1.0, n), eps["ree"], 0.01, 1.0))
    qfi_max = near_ties(np.where(entangled, 2.0, 1.0) * rng.random(n), eps["mqfi"], 0.0, 1.0)
    qfi_raw = qfi_max * rng.uniform(0.5, 1.0, n)
    qfi_min = qfi_raw * rng.uniform(0.5, 1.0, n)
    refined = rng.random(n) < 0.08
    base_max = np.where(refined, qfi_raw + (qfi_max - qfi_raw) * rng.random(n), qfi_max)
    base_min = np.where(refined, qfi_min + (qfi_raw - qfi_min) * rng.random(n), qfi_min)
    quarter_turns = rng.integers(0, 4, size=(n, 2, 6)) * (math.pi / 2.0)
    records = []
    for i in range(n):
        zero = not entangled[i]
        records.append(
            StateRecord(
                id=i,
                concurrence=0.0 if zero else float(conc[i]),
                negativity=0.0 if zero else float(neg[i]),
                ree=0.0 if zero else float(ree[i]),
                separable=bool(zero),
                ree_converged=True,
                qfi_raw=float(qfi_raw[i]),
                qfi_max=float(qfi_max[i]),
                qfi_min=float(qfi_min[i]),
                max_angles=EulerAngleSet(*map(float, quarter_turns[i, 0])),
                min_angles=EulerAngleSet(*map(float, quarter_turns[i, 1])),
                refined=bool(refined[i]),
                base_max_value=float(base_max[i]),
                base_min_value=float(base_min[i]),
            )
        )
    return records


class CensusEmit:
    """Census, witnesses and the emitters on 3000 records per chunk."""

    name = "census_emit"
    chunk_seconds = 1.7

    def make_chunks(self, seed: int, count: int):
        chunks = []
        for k in range(count):
            cfg = ExperimentConfig(count=CENSUS_RECORDS, master_seed=_chunk_seed(seed, k))
            chunks.append((cfg, synthetic_records(cfg.master_seed, CENSUS_RECORDS)))
        return chunks

    def items(self, inputs) -> int:
        return len(inputs[1])

    def pairs(self, inputs) -> int:
        n = len(inputs[1])
        return n * (n - 1) // 2

    def run(self, inputs, workdir: Path):
        cfg, records = inputs
        # The tail of run_experiment, then the emitters.
        censuses = experiment.census(records, cfg.eps_order)
        witnesses = {
            measure: experiment.find_counterexamples(
                records, measure, cfg.eps_order, cfg.witness_limit
            )
            for measure in MEASURE_NAMES
        }
        result = ExperimentResult(records, censuses, witnesses, {}, cfg)
        _emit(result, workdir)
        return result

    def check(self, inputs, result, workdir: Path, layers=None):
        cfg, records = inputs
        failures = check_ordering(records, result.censuses, result.witnesses, cfg.eps_order)
        failures += check_files(workdir, records)
        return failures, digest_files(workdir)


WORKLOADS = {w.name: w for w in (PaperRun(), ReeEntangled(), CensusEmit())}
