"""Experiment pipeline, CSV emission, census report, CLI."""

import ast
import dataclasses
import importlib
import math
import os
import re
import subprocess
import sys
import traceback
from decimal import ROUND_HALF_EVEN, Context, Decimal
from pathlib import Path

import numpy as np
import pytest

from entqfi import (
    EigendecompositionError,
    EulerAngleSet,
    ExperimentConfig,
    ExperimentResult,
    StateRecord,
    census,
    classify_pair,
    concurrence,
    derive_stream,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    find_counterexamples,
    herm_eig,
    is_separable,
    negativity,
    partial_transpose,
    random_density_matrix,
    ree,
    run_experiment,
)
import entqfi
from entqfi import experiment, measures, rotations
from entqfi.cli import build_parser, main
from entqfi.experiment import (
    PLOT_CSV_HEADER,
    STATE_CSV_HEADER,
    format_value,
    unresolved_ids,
)
from entqfi.ordering import MEASURE_NAMES
from entqfi.rotations import REFINEMENT_TRIGGER
from helpers import (
    bell_diagonal,
    bell_state,
    pure,
    qfi_bell_diagonal_oracle,
    random_pure_state,
    ree_bell_diagonal_oracle,
    ree_pure_oracle,
    werner,
)

ZERO_ANGLES = EulerAngleSet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def small_run():
    return run_experiment(ExperimentConfig(count=25, master_seed=1))


def emit_all(result, directory):
    emit_state_csv(result, directory / "states.csv")
    emit_plot_data(result, directory)
    emit_census_report(result, directory / "census.txt")
    names = ["states.csv", "census.txt"] + [f"fig1_{m}.csv" for m in ("concurrence", "negativity", "ree")]
    return {name: (directory / name).read_bytes() for name in names}


def reference_format_value(x):
    """The per-value formatter the emitters are checked against: the decimal
    exponent is that of the exact value rounded to 12 significant digits."""
    if x == 0.0:
        return "0.000000000000"
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x!r}")
    exponent = Context(prec=12, rounding=ROUND_HALF_EVEN).plus(Decimal(x)).adjusted()
    decimals = max(0, 11 - exponent)
    return f"{x:.{decimals}f}"


def reference_emitter_bytes(records):
    """states.csv and the three fig1 files as formatted one value at a time."""
    fmt = reference_format_value

    def flag(value):
        return "1" if value else "0"

    def angles(values):
        return ";".join(f"{angle:.6f}" for angle in values)

    lines = [STATE_CSV_HEADER]
    for r in sorted(records, key=lambda r: r.id):
        lines.append(",".join([
            str(r.id), flag(r.separable), fmt(r.concurrence), fmt(r.negativity), fmt(r.ree),
            flag(r.ree_converged), fmt(r.qfi_raw), fmt(r.qfi_max), fmt(r.qfi_min),
            flag(r.refined), angles(r.max_angles), angles(r.min_angles),
        ]))
    files = {"states.csv": "\n".join(lines) + "\n"}
    for measure in MEASURE_NAMES:
        lines = [PLOT_CSV_HEADER]
        for r in sorted(records, key=lambda r: (getattr(r, measure), r.id)):
            values = (getattr(r, measure), r.qfi_raw, r.qfi_max, r.qfi_min)
            lines.append(",".join(fmt(v) for v in values))
        files[f"fig1_{measure}.csv"] = "\n".join(lines) + "\n"
    return {name: text.encode() for name, text in files.items()}


def powers_of_ten_and_neighbours(low, high):
    out = []
    for k in range(low, high + 1):
        x = 10.0**k
        out += [float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, np.inf))]
    return out


def test_format_value_cases():
    assert format_value(1.0) == "1.00000000000"
    assert format_value(2.0) == "2.00000000000"
    assert format_value(0.25) == "0.250000000000"
    assert format_value(0.0) == "0.000000000000"
    assert format_value(0.188721875540867) == "0.188721875541"
    assert format_value(1e-5) == "0.0000100000000000"
    assert format_value(123.456) == "123.456000000"
    # The floats next to 10^k round to 10^k and keep 12 significant digits.
    assert format_value(9.999999999999999e-06) == "0.0000100000000000"
    assert format_value(0.09999999999999999) == "0.100000000000"
    assert format_value(0.9999999999999999) == "1.00000000000"
    assert format_value(1.0000000000000002) == "1.00000000000"
    assert format_value(9.999999999999998) == "10.0000000000"
    assert format_value(10.000000000000002) == "10.0000000000"
    # the smallest subnormal, 4.94065645841247e-324
    assert format_value(5e-324) == "0." + "0" * 323 + "494065645841"
    # %#.12g formats 1e-4 <= |x| < 1e10; these round across its two gates.
    assert format_value(9.99999999999995e-05) == "0.000100000000000"
    assert format_value(9999999999.99995) == "10000000000.0"
    assert format_value(99999999999.99998) == "100000000000"
    rng = np.random.default_rng(33)
    sample = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-6.0, 11.0, 20_000)
    for x in [
        *powers_of_ten_and_neighbours(-30, 24), 5e-324, -5e-324, -0.5, 1e300,
        9.99999999999995e-05, 9999999999.99995, 99999999999.99998, *sample.tolist(),
    ]:
        assert format_value(x) == reference_format_value(x), x


def test_format_value_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(200):
        x = float(rng.uniform(1e-6, 2.0))
        assert abs(float(format_value(x)) - x) <= 1e-11 * max(1.0, abs(x))


def test_format_value_rejects_nonfinite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            format_value(bad)


def test_config_defaults_and_eps_merge():
    cfg = ExperimentConfig()
    assert cfg.count == 1000
    assert cfg.master_seed == 1
    assert cfg.eps_order == {
        "concurrence": 1e-4,
        "negativity": 1e-4,
        "ree": 5e-3,
        "mqfi": 1e-4,
    }
    cfg = ExperimentConfig(eps_order={"ree": 0.01})
    assert cfg.eps_order["ree"] == 0.01
    assert cfg.eps_order["mqfi"] == 1e-4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"count": 0},
        {"eps_order": {"volume": 0.1}},
        {"eps_order": {"ree": -1.0}},
        {"eps_order": {"mqfi": float("nan")}},
        {"eps_order": {"ree": float("inf")}},
        {"master_seed": -1},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_fields_are_the_three_run_settings():
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert names == ["count", "master_seed", "eps_order"]


@pytest.mark.parametrize(
    "name, value",
    [("grid_divisor", 4), ("refine_divisor", 6), ("witness_limit", 10), ("ree_components", 5)],
)
def test_config_constants_are_not_settings(name, value):
    # Class constants that the benchmark reads, not settings a run can vary.
    assert getattr(ExperimentConfig(), name) == value
    with pytest.raises(TypeError):
        ExperimentConfig(**{name: value})


def test_single_state_run(tmp_path):
    result = run_experiment(ExperimentConfig(count=1, master_seed=1))
    assert len(result.records) == 1
    assert result.records[0].id == 0
    files = emit_all(result, tmp_path)
    lines = files["states.csv"].decode().splitlines()
    assert lines[0] == STATE_CSV_HEADER
    assert len(lines) == 2
    assert "pairs_total=0" in files["census.txt"].decode()


def test_state_csv_layout(small_run, tmp_path):
    emit_state_csv(small_run, tmp_path / "states.csv")
    lines = (tmp_path / "states.csv").read_text().splitlines()
    assert lines[0] == STATE_CSV_HEADER
    assert len(lines) == 26
    for offset, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == 12
        assert int(fields[0]) == offset  # ordered by id
        assert fields[1] in ("0", "1")
        assert fields[5] in ("0", "1")
        assert fields[9] in ("0", "1")
        for angles in (fields[10], fields[11]):
            parts = angles.split(";")
            assert len(parts) == 6
            assert all(len(p.split(".")[1]) == 6 for p in parts)


def test_plot_data_layout(small_run, tmp_path):
    emit_plot_data(small_run, tmp_path)
    for measure in ("concurrence", "negativity", "ree"):
        lines = (tmp_path / f"fig1_{measure}.csv").read_text().splitlines()
        assert lines[0] == PLOT_CSV_HEADER
        assert len(lines) == 26
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == sorted(values)


def test_plot_row_for_maximally_entangled_record(tmp_path):
    record = StateRecord(
        id=0,
        concurrence=1.0,
        negativity=1.0,
        ree=1.0,
        separable=False,
        ree_converged=True,
        qfi_raw=2.0,
        qfi_max=2.0,
        qfi_min=0.0,
        max_angles=ZERO_ANGLES,
        min_angles=ZERO_ANGLES,
        refined=True,
        base_max_value=2.0,
        base_min_value=0.0,
    )
    result = ExperimentResult(
        records=[record],
        censuses={},
        witnesses={},
        timing={},
        config=ExperimentConfig(count=1),
    )
    emit_plot_data(result, tmp_path)
    lines = (tmp_path / "fig1_concurrence.csv").read_text().splitlines()
    assert lines[1] == "1.00000000000,2.00000000000,2.00000000000,0.000000000000"


def edge_records(seed, n):
    """Records given out of id order whose values sit on zero, on ties and
    on powers of ten and their neighbouring floats."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, 0.5, 1.0, 2.0, *powers_of_ten_and_neighbours(-8, 0)])

    def value():
        return float(rng.choice(pool))

    angle_pool = np.array([0.0, -0.0, math.pi / 2, -math.pi, 1e-7, -4e-7, 0.1234565])
    records = []
    for i in rng.permutation(n):
        zero = rng.random() < 0.3
        records.append(
            StateRecord(
                id=int(i),
                concurrence=0.0 if zero else value(),
                negativity=0.0 if zero else value(),
                ree=0.0 if zero else value(),
                separable=bool(zero),
                ree_converged=bool(rng.random() < 0.9),
                qfi_raw=value(),
                qfi_max=value(),
                qfi_min=value(),
                max_angles=EulerAngleSet(*map(float, rng.choice(angle_pool, 6))),
                min_angles=EulerAngleSet(*map(float, rng.choice(angle_pool, 6))),
                refined=bool(rng.random() < 0.2),
                base_max_value=value(),
                base_min_value=value(),
            )
        )
    return records


def edge_result(seed, n):
    records = edge_records(seed, n)
    cfg = ExperimentConfig(count=n)
    censuses = census(records, cfg.eps_order)
    witnesses = {m: find_counterexamples(records, m, cfg.eps_order) for m in MEASURE_NAMES}
    return ExperimentResult(records, censuses, witnesses, {}, cfg)


def test_emitters_match_per_value_reference(tmp_path):
    first, second = edge_result(61, 80), edge_result(62, 70)
    expected = reference_emitter_bytes(first.records)
    assert [r.id for r in first.records] != sorted(r.id for r in first.records)
    # Called twice, in both orders: a cache that goes stale or depends on
    # which emitter ran first would change the bytes.
    runs = []
    for order in ("forward", "reverse"):
        directory = tmp_path / order
        directory.mkdir()
        calls = [
            lambda: emit_state_csv(first, directory / "states.csv"),
            lambda: emit_plot_data(first, directory),
            lambda: emit_census_report(first, directory / "census.txt"),
        ]
        for call in calls if order == "forward" else calls[::-1]:
            call()
        files = {path.name: path.read_bytes() for path in directory.iterdir()}
        assert {name: files[name] for name in expected} == expected
        runs.append(files)
    assert runs[0] == runs[1]
    emit_all(second, tmp_path)
    files = {name: (tmp_path / name).read_bytes() for name in expected}
    assert files == reference_emitter_bytes(second.records)


def test_unresolved_ids_logic():
    def record(index, refined, raw, high, low):
        return StateRecord(
            id=index,
            concurrence=0.0,
            negativity=0.0,
            ree=0.0,
            separable=True,
            ree_converged=True,
            qfi_raw=raw,
            qfi_max=high,
            qfi_min=low,
            max_angles=ZERO_ANGLES,
            min_angles=ZERO_ANGLES,
            refined=refined,
            base_max_value=high,
            base_min_value=low,
        )

    records = [
        record(0, False, 1.0, 1.0, 1.0),  # never flagged
        record(1, True, 1.0, 1.2, 0.8),  # flagged but resolved
        record(2, True, 1.0, 1.0, 0.8),  # still flat upward
        record(3, True, 1.0, 1.2, 1.0),  # still flat downward
        record(4, True, 0.0, REFINEMENT_TRIGGER, -0.2),  # moved by exactly the trigger
    ]
    assert REFINEMENT_TRIGGER == 1e-9
    assert unresolved_ids(records) == [2, 3, 4]


def test_runs_are_deterministic(tmp_path):
    cfg = ExperimentConfig(count=25, master_seed=1)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    files_a = emit_all(run_experiment(cfg), dir_a)
    files_b = emit_all(run_experiment(cfg), dir_b)
    assert files_a == files_b


def test_census_report_contents(small_run, tmp_path):
    emit_census_report(small_run, tmp_path / "census.txt")
    text = (tmp_path / "census.txt").read_text()
    assert "states=25" in text
    assert "master_seed=1" in text
    assert "pairs_total=300" in text
    for measure in ("concurrence", "negativity", "ree"):
        assert f"[census {measure}]" in text
        assert f"[witnesses {measure}]" in text
    counted = sum(
        int(field)
        for line in text.splitlines()
        if line.startswith(("both-zero", "first-greater", "equal-positive", "second-greater"))
        for field in line.split()[1:]
    )
    assert counted == 3 * 300  # three censuses, each over all pairs


def test_run_experiment_rejects_bad_jobs():
    # A run is one process; jobs=1, which the benchmark passes, is the only
    # value accepted, so no caller can believe it got workers.
    cfg = ExperimentConfig(count=2)
    assert run_experiment(cfg, jobs=1).records == run_experiment(cfg).records
    with pytest.raises(ValueError, match="^jobs must be 1, got 2: a run is one process$"):
        run_experiment(cfg, jobs=2)


def test_failure_names_the_state(monkeypatch):
    def failing_ree(rho, cfg=None, *, measured=None):
        raise ArithmeticError("solver produced a non-PPT candidate state")

    monkeypatch.setattr(experiment, "ree", failing_ree)
    with pytest.raises(ArithmeticError, match=r"^state 0 \(master seed 7\): solver") as info:
        run_experiment(ExperimentConfig(count=3, master_seed=7))
    assert isinstance(info.value.__cause__, ArithmeticError)


def test_any_failure_names_the_state(monkeypatch):
    # The chunk pass takes the concurrences of a whole chunk from its spectra.
    poisoned = herm_eig(random_density_matrix(derive_stream(7, 1)))[0]
    concurrences = experiment._concurrences

    def failing_concurrences(spectra):
        if any(np.array_equal(values, poisoned) for values in spectra[0]):
            raise IndexError("index 4 is out of bounds for axis 0 with size 4")
        return concurrences(spectra)

    monkeypatch.setattr(experiment, "_concurrences", failing_concurrences)
    message = r"^state 1 \(master seed 7\): IndexError: index 4 is out of bounds"
    with pytest.raises(RuntimeError, match=message) as info:
        run_experiment(ExperimentConfig(count=3, master_seed=7))
    assert isinstance(info.value.__cause__, IndexError)


def test_ree_outside_unit_interval_beyond_its_gap_names_the_state(monkeypatch):
    monkeypatch.setattr(measures, "_divergence", lambda rho, *args: np.full(len(rho), 1.01))
    with pytest.raises(ArithmeticError, match=r"^REE 1\.01 lies outside \[0, 1\]"):
        ree(bell_state())
    states = [random_density_matrix(derive_stream(7, i)) for i in range(3)]
    first = next(i for i, rho in enumerate(states) if not is_separable(rho))
    message = rf"^state {first} \(master seed 7\): REE 1\.01 lies outside \[0, 1\]"
    with pytest.raises(ArithmeticError, match=message):
        run_experiment(ExperimentConfig(count=3, master_seed=7))


def test_ree_excess_within_its_gap_is_clipped():
    # |Phi+> reads 1 + 1.8e-10 bits before the rule, with a certified gap of 2.7e-10.
    assert ree(bell_state()).value == 1.0


def test_eigendecomposition_failure_names_the_state(monkeypatch):
    # The chunk pass's one eigensolve of the rho stack, which feeds G.
    def failing_spectra(rhos):
        raise EigendecompositionError(rhos[0])

    monkeypatch.setattr(experiment, "herm_eig", failing_spectra)
    with pytest.raises(EigendecompositionError, match=r"^state 0 \(master seed 8\): ") as info:
        run_experiment(ExperimentConfig(count=3, master_seed=8))
    assert info.value.matrix.shape == (4, 4)


def test_stacked_eigensolve_failure_names_the_state_and_keeps_its_matrix(monkeypatch):
    # A NaN in one state of a 7-state chunk fails the chunk's stacked eigh of
    # rho; the chunk reruns state by state, and the state's own 4x4 comes back.
    target = random_density_matrix(derive_stream(9, 3))
    spectra = experiment.herm_eig

    def poisoned_spectra(rhos):
        rhos = rhos.copy()
        for rho in rhos:
            if np.array_equal(rho, target):
                rho[0, 1] = np.nan
        return spectra(rhos)

    monkeypatch.setattr(experiment, "herm_eig", poisoned_spectra)
    cfg = ExperimentConfig(count=7, master_seed=9)
    assert experiment._chunks(cfg.count) == [range(7)]
    with pytest.raises(EigendecompositionError, match=r"^state 3 \(master seed 9\): ") as info:
        run_experiment(cfg)
    matrix = info.value.matrix
    nan = np.zeros((4, 4), dtype=bool)
    nan[0, 1] = nan[1, 0] = True
    assert matrix.shape == (4, 4)
    assert np.array_equal(np.isnan(matrix), nan)
    assert np.array_equal(matrix[~nan], target[~nan])


def records_in_chunks(cfg, size):
    """The run's records, measured in consecutive chunks of ``size`` states."""
    return [
        record
        for start in range(0, cfg.count, size)
        for record in experiment._measure_chunk(range(start, min(start + size, cfg.count)), cfg)[0]
    ]


@pytest.mark.parametrize("seed", [1, 15])
def test_chunking_never_moves_a_number(seed):
    # numpy promises no equal einsum or matmul bits across stack shapes, so
    # this guards the stacked kernels on every numpy the pin admits.
    cfg = ExperimentConfig(count=256, master_seed=seed)
    by_size = {size: records_in_chunks(cfg, size) for size in (1, 7, 64, 256)}
    assert [r.id for r in by_size[1]] == list(range(cfg.count))
    assert by_size[1] == by_size[7] == by_size[64] == by_size[256]


def test_chunking_never_moves_a_number_where_the_rotation_scan_takes_lapack(monkeypatch):
    # Two degenerate Bell-diagonal states replace seeded states 3 and 100, so
    # their class forms with a double top eigenvalue reach the rotation
    # scan's LAPACK fallback from inside stacks of 7 and 64 states.
    cfg = ExperimentConfig(count=128, master_seed=1)
    degenerate = {3: (0.7, 0.1, 0.1, 0.1), 100: (0.5, 0.5, 0.0, 0.0)}
    swapped = {
        random_density_matrix(derive_stream(cfg.master_seed, index)).tobytes(): bell_diagonal(p)
        for index, p in degenerate.items()
    }
    draw = experiment._density_matrices
    monkeypatch.setattr(
        experiment,
        "_density_matrices",
        lambda rngs: np.stack([swapped.get(rho.tobytes(), rho) for rho in draw(rngs)]),
    )
    fallback_rows = []
    eigvalsh = rotations.eigvalsh

    def spied(m):
        fallback_rows.append(len(m))
        return eigvalsh(m)

    monkeypatch.setattr(rotations, "eigvalsh", spied)
    by_size = {}
    for size in (1, 7, 64, 256):
        fallback_rows.clear()
        by_size[size] = records_in_chunks(cfg, size)
        assert fallback_rows, size
    assert by_size[1] == by_size[7] == by_size[64] == by_size[256]
    for index, p in degenerate.items():
        assert abs(by_size[64][index].qfi_max - qfi_bell_diagonal_oracle(p)) <= 1e-14


def test_chunking_never_moves_a_number_where_the_ree_polish_branches(monkeypatch):
    # Four of REE's hard states replace seeded states 3, 10, 12 and 100,
    # inside chunks of 7 and 64 states: master seed 1's state 209, whose
    # first polish step is damped; a nearly pure state, where sigma_1 does
    # not serve and the polish starts from sigma_0; master seed 1's state
    # 264, whose sigma_1 lies on the face with a least-squares mu of -0.077,
    # so that sigma_1's polish leaves it unstarted and sigma_0's takes it,
    # in one call with the nearly pure state, by their chunk rows; and a
    # pure state, whose polish fails, so that it alone falls back to the
    # barrier.
    cfg = ExperimentConfig(count=128, master_seed=1)
    nearly_pure = (1.0 - 1e-10) * pure(np.array([0.6, 0.0, 0.0, 0.8])) + 1e-10 * np.eye(4) / 4.0
    hard = {
        3: random_density_matrix(derive_stream(1, 209)),
        10: nearly_pure,
        12: random_density_matrix(derive_stream(1, 264)),
        100: pure(np.array([0.8, 0.0, 0.0, 0.6])),
    }
    swapped = {
        random_density_matrix(derive_stream(cfg.master_seed, index)).tobytes(): rho
        for index, rho in hard.items()
    }
    draw = experiment._density_matrices
    monkeypatch.setattr(
        experiment,
        "_density_matrices",
        lambda rngs: np.stack([swapped.get(rho.tobytes(), rho) for rho in draw(rngs)]),
    )
    stack = np.asarray(nearly_pure, dtype=complex)[None]
    values, vectors = measures._pt_eigh(stack)
    first, _ = measures._face_starts(stack, [0], *herm_eig(stack), values[:, 0], vectors[:, :, 0])
    assert first == []
    seen, polishes = [], []
    boundary_step, barrier_solve = measures._boundary_step, measures._barrier_solve
    face_polish = measures._face_polish

    def spied_step(dx, scaled, fraction=0.99):
        seen.append(fraction == measures._POLISH_DAMPING)
        return boundary_step(dx, scaled, fraction)

    def spied_barrier(rho, lowest):
        seen.append(rho.tobytes())
        return barrier_solve(rho, lowest)

    def spied_polish(rho, rows, start, outcomes):
        polishes.append((list(rows), [rho[k].tobytes() for k in rows]))
        face_polish(rho, rows, start, outcomes)

    monkeypatch.setattr(measures, "_boundary_step", spied_step)
    monkeypatch.setattr(measures, "_barrier_solve", spied_barrier)
    monkeypatch.setattr(measures, "_face_polish", spied_polish)
    calls = recording_ree(monkeypatch)
    by_size, certified = {}, {}
    for size in (1, 7, 64, 256):
        seen.clear()
        polishes.clear()
        calls.clear()
        by_size[size] = records_in_chunks(cfg, size)
        certified[size] = [(rho, measured) for rho, measured, _ in calls]
        assert True in seen, size  # a damped polish step
        assert [rho for rho in seen if isinstance(rho, bytes)] == [hard[100].tobytes()]
        if size == 1:
            continue
        # The one sigma_0 call that holds the nearly pure state, right after
        # the sigma_1 call of its chunk, which was handed state 264; in a
        # chunk of 128 it also holds the pure state, which has no sigma_1.
        (at,) = [k for k, (_, handed) in enumerate(polishes) if hard[10].tobytes() in handed]
        left = [index for index in (10, 12, 100) if index // size == 10 // size]
        assert polishes[at] == ([i % size for i in left], [hard[i].tobytes() for i in left])
        sigma_1 = polishes[at - 1][1]
        assert hard[12].tobytes() in sigma_1 and hard[10].tobytes() not in sigma_1
    assert by_size[1] == by_size[7] == by_size[64] == by_size[256]
    for index in hard:
        assert not by_size[64][index].separable and by_size[64][index].ree_converged

    # Each chunk row's certified solution, closest state included, is the
    # one that ree computes for that state alone.
    def bits(solution):
        fields = (solution.value, solution.gap, solution.iterations, solution.converged)
        return fields + (solution.closest_state.tobytes(),)

    alone = [bits(ree(rho)) for rho, _ in certified[64]]
    assert len(alone) == cfg.count
    for size in (1, 7, 64, 256):
        assert [bits(measured) for _, measured in certified[size]] == alone, size


def test_a_singular_kkt_matrix_sends_only_its_state_to_the_barrier(monkeypatch):
    # One entangled state's first KKT matrix reads singular inside a stack:
    # the stacked solve fails, each system is solved alone, and only that
    # state leaves the polish, after its one step, for the barrier path.
    # Every other record keeps its bits, and ree alone gives that state's.
    cfg = ExperimentConfig(count=16, master_seed=1)
    plain, _ = experiment._measure_chunk(range(16), cfg)
    entangled = [record.id for record in plain if not record.separable]
    assert len(entangled) >= 3
    index = entangled[1]
    rho = random_density_matrix(derive_stream(1, index))
    kkt_system, built = measures._kkt_system, []

    def recording(p, mu):
        built.append(kkt_system(p, mu))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(measures, "_kkt_system", recording)
        ree(rho)
        patch.setattr(measures, "_face_polish", lambda *args: None)
        barrier = ree(rho)
    singular_matrix = built[0][1][0]
    solve = measures.solve

    def singular(a, b):
        if any(np.array_equal(m, singular_matrix) for m in a.reshape((-1,) + a.shape[-2:])):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(measures, "solve", singular)
    calls = recording_ree(monkeypatch)
    records, _ = experiment._measure_chunk(range(16), cfg)
    for record, before, (_, _, solution) in zip(records, plain, calls):
        if record.id != index:
            assert record == before
            continue
        assert solution.iterations == barrier.iterations + 1
        assert (solution.value, solution.gap) == (barrier.value, barrier.gap)
        assert np.array_equal(solution.closest_state, barrier.closest_state)
        assert record.ree == barrier.value != before.ree
        chunk = solution
    # Alone, as a stack of one, the state's system is solved alone again and
    # read singular: the same one step and the same bits as in the chunk.
    alone = ree(rho)
    assert alone.iterations == barrier.iterations + 1
    assert (alone.value, alone.gap) == (chunk.value, chunk.gap)
    assert alone.closest_state.tobytes() == chunk.closest_state.tobytes()


def test_nan_in_one_states_g_stops_the_run_with_that_state_named(monkeypatch):
    # G reaches the closed form of the class values before any LAPACK call.
    # A NaN row fails its 1 + r test, so it goes to eigvalsh under
    # lapack_guard(), which raises with the state's class form; the chunk
    # reruns state by state.
    target = herm_eig(random_density_matrix(derive_stream(9, 3)))[0]
    build = experiment._spin_qfi_matrices

    def poisoned(spectra):
        g = build(spectra)
        for values, matrix in zip(spectra[0], g):
            if np.array_equal(values, target):
                matrix[0, 1] = matrix[1, 0] = np.nan
        return g

    monkeypatch.setattr(experiment, "_spin_qfi_matrices", poisoned)
    cfg = ExperimentConfig(count=7, master_seed=9)
    assert experiment._chunks(cfg.count) == [range(7)]
    with pytest.raises(EigendecompositionError, match=r"^state 3 \(master seed 9\): ") as info:
        run_experiment(cfg)
    assert info.value.matrix.shape == (3, 3)
    assert np.isnan(info.value.matrix[0, 0])


def test_chunks_cover_the_run_evenly_in_at_most_the_chunk_size():
    size = experiment._CHUNK_STATES
    for count in (1, 7, size - 1, size, size + 1, 2 * size, 2 * size + 1, 1000):
        chunks = experiment._chunks(count)
        sizes = [len(chunk) for chunk in chunks]
        assert [i for chunk in chunks for i in chunk] == list(range(count))
        assert len(chunks) == math.ceil(count / size), count
        assert max(sizes) - min(sizes) <= 1, count
        assert max(sizes) <= size
    # Not 256, 256, 256 and 232.
    assert [len(chunk) for chunk in experiment._chunks(1000)] == [250] * 4


def _nan_scaled(newton_system):
    def poisoned(t, p):
        grad, hess, scaled = newton_system(t, p)
        return grad, hess, scaled * np.nan

    return poisoned


def _nan_scaled_tangents(scaled_tangents):
    return lambda tan, s: scaled_tangents(tan, s) * np.nan


def _nan_point(dual_gap):
    def poisoned(p, t=None):
        return dual_gap(p._replace(rt=p.rt * np.nan), t)

    return poisoned


@pytest.mark.parametrize(
    "site, target, poison, index, polish",
    [
        pytest.param(
            "_point", "_sigmas", lambda sigmas: lambda x: sigmas(x) * np.nan, 0, True,
            id="_point-_sigmas-<lambda>",
        ),
        # The certificate of the polished point, the path of every seeded state.
        pytest.param(
            "_dual_gap", "_dual_gap", _nan_point, 0, True, id="_dual_gap-_dual_gap-_nan_point"
        ),
        # The face start divides by the same differences, so the NaN reaches
        # _dual_gap's eigensolve first on the barrier path, at its start.
        pytest.param(
            "_dual_gap", "_log_first_differences", lambda f1: lambda s: f1(s) * np.nan, 0, False,
            id="_dual_gap-_log_first_differences-<lambda>",
        ),
        # State 81 takes a damped face-polish step.
        pytest.param(
            "_boundary_step", "_scaled_tangents", _nan_scaled_tangents, 81, True,
            id="_boundary_step-_scaled_tangents-_nan_scaled_tangents",
        ),
        # The barrier path, which a seeded state takes only where the polish fails.
        pytest.param(
            "_boundary_step", "_newton_system", _nan_scaled, 0, False,
            id="_boundary_step-_newton_system-_nan_scaled",
        ),
    ],
)
def test_ree_eigensolver_failure_keeps_its_matrix_and_names_the_state(
    monkeypatch, site, target, poison, index, polish
):
    # A NaN reaching an eigensolve inside the REE solve raises
    # EigendecompositionError with the matrix, which the pipeline keeps.
    cfg = ExperimentConfig(count=3, master_seed=7)
    assert not is_separable(random_density_matrix(derive_stream(7, index)))
    if not polish:
        # No sigma_1, which divides by the poisoned differences, and no polish.
        monkeypatch.setattr(measures, "_face_starts", lambda *args: ([], None))
        monkeypatch.setattr(measures, "_face_polish", lambda *args: None)
    monkeypatch.setattr(measures, target, poison(getattr(measures, target)))
    with pytest.raises(EigendecompositionError, match=rf"^state {index} \(master seed 7\): ") as info:
        experiment._compute_record(index, cfg)
    assert np.isnan(info.value.matrix).all()
    frames = traceback.extract_tb(info.value.__cause__.__traceback__)
    assert site in [frame.name for frame in frames]


def test_nonfinite_divided_differences_stop_the_face_start(monkeypatch):
    # The face start divides by rho's divided differences of ln before any
    # eigensolve, so under lapack_guard() a NaN among them raises a plain
    # LinAlgError, with no matrix, which the pipeline names as RuntimeError.
    cfg = ExperimentConfig(count=3, master_seed=7)
    f1 = measures._log_first_differences
    monkeypatch.setattr(measures, "_log_first_differences", lambda s: f1(s) * np.nan)
    with pytest.raises(RuntimeError, match=r"^state 0 \(master seed 7\): LinAlgError: ") as info:
        experiment._compute_record(0, cfg)
    assert type(info.value.__cause__) is np.linalg.LinAlgError
    frames = traceback.extract_tb(info.value.__cause__.__traceback__)
    assert "_face_starts" in [frame.name for frame in frames]


def test_separable_column_is_the_ppt_verdict(default_run):
    # _measure_chunk reads the verdict off the chunk's one stacked
    # lambda_min(rho^G), which gives the same bits as is_separable's own.
    result, _ = default_run
    assert result.config.master_seed == 1
    for record in result.records:
        rho = random_density_matrix(derive_stream(1, record.id))
        assert record.separable == is_separable(rho), record.id


def test_negativity_never_exceeds_concurrence(default_run):
    # N <= C for every two-qubit state (Verstraete, Audenaert, Dehaene & De
    # Moor, J. Phys. A 34, 10327, 2001); on entangled rows of the default run
    # C - N is at least a few 1e-6, far above roundoff.
    result, _ = default_run
    assert all(record.negativity <= record.concurrence for record in result.records)


def test_rows_keep_the_cross_measure_bounds(monkeypatch):
    # The chunk pass holds every entangled row to REE <= E_F(C) within its
    # gap and to N >= sqrt((1 - C)^2 + C^2) - (1 - C); on seeds 1-4 and 15 the
    # margins are at least 1.4e-7 bits and 1.2e-4.  A 200-state run passes,
    # and a value moved past a bound by more than its slack fails the check.
    check, checked = experiment._check_cross_measure_bounds, []

    def spied(concurrences, negativities, solutions):
        checked.extend(zip(concurrences, negativities, solutions))
        check(concurrences, negativities, solutions)

    monkeypatch.setattr(experiment, "_check_cross_measure_bounds", spied)
    result = run_experiment(ExperimentConfig(count=200, master_seed=1))
    assert [solution.value for _, _, solution in checked] == [r.ree for r in result.records]
    c, n, solution = next(row for row in checked if row[1])
    formation = measures._entanglement_of_formation(c)
    slack = solution.gap + 1e-12
    check([c], [n], [dataclasses.replace(solution, value=formation + slack)])
    with pytest.raises(ArithmeticError, match=r"^REE \S+ lies above E_F\(C\) = "):
        check([c], [n], [dataclasses.replace(solution, value=formation + 2 * slack)])
    bound, budget = math.hypot(1.0 - c, c) - (1.0 - c), measures._CLOSED_FORMS_SLACK
    check([c], [bound - budget], [solution])
    with pytest.raises(ArithmeticError, match=r"^negativity \S+ lies below sqrt"):
        check([c], [bound - 2 * budget], [solution])
    # E_F of a pure state is the entropy of either reduced state.
    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = random_pure_state(rng)
        formation = measures._entanglement_of_formation(concurrence(pure(psi)))
        assert abs(formation - ree_pure_oracle(psi)) <= 1e-12
    assert measures._entanglement_of_formation(0.0) == 0.0
    assert measures._entanglement_of_formation(1.0) == 1.0


def test_ree_above_its_formation_bound_names_the_state(monkeypatch):
    # One entangled state's REE, raised 1e-9 bits above E_F(C), stays inside
    # [0, 1] and passes the range rule; the chunk's bound check fails, and
    # the chunk's state-by-state rerun names that state.
    states = [random_density_matrix(derive_stream(7, i)) for i in range(6)]
    *_, target = [i for i, rho in enumerate(states) if not is_separable(rho)]
    raised = measures._entanglement_of_formation(concurrence(states[target])) + 1e-9
    assert target > 0 and raised < 1.0
    divergence = measures._divergence

    def raising(rho, *args):
        values = divergence(rho, *args)
        for k, state in enumerate(rho):
            if np.array_equal(state, states[target]):
                values[k] = raised
        return values

    monkeypatch.setattr(measures, "_divergence", raising)
    message = rf"^state {target} \(master seed 7\): REE {re.escape(repr(raised))} lies above E_F"
    with pytest.raises(ArithmeticError, match=message):
        run_experiment(ExperimentConfig(count=6, master_seed=7))


def test_separable_record_reads_zero_in_every_measure_inside_the_ppt_tolerance(monkeypatch):
    # werner(1/3 + 6.7e-11) has lambda_min(rho^G) = -5.0e-11: PPT within the
    # tolerance, and its negativity reads 0, not 1.005e-10.
    rho = werner(1.0 / 3.0 + 6.7e-11)
    monkeypatch.setattr(experiment, "_density_matrices", lambda rngs: np.stack([rho] * len(rngs)))
    calls = []

    def counted_ree(state, cfg=None, *, measured=None):
        calls.append(state)
        return ree(state, cfg, measured=measured)

    monkeypatch.setattr(experiment, "ree", counted_ree)
    records, _ = experiment._measure_chunk(range(3), ExperimentConfig(count=3))
    assert len(calls) == 3
    for record in records:
        assert record.separable
        assert (record.negativity, record.ree) == (0.0, 0.0)


def recording_ree(monkeypatch):
    """Patch ``experiment.ree`` to forward every call, and return the list
    that collects each call's (rho, measured, solution)."""
    calls = []

    def recorded(rho, cfg=None, *, measured=None):
        solution = ree(rho, cfg, measured=measured)
        calls.append((rho, measured, solution))
        return solution

    monkeypatch.setattr(experiment, "ree", recorded)
    return calls


def test_chunk_fed_ree_reads_the_bits_of_ree_alone(monkeypatch):
    # The chunk hands ree its rows of the stacked rho spectrum and of the
    # one eigh of the rho^G stack; ree(rho) computes both itself.  Each
    # state's rho^G is decomposed once, and the PPT verdict, the negativity
    # and the face start read its one lambda_min.  The rank-2 Bell-diagonal
    # state takes the barrier path, the Werner state the PPT short-circuit
    # just inside the tolerance.
    extras = np.stack([bell_diagonal((0.7, 0.3, 0.0, 0.0)), werner(1.0 / 3.0 + 6.7e-11)])
    draw = experiment._density_matrices
    monkeypatch.setattr(
        experiment, "_density_matrices", lambda rngs: np.concatenate([draw(rngs[:-2]), extras])
    )
    calls = recording_ree(monkeypatch)
    decomposed, starts = {"eigh": [], "eigvalsh": []}, []

    def spied(name, kernel):
        def spy(m):
            decomposed[name].extend(matrix.tobytes() for matrix in m.reshape(-1, 4, 4))
            return kernel(m)

        return spy

    def recomputed(*args):
        raise AssertionError("ree recomputed what the chunk holds")

    face_starts = measures._face_starts

    def recorded_starts(rho, rows, r, w, e, phi):
        starts.extend(e[rows])
        return face_starts(rho, rows, r, w, e, phi)

    with monkeypatch.context() as patch:
        patch.setattr(measures, "herm_eig", recomputed)
        patch.setattr(measures, "_face_starts", recorded_starts)
        for name in ("eigh", "eigvalsh"):
            patch.setattr(measures, name, spied(name, getattr(measures, name)))
        records, _ = experiment._measure_chunk(range(66), ExperimentConfig(count=66))
    assert len(calls) == 66
    assert calls[-1][2].iterations == 0 < calls[-2][2].iterations
    # The chunk's stacked eigh is the one decomposition of each rho^G.
    for rho, _, _ in calls:
        pt = partial_transpose(rho).tobytes()
        assert (decomposed["eigh"].count(pt), decomposed["eigvalsh"].count(pt)) == (1, 0)
    # The face start's e is the lambda_min that the negativity reads.
    entangled = [record for record in records if not record.separable]
    assert len(starts) == len(entangled) > 0
    for e, record in zip(starts, entangled):
        assert record.negativity == -2.0 * e

    def bits(solution):
        fields = (solution.value, solution.gap, solution.iterations, solution.converged)
        return fields + (solution.closest_state.tobytes(),)

    for (rho, measured, fed), record in zip(calls, records):
        assert measured is not None
        assert bits(fed) == bits(ree(rho))
        assert (record.negativity, record.separable) == (negativity(rho), is_separable(rho))


def test_bell_diagonal_witnesses_of_both_claims(monkeypatch):
    # Equal measures, different mqfi: both read C = N = 0.4 and REE
    # 1 - H2(0.7), with qfi_max 1.4 and 0.9.  Equal mqfi, different measures:
    # s puts 2 (0.8 - s)^2 / (0.8 + s) on 1.4, while C reads 0.4 and 0.6.
    s = (2.3 - math.sqrt(4.97)) / 2.0
    m = (0.2 - s) / 2.0
    weights = [(0.7, 0.3, 0.0, 0.0), (0.7, 0.1, 0.1, 0.1), (0.8, m, m, s)]
    rhos = np.stack([bell_diagonal(p) for p in weights])
    monkeypatch.setattr(experiment, "_density_matrices", lambda rngs: rhos)
    calls = recording_ree(monkeypatch)
    records, _ = experiment._measure_chunk(range(3), ExperimentConfig(count=3))
    for p, record, (_, _, solution) in zip(weights, records, calls):
        assert not record.separable
        assert abs(record.qfi_max - qfi_bell_diagonal_oracle(p)) <= 1e-14
        assert abs(record.ree - ree_bell_diagonal_oracle(max(p))) <= solution.gap
    for measure in MEASURE_NAMES:
        cell = classify_pair(records[0], records[1], measure)
        assert (cell.measure_relation, cell.mqfi_relation) == ("equal-positive", "greater")
        cell = classify_pair(records[0], records[2], measure)
        assert (cell.measure_relation, cell.mqfi_relation) == ("second-greater", "equal")


def test_records_are_invariant_under_swap_and_conjugation(monkeypatch):
    # The angle columns are left out: the grid point that attains an
    # extreme is not unique, and each angle column moves on about two thirds
    # of the states.
    swap = np.eye(4)[[0, 2, 1, 3]]
    rhos = experiment._density_matrices([derive_stream(1, index) for index in range(300)])
    runs = []
    for stack in (rhos, swap @ rhos @ swap, rhos.conj()):
        monkeypatch.setattr(experiment, "_density_matrices", lambda rngs, stack=stack: stack)
        runs.append(experiment._measure_chunk(range(300), ExperimentConfig(count=300))[0])
    values = ("concurrence", "negativity", "ree", "qfi_raw", "qfi_max", "qfi_min")
    for records in runs[1:]:
        for base, moved in zip(runs[0], records):
            for name in values:
                assert abs(getattr(moved, name) - getattr(base, name)) <= 1e-13, (base.id, name)
            for name in ("separable", "refined", "ree_converged"):
                assert getattr(moved, name) == getattr(base, name), (base.id, name)


def test_emitting_twice_into_one_directory_writes_the_bytes_of_a_fresh_one(small_run, tmp_path):
    # Each emitter writes over an old, longer file in place and truncates it
    # to the new length, so a rerun leaves a fresh directory's bytes, and a
    # hard link to each old file, which keeps its inode, reads the new bytes.
    fresh, again, old = tmp_path / "fresh", tmp_path / "again", tmp_path / "old"
    for directory in (fresh, again, old):
        directory.mkdir()
    expected = emit_all(small_run, fresh)
    for name in expected:
        (again / name).write_text(f"stale {name}\n" * 10000, encoding="utf-8")
        os.link(again / name, old / name)
    assert emit_all(small_run, again) == expected
    assert emit_all(small_run, again) == expected
    assert sorted(os.listdir(again)) == sorted(os.listdir(fresh))
    for name in expected:
        assert os.path.samefile(old / name, again / name)
        assert (old / name).read_bytes() == expected[name]


def test_one_worker_run_never_imports_multiprocessing(tmp_path):
    # A run is one process, and multiprocessing's import would cost a few ms
    # of the command's start-up: the command, with its three file writers,
    # does without it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, entqfi.cli\n"
        f"assert entqfi.cli.main(['--states', '3', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert (tmp_path / "out" / "census.txt").exists()


def test_cli_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["--states", "4", "--seed", "2", "--out", str(out_dir)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("states=4 separable=")
    # the three emitters' wall time closes the timing line
    assert re.search(r"^wall seconds: .* ree=\d+\.\d{3} emit=\d+\.\d{3}$", captured.out, re.M)
    for name in ("states.csv", "census.txt", "fig1_concurrence.csv", "fig1_negativity.csv", "fig1_ree.csv"):
        assert (out_dir / name).exists()


def test_every_submodule_name_is_exported():
    # no two submodules export the same name
    assert len(set(entqfi.__all__)) == len(entqfi.__all__)
    modules = ("states", "sampling", "measures", "fisher", "rotations", "ordering", "experiment")
    for name in modules:
        module = importlib.import_module(f"entqfi.{name}")
        for public in module.__all__:
            assert public in entqfi.__all__, (name, public)
            assert getattr(entqfi, public) is getattr(module, public), (name, public)


def test_every_exported_name_is_read_by_a_run_the_readme_or_the_benchmark():
    # A name that only the tests read belongs in the tests: every export is
    # loaded or imported by another src/ module, a benchmark script or
    # README's python block.
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "src" / "entqfi").glob("*.py"), *(root / "benchmarks").glob("*.py")]
    sources = [path.read_text(encoding="utf-8") for path in paths if path.name != "__init__.py"]
    readme = (root / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert sorted(set(entqfi.__all__) - read) == []


def test_cli_defaults_are_the_config_defaults(capsys):
    args = vars(build_parser().parse_args([]))
    assert args.pop("out") == "out"
    assert ExperimentConfig(**args) == ExperimentConfig()
    args = vars(build_parser().parse_args(["--states", "7", "--eps-order", "ree=0.1"]))
    del args["out"]
    config = ExperimentConfig(**args)
    assert (config.count, config.eps_order["ree"]) == (7, 0.1)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    defaults = ExperimentConfig()
    for flag, value in (
        ("--states N ensemble size", defaults.count),
        ("--seed S master seed", defaults.master_seed),
    ):
        assert f"{flag} (default {value})" in help_text, flag


@pytest.mark.parametrize(
    "flag, value",
    [("--grid-divisor", "8"), ("--refine-divisor", "8"), ("--witness-limit", "3"), ("--jobs", "2")],
)
def test_cli_fixed_grid_and_witness_flags_are_usage_errors(flag, value, tmp_path, capsys):
    # The grids and the witness limit are constants, not run settings, and a
    # run is one process.
    with pytest.raises(SystemExit) as info:
        main([flag, value, "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_config_error_exits_2(tmp_path, capsys):
    for argv in (["--states", "0"], ["--seed", "-1"]):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_cli_bad_eps_flag_exits_2(tmp_path, capsys):
    for pair in ("volume=0.1", "ree=-1", "mqfi=nan"):
        assert main(["--eps-order", pair, "--out", str(tmp_path / "x")]) == 2
        assert "configuration error" in capsys.readouterr().err
    for pair in ("ree", "ree=abc"):
        with pytest.raises(SystemExit) as info:
            main(["--eps-order", pair])
        assert info.value.code == 2
    assert "bad tolerance value 'abc'" in capsys.readouterr().err


def test_cli_io_error_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["--states", "2", "--out", str(blocker)])
    assert code == 1
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, message",
    [
        (ArithmeticError("solver produced a non-PPT candidate state"),
         "state 2 (master seed 7): solver produced a non-PPT candidate state"),
        (EigendecompositionError(np.eye(4)),
         "state 2 (master seed 7): Hermitian eigendecomposition did not converge"),
        (IndexError("index 4 is out of bounds"),
         "state 2 (master seed 7): IndexError: index 4 is out of bounds"),
    ],
    ids=["arithmetic", "eigendecomposition", "other"],
)
def test_cli_state_failure_prints_one_line_and_exits_1(monkeypatch, tmp_path, capsys, error, message):
    poisoned = random_density_matrix(derive_stream(7, 2))

    def failing_ree(rho, cfg=None, *, measured=None):
        if np.array_equal(rho, poisoned):
            raise error
        return ree(rho, measured=measured)

    monkeypatch.setattr(experiment, "ree", failing_ree)
    argv = ["--states", "4", "--seed", "7", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"entqfi: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_readme_library_example_runs():
    # The Library section's code block uses only the public API, so a trim
    # of the exports that breaks it fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert 0.0 <= namespace["sol"].value <= 1.0
    assert namespace["ppt"] == (namespace["sol"].iterations == 0)


def test_committed_entqfi_commands_parse():
    # README's sh blocks and the CI workflow name only flags the parser has.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    sources = {"README": "\n".join(blocks), "tier1.yml": re.sub(r"\$\{\{.*?\}\}", "1", workflow)}
    for where, text in sources.items():
        commands = [line.split() for line in text.splitlines() if line.split()[:1] == ["entqfi"]]
        assert commands, where
        for command in commands:
            build_parser().parse_args(command[1:])
    options = build_parser()._option_string_actions
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    flags = re.findall(r"--[\w-]+", " ".join(re.findall(r"`([^`]*)`", section)))
    assert flags
    for flag in flags:
        assert flag in options, flag
