"""Experiment pipeline, CSV emission, census report, CLI."""

import math
import multiprocessing
import pickle
import types

import numpy as np
import pytest

from entqfi import (
    EigendecompositionError,
    EulerAngleSet,
    ExperimentConfig,
    ExperimentResult,
    StateRecord,
    census,
    concurrence,
    derive_stream,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    find_counterexamples,
    is_separable,
    random_density_matrix,
    ree,
    run_experiment,
)
from entqfi import experiment, measures
from entqfi.cli import main
from entqfi.experiment import (
    PLOT_CSV_HEADER,
    STATE_CSV_HEADER,
    format_value,
    unresolved_ids,
)
from entqfi.ordering import MEASURE_NAMES
from helpers import bell_state

ZERO_ANGLES = EulerAngleSet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def small_run():
    return run_experiment(ExperimentConfig(count=25, master_seed=1), jobs=1)


def emit_all(result, directory):
    emit_state_csv(result, directory / "states.csv")
    emit_plot_data(result, directory)
    emit_census_report(result, directory / "census.txt")
    names = ["states.csv", "census.txt"] + [f"fig1_{m}.csv" for m in ("concurrence", "negativity", "ree")]
    return {name: (directory / name).read_bytes() for name in names}


def reference_format_value(x):
    """The per-value formatter the emitters are checked against."""
    if x == 0.0:
        return "0.000000000000"
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x!r}")
    exponent = math.floor(math.log10(abs(x)))
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
    # The floats next to 10^k: log10 can round to k from either side.
    assert format_value(9.999999999999999e-06) == "0.0000100000000000"
    assert format_value(0.09999999999999999) == "0.100000000000"
    assert format_value(0.9999999999999999) == "1.000000000000"
    assert format_value(1.0000000000000002) == "1.00000000000"
    assert format_value(9.999999999999998) == "10.00000000000"
    assert format_value(10.000000000000002) == "10.0000000000"
    # the smallest subnormal, 4.94065645841247e-324
    assert format_value(5e-324) == "0." + "0" * 323 + "494065645841"
    for x in [*powers_of_ten_and_neighbours(-30, 24), 5e-324, -5e-324, -0.5, 1e300]:
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
    assert cfg.grid_divisor == 4
    assert cfg.refine_divisor == 6
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
        {"grid_divisor": 1},
        {"refine_divisor": 4},
        {"refine_divisor": 3},
        {"ree_components": 1},
        {"ree_multistarts": 0},
        {"ree_max_sweeps": 0},
        {"ree_threshold": 0.0},
        {"witness_limit": 0},
        {"eps_order": {"volume": 0.1}},
        {"eps_order": {"ree": -1.0}},
        {"ree_components": 6},
        {"eps_order": {"mqfi": float("nan")}},
        {"eps_order": {"ree": float("inf")}},
        {"master_seed": -1},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_single_state_run(tmp_path):
    result = run_experiment(ExperimentConfig(count=1, master_seed=1), jobs=1)
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
    ]
    assert unresolved_ids(records) == [2, 3]


def test_runs_are_deterministic(tmp_path):
    cfg = ExperimentConfig(count=25, master_seed=1)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    files_a = emit_all(run_experiment(cfg, jobs=1), dir_a)
    files_b = emit_all(run_experiment(cfg, jobs=1), dir_b)
    assert files_a == files_b


def test_worker_fanout_does_not_change_results(tmp_path):
    cfg = ExperimentConfig(count=12, master_seed=3)
    serial = run_experiment(cfg, jobs=1)
    fanned = run_experiment(cfg, jobs=2)
    assert serial.records == fanned.records
    dir_a = tmp_path / "serial"
    dir_b = tmp_path / "fanned"
    dir_a.mkdir()
    dir_b.mkdir()
    assert emit_all(serial, dir_a) == emit_all(fanned, dir_b)


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
    with pytest.raises(ValueError, match="^jobs must be at least 1, got 0$"):
        run_experiment(ExperimentConfig(count=2), jobs=0)


def test_failure_names_the_state(monkeypatch):
    def failing_ree(rho, cfg=None):
        raise ArithmeticError("solver produced a non-PPT candidate state")

    monkeypatch.setattr(experiment, "ree", failing_ree)
    with pytest.raises(ArithmeticError, match=r"^state 0 \(master seed 7\): solver") as info:
        run_experiment(ExperimentConfig(count=3, master_seed=7), jobs=1)
    assert isinstance(info.value.__cause__, ArithmeticError)


@pytest.mark.parametrize("jobs", [1, 2])
def test_any_failure_names_the_state(monkeypatch, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched measure reaches pool workers only through fork")
    poisoned = random_density_matrix(derive_stream(7, 1))

    def failing_concurrence(rho):
        if np.array_equal(rho, poisoned):
            raise IndexError("index 4 is out of bounds for axis 0 with size 4")
        return concurrence(rho)

    monkeypatch.setattr(experiment, "concurrence", failing_concurrence)
    message = r"^state 1 \(master seed 7\): IndexError: index 4 is out of bounds"
    with pytest.raises(RuntimeError, match=message) as info:
        run_experiment(ExperimentConfig(count=3, master_seed=7), jobs=jobs)
    if jobs == 1:
        assert isinstance(info.value.__cause__, IndexError)
    assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)


def test_ree_outside_unit_interval_beyond_its_gap_names_the_state(monkeypatch):
    monkeypatch.setattr(measures, "relative_entropy", lambda rho, sigma: 1.01)
    with pytest.raises(ArithmeticError, match=r"^REE 1\.01 exceeds 1 bit"):
        ree(bell_state())
    states = [random_density_matrix(derive_stream(7, i)) for i in range(3)]
    first = next(i for i, rho in enumerate(states) if not is_separable(rho))
    message = rf"^state {first} \(master seed 7\): REE 1\.01 exceeds 1 bit"
    with pytest.raises(ArithmeticError, match=message):
        run_experiment(ExperimentConfig(count=3, master_seed=7), jobs=1)


def test_ree_excess_within_its_gap_is_clipped():
    # |Phi+> reads 1 + 1.8e-10 bits before the rule, with a certified gap of 2.7e-10.
    assert ree(bell_state()).value == 1.0


def test_pool_never_outnumbers_states(monkeypatch):
    serial = run_experiment(ExperimentConfig(count=3, master_seed=5), jobs=1)
    opened = []

    class InProcessPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize):
            return [func(task) for task in tasks]

    monkeypatch.setattr(experiment, "multiprocessing", types.SimpleNamespace(Pool=InProcessPool))
    fanned = run_experiment(ExperimentConfig(count=3, master_seed=5), jobs=64)
    assert opened == [3]
    assert fanned.records == serial.records


def test_eigendecomposition_failure_names_the_state(monkeypatch):
    def failing_search(rho, base_divisor, refine_divisor):
        raise EigendecompositionError(rho)

    monkeypatch.setattr(experiment, "optimize_with_refinement", failing_search)
    with pytest.raises(EigendecompositionError, match=r"^state 0 \(master seed 8\): ") as info:
        run_experiment(ExperimentConfig(count=3, master_seed=8), jobs=1)
    assert info.value.matrix.shape == (4, 4)
    # a worker process pickles the error back: message and matrix survive
    copy = pickle.loads(pickle.dumps(info.value))
    assert str(copy) == str(info.value)
    assert np.array_equal(copy.matrix, info.value.matrix)


def test_cli_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["--states", "4", "--seed", "2", "--out", str(out_dir), "--jobs", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("states=4 separable=")
    for name in ("states.csv", "census.txt", "fig1_concurrence.csv", "fig1_negativity.csv", "fig1_ree.csv"):
        assert (out_dir / name).exists()


def test_cli_config_error_exits_2(tmp_path, capsys):
    for argv in (["--states", "0"], ["--seed", "-1"]):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_cli_bad_jobs_is_a_configuration_error(tmp_path, capsys):
    assert main(["--states", "2", "--jobs", "0", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == "entqfi: configuration error: jobs must be at least 1, got 0\n"
    assert not (tmp_path / "x").exists()


def test_cli_bad_eps_flag_exits_2(tmp_path, capsys):
    for pair in ("volume=0.1", "ree=-1", "mqfi=nan"):
        assert main(["--eps-order", pair, "--out", str(tmp_path / "x")]) == 2
        assert "configuration error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["--eps-order", "ree"])
    assert info.value.code == 2


def test_cli_io_error_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["--states", "2", "--out", str(blocker), "--jobs", "1"])
    assert code == 1
    assert "I/O error" in capsys.readouterr().err
