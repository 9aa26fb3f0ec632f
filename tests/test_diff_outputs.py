"""tools/diff_outputs.py on small runs: identical outputs report nothing, and a
moved cell, census row, witness line or raw value is reported, a ree cell
beside its gap."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from entqfi import (
    EulerAngleSet,
    ExperimentConfig,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    run_experiment,
)

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("diff_outputs", _ROOT / "tools" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)

_SEED, _STATES = 1, 12


def _emit(result, directory: Path) -> Path:
    directory.mkdir()
    emit_state_csv(result, directory / "states.csv")
    emit_plot_data(result, directory)
    emit_census_report(result, directory / "census.txt")
    return directory


def _raw(result, gaps=None) -> dict:
    """What ``raw_values`` reads of a run in this process."""
    records = result.records
    raw = {name: {r.id: getattr(r, name) for r in records} for name in diff_outputs.RAW_FIELDS}
    for angles in ("max_angles", "min_angles"):
        for k, name in enumerate(EulerAngleSet._fields):
            raw[f"{angles}.{name}"] = {r.id: getattr(r, angles)[k] for r in records}
    return {**raw, "gap": gaps or {}}


@pytest.fixture(scope="module")
def small_run():
    return run_experiment(ExperimentConfig(count=_STATES, master_seed=_SEED))


def test_identical_outputs_report_nothing(small_run, tmp_path):
    parent, change = _emit(small_run, tmp_path / "parent"), _emit(small_run, tmp_path / "change")
    raw = _raw(small_run, {1: 1e-13})
    assert diff_outputs.diff_seed(parent, change, raw, raw) == []


def test_a_moved_ree_cell_is_reported_beside_the_parents_gap(small_run, tmp_path):
    # State 1 is entangled; a move of 3e-12 bits shows in the printed digits.
    records = list(small_run.records)
    assert not records[1].separable
    records[1] = dataclasses.replace(records[1], ree=records[1].ree + 3e-12)
    moved = dataclasses.replace(small_run, records=records)
    parent, change = _emit(small_run, tmp_path / "parent"), _emit(moved, tmp_path / "change")
    lines = diff_outputs.diff_seed(parent, change, _raw(small_run, {1: 6e-12}), _raw(moved))
    assert lines[0].startswith("  states.csv ree: 1 cells moved, largest printed move ")
    assert lines[1].startswith("    id 1: ")
    assert lines[1].endswith(", raw move 3e-12 bits, parent gap 6e-12 bits (0.5 of it)")
    assert lines[2].startswith("  fig1_ree.csv measure: 1 cells moved, largest printed move ")
    assert lines[3] == (
        f"  raw ree: 1 of {_STATES} values moved, largest 3e-12 bits,"
        " at most 0.5 of the parent's gap, 0 at or above it"
    )
    assert len(lines) == 4


def test_a_raw_qfi_move_below_the_printed_digits_is_reported(small_run, tmp_path):
    # A qfi_max move of 1e-16 leaves every output byte as it was.
    records = list(small_run.records)
    records[2] = dataclasses.replace(records[2], qfi_max=records[2].qfi_max + 1e-16)
    moved = dataclasses.replace(small_run, records=records)
    parent, change = _emit(small_run, tmp_path / "parent"), _emit(moved, tmp_path / "change")
    move = records[2].qfi_max - small_run.records[2].qfi_max
    assert 0.0 < move < 1e-15
    lines = diff_outputs.diff_seed(parent, change, _raw(small_run), _raw(moved))
    assert lines == [f"  raw qfi_max: 1 of {_STATES} values moved, largest {move:.3g}"]


def test_moved_census_rows_and_witness_lines_are_reported(small_run, tmp_path):
    parent, change = _emit(small_run, tmp_path / "parent"), _emit(small_run, tmp_path / "change")
    lines = (change / "census.txt").read_text().splitlines()
    table = lines.index("[census ree]") + 2
    witnesses = [k for k, line in enumerate(lines) if line.startswith("cell=")]
    lines[table] = lines[table].replace(lines[table].split()[1], "999")
    lines[witnesses[0]] = lines[witnesses[0]].replace(" measure_1=", " measure_1=1")
    gone = lines.pop(witnesses[-1])
    (change / "census.txt").write_text("\n".join(lines) + "\n")
    raw = _raw(small_run)
    report = diff_outputs.diff_seed(parent, change, raw, raw)
    assert len(report) == 3
    relation = lines[table].split()[0]
    assert report[0].startswith(f"  census.txt [census ree] {relation}: ")
    assert "-> 999" in report[0]
    assert " measure_1=" in report[1] and "-> measure_1=1" in report[1]
    assert report[2].endswith(f": only in the parent: {gone}")


def test_a_checkout_runs_the_command_and_the_raw_probe(small_run, tmp_path):
    # Both subprocesses, on this checkout and a few states: the files of the
    # command and the raw values and gaps match the run in this process.
    states = 4
    out = tmp_path / "out"
    diff_outputs.run_outputs(_ROOT, _SEED, states, out)
    expected = _emit(run_experiment(ExperimentConfig(count=states, master_seed=_SEED)), tmp_path / "e")
    for name in diff_outputs.FILES + (diff_outputs.REPORT,):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    raw = diff_outputs.raw_values(_ROOT, _SEED, states, gaps=True)
    head = dataclasses.replace(small_run, records=small_run.records[:states])
    assert raw == _raw(head, raw["gap"])
    entangled = [r.id for r in small_run.records[:states] if not r.separable]
    assert sorted(raw["gap"]) == entangled and all(0.0 < gap < 1e-10 for gap in raw["gap"].values())
