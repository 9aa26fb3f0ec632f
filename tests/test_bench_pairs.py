"""tools/bench_pairs.py on synthetic runs: the per-metric verdict, the series and
the checks of each run; its real-size probes on fake checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
# Median 1.0 and quartiles 1.0 and 3.0: a spread of 2.0, over the 0.25 bound.
WIDE = [1.0] * 6 + [3.0] * 4


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        (PARENT, [0.9 * v for v in PARENT], "gain"),
        # 8 of 10 pairs won is short of 9/10.
        (PARENT, [0.9 * v for v in PARENT[:8]] + [1.2, 1.2], "same"),
        # 10 of 10 won, but the medians differ by less than the parent's spread.
        (PARENT, [v - 0.001 for v in PARENT], "same"),
        (PARENT, [1.3 * v for v in PARENT], "worse"),
        (PARENT, [1.2 * v for v in PARENT], "same"),
        (WIDE, [v * 1.01 for v in WIDE], "unresolved"),
        # Every change run beats every parent run, so the spread is no excuse.
        (WIDE, [0.9] * 10, "same"),
        # 6 of 6 pairs won is too few pairs to claim a gain.
        (PARENT[:6], [0.9 * v for v in PARENT[:6]], "same"),
    ],
    ids=["gain", "too-few-wins", "within-spread", "worse", "within-bound", "unresolved",
         "every-run-better", "too-few-pairs"],
)
@pytest.mark.parametrize("better", ["lower", "higher"])
def test_verdict(parent, change, expected, better):
    sign = 1.0 if better == "lower" else -1.0
    if better == "higher":  # the mirror image reads the same
        parent, change = [-v for v in parent], [-v for v in change]
    won = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    assert bench_pairs.verdict(parent, change, won, sign, 0.25) == expected


def test_summary_carries_a_verdict_per_workload_and_metric():
    def run(side, seed, wall, rate):
        metrics = {"wall_s": {"value": wall}, "states_per_s": {"value": rate}}
        return {"side": side, "workload": "w", "seed": seed, "trace": 0,
                "result": {"metrics": metrics}}

    runs = []
    for seed, wall in enumerate(PARENT):
        runs += [run("parent", seed, wall, 100.0 / wall), run("change", seed, 0.9 * wall, 1.0)]
    end_to_end = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "states_per_s", "better": "higher", "bound": 0.25},
    ]
    summary = bench_pairs.summarize(runs, end_to_end)["w"]
    assert summary["wall_s"]["verdict"] == "gain"
    assert summary["wall_s"]["change_won"] == 10
    assert summary["states_per_s"]["verdict"] == "worse"
    assert summary["states_per_s"]["change_won"] == 0


def test_main_compiles_both_checkouts_before_the_first_run(tmp_path, monkeypatch):
    # With PYTHONDONTWRITEBYTECODE=1 a run would compile src and benchmarks
    # afresh, inside its set-up probe; main compiles both checkouts first.
    checkouts = []
    for side in ("parent", "change"):
        root = tmp_path / side
        for module in ("benchmarks/run.py", "src/pkg/mod.py"):
            (root / module).parent.mkdir(parents=True, exist_ok=True)
            (root / module).write_text("X = 1\n", encoding="utf-8")
        spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
        (root / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        checkouts.append(root)
    compiled = []

    def run_once(checkout, workload, seed, seconds, trace):
        compiled.append(
            all(any((root / part).rglob("*.pyc")) for root in checkouts for part in ("src", "benchmarks"))
        )
        return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}, "host", {}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]), "--workload", "w"]
    assert bench_pairs.main(argv + ["--seeds", "1", "--trace", "0", "--name", "t"]) == 0
    assert compiled == [True, True]
    assert (tmp_path / "BENCH_t.json").is_file()


@pytest.mark.parametrize(
    "correct, failed, passes",
    [(True, 0, True), (False, 0, False), (True, 2, False)],
    ids=["correct", "incorrect", "failed-items"],
)
def test_run_once_stops_on_a_run_that_fails_its_checks(monkeypatch, tmp_path, correct, failed, passes):
    # run.py exits 0 whatever its checks find; run_once reads its last line.
    line = json.dumps({"correct": correct, "failed": failed, "metrics": {}})

    def fake_run(command, cwd, capture_output, text):
        stdout = f"env host=h\nmetric wall_s 1 s\n{line}\n"
        return bench_pairs.subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    if passes:
        assert bench_pairs.run_once(tmp_path, "w", 1, 1.0, 0) == (json.loads(line), "host=h", {})
        return
    with pytest.raises(SystemExit) as info:
        bench_pairs.run_once(tmp_path, "w", 1, 1.0, 0)
    assert line in str(info.value.code)


def test_main_appends_no_pair_with_a_failed_run(monkeypatch, tmp_path):
    checkouts = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "benchmarks").mkdir(parents=True)
        (root / "benchmarks" / "run.py").write_text("X = 1\n", encoding="utf-8")
        spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
        (root / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        checkouts.append(root)
    results = iter([(True, 0), (True, 0), (True, 0), (False, 1)])

    def fake_run(command, cwd, capture_output=False, text=False, check=False):
        correct, failed = next(results)
        metrics = {"wall_s": {"value": 1.0}}
        line = json.dumps({"correct": correct, "failed": failed, "metrics": metrics})
        return bench_pairs.subprocess.CompletedProcess(command, 0, stdout=f"env h\n{line}\n", stderr="")

    monkeypatch.setattr(bench_pairs, "compile_sources", lambda checkout: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]), "--workload", "w"]
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["--seeds", "1", "2", "--trace", "0", "--name", "t"])
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert [run["seed"] for run in record["runs"]] == [1, 1]


def test_each_run_keeps_what_wall_s_is_divided_by(monkeypatch, tmp_path):
    # run.py prints raw_wall_s and host_slowdown only on metric lines above
    # its JSON line; each run records both, and each workload's summary
    # holds their quartiles per side, without a verdict.
    checkouts = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "benchmarks").mkdir(parents=True)
        (root / "benchmarks" / "run.py").write_text("X = 1\n", encoding="utf-8")
        spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
        (root / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        checkouts.append(root)
    # parent, change, change, parent: the second pair runs the change first.
    raws = iter([(2.0, 1.0), (1.8, 1.2), (1.9, 1.25), (2.2, 1.1)])

    def fake_run(command, cwd, capture_output=False, text=False, check=False):
        raw, slowdown = next(raws)
        line = json.dumps({"correct": True, "failed": 0, "metrics": {"wall_s": {"value": raw / slowdown}}})
        stdout = (
            f"env h\nmetric wall_s {raw / slowdown:.6g} s\nmetric failed_frac 0 ratio\n"
            f"metric host_slowdown {slowdown:.6g} ratio\nmetric raw_wall_s {raw:.6g} s\n{line}\n"
        )
        return bench_pairs.subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs, "compile_sources", lambda checkout: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]), "--workload", "w"]
    assert bench_pairs.main(argv + ["--seeds", "1", "2", "--trace", "0", "--name", "t"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert list(record) == ["change", "command", "host", "pairs", "summary_trace0_medians", "runs"]
    assert [(run["side"], run["diagnostics"]) for run in record["runs"]] == [
        ("parent", {"raw_wall_s": 2.0, "host_slowdown": 1.0}),
        ("change", {"raw_wall_s": 1.8, "host_slowdown": 1.2}),
        ("change", {"raw_wall_s": 1.9, "host_slowdown": 1.25}),
        ("parent", {"raw_wall_s": 2.2, "host_slowdown": 1.1}),
    ]
    summary = record["summary_trace0_medians"]["w"]
    assert summary["wall_s"]["change_won"] == 2
    expected = {
        "raw_wall_s": {"parent": (2.05, 2.1, 2.15), "change": (1.825, 1.85, 1.875)},
        "host_slowdown": {"parent": (1.025, 1.05, 1.075), "change": (1.2125, 1.225, 1.2375)},
    }
    assert set(summary["diagnostics"]) == set(expected)
    for name, sides in expected.items():
        entry = summary["diagnostics"][name]
        assert entry.pop("pairs") == 2
        assert entry == pytest.approx(
            {f"{side}_{stat}": value for side, values in sides.items()
             for stat, value in zip(("q1", "median", "q3"), values)}
        )
    # A series begun before runs kept their diagnostics summarizes without them.
    for run in record["runs"]:
        del run["diagnostics"]
    assert bench_pairs.summarize(record["runs"], spec["end_to_end"])["w"]["diagnostics"] == {}


# A fake checkout's entqfi for the probes: each probe process logs its side
# once, on import, and run_experiment reports that side's fixed timing.  It
# fails unless BLAS is pinned to one thread, and a probe that imported the
# real package in its place would report other keys.
FAKE_PACKAGE = """\
import os
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
with open(ROOT.parent / "probes.log", "a", encoding="utf-8") as log:
    log.write(ROOT.name + "\\n")
TIMING = {timing!r}


class ExperimentConfig:
    def __init__(self, count, master_seed):
        self.master_seed = master_seed


def run_experiment(config):
    if ROOT.name == "parent" and config.master_seed == 3:
        raise RuntimeError("the probe fails")
    return types.SimpleNamespace(timing=TIMING)
"""
# Its CLI says whether its output directory was new.
FAKE_CLI = """\
import sys
from pathlib import Path

out = Path(sys.argv[sys.argv.index("--out") + 1])
print("states=1")
print(f"wall seconds: fresh={int(not out.exists())}")
out.mkdir(exist_ok=True)
"""


def fake_checkouts(tmp_path, monkeypatch):
    """A parent whose total_wall reads half the change's, and argv naming
    both; the series file is written under tmp_path."""
    timings = {
        "parent": {"total_wall": 1.0, "ree_wall": 0.5},
        "change": {"total_wall": 2.0, "ree_wall": 0.5},
    }
    for side, timing in timings.items():
        package = tmp_path / side / "src" / "entqfi"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(FAKE_PACKAGE.format(timing=timing), encoding="utf-8")
        (package / "cli.py").write_text(FAKE_CLI, encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_probe_pairs_alternate_and_read_a_verdict_per_timing_key(tmp_path, monkeypatch):
    argv = fake_checkouts(tmp_path, monkeypatch) + ["--workload", "run_experiment", "--states", "7"]
    assert bench_pairs.main(argv + ["--seeds", "1", "2", "--name", "t"]) == 0
    # A second invocation goes on alternating from the pairs in the file.
    assert bench_pairs.main(argv + ["--seeds", "4", "--name", "t"]) == 0
    log = (tmp_path / "probes.log").read_text(encoding="utf-8").split()
    assert log == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert [(run["side"], run["seed"]) for run in record["runs"]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 4), ("change", 4),
    ]
    assert record["pairs"] == "run_experiment --states 7: seeds 1, 2, 4 (3 pairs)"
    for run in record["runs"]:
        assert run["states"] == 7 and len(run["result"]["ru_minflt"]) == 3
        assert set(run["diagnostics"]) == {"ru_minflt", "ru_maxrss"}
    summary = record["summary_trace0_medians"]["run_experiment"]
    assert summary["total_wall"]["verdict"] == "worse"
    assert summary["total_wall"]["change_won"] == 0
    assert summary["ree_wall"]["verdict"] == "same"
    assert summary["ree_wall"]["parent_median"] == summary["ree_wall"]["change_median"] == 0.5
    assert {name: entry["pairs"] for name, entry in summary["diagnostics"].items()} == {
        "ru_minflt": 3, "ru_maxrss": 3,
    }


def test_a_failed_probe_appends_no_part_of_its_pair(tmp_path, monkeypatch):
    # The second pair runs the change first, then the parent, whose probe
    # fails: the change's run of that pair is dropped with it.
    argv = fake_checkouts(tmp_path, monkeypatch) + ["--workload", "run_experiment"]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv + ["--seeds", "1", "3", "--name", "t"])
    assert "the probe fails" in str(info.value.code)
    assert (tmp_path / "probes.log").read_text(encoding="utf-8").split() == [
        "parent", "change", "change", "parent",
    ]
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert [(run["side"], run["seed"]) for run in record["runs"]] == [("parent", 1), ("change", 1)]


def test_the_cli_probe_writes_into_a_new_directory_then_into_it_again(tmp_path, monkeypatch):
    argv = fake_checkouts(tmp_path, monkeypatch) + ["--workload", "cli_rerun", "--states", "5"]
    assert bench_pairs.main(argv + ["--seeds", "1", "--name", "t"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    for run in record["runs"]:
        assert list(run["result"]["metrics"]) == ["first_s", "rerun_s"]
        assert run["result"]["wall_seconds"] == ["wall seconds: fresh=1", "wall seconds: fresh=0"]
    summary = record["summary_trace0_medians"]["cli_rerun"]
    assert [name for name in summary if name != "diagnostics"] == ["first_s", "rerun_s"]
    assert all(summary[name]["pairs"] == 1 for name in ("first_s", "rerun_s"))
