"""Paired benchmark runs of two checkouts, appended to BENCH_<name>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload ree_entangled --seeds 41 42 43 --trace 0 --name ree_rounds
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload run_experiment --states 1000 --seeds 1 2 3 --name real_size

Both checkouts' ``src`` and ``benchmarks`` are byte-compiled first.  For
each seed, ``benchmarks/run.py --workload W --seed S --seconds R --trace
T`` runs once in each checkout, R being ``run_seconds`` of the
change's ``BENCHMARK.json``.  Which side runs first alternates from pair to
pair, counting the pairs already in the file, so repeated invocations keep
alternating.  The two JSON lines of a pair are appended to
``BENCH_<name>.json`` at the root of this checkout together, once the second
run finishes, so the file holds whole pairs only: an interrupted series
keeps every pair it completed and drops the one in progress.  The file
keeps the layout of ``BENCH_ree_barrier.json`` (``change``, ``command``,
``host``, ``pairs``, ``summary_trace0_medians``, ``runs``); for every
workload and end-to-end metric of the ``--trace 0`` runs the summary also
holds each side's quartiles (``statistics.quantiles``, inclusive method),
the number of pairs the change won, ties counting for neither side, and a
``verdict`` (see ``verdict``).  Each run also records the ``DIAGNOSTICS``
that ``run.py`` prints on its ``metric`` lines: ``wall_s`` is
``raw_wall_s`` divided by ``host_slowdown``, the reference kernel's time
against its nominal time, so a change that moves the divisor moves
``wall_s`` too.  Each workload's summary holds their medians and quartiles
per side under ``diagnostics``, without a verdict.

The two ``PROBES`` time the package at a real size, outside ``benchmarks/``;
they take ``--states`` (default 1000) in place of ``--trace``, and a
checkout needs only its ``src``.  Each probe
runs in the checkout with that ``src`` first on the path and one BLAS
thread (``PROBE_ENV``):

- ``run_experiment``: one process runs ``run_experiment(ExperimentConfig(
  count=N, master_seed=S))`` once to warm up, then three times; it reports
  each ``timing`` key's best of the three, the minor page faults
  (``ru_minflt``) of each timed run and the process's ``ru_maxrss`` (kB);
- ``cli_rerun``: ``python -m entqfi.cli --states N --seed S`` writes into a
  new directory and then again into that directory; it reports the two
  commands' wall times, ``first_s`` and ``rerun_s``, and keeps the CLI's
  ``wall seconds:`` lines.

Pairs alternate and are appended whole as above; a probe's runs record
``trace`` 0, since they run untraced, and their ``states``.  Every time a
probe reports gets quartiles and a verdict, lower being better and
``PROBE_BOUND`` the bound; the timed runs' median ``ru_minflt`` and the
``ru_maxrss`` are diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = (
    "python3 benchmarks/run.py --workload W --seed S --seconds {seconds:g} --trace T,"
    " run from a copy of the parent commit and of the change, alternating which side"
    " runs first per pair"
)
SIDES = ("parent", "change")
# run.py prints these on metric lines only; wall_s = raw_wall_s / host_slowdown.
DIAGNOSTICS = ("raw_wall_s", "host_slowdown")
PROBES = ("run_experiment", "cli_rerun")
PROBE_COMMAND = (
    "{workload} probe, --states {states} --seed S, run from a copy of the parent commit and"
    " of the change, each with its src first on the path and one BLAS thread, alternating"
    " which side runs first per pair"
)
PROBE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# A probe's times are read with the bound BENCHMARK.json gives wall_s.
PROBE_BOUND = 0.25
# The run_experiment probe, run with python -c in a checkout: N and S are its
# arguments; it prints one JSON line.
RUN_PROBE = """\
import json, resource, sys
from entqfi import ExperimentConfig, run_experiment
config = ExperimentConfig(count=int(sys.argv[1]), master_seed=int(sys.argv[2]))
run_experiment(config)
timings, faults = [], []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    timings.append(run_experiment(config).timing)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
best = {key: min(timing[key] for timing in timings) for key in timings[0]}
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"timing": best, "ru_minflt": faults, "ru_maxrss": peak}))
"""


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run in ``checkout``: its JSON result, its env line and
    the values of its ``DIAGNOSTICS`` metric lines.

    ``run.py`` exits 0 whatever its checks find, so a run that reads
    ``correct: false`` or ``failed > 0`` ends the series with that run's
    line, before its pair is appended."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(
            f"bench_pairs: {' '.join(command)} in {checkout} exited with"
            f" {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(
            f"bench_pairs: {' '.join(command)} in {checkout} failed its checks:\n{lines[-1]}"
            f"\n{done.stderr[-2000:]}"
        )
    env = next((line[len("env "):] for line in lines if line.startswith("env ")), "")
    shown = dict(line.split()[1:3] for line in lines if line.startswith("metric "))
    return result, env, {name: float(shown[name]) for name in DIAGNOSTICS if name in shown}


def probe_once(checkout: Path, workload: str, seed: int, states: int):
    """One probe of ``checkout``, one of ``PROBES``: its result, its times
    under ``metrics`` as ``run.py`` lays them out, and its diagnostics.  A
    probe that exits with an error ends the series, before its pair is
    appended."""
    path = os.pathsep.join(filter(None, (str(checkout / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **PROBE_ENV, "PYTHONPATH": path}

    def output(command: list[str]) -> str:
        done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(
                f"bench_pairs: {' '.join(command)} in {checkout} exited with"
                f" {done.returncode}:\n{done.stderr[-2000:]}"
            )
        return done.stdout

    if workload == "run_experiment":
        out = json.loads(output([sys.executable, "-c", RUN_PROBE, str(states), str(seed)]))
        timing = out.pop("timing")
        metrics = {key: {"value": value, "unit": "s"} for key, value in timing.items()}
        faults = statistics.median(out["ru_minflt"])
        return {"metrics": metrics, **out}, {"ru_minflt": faults, "ru_maxrss": out["ru_maxrss"]}
    command = [sys.executable, "-m", "entqfi.cli", "--states", str(states), "--seed", str(seed)]
    metrics, lines = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        for run in ("first", "rerun"):
            started = time.perf_counter()
            stdout = output(command + ["--out", str(Path(scratch) / "out")])
            metrics[f"{run}_s"] = {"value": time.perf_counter() - started, "unit": "s"}
            lines += [line for line in stdout.splitlines() if line.startswith("wall seconds:")]
    return {"metrics": metrics, "wall_seconds": lines}, {}


def probe_host() -> str:
    """The host line of a probe series, in the layout of ``run.py``'s."""
    threads = " ".join(f"{name}={value}" for name, value in PROBE_ENV.items())
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={metadata.version('numpy')} {threads}"
    )


def compile_sources(checkout: Path) -> None:
    """Byte-compile ``src`` and ``benchmarks`` of ``checkout``, either that
    it has, so that no run, and no set-up probe inside one, pays for
    compiling them, also where ``PYTHONDONTWRITEBYTECODE=1`` keeps the runs
    from writing bytecode."""
    parts = [part for part in ("src", "benchmarks") if (checkout / part).is_dir()]
    command = [sys.executable, "-m", "compileall", "-q", *parts]
    subprocess.run(command, cwd=checkout, check=True)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def side_quartiles(values: dict[str, list[float]]) -> dict[str, float]:
    """Each side's median and quartiles of one metric."""
    entry = {}
    for side in SIDES:
        q1, median, q3 = quartiles(values[side])
        entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
    return entry


def paired(runs: list[dict]) -> list[tuple[dict, dict]]:
    """(parent, change) run pairs: the k-th parent and k-th change run of
    each workload, seed, trace setting and probe size."""
    groups: dict[tuple, dict[str, list[dict]]] = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"], run.get("states"))
        groups.setdefault(key, {side: [] for side in SIDES})[run["side"]].append(run)
    return [pair for group in groups.values() for pair in zip(group["parent"], group["change"])]


def verdict(parent: list[float], change: list[float], won: int, sign: float, bound: float) -> str:
    """One metric's reading over paired runs, ``sign`` being 1 where lower
    is better and ``bound`` the relative worsening ``BENCHMARK.json`` allows:

    - ``gain``: over at least ten pairs, the change won at least 9/10 of
      them and the medians differ by more than the parent's interquartile
      range (six alternated pairs of an unchanged set-up path read
      0.171 -> 0.187 s, 0.181 -> 0.171 s with 6 of 6 won, and
      0.172 -> 0.181 s, so fewer pairs cannot resolve a change below ~10%);
    - ``worse``: the change's median is worse than the parent's by more
      than the bound;
    - ``unresolved``: the parent's interquartile range exceeds the bound,
      unless every change run is better than every parent run;
    - ``same``: none of these.
    """
    q1, median, q3 = quartiles(parent)
    worsening = sign * (statistics.median(change) - median)
    if len(parent) >= 10 and 10 * won >= 9 * len(parent) and -worsening > q3 - q1:
        return "gain"
    if worsening > bound * abs(median):
        return "worse"
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(median) and not every_run_better:
        return "unresolved"
    return "same"


def probe_metrics(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """The metrics that a probe's pairs are judged on: every time that each
    of their runs reports, lower being better, with ``PROBE_BOUND``."""
    runs = [run for pair in pairs for run in pair]
    return [
        {"name": name, "better": "lower", "bound": PROBE_BOUND}
        for name in runs[0]["result"]["metrics"]
        if all(name in run["result"]["metrics"] for run in runs)
    ]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload of the ``--trace 0`` pairs, each metric's quartiles,
    wins and verdict, ``end_to_end`` for a ``run.py`` workload and
    ``probe_metrics`` for a probe, and the quartiles of the diagnostics."""
    summary: dict[str, dict] = {}
    pairs = [pair for pair in paired(runs) if pair[0]["trace"] == 0]
    for workload in dict.fromkeys(parent["workload"] for parent, _ in pairs):
        mine = [pair for pair in pairs if pair[0]["workload"] == workload]
        summary[workload] = {}
        for metric in probe_metrics(mine) if workload in PROBES else end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {
                side: [run["result"]["metrics"][name]["value"] for run in sides]
                for side, sides in zip(SIDES, zip(*mine))
            }
            entry = side_quartiles(values)
            entry["pairs"] = len(mine)
            entry["change_won"] = sum(
                sign * (change - parent) < 0.0
                for parent, change in zip(values["parent"], values["change"])
            )
            entry["verdict"] = verdict(
                values["parent"], values["change"], entry["change_won"], sign, metric["bound"]
            )
            summary[workload][name] = entry
        summary[workload]["diagnostics"] = diagnostics = {}
        names = (name for pair in mine for run in pair for name in run.get("diagnostics", {}))
        for name in dict.fromkeys(names):
            # Runs recorded before the diagnostics were kept have none.
            known = [pair for pair in mine if all(name in run.get("diagnostics", {}) for run in pair)]
            if not known:
                continue
            values = {
                side: [run["diagnostics"][name] for run in sides]
                for side, sides in zip(SIDES, zip(*known))
            }
            diagnostics[name] = {**side_quartiles(values), "pairs": len(known)}
    return summary


def describe_pairs(runs: list[dict]) -> str:
    seeds: dict[tuple, list[int]] = {}
    for parent, _ in paired(runs):
        setting = f"--trace {parent['trace']}"
        if "states" in parent:
            setting = f"--states {parent['states']}"
        seeds.setdefault((parent["workload"], setting), []).append(parent["seed"])
    return "; ".join(
        f"{workload} {setting}: seeds {', '.join(map(str, values))}"
        f" ({len(values)} pair{'s' if len(values) != 1 else ''})"
        for (workload, setting), values in seeds.items()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument(
        "--workload", required=True, help=f"a run.py workload, or a probe: {', '.join(PROBES)}"
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="run.py's --trace; a probe takes none"
    )
    parser.add_argument("--states", type=int, default=1000, help="a probe's states (default 1000)")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    probe = args.workload in PROBES
    if not probe and args.trace is None:
        parser.error("a benchmarks/run.py workload needs --trace")
    needed = Path("src") / "entqfi" if probe else Path("benchmarks") / "run.py"
    for checkout in checkouts.values():
        if not (checkout / needed).exists():
            parser.error(f"{checkout} has no {needed}")
    if probe:
        end_to_end, command = [], PROBE_COMMAND.format(workload=args.workload, states=args.states)
    else:
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        end_to_end, seconds = spec["end_to_end"], spec["run_seconds"]
        command = COMMAND.format(seconds=seconds)
    for checkout in checkouts.values():
        compile_sources(checkout)

    path = ROOT / f"BENCH_{args.name}.json"
    record = {
        "change": args.name,
        "command": command,
        "host": "",
        "pairs": "",
        "summary_trace0_medians": {},
        "runs": [],
    }
    if path.exists():
        record = json.loads(path.read_text(encoding="utf-8"))
    done_pairs = len(paired(record["runs"]))
    for k, seed in enumerate(args.seeds):
        order = SIDES if (done_pairs + k) % 2 == 0 else SIDES[::-1]
        pair = []
        for side in order:
            run = {"side": side, "workload": args.workload, "seed": seed}
            if probe:
                result, shown = probe_once(checkouts[side], args.workload, seed, args.states)
                env, status = probe_host(), ""
                run.update(trace=0, states=args.states)
            else:
                result, env, shown = run_once(
                    checkouts[side], args.workload, seed, seconds, args.trace
                )
                status = f" correct={result['correct']} failed={result['failed']}"
                run.update(trace=args.trace)
            pair.append({**run, "result": result, "diagnostics": shown})
            record["host"] = record["host"] or env
            values = {name: metric["value"] for name, metric in result["metrics"].items()}
            print(
                f"{args.workload} seed={seed} {side}:{status}"
                + "".join(f" {name}={value:.6g}" for name, value in {**values, **shown}.items()),
                flush=True,
            )
        record["runs"] += pair
        record["pairs"] = describe_pairs(record["runs"])
        record["summary_trace0_medians"] = summarize(record["runs"], end_to_end)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
