"""Paired benchmark runs of two checkouts, appended to BENCH_<name>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload ree_entangled --seeds 41 42 43 --trace 0 --name ree_rounds

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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def compile_sources(checkout: Path) -> None:
    """Byte-compile ``src`` and ``benchmarks`` of ``checkout``, so that no
    run, and no set-up probe inside one, pays for compiling them, also where
    ``PYTHONDONTWRITEBYTECODE=1`` keeps the runs from writing bytecode."""
    command = [sys.executable, "-m", "compileall", "-q", "src", "benchmarks"]
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
    each workload, seed and trace setting."""
    groups: dict[tuple, dict[str, list[dict]]] = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
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


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    summary: dict[str, dict] = {}
    pairs = [pair for pair in paired(runs) if pair[0]["trace"] == 0]
    for workload in dict.fromkeys(parent["workload"] for parent, _ in pairs):
        mine = [pair for pair in pairs if pair[0]["workload"] == workload]
        summary[workload] = {}
        for metric in end_to_end:
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
        for name in DIAGNOSTICS:
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
        seeds.setdefault((parent["workload"], parent["trace"]), []).append(parent["seed"])
    return "; ".join(
        f"{workload} --trace {trace}: seeds {', '.join(map(str, values))}"
        f" ({len(values)} pair{'s' if len(values) != 1 else ''})"
        for (workload, trace), values in seeds.items()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "benchmarks" / "run.py").is_file():
            parser.error(f"{checkout} has no benchmarks/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    for checkout in checkouts.values():
        compile_sources(checkout)

    seconds = spec["run_seconds"]
    path = ROOT / f"BENCH_{args.name}.json"
    record = {
        "change": args.name,
        "command": COMMAND.format(seconds=seconds),
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
            result, env, shown = run_once(checkouts[side], args.workload, seed, seconds, args.trace)
            run = {"side": side, "workload": args.workload, "seed": seed, "trace": args.trace}
            pair.append({**run, "result": result, "diagnostics": shown})
            record["host"] = record["host"] or env
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(
                f"{args.workload} seed={seed} trace={args.trace} {side}: correct={result['correct']}"
                f" failed={result['failed']} wall_s={wall}"
                + "".join(f" {name}={value}" for name, value in shown.items()),
                flush=True,
            )
        record["runs"] += pair
        record["pairs"] = describe_pairs(record["runs"])
        record["summary_trace0_medians"] = summarize(record["runs"], spec["end_to_end"])
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
