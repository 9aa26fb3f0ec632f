"""entqfi benchmark: one workload, one seed, metrics as JSON on the last line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload paper_run --seed 1 --seconds 30 --trace 0

Workloads are ``paper_run``, ``ree_entangled`` and ``census_emit`` (see
README.md).  The run makes the workload's inputs from the seed as chunks,
as many as ``--seconds`` allows at the seed code's cost, then times rounds
of one pass per chunk and checks every pass's outputs.  A fresh
interpreter is timed from start to the end of set-up (``setup_s``) before
each round and after the last.  With ``--trace 0`` all rounds run untraced
and the end-to-end metrics are reported; with ``--trace 1`` untraced and
traced rounds alternate and the per-layer metrics are reported.  Every
metric is also printed above the JSON line as ``metric NAME VALUE UNIT``.

The package is imported from ``src/`` of the checkout.  BLAS and OpenMP
pools are pinned to one thread in this process and in every process it
starts.  Emitted files go to temporary directories under ``.bench_build/``
that are removed after each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
PROBE_TIMEOUT_S = 60
MAX_PRINTED_FAILURES = 20
# Passes per chunk: untraced only, or untraced and traced alternating.
PLAIN_ROUNDS = (False, False, False)
TRACED_ROUNDS = (False, True, False, True)


def _pin_threads() -> None:
    # Must run before numpy is imported anywhere in the process.
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_program() -> None:
    """Put the checkout's src/ first on the path; fail if it has no package."""
    if not (SRC / "entqfi" / "__init__.py").is_file():
        sys.exit(f"benchmark: no entqfi package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import entqfi

    if Path(entqfi.__file__).resolve().parent != SRC / "entqfi":
        sys.exit(f"benchmark: imported entqfi from {entqfi.__file__}, not from {SRC}")


def setup_probe() -> None:
    """Body of one set-up probe process: import, warm up, report ready."""
    _import_program()
    from workloads import warm_up

    warm_up()
    print("ready", flush=True)


def time_setup() -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        stdout=subprocess.PIPE,
        text=True,
    ) as probe:
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            probe.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
    if line.strip() != "ready" or probe.returncode != 0:
        sys.exit(f"benchmark: set-up probe failed with exit code {probe.returncode}")
    return elapsed


def environment() -> dict[str, str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


@dataclass
class Pass:
    """One timed pass over one chunk: wall time, the reference kernel's time
    just before it, checked outputs and spans."""

    traced: bool
    wall: float = 0.0
    reference: float = 0.0
    failures: list = field(default_factory=list)
    digest: str | None = None
    spans: list = field(default_factory=list)
    layers: dict | None = None


def run_pass(workload, chunk, traced: bool) -> Pass:
    from checks import Failure
    from reference import reference_seconds
    from tracing import Tracer, summarize

    result = Pass(traced, reference=reference_seconds())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        tracer = Tracer()
        with tracer.install() if traced else nullcontext():
            started = time.perf_counter()
            try:
                output = workload.run(chunk, workdir)
            except Exception as exc:  # the pass fails as a whole; report it
                output = None
                result.failures = [Failure(None, "raised", repr(exc), "pass")]
            result.wall = time.perf_counter() - started
        if output is not None:
            if traced:
                result.spans = tracer.spans
                result.layers = summarize(tracer.spans)
            result.failures, result.digest = workload.check(chunk, output, workdir, result.layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def run_rounds(workload, chunks, rounds) -> tuple[list[list[Pass]], list[float]]:
    """Round-robin over the chunks, once per round; passes[k] holds chunk
    k's repetitions, a whole round apart in time.  A set-up probe runs
    before each round and after the last, so the probes, like the passes,
    are spread over the run rather than bunched in one stretch of it."""
    passes = [[] for _ in chunks]
    setup_times = []
    for traced in rounds:
        setup_times.append(time_setup())
        for reps, chunk in zip(passes, chunks):
            reps.append(run_pass(workload, chunk, traced))
    setup_times.append(time_setup())
    return passes, setup_times


def fastest(reps: list[Pass], traced: bool) -> Pass:
    return min((p for p in reps if p.traced == traced), key=lambda p: p.wall)


def count_failed(workload, chunks, passes) -> tuple[int, list[str]]:
    """Failed items over all passes, with one message per failure.

    A pass-level failure, outputs whose digest differs from the chunk's
    first pass, or trace counts that differ between the chunk's traced
    passes fail every item of that pass."""
    from tracing import EXACT_METRICS

    failed = 0
    messages = []
    for k, (chunk, reps) in enumerate(zip(chunks, passes)):
        items = workload.items(chunk)
        traced = [p for p in reps if p.layers is not None]
        for rep, p in enumerate(reps):
            problems = [str(f) for f in p.failures]
            if p.digest != reps[0].digest:
                problems.append(f"pass check=determinism: digest {p.digest} != {reps[0].digest}")
            if p.layers is not None:
                problems += [
                    f"pass check=trace counts: {name} differs between passes"
                    for name in EXACT_METRICS
                    if p.layers[name] != traced[0].layers[name]
                ]
            messages += [f"chunk {k} rep {rep}: {text}" for text in problems]
            whole_pass = any(f.scope == "pass" for f in p.failures) or len(problems) > len(p.failures)
            failed += items if whole_pass else len({f.id for f in p.failures})
    return failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        setup_probe()
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()
    from reference import NOMINAL_S
    from tracing import summarize
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    warm_up()
    # The chunk count follows from --seconds and a fixed per-chunk cost of
    # the seed code, never from measured speed: both sides of a comparison
    # time the same work.
    count = max(1, int(args.seconds / (len(PLAIN_ROUNDS) * workload.chunk_seconds)))
    chunks = workload.make_chunks(args.seed, count)
    passes, setup_times = run_rounds(
        workload, chunks, TRACED_ROUNDS if args.trace else PLAIN_ROUNDS
    )
    failed, messages = count_failed(workload, chunks, passes)
    for text in messages[:MAX_PRINTED_FAILURES]:
        print(f"check failed: {text}", file=sys.stderr)
    if len(messages) > MAX_PRINTED_FAILURES:
        print(f"check failed: {len(messages) - MAX_PRINTED_FAILURES} more", file=sys.stderr)

    items = sum(workload.items(chunk) for chunk in chunks)
    pairs = sum(workload.pairs(chunk) for chunk in chunks)
    raw_wall = sum(fastest(reps, False).wall for reps in passes)
    raw_setup = statistics.median(setup_times)
    # Host slowdown in this run: the reference kernel's fast time (10th
    # percentile over one sample per pass) against its nominal time.
    references = [p.reference for reps in passes for p in reps]
    slowdown = statistics.quantiles(references, n=10)[0] / NOMINAL_S
    wall = raw_wall / slowdown
    attempted = sum(workload.items(chunk) * len(reps) for chunk, reps in zip(chunks, passes))
    e2e = {
        "setup_s": raw_setup / slowdown,
        "wall_s": wall,
        "states_per_s": items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    shown = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    shown["failed_frac"] = (failed / attempted, "ratio")
    shown["host_slowdown"] = (slowdown, "ratio")
    shown["raw_wall_s"] = (raw_wall, "s")
    shown["raw_setup_s"] = (raw_setup, "s")
    if pairs:
        shown["pairs_per_s"] = (pairs / wall, "1/s")
    if args.trace:
        spans = [span for reps in passes for span in fastest(reps, True).spans]
        layers = summarize(spans)
        traced_wall = sum(fastest(reps, True).wall for reps in passes)
        layers["trace.overhead_frac"] = traced_wall / raw_wall - 1.0
        selected = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
        shown.update(selected)
    else:
        selected = {m["name"]: shown[m["name"]] for m in spec["end_to_end"]}

    print("env " + " ".join(f"{key}={value}" for key, value in environment().items()))
    print(
        f"run workload={workload.name} seed={args.seed} chunks={len(chunks)} items={items}"
        f" rounds={len(passes[0])} setup_samples={len(setup_times)}"
    )
    for k, reps in enumerate(passes):
        walls = " ".join(f"{'T' if p.traced else 'P'}{p.wall:.4f}" for p in reps)
        print(f"chunk {k} items={workload.items(chunks[k])} wall_s={walls} digest={reps[0].digest}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in selected.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
