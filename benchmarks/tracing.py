"""In-memory spans around the entqfi functions the pipeline calls.

The tracer replaces module attributes at the points where the pipeline
looks its callees up (``entqfi.experiment.ree``, ``entqfi.rotations.grid_search``
and so on) with thin wrappers, and puts the originals back afterwards, so
the spans come from the real pipeline while ``src/`` stays untouched.

Each span records its group name, start, end, parent span and a few
counters taken from the wrapped call's arguments or result.  ``summarize``
turns spans into the per-layer metrics that BENCHMARK.json lists.  A
group's ``busy_s`` is its self time: span durations minus the part covered
by wrapped calls nested inside them.
"""

from __future__ import annotations

import contextlib
import math
import time
from pathlib import Path

import numpy as np

from entqfi import experiment, rotations
from entqfi.rotations import REFINEMENT_TRIGGER

BASE_DIVISOR = experiment.ExperimentConfig().grid_divisor

# (module, attribute, span group) for every wrapped call site.
CALL_SITES = [
    (experiment, "derive_stream", "sampling"),
    (experiment, "random_density_matrix", "sampling"),
    (experiment, "concurrence", "measures.closed"),
    (experiment, "negativity", "measures.closed"),
    (experiment, "is_separable", "measures.closed"),
    (experiment, "ree", "measures.ree"),
    (rotations, "grid_search", "rotations"),
    (experiment, "census", "ordering.census"),
    (experiment, "find_counterexamples", "ordering.witnesses"),
    (experiment, "run_experiment", "experiment"),
    (experiment, "emit_state_csv", "experiment.emit"),
    (experiment, "emit_plot_data", "experiment.emit"),
    (experiment, "emit_census_report", "experiment.emit"),
]

# Counters that must read the same on every traced pass of one chunk.
EXACT_METRICS = [
    "sampling.calls",
    "measures.closed.calls",
    "measures.ree.calls",
    "measures.ree.sweeps",
    "measures.ree.unconverged",
    "measures.ree.shortcut",
    "rotations.base.calls",
    "rotations.base.evaluations",
    "rotations.refine.calls",
    "rotations.refine.evaluations",
    "rotations.refine.useful_ratio",
    "ordering.pairs",
    "experiment.emit.bytes",
]


class Span:
    __slots__ = ("group", "start", "end", "parent", "child_s", "attrs")

    def __init__(self, group, start, parent):
        self.group = group
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.attrs = {}


class Tracer:
    """Collects spans for one pass; install() wraps the call sites."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._last_base = None  # (rho, LoccOptimum) of the latest base pass
        self._dir_bytes = {}  # output directory -> its size after the last emit

    def _enter(self, group):
        parent = self._open[-1] if self._open else None
        span = Span(group, time.perf_counter(), parent)
        self._open.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    def _wrap(self, fn, group):
        annotate = _ANNOTATORS.get(group)

        def traced(*args, **kwargs):
            span = self._enter(_group_of(group, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if annotate is not None:
                annotate(self, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def install(self):
        originals = [(module, name, getattr(module, name)) for module, name, _ in CALL_SITES]
        try:
            for (module, name, group), (_, _, fn) in zip(CALL_SITES, originals):
                setattr(module, name, self._wrap(fn, group))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)


def _group_of(group, args, kwargs):
    if group != "rotations":
        return group
    step = kwargs["step"] if "step" in kwargs else args[1]
    return "rotations.base" if round(2.0 * math.pi / step) == BASE_DIVISOR else "rotations.refine"


def _annotate_ree(tracer, span, args, kwargs, solution):
    span.attrs["sweeps"] = solution.iterations
    span.attrs["unconverged"] = int(not solution.converged)
    span.attrs["shortcut"] = int(solution.iterations == 0)


def _annotate_grid(tracer, span, args, kwargs, optimum):
    rho = args[0]
    span.attrs["evaluations"] = optimum.evaluations
    if span.group == "rotations.base":
        tracer._last_base = (rho, optimum)
        return
    useful = 0
    if tracer._last_base is not None and tracer._last_base[0] is rho:
        base = tracer._last_base[1]
        stalled_up = base.max_value - base.raw_value <= REFINEMENT_TRIGGER
        stalled_down = base.raw_value - base.min_value <= REFINEMENT_TRIGGER
        moved_up = optimum.max_value - base.raw_value > REFINEMENT_TRIGGER
        moved_down = base.raw_value - optimum.min_value > REFINEMENT_TRIGGER
        useful = int((stalled_up and moved_up) or (stalled_down and moved_down))
    span.attrs["useful"] = useful


def _annotate_census(tracer, span, args, kwargs, tables):
    span.attrs["pairs"] = sum(next(iter(tables.values())).values())


def _emit_target_dir(args, kwargs):
    target = Path(args[1] if len(args) > 1 else next(iter(kwargs.values())))
    return target if target.is_dir() else target.parent


def _annotate_emit(tracer, span, args, kwargs, _):
    # Bytes this call added to its output directory.
    directory = _emit_target_dir(args, kwargs)
    size = sum(p.stat().st_size for p in directory.iterdir() if p.is_file())
    span.attrs["bytes"] = size - tracer._dir_bytes.get(directory, 0)
    tracer._dir_bytes[directory] = size


_ANNOTATORS = {
    "measures.ree": _annotate_ree,
    "rotations": _annotate_grid,
    "ordering.census": _annotate_census,
    "experiment.emit": _annotate_emit,
}


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the given spans (trace.overhead_frac excluded)."""
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.group, []).append(span)

    def of(group):
        return groups.get(group, [])

    def busy(group):
        return float(sum(s.end - s.start - s.child_s for s in of(group)))

    def ms_quantile(group, q):
        # Over the calls that did the layer's work: an REE shortcut on
        # separable input takes microseconds and would mask the solver.
        durations = [1e3 * (s.end - s.start) for s in of(group) if not s.attrs.get("shortcut")]
        return float(np.percentile(durations, q)) if durations else 0.0

    def total(group, attr):
        return int(sum(s.attrs[attr] for s in of(group)))

    refine_calls = len(of("rotations.refine"))
    return {
        "sampling.calls": len(of("sampling")),
        "sampling.busy_s": busy("sampling"),
        "measures.closed.calls": len(of("measures.closed")),
        "measures.closed.busy_s": busy("measures.closed"),
        "measures.ree.calls": len(of("measures.ree")),
        "measures.ree.busy_s": busy("measures.ree"),
        "measures.ree.ms_p50": ms_quantile("measures.ree", 50),
        "measures.ree.ms_p95": ms_quantile("measures.ree", 95),
        "measures.ree.sweeps": total("measures.ree", "sweeps"),
        "measures.ree.unconverged": total("measures.ree", "unconverged"),
        "measures.ree.shortcut": total("measures.ree", "shortcut"),
        "rotations.base.calls": len(of("rotations.base")),
        "rotations.base.busy_s": busy("rotations.base"),
        "rotations.base.ms_p50": ms_quantile("rotations.base", 50),
        "rotations.base.evaluations": total("rotations.base", "evaluations"),
        "rotations.refine.calls": refine_calls,
        "rotations.refine.busy_s": busy("rotations.refine"),
        "rotations.refine.ms_p50": ms_quantile("rotations.refine", 50),
        "rotations.refine.evaluations": total("rotations.refine", "evaluations"),
        "rotations.refine.useful_ratio": (
            total("rotations.refine", "useful") / refine_calls if refine_calls else 0.0
        ),
        "ordering.pairs": total("ordering.census", "pairs"),
        "ordering.census.busy_s": busy("ordering.census"),
        "ordering.witnesses.busy_s": busy("ordering.witnesses"),
        "experiment.emit.busy_s": busy("experiment.emit"),
        "experiment.emit.bytes": total("experiment.emit", "bytes"),
        "experiment.self_s": busy("experiment"),
    }
