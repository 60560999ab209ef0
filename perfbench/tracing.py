"""Span tracing for the traced run, from outside the program.

``install`` wraps the public names that ``propclust.cli`` and
``propclust.evaluation`` call (plus the binding ``load_grid`` uses, and the
first access of the two distance properties) so that every call records a
span: name, start, end, parent span and op id.  Spans stay in memory and are
written out when the run ends.  ``layer_metrics`` turns them into per-layer
self times (a span's duration minus what its child spans cover) and work
counts, averaged per op.  Nothing in the package changes; ``install``
returns a function that puts every original back.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

MIB = 1024 * 1024

#: Span names, grouped by layer.  Each per-layer time metric is the self
#: time of the spans listed for it.
TIME_METRICS = {
    "core.distance_s": ("core.distance_matrix", "core.agent_distances"),
    "engine.sweep_s": ("engine.select_prf_centers",),
    "baselines.greedy_s": ("baselines.greedy_capture",),
    "baselines.kmeanspp_s": ("baselines.kmeanspp",),
    "axioms.prf_s": (
        "axioms.check_prf_unconstrained",
        "axioms.check_prf_discrete",
        "axioms.check_prf2",
        "axioms.check_prf3",
    ),
    "axioms.pf_s": ("axioms.check_pf",),
    "axioms.core_s": ("axioms.check_core",),
    "axioms.up_s": ("axioms.check_up",),
    "evaluation.metrics_s": ("evaluation.metric_value",),
    "evaluation.aggregate_s": ("evaluation.aggregate",),
    "evaluation.experiment_self_s": ("evaluation.run_experiment",),
    "data_io.load_csv_s": ("data_io.load_csv",),
    "data_io.record_write_s": ("data_io.write_run_record",),
    "data_io.record_read_s": ("data_io.read_run_record", "data_io.instance_from_record"),
    "cli.self_s": ("cli.main",),
    "trace.bookkeeping_s": ("trace.tracemalloc",),
}

#: Per-op work counts: summed over the calls of one op (``count``) or the
#: largest value seen in it (``peak``), then averaged over ops.
COUNT_METRICS = (
    "core.distance_builds",
    "engine.radii_total",
    "engine.radii_visited",
    "engine.supporters_paid",
    "baselines.lloyd_rounds",
    "axioms.calls",
    "axioms.violations",
    "axioms.not_definitive",
    "data_io.record_bytes",
)
PEAK_METRICS = ("core.distance_temp_mb", "core.distance_peak_mb")

LAYERS = ("core", "engine", "baselines", "axioms", "evaluation", "data_io", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """In-memory span and counter store for one traced loop."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._root = -1
        self._stack: list[int] = []
        self._counts: list[dict] = []
        self._deferred: list = []

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self.op += 1
        self._counts.append(defaultdict(float))
        self._root = self._open("cli.main")

    def end_op(self) -> float:
        """Close the op's root span, then run the deferred counters."""
        self._close(self._root)
        for fn in self._deferred:
            fn()
        self._deferred.clear()
        root = self.spans[self._root]
        return root.end - root.start

    def count(self, key: str, value: float = 1) -> None:
        self._counts[self.op][key] += value

    def peak(self, key: str, value: float) -> None:
        counts = self._counts[self.op]
        counts[key] = max(counts[key], value)

    def defer(self, fn) -> None:
        """Run ``fn`` after the op ends, so costly counting stays out of its spans."""
        self._deferred.append(fn)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            tracer.defer(lambda: after(tracer, args, result))
        return result

    return traced


# The after-hooks run once the op has ended (see Tracer.defer).


def _after_sweep(tracer, args, result):
    inst, (_, trace) = args[0], result
    tracer.count("engine.supporters_paid", sum(len(r.supporters) for r in trace.rounds))
    # the distance matrix is cached on the instance by now: no rebuild
    schedule = np.unique(inst.distance_matrix)
    tracer.count("engine.radii_total", schedule.size)
    if trace.rounds:
        last = trace.rounds[-1].radius
        tracer.count("engine.radii_visited", int(np.searchsorted(schedule, last)) + 1)


def _after_greedy(tracer, args, result):
    tracer.count("baselines.greedy_opened", len(result.opened))
    tracer.count("baselines.greedy_k", args[0].k)


def _after_check(tracer, args, report):
    tracer.count("axioms.calls")
    if not report.satisfied:
        tracer.count("axioms.violations")
    elif not report.definitive:
        tracer.count("axioms.not_definitive")


def _after_write(tracer, args, result):
    tracer.count("data_io.record_bytes", os.path.getsize(args[0]))


def _traced_kmeanspp(tracer: Tracer, fn):
    # asks for the seeding/Lloyd history to count rounds; the outcome is the
    # same object the plain call returns
    @functools.wraps(fn)
    def traced(inst, seed=0, return_history=False):
        with tracer.span("baselines.kmeanspp"):
            outcome, history = fn(inst, seed=seed, return_history=True)
        tracer.count("baselines.lloyd_rounds", len(history) - 1)
        return (outcome, history) if return_history else outcome

    return traced


def _matrix_build(inst):
    if inst.agents is None:
        return None
    return inst.n, inst.m, inst.dim


def _agent_build(inst):
    # with shared candidates agent_distances is the distance matrix itself
    if inst.agents is None or inst.shared_candidates:
        return None
    return inst.n, inst.n, inst.dim


def install(tracer: Tracer):
    """Wrap the traced names in the imported package; return the undo function."""
    import propclust.cli as cli
    import propclust.data_io as data_io
    import propclust.evaluation as evaluation
    from propclust.core import Instance

    originals = []

    def patch(owner, attr, value):
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    plain = {
        "load_csv": ("data_io.load_csv", None),
        "select_prf_centers": ("engine.select_prf_centers", _after_sweep),
        "greedy_capture": ("baselines.greedy_capture", _after_greedy),
        "check_up": ("axioms.check_up", _after_check),
        "check_pf": ("axioms.check_pf", _after_check),
        "check_core": ("axioms.check_core", _after_check),
        "check_prf_unconstrained": ("axioms.check_prf_unconstrained", _after_check),
        "check_prf_discrete": ("axioms.check_prf_discrete", _after_check),
        "check_prf2": ("axioms.check_prf2", _after_check),
        "check_prf3": ("axioms.check_prf3", _after_check),
        "metric_value": ("evaluation.metric_value", None),
        "aggregate": ("evaluation.aggregate", None),
        "run_experiment": ("evaluation.run_experiment", None),
        "write_run_record": ("data_io.write_run_record", _after_write),
        "read_run_record": ("data_io.read_run_record", None),
        "instance_from_record": ("data_io.instance_from_record", None),
    }
    for module in (cli, evaluation, data_io):
        for attr, (name, after) in plain.items():
            # data_io's own bindings matter only where another data_io
            # function calls them (load_grid -> load_csv)
            if module is data_io and attr != "load_csv":
                continue
            if attr in module.__dict__:
                patch(module, attr, _wrap(tracer, name, module.__dict__[attr], after))
        if "kmeanspp" in module.__dict__:
            patch(module, "kmeanspp", _traced_kmeanspp(tracer, module.__dict__["kmeanspp"]))

    for attr, own_build in (("distance_matrix", _matrix_build), ("agent_distances", _agent_build)):
        prop = Instance.__dict__[attr]
        traced = functools.cached_property(
            _distance_builder(tracer, f"core.{attr}", prop.func, own_build)
        )
        traced.__set_name__(Instance, attr)
        patch(Instance, attr, traced)

    def undo():
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)

    return undo


def _distance_builder(tracer: Tracer, name: str, func, own_build):
    def build(self):
        # the outermost build owns tracemalloc; its start and stop get spans
        # of their own so they are not charged to the caller's layer
        outer = not tracemalloc.is_tracing()
        if outer:
            with tracer.span("trace.tracemalloc"):
                tracemalloc.start()
        try:
            with tracer.span(name):
                value = func(self)
            shape = own_build(self)
            if shape is not None:
                rows, cols, dim = shape
                tracer.count("core.distance_builds")
                tracer.peak("core.distance_temp_mb", rows * cols * dim * 8 / MIB)
                tracer.peak("core.distance_peak_mb", tracemalloc.get_traced_memory()[1] / MIB)
        finally:
            if outer:
                with tracer.span("trace.tracemalloc"):
                    tracemalloc.stop()
        return value

    return build


# ---------------------------------------------------------------------------
# reduction


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-op means of every per-layer metric, and each layer's share of op time."""
    ops = tracer.op + 1
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    for span, t in zip(tracer.spans, own):
        by_name[span.name] += t
    metrics = {key: sum(by_name[n] for n in names) / ops for key, names in TIME_METRICS.items()}

    totals: dict[str, float] = defaultdict(float)
    for counts in tracer._counts:
        for key, value in counts.items():
            totals[key] += value
    for key in COUNT_METRICS + PEAK_METRICS:
        metrics[key] = totals[key] / ops
    metrics["engine.radii_visited_ratio"] = _ratio(totals["engine.radii_visited"], totals["engine.radii_total"])
    metrics["baselines.greedy_opened_ratio"] = _ratio(totals["baselines.greedy_opened"], totals["baselines.greedy_k"])

    op_time = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    layer_time = defaultdict(float)
    for name, t in by_name.items():
        layer_time[name.split(".")[0]] += t
    shares = {layer: layer_time[layer] / op_time for layer in LAYERS}
    return metrics, shares


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def spans_to_jsonl(tracer: Tracer) -> str:
    return "".join(json.dumps(asdict(s)) + "\n" for s in tracer.spans)
