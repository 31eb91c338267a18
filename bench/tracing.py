"""In-memory span tracer around reramopt's public layer functions.

Each wrapper replaces the attribute that a caller looks up in a module's
namespace (``resna._forward`` calls ``reramopt.resna.mvm``,
``mesmo._run_campaign`` calls ``reramopt.mesmo.sample_pareto_fronts``),
records one span per call and puts the original back when tracing ends.
Nothing in the package itself is changed.

A span is (name, start, end, parent, rep, eval_id). ``rep`` is the workload
repetition the span belongs to (-1 for the benchmark's own set-up) and
``eval_id`` the index of the evaluation the span belongs to or leads up
to: an optimizer step carries the id of the evaluation it picks, so it
matches the campaign trace's ``iteration`` column. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Span names, one per wrapped layer boundary. Every name yields the
# per-layer metrics ``<name>.calls`` and ``<name>.self_s``.
SPAN_NAMES = (
    "config.parse_config",
    "config.build_problem",
    "cli.run_one_seed",
    "objectives.evaluate",
    "objectives.hw",
    "resna.train",
    "resna.infer",
    "crossbar.quantize",
    "crossbar.map_weights",
    "crossbar.program",
    "crossbar.mvm.train",
    "crossbar.mvm.infer",
    "gp.fit.opt",
    "gp.fit.cond",
    "gp.posterior",
    "gp.sample_function",
    "gp.sampled_fn",
    "pareto.nsga2",
    "pareto.non_dominated_sort",
    "pareto.dominated_hypervolume",
    "mesmo.sample_pareto_fronts",
    "mesmo.select_next",
)

# Work counters recorded at the same boundaries, reported per repetition.
COUNT_NAMES = (
    "crossbar.mvm.rows",
    "crossbar.cells_read",
    "gp.sampled_fn.rows",
    "pareto.nsga2.evals",
    "pareto.non_dominated_sort.points",
)

# Root span of one traced workload repetition; its self time is what no
# layer span covers (artifact writing, argument parsing, the bench loop).
REP_SPAN = "bench.rep"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNT_NAMES})
    units["resna.train.epoch_s"] = "s"
    units["resna.infer.run_s"] = "s"
    units["mesmo.low_fidelity_frac"] = "ratio"
    units[f"{REP_SPAN}.wall_s"] = "s"
    units[f"{REP_SPAN}.self_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    rep: int
    eval_id: int


class Tracer:
    """Collects spans and counters of one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rep = -1
        self.eval_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.rep, self.eval_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def wrap_evaluate(self, evaluate):
        """A ``MooProblem.evaluate`` that records an ``objectives.evaluate`` span."""

        def traced_evaluate(*args, **kwargs):
            try:
                with self.span("objectives.evaluate"):
                    return evaluate(*args, **kwargs)
            finally:
                self.eval_id += 1

        return traced_evaluate

    def dump(self, path) -> None:
        """Write spans as JSON lines, then one line with the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(tracer: Tracer, n_reps: int, low_fidelity_frac: float) -> dict[str, float]:
    """Per-layer metrics: spans and counters per traced repetition.

    Spans recorded during the benchmark's in-process set-up (rep -1) are
    counted once, since set-up happens once per run. ``trace.overhead_frac``
    is filled in by the caller, which alone holds the untraced timings.
    """
    calls: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        weight = 1.0 if span.rep < 0 else 1.0 / n_reps
        calls[span.name] += weight
        self_s[span.name] += weight * own
        total_s[span.name] += weight * (span.end - span.start)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNT_NAMES:
        out[name] = tracer.counts[name] / n_reps
    epochs = tracer.counts["resna.train.epochs"] / n_reps
    runs = tracer.counts["resna.infer.runs"] / n_reps
    out["resna.train.epoch_s"] = total_s["resna.train"] / epochs if epochs else 0.0
    out["resna.infer.run_s"] = total_s["resna.infer"] / runs if runs else 0.0
    out["mesmo.low_fidelity_frac"] = low_fidelity_frac
    out[f"{REP_SPAN}.wall_s"] = total_s[REP_SPAN]
    out[f"{REP_SPAN}.self_s"] = self_s[REP_SPAN]
    return out


def _traced(tracer: Tracer, fn, name, counts=None):
    """Wrap fn in a span; ``name`` may depend on the call, ``counts`` on its result."""

    def wrapper(*args, **kwargs):
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts is not None:
            for key, n in counts(args, kwargs, result).items():
                tracer.count(key, n)
        return result

    return wrapper


def _mvm_counts(args, kwargs, result):
    layer = args[0]
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    codes = np.atleast_2d(getattr(inputs, "codes", inputs))
    # One read pass per sign of the input that has a non-zero entry; each
    # pass draws read noise for every cell of every tile, slice and copy.
    passes = int((codes > 0).any()) + int((codes < 0).any())
    cells = 2 * layer.dup * layer.n_slices * layer.rows * layer.cols
    return {"crossbar.mvm.rows": codes.shape[0], "crossbar.cells_read": cells * passes}


def _argument(fn, name):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _wrappers(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced call site."""
    from reramopt import cli, config, gp, mesmo, objectives, pareto, resna

    fit_optimize = _argument(mesmo.fit, "optimize")
    infer_runs = _argument(resna.infer, "runs")

    build_problem = _traced(tracer, config.build_problem, "config.build_problem")

    def build_problem_wrapper(*args, **kwargs):
        problem = build_problem(*args, **kwargs)
        return dataclasses.replace(problem, evaluate=tracer.wrap_evaluate(problem.evaluate))

    nsga2 = _traced(tracer, mesmo.nsga2, "pareto.nsga2")

    def nsga2_wrapper(evaluator, *args, **kwargs):
        def counted(x):
            tracer.count("pareto.nsga2.evals", len(x))
            return evaluator(x)

        return nsga2(counted, *args, **kwargs)

    simple = [
        (config, "parse_config", "config.parse_config"),
        (cli, "run_one_seed", "cli.run_one_seed"),
        (objectives, "hw_area", "objectives.hw"),
        (objectives, "hw_latency", "objectives.hw"),
        (objectives, "hw_energy", "objectives.hw"),
        (resna, "quantize", "crossbar.quantize"),
        (resna, "map_weights", "crossbar.map_weights"),
        (resna, "program", "crossbar.program"),
        (mesmo, "posterior", "gp.posterior"),
        (mesmo, "sample_function", "gp.sample_function"),
        (mesmo, "dominated_hypervolume", "pareto.dominated_hypervolume"),
        (mesmo, "sample_pareto_fronts", "mesmo.sample_pareto_fronts"),
        (mesmo, "select_next", "mesmo.select_next"),
    ]
    out = [(owner, attr, _traced(tracer, getattr(owner, attr), name)) for owner, attr, name in simple]
    out += [
        (config, "build_problem", build_problem_wrapper),
        (
            resna,
            "train",
            _traced(tracer, resna.train, "resna.train", lambda a, k, r: {"resna.train.epochs": r.epoch}),
        ),
        (
            resna,
            "infer",
            _traced(tracer, resna.infer, "resna.infer", lambda a, k, r: {"resna.infer.runs": infer_runs(a, k)}),
        ),
        (
            resna,
            "mvm",
            _traced(
                tracer,
                resna.mvm,
                lambda a, k: "crossbar.mvm.train" if tracer.inside("resna.train") else "crossbar.mvm.infer",
                _mvm_counts,
            ),
        ),
        (
            mesmo,
            "fit",
            _traced(
                tracer, mesmo.fit, lambda a, k: "gp.fit.opt" if fit_optimize(a, k) else "gp.fit.cond"
            ),
        ),
        (
            gp.SampledFunction,
            "__call__",
            _traced(
                tracer,
                gp.SampledFunction.__call__,
                "gp.sampled_fn",
                lambda a, k, r: {"gp.sampled_fn.rows": len(r)},
            ),
        ),
        (mesmo, "nsga2", nsga2_wrapper),
        (
            pareto,
            "non_dominated_sort",
            _traced(
                tracer,
                pareto.non_dominated_sort,
                "pareto.non_dominated_sort",
                lambda a, k, r: {"pareto.non_dominated_sort.points": sum(len(f) for f in r)},
            ),
        ),
    ]
    return out


@contextmanager
def installed(tracer: Tracer):
    """Route the traced call sites through ``tracer`` until the block exits."""
    patches = _wrappers(tracer)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
