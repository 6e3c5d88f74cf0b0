"""Timing shims around condinv's public functions, and the per-module
metrics computed from the spans they record.

A shim replaces one function under the name a calling module resolves it
by (for example ``condinv.harness.knn_predict``), so every call the
package makes across a module boundary is seen from outside, with no
change to the package. Each call records a span: name, start, end, the
span that was open when it started (its parent), the benchmark operation
it belongs to, the phase (set-up or pass), whether it raised, and, for a
few functions, a count of the work the arguments imply. Spans stay in
memory and are written out when the run ends.

A binding that no longer exists is a missing boundary: the metrics that
depend on it are reported as missing, never as zero calls, so a refactor
that routes around a module shows up.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gram_entries(args, kwargs, result):
    return result.shape[0] * result.shape[1]


def _knn_pairs(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "train_feats")) * len(_arg(args, kwargs, 2, "test_feats"))


def _solve_work(args, kwargs, result):
    n = _arg(args, kwargs, 0, "scatters").between.shape[0]
    return (n**3, result.n_components, result.requested_q)


def _project_rows(args, kwargs, result):
    return result.shape[0]


# span name -> (calling modules whose binding is wrapped, work counter).
# The span name is "<home module>.<function>"; the bindings are the names
# the package and the benchmark resolve at call time.
BOUNDARIES = {
    "dataset.generate_synthetic": (("dataset", "harness"), None),
    "dataset.split": (("harness",), None),
    "kernel.gram": (("classify", "solver"), _gram_entries),
    "kernel.center_train": (("classify",), None),
    "kernel.center_cross_from_stats": (("solver",), None),
    "kernel.median_bandwidth": (("kernel",), None),
    "scatter.build_weights": (("classify",), None),
    "scatter.uniform_domain_weights": (("classify",), None),
    "scatter.scatter_set": (("classify",), None),
    "scatter.between_scatter": (("classify", "scatter"), None),
    "scatter.within_scatter": (("classify", "scatter"), None),
    "scatter.domain_scatter": (("classify", "scatter"), None),
    "scatter.conditional_scatter": (("scatter",), None),
    "scatter.prior_scatter": (("scatter",), None),
    "solver.solve": (("classify",), _solve_work),
    "solver.project": (("solver", "harness"), _project_rows),
    "solver.save_model": (("solver",), None),
    "solver.load_model": (("solver",), None),
    "classify.fit_baseline": (("classify", "harness"), None),
    "classify.knn_predict": (("classify", "harness"), _knn_pairs),
    "harness.grid_search": (("harness",), None),
    "harness.config_from_file": (("harness", "cli"), None),
    "harness.run_experiment": (("cli",), None),
    "harness.report_json": (("cli",), None),
    "harness.report_table": (("cli",), None),
    "cli.main": (("cli",), None),
}

_SCATTER_BUILD = (
    "scatter.scatter_set",
    "scatter.between_scatter",
    "scatter.within_scatter",
    "scatter.domain_scatter",
    "scatter.conditional_scatter",
    "scatter.prior_scatter",
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]  # boundaries the value is computed from
    moves: str  # the end-to-end metric it should move, and where


# Per-module metrics of a traced run. "computed" counts follow from array
# shapes and repeat exactly; the rest are timings.
METRICS = (
    Metric("classify.knn_calls", "count", "lower", ("classify.knn_predict",),
           "wall_s on grid-bench and score-batch; not fit-large"),
    Metric("classify.knn_s", "s", "lower", ("classify.knn_predict",),
           "wall_s on grid-bench and score-batch; not fit-large"),
    Metric("classify.knn_pairs", "count", "lower", ("classify.knn_predict",),
           "computed distance entries; wall_s on grid-bench and score-batch"),
    Metric("solver.solve_calls", "count", "lower", ("solver.solve",),
           "wall_s on grid-bench and fit-large"),
    Metric("solver.solve_s", "s", "lower", ("solver.solve",),
           "wall_s on grid-bench and fit-large"),
    Metric("solver.solve_n3", "count", "lower", ("solver.solve",),
           "computed sum of n^3 over eigensolves; wall_s on grid-bench and fit-large"),
    Metric("solver.kept_ratio", "ratio", "higher", ("solver.solve",),
           "components kept / requested; wall_s on grid-bench and fit-large"),
    Metric("scatter.build_calls", "count", "lower", _SCATTER_BUILD,
           "wall_s and peak_rss_mb on fit-large; a small share of grid-bench"),
    Metric("scatter.build_s", "s", "lower", _SCATTER_BUILD,
           "wall_s and peak_rss_mb on fit-large; a small share of grid-bench"),
    Metric("scatter.weights_s", "s", "lower",
           ("scatter.build_weights", "scatter.uniform_domain_weights"),
           "wall_s on fit-large; a small share of grid-bench"),
    Metric("kernel.gram_calls", "count", "lower", ("kernel.gram",),
           "wall_s on score-batch and fit-large"),
    Metric("kernel.gram_s", "s", "lower", ("kernel.gram",),
           "wall_s on score-batch and fit-large"),
    Metric("kernel.gram_entries", "count", "lower", ("kernel.gram",),
           "computed kernel entries; wall_s on score-batch and fit-large"),
    Metric("kernel.center_s", "s", "lower",
           ("kernel.center_train", "kernel.center_cross_from_stats"),
           "wall_s on score-batch and fit-large"),
    Metric("kernel.median_calls", "count", "lower", ("kernel.median_bandwidth",),
           "wall_s on score-batch and fit-large"),
    Metric("solver.project_calls", "count", "lower", ("solver.project",),
           "wall_s and setup_s on score-batch"),
    Metric("solver.project_rows", "count", "lower", ("solver.project",),
           "wall_s and setup_s on score-batch"),
    Metric("solver.project_s", "s", "lower", ("solver.project",),
           "wall_s and setup_s on score-batch"),
    Metric("solver.io_s", "s", "lower", ("solver.save_model", "solver.load_model"),
           "setup_s on score-batch"),
    Metric("classify.fit_calls", "count", "lower", ("classify.fit_baseline",),
           "wall_s on grid-bench only"),
    Metric("classify.fit_self_s", "s", "lower", ("classify.fit_baseline",),
           "wall_s on grid-bench only"),
    Metric("harness.grid_self_s", "s", "lower", ("harness.grid_search",),
           "wall_s on grid-bench only"),
    Metric("harness.grid_failures", "count", "lower",
           ("harness.grid_search", "classify.fit_baseline"),
           "fits that raised inside grid_search; wall_s on grid-bench only"),
    Metric("dataset.generate_s", "s", "lower", ("dataset.generate_synthetic",),
           "setup_s; the data share of grid-bench"),
    Metric("dataset.split_calls", "count", "lower", ("dataset.split",),
           "setup_s; the data share of grid-bench"),
    Metric("cli.self_s", "s", "lower",
           ("cli.main", "harness.config_from_file", "harness.run_experiment",
            "harness.report_json", "harness.report_table"),
           "the argument-parsing and report-writing share of grid-bench"),
    Metric("trace.overhead_s", "s", "lower", (),
           "median traced pass minus median untraced pass; not a program cost"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    op: object
    phase: str
    failed: bool
    work: object


class Tracer:
    """Records spans while its shims are installed (see ``installed``)."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.missing: list[str] = []
        self.phase = "setup"
        self.ops = None  # the OpLog of the pass being traced, if any
        self._stack: list[int] = []

    def _shim(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            op = None if self.ops is None else self.ops.current
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counted = None if (work is None or failed) else work(args, kwargs, result)
                spans[idx] = Span(name, start, end, parent, op, self.phase, failed, counted)

        shim.__wrapped__ = fn
        return shim

    @contextmanager
    def installed(self, phase: str, ops=None):
        """Wrap every boundary for the duration of the block."""
        self.phase, self.ops = phase, ops
        patched = []
        missing = []
        try:
            for name, (callers, work) in BOUNDARIES.items():
                func = name.split(".", 1)[1]
                for caller in callers:
                    module = importlib.import_module(f"condinv.{caller}")
                    if not hasattr(module, func):
                        missing.append(f"condinv.{caller}.{func}")
                        continue
                    original = getattr(module, func)
                    setattr(module, func, self._shim(name, original, work))
                    patched.append((module, func, original))
            self.missing = sorted(set(self.missing) | set(missing))
            yield self
        finally:
            for module, func, original in reversed(patched):
                setattr(module, func, original)
            self.ops = None

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "phase": s.phase,
                    "failed": s.failed, "work": s.work,
                }) + "\n")

    def metrics(self, traced_passes: int, overhead_s: float) -> dict[str, float]:
        """Per-module metrics: one traced set-up plus the mean traced pass.

        Metrics that depend on a missing boundary are left out.
        """
        missing_spans = {
            name for name, (callers, _) in BOUNDARIES.items()
            for caller in callers
            if f"condinv.{caller}.{name.split('.', 1)[1]}" in self.missing
        }
        setup = _aggregate(self.spans, "setup")
        run = _aggregate(self.spans, "pass")
        out = {}
        for m in METRICS:
            if missing_spans.intersection(m.spans):
                continue
            if m.name == "trace.overhead_s":
                out[m.name] = overhead_s
            elif m.name == "solver.kept_ratio":
                kept = setup["kept"] + run["kept"] / traced_passes
                asked = setup["asked"] + run["asked"] / traced_passes
                out[m.name] = kept / asked if asked else 0.0
            else:
                value = setup[m.name] + run[m.name] / traced_passes
                out[m.name] = int(value) if m.unit == "count" and value == int(value) else value
        return out


def _aggregate(all_spans: list[Span], phase: str) -> dict[str, float]:
    """Sum the per-module quantities over one phase's spans."""
    ids = [i for i, s in enumerate(all_spans) if s.phase == phase]
    spans = [all_spans[i] for i in ids]
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    def parent_name(s):
        return all_spans[s.parent].name if s.parent >= 0 else None

    def calls(names):
        return sum(1 for s in spans if s.name in names)

    def busy(names):
        # outermost spans of the group only, so nested calls are not counted twice
        return sum(s.end - s.start for s in spans
                   if s.name in names and parent_name(s) not in names)

    def top_calls(names):
        return sum(1 for s in spans if s.name in names and parent_name(s) not in names)

    def self_time(name):
        return sum(s.end - s.start - child_time.get(i, 0.0)
                   for i, s in zip(ids, spans) if s.name == name)

    def work(name, pick=lambda w: w):
        return sum(pick(s.work) for s in spans if s.name == name and s.work is not None)

    knn = ("classify.knn_predict",)
    gram = ("kernel.gram",)
    solve = ("solver.solve",)
    project = ("solver.project",)
    return {
        "classify.knn_calls": calls(knn),
        "classify.knn_s": busy(knn),
        "classify.knn_pairs": work(knn[0]),
        "solver.solve_calls": calls(solve),
        "solver.solve_s": busy(solve),
        "solver.solve_n3": work(solve[0], lambda w: w[0]),
        "kept": work(solve[0], lambda w: w[1]),
        "asked": work(solve[0], lambda w: w[2]),
        "scatter.build_calls": top_calls(_SCATTER_BUILD),
        "scatter.build_s": busy(_SCATTER_BUILD),
        "scatter.weights_s": busy(("scatter.build_weights", "scatter.uniform_domain_weights")),
        "kernel.gram_calls": calls(gram),
        "kernel.gram_s": busy(gram),
        "kernel.gram_entries": work(gram[0]),
        "kernel.center_s": busy(("kernel.center_train", "kernel.center_cross_from_stats")),
        "kernel.median_calls": calls(("kernel.median_bandwidth",)),
        "solver.project_calls": calls(project),
        "solver.project_rows": work(project[0]),
        "solver.project_s": busy(project),
        "solver.io_s": busy(("solver.save_model", "solver.load_model")),
        "classify.fit_calls": calls(("classify.fit_baseline",)),
        "classify.fit_self_s": self_time("classify.fit_baseline"),
        "harness.grid_self_s": self_time("harness.grid_search"),
        "harness.grid_failures": sum(
            1 for s in spans
            if s.name == "classify.fit_baseline" and s.failed
            and parent_name(s) == "harness.grid_search"
        ),
        "dataset.generate_s": busy(("dataset.generate_synthetic",)),
        "dataset.split_calls": calls(("dataset.split",)),
        "cli.self_s": self_time("cli.main"),
    }
