"""Span tracer that wraps the library's layer entry points from outside.

Tracing is installed by replacing public functions and methods with
timing wrappers (:func:`install_probes`); nothing under ``src/`` changes.
Each thread keeps its own span stack, so a span's parent is the span that
was open on the same thread when it started. A span records its name,
start, end, parent and the id of the benchmark request it belongs to.
Spans stay in memory until :meth:`Tracer.dump` writes them once.

A span's *self time* is its duration minus the part of that interval its
child spans cover; the self times of one request's spans sum to the
duration of its root span (checked by :meth:`Tracer.self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT_SPAN = "bench.request"

# onnxlite kernels that apply the trained model; every other kernel is
# featurization (encoders, scalers, concatenation, output extraction).
INFERENCE_KERNELS = frozenset({
    "TreeEnsembleClassifier", "TreeEnsembleRegressor",
    "LinearClassifier", "LinearRegressor", "MatMul",
})


class Tracer:
    """Collects spans and per-request counts from every thread."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._buffers: List[list] = []
        # (request id, count name) -> summed value.
        self.counts: Dict[Tuple[Optional[int], str], int] = defaultdict(int)

    # -- recording ------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
            local.spans = []
            with self._lock:
                self._buffers.append(local.spans)
        return local

    def enter(self, name: str):
        local = self._state()
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                local.stack[-1][0] if local.stack else None, local.request]
        local.stack.append(span)
        return span

    def exit(self, span) -> None:
        span[3] = time.perf_counter()
        local = self._local
        local.stack.pop()
        local.spans.append(span)

    def count(self, name: str, value: int) -> None:
        request = self._state().request
        with self._lock:
            self.counts[(request, name)] += value

    def begin_request(self, request_id: int):
        """Open the root span of one benchmark request on this thread."""
        self._state().request = request_id
        return self.enter(ROOT_SPAN)

    def end_request(self, span) -> None:
        self.exit(span)
        self._local.request = None

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span; ``counter(args)`` yields (count, value)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(span)
                if counter is not None:
                    tracer.count(*counter(args))

        return traced

    # -- analysis -------------------------------------------------------
    def spans(self) -> List[list]:
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def self_times(self) -> Tuple[Dict[Optional[int], Dict[str, float]],
                                  float]:
        """Per-request self seconds by span name, and the largest gap
        between a request's summed self times and its root duration."""
        spans = self.spans()
        children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[span[4]].append(span)
        per_request: Dict[Optional[int], Dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        roots: Dict[Optional[int], float] = {}
        for span in spans:
            _, name, start, end, _, request = span
            covered = _covered(start, end, children.get(span[0], ()))
            per_request[request][name] += (end - start) - covered
            if name == ROOT_SPAN:
                roots[request] = end - start
        worst = 0.0
        for request, duration in roots.items():
            total = sum(per_request[request].values())
            worst = max(worst, abs(total - duration))
        return per_request, worst

    def dump(self, path: Path) -> None:
        """Write every span once, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, start, end, parent, request in self.spans():
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request}) + "\n")


def _covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    covered = 0.0
    cursor = start
    for _, _, child_start, child_end, _, _ in sorted(children,
                                                   key=lambda s: s[2]):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def install_probes(tracer: Tracer):
    """Wrap each layer's entry points; returns an undo callable.

    Module-level functions are replaced in the namespace that calls them
    (``repro.core.session`` imports ``parse`` by name, for instance).
    """
    import repro.core.session as session_mod
    import repro.onnxlite.runtime as onnx_runtime
    import repro.relational.executor as rel_executor
    from repro.adaptive.feedback import FeedbackStore
    from repro.adaptive.profile import PlanProfiler
    from repro.core.binder import Binder
    from repro.core.executor import PredictRuntime, QueryExecutor
    from repro.core.optimizer import RavenOptimizer
    from repro.relational.compile import CompiledProgram
    from repro.serving.plan_cache import PlanCache
    from repro.telemetry import Telemetry

    def instructions(args):
        return "relational.expr.instructions", args[0].num_instructions

    def predict_rows(args):
        return "core.predict.rows", args[2].num_rows

    targets = [
        (session_mod.RavenSession, "serve_outcomes", "core.session", None),
        (session_mod.RavenSession, "sql_with_stats", "core.session", None),
        (session_mod, "normalize_query", "serving.normalize", None),
        (PlanCache, "begin", "serving.plan_cache", None),
        (session_mod, "parse", "core.parser", None),
        (Binder, "bind", "core.binder", None),
        (RavenOptimizer, "optimize", "core.optimizer", None),
        (rel_executor, "compile_outputs", "relational.compile", None),
        (rel_executor, "compile_predicate", "relational.compile", None),
        (CompiledProgram, "run", "relational.expr", instructions),
        (CompiledProgram, "run_single", "relational.expr", instructions),
        (rel_executor.Executor, "execute", "relational.executor", None),
        (QueryExecutor, "execute", "core.executor", None),
        (PredictRuntime, "__call__", "core.predict", predict_rows),
        (PlanProfiler, "profile_tree", "adaptive", None),
        (FeedbackStore, "record_profile", "adaptive", None),
        (session_mod, "feedback_divergence", "adaptive", None),
        (Telemetry, "observe_query", "telemetry", None),
    ]
    undo = []
    for owner, attribute, name, counter in targets:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, tracer.wrap(name, original, counter))
        undo.append((owner, attribute, original))

    # Kernels are bound when an InferenceSession is built, so sessions
    # created after this point run traced kernels.
    original_kernel_for = onnx_runtime.kernel_for

    def traced_kernel_for(op_type: str):
        return tracer.wrap(f"onnxlite.{op_type}",
                           original_kernel_for(op_type))

    onnx_runtime.kernel_for = traced_kernel_for
    undo.append((onnx_runtime, "kernel_for", original_kernel_for))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
