"""Micro-batching front door for high-QPS prediction serving.

The paper's batch-size experiments (Fig. 7) show per-call overhead
dominating at small batch sizes: scoring one row costs almost as much as
scoring thousands, because session dispatch and kernel launch are
amortized across the batch. An online serving tier receives exactly that
worst case — a stream of concurrent single-row (or few-row) requests.

:class:`MicroBatcher` coalesces concurrent predict requests against the
same model into one vectorized execution: requests are queued per
endpoint, stacked into a single columnar batch, scored through the
session's shared :class:`~repro.onnxlite.runtime.InferenceSession` cache
(:meth:`~repro.core.executor.PredictRuntime.run_graph_batched`, the same
path ``sql()`` uses), and the stacked outputs are split back per request.
Oversized coalesced batches chunk via
:func:`repro.relational.morsel.chunk_ranges`, like morsel planning.

Endpoints default to the catalog's registered model graphs; use
:meth:`MicroBatcher.register_endpoint` to serve an *optimized* graph
instead — e.g. one lifted from a cached plan or
``PreparedQuery.optimized_graphs()``, so cross-optimizations (predicate
pruning, projection pushdown) carry over to the request path.

Two operating modes:

* **manual** — call :meth:`flush` to drain synchronously (deterministic;
  what the tests use);
* **background** — :meth:`start` a worker thread that flushes when the
  oldest pending request has waited ``max_delay`` seconds or a batch
  reaches ``max_batch_rows``.

``max_batch_rows=None`` (the default) sizes batches **adaptively**: the
session's :class:`~repro.adaptive.feedback.FeedbackStore` knows each
model's observed per-row predict cost (recorded by the runtime on every
invocation, batched or served), and the batcher caps a model's coalesced
batch at the rows that fit :data:`ADAPTIVE_TARGET_SECONDS` of model time
— cheap models coalesce more aggressively, expensive models flush sooner
so tail latency stays bounded. Without feedback (or with
``adaptive=False`` sessions) the static default applies.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import ExecutionError

# Static fallback batch cap (rows) when no feedback is available.
DEFAULT_MAX_BATCH_ROWS = 4096
# Adaptive sizing: cap a coalesced batch at the rows whose observed model
# time fits this budget, clamped to [MIN, MAX].
ADAPTIVE_TARGET_SECONDS = 0.005
ADAPTIVE_MIN_BATCH_ROWS = 256
ADAPTIVE_MAX_BATCH_ROWS = 65_536


@dataclass
class BatcherStats:
    """Coalescing counters (monotonic)."""

    requests: int = 0
    batches: int = 0
    rows: int = 0
    largest_batch: int = 0

    @property
    def requests_per_batch(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


class _Request:
    __slots__ = ("inputs", "rows", "future")

    def __init__(self, inputs: Dict[str, np.ndarray], rows: int,
                 future: Future):
        self.inputs = inputs
        self.rows = rows
        self.future = future


class MicroBatcher:
    """Coalesces small predict requests into vectorized executions."""

    def __init__(self, session, max_batch_rows: Optional[int] = None,
                 max_delay: float = 0.002):
        if max_batch_rows is not None and max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        self.session = session
        # None = adaptive: per-model caps derived from the feedback
        # store's observed per-row predict cost (see
        # effective_max_batch_rows); an explicit value pins the cap.
        self.max_batch_rows = max_batch_rows
        self.max_delay = max_delay
        self.stats = BatcherStats()
        # Telemetry: live queue-depth gauges and a coalesced-batch-size
        # histogram on the session's shared registry, plus a per-batch
        # trace when tracing is enabled — closing the blind spot between
        # submit and future resolution.
        metrics = session.telemetry.metrics
        self._queue_rows_gauge = metrics.gauge("batcher_queue_rows")
        self._queue_requests_gauge = metrics.gauge("batcher_queue_requests")
        self._batch_rows_hist = metrics.histogram(
            "batcher_batch_rows",
            bounds=[float(2 ** power) for power in range(18)])
        self._graphs: Dict[str, object] = {}
        # Names resolved from the catalog (vs. explicit register_endpoint);
        # these are dropped when the underlying model is re-registered so
        # the batcher never serves a stale graph after DDL.
        self._auto_resolved: set = set()
        self._queues: Dict[str, List[_Request]] = {}
        self._oldest: Optional[float] = None
        self._condition = threading.Condition()
        self._worker: Optional[threading.Thread] = None
        self._stopping = False
        self._closed = False
        session.catalog.subscribe(self._on_catalog_change)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def register_endpoint(self, name: str, graph: object) -> None:
        """Serve ``graph`` under ``name`` (overrides the catalog model).

        Lets callers install a post-optimization graph — e.g.
        ``session.prepare(query).optimized_graphs()[0]`` — so batched
        requests run the same pruned pipeline the cached plan runs.
        """
        with self._condition:
            self._graphs[name] = graph
            self._auto_resolved.discard(name)

    def _graph_for(self, name: str):
        graph = self._graphs.get(name)
        if graph is None:
            graph = self.session.catalog.model(name).graph
            with self._condition:
                if name not in self._graphs:
                    self._graphs[name] = graph
                    self._auto_resolved.add(name)
                graph = self._graphs[name]
        return graph

    def effective_max_batch_rows(self, model: str) -> int:
        """The batch-row cap in force for ``model``.

        Explicit ``max_batch_rows`` wins; otherwise the cap is derived
        from the feedback store's observed per-row cost for the model
        (``ADAPTIVE_TARGET_SECONDS`` worth of model time, clamped), and
        the static default applies until a cost has been observed.
        """
        if self.max_batch_rows is not None:
            return self.max_batch_rows
        feedback = self.session.feedback
        per_row = (feedback.predict_per_row_cost(model)
                   if feedback is not None else None)
        if per_row is None or per_row <= 0.0:
            return DEFAULT_MAX_BATCH_ROWS
        rows = int(ADAPTIVE_TARGET_SECONDS / per_row)
        return max(ADAPTIVE_MIN_BATCH_ROWS,
                   min(ADAPTIVE_MAX_BATCH_ROWS, rows))

    def _on_catalog_change(self, kind: str, name: str) -> None:
        """Invalidation hook: drop catalog-resolved graphs on model DDL."""
        if kind != "model":
            return
        with self._condition:
            if name in self._auto_resolved:
                self._auto_resolved.discard(name)
                self._graphs.pop(name, None)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def predict(self, model: str, inputs: Mapping[str, object]) -> Future:
        """Queue a single-row or small-batch predict request.

        ``inputs`` maps graph input names to scalars or 1-D arrays (all
        arrays must share one length). Returns a Future resolving to a
        dict of graph output name -> array with this request's rows.
        """
        graph = self._graph_for(model)
        arrays: Dict[str, np.ndarray] = {}
        rows: Optional[int] = None
        for info in graph.inputs:
            if info.name not in inputs:
                raise ExecutionError(
                    f"predict request for {model!r} lacks input {info.name!r}"
                )
            array = np.asarray(inputs[info.name])
            if array.ndim == 0:
                array = array.reshape(1)
            if rows is None:
                rows = len(array)
            elif len(array) != rows:
                raise ExecutionError(
                    f"predict request inputs disagree on row count "
                    f"({len(array)} vs {rows})"
                )
            arrays[info.name] = array
        future: Future = Future()
        request = _Request(arrays, rows or 0, future)
        with self._condition:
            if self._closed:
                raise ExecutionError(
                    "MicroBatcher is closed; no new predict requests accepted"
                )
            self._queues.setdefault(model, []).append(request)
            if self._oldest is None:
                self._oldest = time.monotonic()
            self.stats.requests += 1
            self.stats.rows += request.rows
            self._queue_rows_gauge.inc(request.rows)
            self._queue_requests_gauge.inc()
            self._condition.notify_all()
        return future

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _drain(self) -> Dict[str, List[_Request]]:
        """Empty the queues (caller holds ``_condition``)."""
        drained = {name: reqs for name, reqs in self._queues.items() if reqs}
        self._queues = {}
        self._oldest = None
        requests = [request for reqs in drained.values() for request in reqs]
        self._queue_rows_gauge.dec(sum(request.rows for request in requests))
        self._queue_requests_gauge.dec(len(requests))
        return drained

    def flush(self) -> int:
        """Drain all pending requests now; returns batches executed."""
        with self._condition:
            drained = self._drain()
        executed = 0
        for model, requests in drained.items():
            self._execute_batch(model, requests)
            executed += 1
        return executed

    def _execute_batch(self, model: str, requests: List[_Request]) -> None:
        graph = self._graph_for(model)
        runtime = self.session.runtime
        telemetry = self.session.telemetry
        trace = telemetry.start_trace(f"batcher:{model}",
                                      root_name=f"batcher:{model}",
                                      model=model, requests=len(requests))
        if trace is not None:
            # A per-call runtime clone carries the span, so this batch's
            # predict spans land in *this* trace rather than a concurrent
            # query's; the clone's simulated-GPU accounting is folded
            # back below.
            runtime = runtime.for_call()
            runtime.span = trace.root
        try:
            # Fault hook inside the try: an injected batch failure takes
            # the same path as a real one — every coalesced request's
            # future gets the error, nothing hangs.
            faults = self.session.faults
            if faults is not None:
                faults.fire("batcher.execute", detail=model)
            total = sum(request.rows for request in requests)
            stacked = {
                info.name: np.concatenate(
                    [request.inputs[info.name] for request in requests])
                for info in graph.inputs
            }
            wanted = list(graph.outputs)
            # One vectorized execution for the whole coalesced batch;
            # run_graph_batched re-chunks internally (chunk_ranges) if the
            # stack exceeds the runtime's vectorization batch size.
            started = time.perf_counter()
            outputs = runtime.run_graph_batched(graph, stacked, wanted, total)
            # Feed the per-model cost back so adaptive sizing learns from
            # the batcher's own traffic, not just the sql() path.
            feedback = self.session.feedback
            if feedback is not None:
                feedback.record_predict(model, total,
                                        time.perf_counter() - started)
        except BaseException as error:  # noqa: B036 - propagate to waiters
            if trace is not None:
                telemetry.tracer.finish(trace, status="error", error=error)
            for request in requests:
                if not request.future.cancelled():
                    request.future.set_exception(error)
            return
        if trace is not None:
            trace.root.set(rows=total)
            telemetry.tracer.finish(trace)
            self.session.runtime.add_gpu_adjustment(
                runtime.gpu_time_adjustment)
        self._batch_rows_hist.observe(total)
        with self._condition:
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch,
                                           len(requests))
        start = 0
        for request in requests:
            piece = {name: array[start:start + request.rows]
                     for name, array in outputs.items()}
            start += request.rows
            if not request.future.cancelled():
                request.future.set_result(piece)

    def pending_rows(self) -> int:
        with self._condition:
            return sum(request.rows for requests in self._queues.values()
                       for request in requests)

    # ------------------------------------------------------------------
    # Background worker
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Start the background flusher; idempotent. Returns self."""
        with self._condition:
            if self._worker is not None:
                return self
            self._stopping = False
            self._worker = threading.Thread(target=self._run, daemon=True,
                                            name="raven-micro-batcher")
            self._worker.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker, drain the queue, reject further requests.

        Clean shutdown flushes anything still queued. If the worker does
        not stop within ``timeout`` seconds (wedged mid-batch — e.g. a
        hung model or an injected delay fault), pending requests are
        *failed* with a clear :class:`~repro.errors.ExecutionError`
        instead of being flushed through a stuck pipeline, so no caller
        blocks forever on a future that will never resolve. Either way
        the queue is provably empty on return.
        """
        self.session.catalog.unsubscribe(self._on_catalog_change)
        with self._condition:
            self._closed = True
            self._stopping = True
            worker = self._worker
            self._worker = None
            self._condition.notify_all()
        wedged = False
        if worker is not None:
            worker.join(timeout=timeout)
            wedged = worker.is_alive()
        if not wedged:
            self.flush()
        else:
            with self._condition:
                drained = [request for requests in self._drain().values()
                           for request in requests]
            error = ExecutionError(
                f"MicroBatcher.close(): worker thread still alive after "
                f"{timeout}s; {len(drained)} pending request(s) failed"
            )
            for request in drained:
                if not request.future.cancelled():
                    request.future.set_exception(error)
        assert self.pending_rows() == 0, \
            "MicroBatcher.close() left requests queued"

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._stopping and self._oldest is None:
                    self._condition.wait()
                if self._stopping:
                    break
                # Collect arrivals until the oldest request has waited
                # max_delay or the pending rows fill a batch.
                deadline = self._oldest + self.max_delay
                while not self._stopping:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    if any(sum(r.rows for r in reqs)
                           >= self.effective_max_batch_rows(model)
                           for model, reqs in self._queues.items() if reqs):
                        break
                    self._condition.wait(timeout=remaining)
            self.flush()
        self.flush()

    def __repr__(self) -> str:
        s = self.stats
        return (f"MicroBatcher(requests={s.requests}, batches={s.batches}, "
                f"rows={s.rows}, largest_batch={s.largest_batch})")
