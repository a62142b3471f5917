"""Physical execution of Predict operators + plan-level execution.

:class:`PredictRuntime` is the callback the relational executor invokes for
Predict nodes. It mirrors the paper's Spark integration (§6): inputs arrive
as columnar batches (10k rows by default, like Spark's vectorized Python
UDF), the inference session is cached per model to amortize initialization,
and the chosen physical mode routes to the onnxlite runtime or the tensor
runtime (CPU / simulated GPU).

Because the GPU is simulated, runs through the GPU device *measure* numpy
time but *report* modeled time; the runtime accumulates the difference so
callers can adjust end-to-end wall-clock numbers (``gpu_time_adjustment``).
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.onnxlite.graph import Graph
from repro.onnxlite.runtime import InferenceSession
from repro.relational.logical import PlanNode, Predict, PredictMode
from repro.relational.morsel import MorselExecutor, chunk_ranges
from repro.storage.catalog import Catalog
from repro.storage.column import Column, DataType
from repro.storage.table import Table
from repro.tensor.device import CpuDevice, K80, SimulatedGpuDevice
from repro.tensor.runtime import TensorRuntime

DEFAULT_BATCH_SIZE = 10_000
# Bound on cached per-model inference sessions: long-lived serving
# sessions that churn models (replace=True) must not pin every graph
# they ever executed. Eviction only costs a re-initialization later.
MAX_CACHED_SESSIONS = 64


class PredictRuntime:
    """Executes Predict nodes; reusable across queries within a session."""

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE, gpu_spec=K80):
        self.batch_size = batch_size
        self._sessions: "OrderedDict[int, InferenceSession]" = OrderedDict()
        self._sessions_lock = threading.Lock()
        self._tensor_cpu = TensorRuntime(CpuDevice())
        self._tensor_gpu = TensorRuntime(SimulatedGpuDevice(gpu_spec))
        # Accumulated (modeled - measured) seconds for simulated devices;
        # every addition goes through add_gpu_adjustment (one lock).
        self.gpu_time_adjustment = 0.0
        self._adjustment_lock = threading.Lock()
        # Optional repro.adaptive.feedback.FeedbackStore: every model
        # invocation records (rows, seconds) so the optimizer can size
        # predict batches and the micro-batcher can size coalesced
        # batches from observed per-row cost. Shared by for_call() clones.
        self.feedback = None
        # Optional repro.resilience.FaultInjector (shared by clones) and
        # per-call repro.resilience.Deadline: checked before every predict
        # batch so a long chunked inference can't sail past its deadline.
        self.faults = None
        self.deadline = None
        # Optional per-call telemetry Span: when set, every inference
        # batch is recorded as a ``predict.batch`` child span.
        self.span = None

    def for_call(self) -> "PredictRuntime":
        """A per-call view of this runtime for concurrent execution.

        The clone *shares* the expensive caches — per-model inference
        sessions and the tensor runtimes' compiled programs — but gets its
        own mutable per-call state (accumulated GPU time adjustment,
        deadline, span), so concurrent ``RavenSession.sql()`` calls never
        observe each other's timing.
        """
        clone = copy.copy(self)
        clone.gpu_time_adjustment = 0.0
        clone._adjustment_lock = threading.Lock()
        clone.deadline = None
        clone.span = None
        return clone

    def add_gpu_adjustment(self, seconds: float) -> None:
        """Atomically add a batch's or a finished call's adjustment."""
        with self._adjustment_lock:
            self.gpu_time_adjustment += seconds

    def _pre_batch(self, detail: str = "") -> None:
        """Deadline check + fault hook before one inference batch."""
        if self.deadline is not None:
            self.deadline.check("predict batch")
        if self.faults is not None:
            self.faults.fire("predict.run", detail=detail)

    # ------------------------------------------------------------------
    def __call__(self, node: Predict, table: Table,
                 partition: Optional[int] = None) -> Table:
        """Score ``table``; ``partition`` (bound by the morsel runner for
        a partition-specialized node) selects that partition's graph."""
        graph = (node.per_partition_graphs[partition]
                 if node.per_partition_graphs and partition is not None
                 else node.graph)
        inputs = {name: table.array(column)
                  for name, column in node.input_mapping.items()}
        wanted = [graph_output for _, graph_output, _ in node.output_columns]

        started = time.perf_counter()
        if node.mode is PredictMode.ML_RUNTIME:
            outputs = self.run_graph_batched(graph, inputs, wanted,
                                             table.num_rows,
                                             batch_size=node.batch_rows)
        elif node.mode is PredictMode.DNN_CPU:
            outputs = self._run_tensor(self._tensor_cpu, graph, inputs, wanted)
        elif node.mode is PredictMode.DNN_GPU:
            outputs = self._run_tensor(self._tensor_gpu, graph, inputs, wanted)
        else:  # pragma: no cover - exhaustive over PredictMode
            raise ExecutionError(f"unknown predict mode: {node.mode}")
        if self.feedback is not None:
            self.feedback.record_predict(node.model_name, table.num_rows,
                                         time.perf_counter() - started)

        columns = []
        for exposed, graph_output, dtype in node.output_columns:
            columns.append((exposed, _to_column(outputs[graph_output], dtype)))
        return Table(columns)

    # ------------------------------------------------------------------
    def session_for(self, graph: Graph) -> InferenceSession:
        """The cached inference session for a graph (shared across threads).

        LRU-bounded by :data:`MAX_CACHED_SESSIONS`. Keyed by ``id(graph)``,
        which is safe because the cached :class:`InferenceSession` holds a
        reference to its graph — an id can only be recycled after its entry
        is gone. Initialization happens outside the lock; a concurrent
        first call for the same graph keeps the winner's session.
        """
        key = id(graph)
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                return session
        session = InferenceSession(graph)
        with self._sessions_lock:
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
            self._sessions[key] = session
            while len(self._sessions) > MAX_CACHED_SESSIONS:
                self._sessions.popitem(last=False)
        return session

    def run_graph_batched(self, graph: Graph, inputs: Dict[str, np.ndarray],
                          wanted: List[str], num_rows: int,
                          batch_size: Optional[int] = None
                          ) -> Dict[str, np.ndarray]:
        """Batched evaluation, like Spark's vectorized UDF (10k-row batches).

        Also the execution path of the serving micro-batcher, which stacks
        coalesced requests and calls this once. ``batch_size`` overrides
        the runtime default — feedback-driven batch sizing passes the
        Predict node's annotation through here. Chunk boundaries never
        change results: every graph operator is row-independent.
        """
        session = self.session_for(graph)
        batch_size = batch_size or self.batch_size
        if num_rows <= batch_size:
            self._pre_batch(detail=f"rows={num_rows}")
            if self.span is not None:
                with self.span.child("predict.batch", category="predict",
                                     rows=num_rows):
                    return session.run(inputs, wanted)
            return session.run(inputs, wanted)
        pieces: Dict[str, List[np.ndarray]] = {name: [] for name in wanted}
        n_chunks = -(-num_rows // batch_size)
        for start, stop in chunk_ranges(num_rows, n_chunks):
            self._pre_batch(detail=f"rows={stop - start}")
            batch = {name: array[start:stop] for name, array in inputs.items()}
            if self.span is not None:
                with self.span.child("predict.batch", category="predict",
                                     rows=stop - start):
                    result = session.run(batch, wanted)
            else:
                result = session.run(batch, wanted)
            for name in wanted:
                pieces[name].append(result[name])
        return {name: np.concatenate(chunks) for name, chunks in pieces.items()}

    def _run_tensor(self, runtime: TensorRuntime, graph: Graph,
                    inputs: Dict[str, np.ndarray],
                    wanted: List[str]) -> Dict[str, np.ndarray]:
        self._pre_batch(detail=f"device={runtime.device.name}")
        span = (self.span.child("predict.batch", category="predict",
                                device=runtime.device.name)
                if self.span is not None else None)
        started = time.perf_counter()
        result = runtime.run(graph, inputs)
        measured = time.perf_counter() - started
        if span is not None:
            span.finish()
        if runtime.device.simulated:
            self.add_gpu_adjustment(result.seconds - measured)
        missing = [name for name in wanted if name not in result.outputs]
        if missing:
            raise ExecutionError(f"tensor program lacks outputs: {missing}")
        return result.outputs


def _to_column(array: np.ndarray, dtype: DataType) -> Column:
    if array.ndim == 2:
        if array.shape[1] != 1:
            raise ExecutionError(
                f"prediction output has width {array.shape[1]}, expected 1"
            )
        array = array[:, 0]
    return Column(array, dtype)


# ---------------------------------------------------------------------------
# Plan-level execution
# ---------------------------------------------------------------------------

class QueryExecutor(MorselExecutor):
    """Executes optimized plans on the morsel runner with a predict runtime.

    Every plan runs as morsels (:mod:`repro.relational.morsel`). A Predict
    carrying ``per_partition_graphs`` (installed by the data-induced rule)
    drives morsels over its source table, and each morsel's inference
    uses its partition's specialized model — Spark executing one task per
    partition with a partition-local broadcast model, here in parallel
    at ``dop > 1``. The serial tail (aggregate/sort/limit) runs once,
    over the merged morsel results.
    """

    def __init__(self, catalog: Catalog, runtime: Optional[PredictRuntime] = None,
                 dop: int = 1, compile_expressions: bool = True,
                 profiler=None, deadline=None, faults=None, span=None,
                 feedback=None, metrics=None):
        self.runtime = runtime or PredictRuntime()
        super().__init__(catalog, dop, self.runtime,
                         compile_expressions=compile_expressions,
                         profiler=profiler, deadline=deadline, faults=faults,
                         span=span, feedback=feedback, metrics=metrics)
        # The runtime checks the same deadline and faults before every
        # inference batch and records its batches under the same span.
        if deadline is not None:
            self.runtime.deadline = deadline
        if faults is not None:
            self.runtime.faults = faults
        if span is not None:
            self.runtime.span = span

    def execute(self, plan: PlanNode) -> Table:
        """Run ``plan`` to a materialized table.

        Defined on this class (not only inherited) so layer tracers that
        wrap ``QueryExecutor.execute`` find this class's own entry point.
        """
        return super().execute(plan)
