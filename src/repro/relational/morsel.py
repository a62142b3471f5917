"""Morsel-driven plan execution: the one way a plan runs.

A plan's scan side is driven by **morsels** — partition-aligned row
ranges (:class:`~repro.relational.executor.Morsel`) of its fact table —
pulled by a worker pool from one shared queue, the classic morsel-driven
scheme: idle workers steal the next morsel, so a skewed partition never
strands the pool behind one big static chunk. A flat table is one
partition. At ``dop=1`` one worker runs each surviving partition as a
single morsel, so a flat-table query is exactly one :class:`Executor`
pass.

Properties the rest of the system relies on:

* **Zone-map skipping at morsel generation.** Before morsels are
  generated, each partition's statistics are checked against the plan's
  filter constraints (:mod:`repro.relational.skipping`); partitions
  proven empty produce no morsels at all. Skipped partitions are counted
  in the ``partitions_skipped`` metric, executed morsels in
  ``morsels_executed``.
* **Bit-for-bit determinism.** Morsel results merge in ``(partition,
  start)`` order — exactly the row order of the unrestricted scan —
  before the serial tail runs, so the output is identical to an
  unrestricted execution no matter which worker ran what when. Plans
  whose row order would not survive that merge (the fact table under a
  join's build side, below an aggregate, ...) run as one unrestricted
  pass instead.
* **Per-partition models.** A Predict carrying partition-specialized
  graphs (the data-induced rule, paper §4.2) drives morsels over its
  source table, and each morsel's predict call is bound to the morsel's
  partition — Spark's one task per partition with a partition-local
  model, parallel like any other morsel.
* **Skew-aware scheduling.** When a pool of workers runs the morsels
  and a feedback store has per-partition observations (seconds-per-row
  under the scan's partition fingerprint), morsels are ordered
  longest-estimated-first (LPT); cold, we fall back to row counts. A
  single worker runs them in canonical order. Each finished morsel of a
  partitioned table records its observation back, so skew learned on
  one query schedules the next.
* **One query context.** :class:`MorselExecutor` holds the per-query
  state — engine choice, :class:`ExecStats`, profiler, deadline, fault
  injector, trace span, feedback store, metrics — and every Executor
  pass it makes (per morsel, and the serial tail) runs under it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.relational.executor import ExecStats, Executor, Morsel, \
    PredictExecutor
from repro.relational.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    Project,
    Scan,
    Sort,
    walk,
)
from repro.relational.skipping import plan_partition_restrictions
from repro.storage.catalog import Catalog
from repro.storage.table import Table, TableView, concat_tables

#: Floor on morsel size: below this, per-morsel dispatch overhead (an
#: Executor walk + numpy call fixed costs) dominates the vectorized work.
MIN_MORSEL_ROWS = 8_192

#: Target number of morsels per worker. >1 so the pool can rebalance when
#: morsel costs are skewed; small enough to keep dispatch overhead low.
MORSELS_PER_WORKER = 4


def split_serial_tail(plan: PlanNode) -> Tuple[List[PlanNode], PlanNode]:
    """Peel root operators that must run once, returning (tail-ops, body).

    Tail ops are returned outermost-first; the body is morsel-safe (its
    output rows are a disjoint union over morsels).

    A root ``Project`` peels too: it is row-wise (safe either side of the
    split), but leaving it in the body would hide an ``Aggregate`` sitting
    right below it — ``SELECT AVG(x) AS m ...`` plans root at
    ``Project(Aggregate(...))``, and a per-morsel aggregate under a
    morsel-blind tail would emit one row per morsel.
    """
    tail: List[PlanNode] = []
    current = plan
    while isinstance(current, (Project, Aggregate, Sort, Limit)):
        tail.append(current)
        current = current.children()[0]
    # Row-wise Projects peeled below the last genuine breaker can stay in
    # the body (cheaper: they run inside the parallel section).
    while tail and isinstance(tail[-1], Project):
        current = tail.pop()
    return tail, current


def chunk_ranges(num_rows: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_rows)`` into up to ``chunks`` contiguous ranges.

    Shared by morsel planning, the batched inference path in
    :mod:`repro.core.executor`, and the serving micro-batcher.
    """
    chunks = max(1, min(chunks, num_rows)) if num_rows else 1
    size = -(-num_rows // chunks) if num_rows else 0
    out = []
    start = 0
    while start < num_rows:
        out.append((start, min(start + size, num_rows)))
        start += size
    return out or [(0, 0)]


def largest_scan(plan: PlanNode, catalog: Catalog) -> Optional[Scan]:
    """The scan over the table with the most rows (the 'fact' side)."""
    best: Optional[Scan] = None
    best_rows = -1
    for node in walk(plan):
        if isinstance(node, Scan):
            rows = catalog.table(node.table_name).num_rows
            if rows > best_rows:
                best, best_rows = node, rows
    return best


def plan_morsels(partition_rows: List[Tuple[int, int]], dop: int,
                 morsel_rows: Optional[int] = None) -> List[Morsel]:
    """Cut surviving partitions into partition-aligned morsels.

    ``partition_rows`` is ``[(partition_index, num_rows), ...]``. At
    ``dop=1`` each partition is one morsel (a lone worker gains nothing
    from splitting). Otherwise the morsel size targets
    :data:`MORSELS_PER_WORKER` morsels per worker over the total
    surviving rows, floored at :data:`MIN_MORSEL_ROWS`; morsels never
    span partitions (a morsel must have one zone map, one feedback
    fingerprint and one specialized model).
    """
    if morsel_rows is None:
        if dop == 1:
            morsel_rows = max([1] + [rows for _, rows in partition_rows])
        else:
            total = sum(rows for _, rows in partition_rows)
            want = max(1, dop * MORSELS_PER_WORKER)
            morsel_rows = max(MIN_MORSEL_ROWS, -(-total // want))
    morsels: List[Morsel] = []
    for index, rows in partition_rows:
        if rows == 0:
            continue
        for start, stop in chunk_ranges(rows, -(-rows // morsel_rows)):
            morsels.append(Morsel(index, start, stop))
    return morsels


def _order_safe(node: PlanNode, target: Scan) -> bool:
    """Does merging per-morsel outputs in morsel order reproduce the
    unrestricted row order?

    True when ``target`` is reached through row-wise operators and
    order-leading join inputs only: the probe (left) side of an inner
    ``Join`` — its output is left-major whichever side builds — and
    input 0 of a ``MultiJoin`` (any input of an order-insensitive one).
    """
    if node is target:
        return True
    if isinstance(node, (Filter, Project, Predict)):
        return _order_safe(node.child, target)
    if isinstance(node, Join):
        return node.how == "inner" and _order_safe(node.left, target)
    if isinstance(node, MultiJoin):
        inputs = node.inputs if node.order_insensitive else node.inputs[:1]
        return any(_order_safe(child, target) for child in inputs)
    return False


class _Pass(Executor):
    """One Executor pass of a query, aware of the plan's morsel body.

    A morsel pass records the body's output row count (per-partition
    feedback). A tail pass, given ``merged``, substitutes the merged
    morsel results for the body, so the serial tail runs on the
    original plan nodes under the query's full context.
    """

    def __init__(self, catalog: Catalog, body: Optional[PlanNode] = None,
                 merged: Optional[Table] = None, **context):
        super().__init__(catalog, **context)
        self.body = body
        self.merged = merged
        self.body_rows = 0

    def _run(self, plan: PlanNode) -> TableView:
        if plan is not self.body:
            return super()._run(plan)
        if self.merged is not None:
            return TableView(self.merged)
        view = super()._run(plan)
        self.body_rows = view.num_rows
        return view


class MorselExecutor:
    """Executes a plan as morsels over its fact table, at any ``dop``.

    The morselized table must be scanned exactly once in the body
    (star/snowflake queries re-read dimension tables per morsel, a
    broadcast join) and in an order-safe position; otherwise the plan
    runs as one unrestricted pass, with plan-time partition skipping.
    """

    def __init__(self, catalog: Catalog, dop: int = 1,
                 predict_executor: Optional[PredictExecutor] = None,
                 compile_expressions: bool = True,
                 exec_stats: Optional[ExecStats] = None,
                 profiler=None, deadline=None, faults=None, span=None,
                 feedback=None, metrics=None):
        if dop < 1:
            raise ValueError("dop must be >= 1")
        self.catalog = catalog
        self.dop = dop
        self.predict_executor = predict_executor
        self.compile_expressions = compile_expressions
        # Aggregated over every pass of the query; read by RunStats.
        self.exec_stats = exec_stats if exec_stats is not None \
            else ExecStats()
        # Optional PlanProfiler (thread-safe, shared by every pass, so
        # the profile covers the whole query), per-query Deadline and
        # FaultInjector, and the parent telemetry Span.
        self.profiler = profiler
        self.deadline = deadline
        self.faults = faults
        self.span = span
        # Optional repro.adaptive.feedback.FeedbackStore: read for
        # skew-aware morsel ordering, written with per-morsel
        # (rows_in, rows_out, seconds) observations.
        self.feedback = feedback
        # Optional telemetry MetricsRegistry for the partition counters.
        self.metrics = metrics

    # ------------------------------------------------------------------
    def _pass(self, scan_restrictions=None, predict_executor=None,
              body: Optional[PlanNode] = None,
              merged: Optional[Table] = None) -> _Pass:
        return _Pass(self.catalog, body=body, merged=merged,
                     predict_executor=predict_executor
                     or self.predict_executor,
                     scan_restrictions=scan_restrictions,
                     compile_expressions=self.compile_expressions,
                     exec_stats=self.exec_stats, profiler=self.profiler,
                     deadline=self.deadline, faults=self.faults,
                     span=self.span)

    def execute(self, plan: PlanNode) -> Table:
        tail, body = split_serial_tail(plan)
        # Zone-map skipping: partitions whose statistics prove the
        # body's filters empty are never scanned.
        skip = plan_partition_restrictions(body, self.catalog)
        skipped = sum(self.catalog.table(name).data.num_partitions
                      - len(kept) for name, kept in skip.items())
        if skipped and self.metrics is not None:
            self.metrics.counter("partitions_skipped").inc(skipped)
        if skipped and self.span is not None:
            self.span.set(partitions_skipped=skipped)

        target, specialized = self._morsel_target(body)
        if target is None:
            return self._pass(skip).execute(plan)
        partitions = self.catalog.table(target.table_name).data.partitions
        surviving = skip.pop(target.table_name, range(len(partitions)))
        morsels = plan_morsels(
            [(i, partitions[i].num_rows) for i in surviving], self.dop)
        if not morsels:
            # Every partition proven (or actually) empty: one pass over
            # an empty slice produces the correctly-typed empty result.
            return self._pass({**skip, target.table_name: []}).execute(plan)
        if len(morsels) == 1:
            # One morsel covers every surviving row: the whole plan,
            # serial tail included, is a single pass.
            return self._run_one(morsels[0], plan, body, target, skip,
                                 specialized)
        pieces = self._run_morsels(morsels, body, target, skip, specialized)
        merged = concat_tables([pieces[m] for m in sorted(pieces)])
        if not tail:
            return merged
        return self._pass(body=body, merged=merged).execute(plan)

    def _morsel_target(self, body: PlanNode) -> Tuple[Optional[Scan], bool]:
        """The scan morsels drive (None: run unrestricted), and whether
        the body's Predict is partition-specialized.

        A specialized Predict drives morsels over its own source table;
        otherwise the largest scan does. Specialized graphs prune the
        global model without changing its answers, so a plan that cannot
        run as morsels still computes the same result on the global
        graph.
        """
        specialized = [node for node in walk(body)
                       if isinstance(node, Predict)
                       and node.per_partition_graphs]
        if specialized:
            sources = {self._source_table(node) for node in specialized}
            if len(sources) != 1:
                return None, False
            (name,) = sources
            target = next(node for node in walk(body)
                          if isinstance(node, Scan)
                          and node.table_name == name)
        else:
            target = largest_scan(body, self.catalog)
            if target is None:
                return None, False
        scans = sum(1 for node in walk(body) if isinstance(node, Scan)
                    and node.table_name == target.table_name)
        if scans != 1 or not _order_safe(body, target):
            return None, False
        return target, bool(specialized)

    def _source_table(self, predict: Predict) -> str:
        partitioned = {node.table_name for node in walk(predict.child)
                       if isinstance(node, Scan) and self.catalog.table(
                           node.table_name).data.num_partitions > 1}
        if len(partitioned) != 1:
            raise ExecutionError(
                "per-partition prediction requires exactly one partitioned "
                "table")
        (name,) = partitioned
        if len(predict.per_partition_graphs) \
                != self.catalog.table(name).data.num_partitions:
            raise ExecutionError(
                "per-partition graphs do not match the table's partitioning")
        return name

    # ------------------------------------------------------------------
    def _run_morsels(self, morsels: List[Morsel], body: PlanNode,
                     target: Scan, other_skip: Dict[str, List[int]],
                     specialized: bool) -> Dict[Morsel, Table]:
        workers = min(self.dop, len(morsels))
        # LPT only helps a pool; one worker runs morsels in canonical
        # order, so a serial query's work never depends on past timings.
        queue = deque(self._schedule(morsels, target) if workers > 1
                      else morsels)
        results: Dict[Morsel, Table] = {}
        lock = threading.Lock()
        errors: List[BaseException] = []

        def worker() -> None:
            while True:
                with lock:
                    if errors or not queue:
                        return
                    morsel = queue.popleft()
                try:
                    piece = self._run_one(morsel, body, body, target,
                                          other_skip, specialized)
                except BaseException as exc:  # propagate after drain
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results[morsel] = piece

        if workers == 1:
            worker()
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(worker) for _ in range(workers)]
                for future in futures:
                    future.result()
        if errors:
            raise errors[0]
        return results

    def _run_one(self, morsel: Morsel, plan: PlanNode, body: PlanNode,
                 target: Scan, other_skip: Dict[str, List[int]],
                 specialized: bool) -> Table:
        """One pass of ``plan`` (the body, or the whole plan when a single
        morsel covers the query) over one morsel."""
        partitions = self.catalog.table(target.table_name).data.partitions
        restrictions = {**other_skip, target.table_name: morsel}
        predict = (functools.partial(self.predict_executor,
                                     partition=morsel.partition)
                   if specialized and self.predict_executor else None)
        span = None
        if self.span is not None:
            span = self.span.child(
                "scan.morsel", category="scan",
                table=target.table_name, partition=morsel.partition,
                label=partitions[morsel.partition].label,
                start=morsel.start, rows=morsel.num_rows)
        executor = self._pass(restrictions, predict, body=body)
        started = time.perf_counter()
        try:
            piece = executor.execute(plan)
        except BaseException:
            if span is not None:
                span.finish(status="error")
            raise
        elapsed = time.perf_counter() - started
        if span is not None:
            span.finish(rows_out=executor.body_rows)
        if self.metrics is not None:
            self.metrics.counter("morsels_executed").inc()
        if len(partitions) == 1:
            return piece
        if self.profiler is not None:
            # Reaches the feedback store when the session folds the
            # profile tree in (record_profile); recording directly too
            # would double-count the observation.
            self.profiler.record_partition(
                target, morsel.partition, morsel.num_rows,
                executor.body_rows, elapsed)
        elif self.feedback is not None:
            self.feedback.record_partition(
                self._scan_fingerprint(target), morsel.partition,
                morsel.num_rows, executor.body_rows, elapsed)
        return piece

    # ------------------------------------------------------------------
    def _schedule(self, morsels: List[Morsel], target: Scan) -> List[Morsel]:
        """LPT order: longest estimated morsel first.

        With per-partition feedback the estimate is observed
        seconds-per-row × morsel rows; cold it degrades to row count
        (every partition assumed equally expensive per row). Ties break
        on canonical order, keeping the schedule deterministic.
        """
        costs = {m: float(m.num_rows) for m in morsels}
        if self.feedback is not None:
            fingerprint = self._scan_fingerprint(target)
            for morsel in morsels:
                per_row = self.feedback.partition_seconds_per_row(
                    fingerprint, morsel.partition)
                if per_row is not None:
                    costs[morsel] = per_row * morsel.num_rows
        return sorted(morsels, key=lambda m: (-costs[m], m))

    def _scan_fingerprint(self, target: Scan) -> str:
        # Lazy import: repro.adaptive imports the relational layer.
        from repro.adaptive.profile import plan_fingerprint

        return plan_fingerprint(target)
