"""RavenSession: the user-facing entry point (paper §6's Raven Session).

Wraps catalog + parser + optimizer + executor:

.. code-block:: python

    session = RavenSession()
    session.register_table("patients", table, primary_key=["id"])
    session.register_model("risk", pipeline)           # learn Pipeline,
                                                       # onnxlite Graph, or path
    result = session.sql(\"\"\"
        SELECT d.id, p.score
        FROM PREDICT(MODEL = risk, DATA = patients AS d)
             WITH (score FLOAT) AS p
        WHERE d.asthma = 1
    \"\"\")

A query is routed by its circuit breaker to the adaptive or the degraded
path; both resolve their plan through :meth:`RavenSession._resolve` and
run it through :meth:`RavenSession._execute`, whose caller decides
whether the run is profiled. Warm-start and checkpoint state lives in
``session.warm`` (:class:`~repro.persist.warm.WarmState`).

Per-call timing is returned by :meth:`RavenSession.sql_with_stats` (and
mirrored into ``session.last_run`` as a best-effort alias for serial
callers), including the modeled time adjustment for simulated-GPU
execution.

Serving: sessions are safe for concurrent ``sql()`` calls, keep a
normalized plan cache so repeated queries skip parse/bind/optimize
(see :mod:`repro.serving`), and expose :meth:`RavenSession.serve` to
dispatch a batch of queries over a thread pool (with optional bounded
pending-query depth — backpressure).

Adaptive execution (on by default): every run is profiled into an
:class:`~repro.adaptive.profile.OperatorProfile` tree (see
``RunStats.operator_profiles``), observations aggregate in the session's
:class:`~repro.adaptive.feedback.FeedbackStore`, the optimizer consumes
them (conjunct reordering, join build side, predict batch sizing), and a
cached plan that execution feedback has drifted away from is marked
stale and re-optimized through the plan cache's single-flight path
(``plan_cache.stats.reoptimizations``). ``RavenSession(adaptive=False)``
turns the whole loop off and must produce bit-for-bit identical results.

Persistence & warm start (see :mod:`repro.persist`): the warm state —
optimized plans, learned feedback, catalog statistics — survives the
process. ``session.save_snapshot(path)`` exports it;
``RavenSession(warm_start=path_or_snapshot)`` starts a new worker where
the fleet left off (plans install as their tables/models get registered,
validated by content digest); ``SnapshotStore.attach(session, K)``
auto-checkpoints every K re-optimizations.
``RavenSession(profile_sample_rate=N)`` throttles profiling of
fixed-point cached plans to every Nth execution.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.adaptive.feedback import FeedbackStore
from repro.adaptive.profile import OperatorProfile, PlanProfiler, \
    plan_fingerprint
from repro.adaptive.reopt import feedback_divergence
from repro.core.binder import Binder
from repro.core.executor import DEFAULT_BATCH_SIZE, PredictRuntime, QueryExecutor
from repro.core.optimizer import OptimizationReport, RavenOptimizer
from repro.core.parser import parse
from repro.core.strategies import OptimizationStrategy
from repro.errors import (
    BackpressureError,
    CatalogError,
    DeadlineExceededError,
)
from repro.learn.pipeline import Pipeline
from repro.onnxlite.convert import convert_pipeline
from repro.onnxlite.graph import Graph
from repro.onnxlite.serialize import load_graph
from repro.persist.snapshot import Snapshot, build_snapshot
from repro.persist.warm import WarmState
from repro.relational.logical import PlanNode
from repro.relational.optimizer import RelationalOptimizer
from repro.resilience.breaker import (
    CircuitBreakerBoard,
    EVENT_CLOSED,
    EVENT_REOPENED,
    EVENT_TRIPPED,
    ROUTE_DEGRADED,
    ROUTE_TRIAL,
)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import (
    QueryOutcome,
    RetryPolicy,
    outcome_degraded_flags,
    raven_typed,
)
from repro.relational.sqlgen import plan_to_sql
from repro.serving.normalize import normalize_query, query_dependencies
from repro.serving.plan_cache import CachedPlan, PlanCache, dependency_versions
from repro.storage.catalog import Catalog
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table
from repro.telemetry import Telemetry
from repro.telemetry.explain import render_analyze
from repro.telemetry.metrics import CounterGroup, MetricsRegistry
from repro.tensor.device import K80


@dataclass
class RunStats:
    """Timing of one executed query.

    Returned per-call by :meth:`RavenSession.sql_with_stats` so concurrent
    callers each see their own numbers; ``session.last_run`` holds the most
    recently finished call's stats as a best-effort alias.

    ``optimize_seconds`` vs ``execute_seconds`` is the per-call
    optimize/execute breakdown; ``operator_profiles`` carries the
    adaptive subsystem's per-operator observations for profiled
    (adaptive) runs.
    """

    gpu_adjustment_seconds: float = 0.0
    optimize_seconds: float = 0.0
    execute_seconds: float = 0.0
    report: Optional[OptimizationReport] = None
    cache_hit: bool = False
    # Compiled-expression engine reuse: programs compiled this call vs
    # fetched from the per-plan cache (warm hits report reused only).
    programs_compiled: int = 0
    programs_reused: int = 0
    # Per-operator runtime profile of this call (None for adaptive=False).
    operator_profiles: Optional[OperatorProfile] = None
    # Degraded-mode markers: times the compiled expression engine fell
    # back to the interpreted oracle during this call, and whether the
    # circuit breaker served the safe static re-optimization instead of
    # the adaptively-annotated plan.
    expression_fallbacks: int = 0
    static_plan: bool = False
    # Structural fingerprint of the executed plan (joinable against the
    # plan cache, the feedback store, and slow-query-log entries).
    plan_fingerprint: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end time of the call: optimize (or cache lookup) plus
        execution."""
        return self.optimize_seconds + self.execute_seconds

    @property
    def adjusted_seconds(self) -> float:
        """Execution time with measured simulated-device time replaced by
        the modeled device time (what a GPU-equipped run would have
        taken)."""
        return self.execute_seconds + self.gpu_adjustment_seconds


class ServingStats(CounterGroup):
    """Counters for session serving traffic (monotonic).

    ``rejected`` counts queries refused by the ``"raise"`` backpressure
    policy when the bounded pending-query depth was full; ``failed`` are
    queries whose final serve outcome was an error (retries exhausted or
    non-retryable); ``retries`` are individual retry attempts;
    ``deadline_exceeded`` counts :class:`DeadlineExceededError` raises;
    ``degraded_runs`` are executions served from a breaker's static
    re-optimization; ``expression_fallbacks`` are compiled-engine →
    interpreted-oracle falls; the ``breaker_*`` fields mirror the
    board's transitions. The resilience counters also cover direct
    ``sql()`` calls, not just ``serve`` batches — a breaker trip is a
    breaker trip however the query arrived.

    ``in_flight`` is the one non-monotonic member: a gauge of queries
    currently inside ``sql()`` (incremented on entry, decremented in a
    ``finally`` so error paths can never wedge it high), giving the
    metrics sampler live concurrency next to queue depth. It is live
    state, so equality covers the counters only; :meth:`snapshot` and
    ``repr`` carry its current level.
    """

    PREFIX = "serving_"
    FIELDS = ("submitted", "completed", "rejected", "failed", "retries",
              "deadline_exceeded", "degraded_runs", "expression_fallbacks",
              "breaker_trips", "breaker_reopens", "breaker_half_opens",
              "breaker_closes")

    __slots__ = ("in_flight",)

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 queries_in_flight: int = 0, **values: int):
        if registry is None:
            registry = MetricsRegistry()
        super().__init__(registry, **values)
        self.in_flight = registry.gauge("serving_queries_in_flight")
        if queries_in_flight:
            self.in_flight.set(queries_in_flight)

    @property
    def queries_in_flight(self) -> int:
        return self.in_flight.value

    def snapshot(self) -> "ServingStats":
        return ServingStats(queries_in_flight=self.queries_in_flight,
                            **self.values())

    def __repr__(self) -> str:
        return (f"{super().__repr__()[:-1]}, "
                f"queries_in_flight={self.queries_in_flight})")


class RavenSession:
    """A connection-like object owning a catalog and an optimizer setup."""

    def __init__(self,
                 enable_optimizations: bool = True,
                 enable_cross: Optional[bool] = None,
                 enable_data_induced: Optional[bool] = None,
                 strategy: Optional[Union[OptimizationStrategy, str]] = None,
                 gpu_available: bool = False,
                 gpu_spec=K80,
                 dop: int = 1,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 plan_cache: Union[PlanCache, bool] = True,
                 compile_expressions: bool = True,
                 adaptive: bool = True,
                 feedback: Optional[FeedbackStore] = None,
                 warm_start: Union[str, Path, Snapshot, None] = None,
                 profile_sample_rate: Optional[int] = None,
                 breakers: Union[CircuitBreakerBoard, bool] = True,
                 faults: Optional[FaultInjector] = None,
                 telemetry: Union[Telemetry, bool, None] = None):
        self.catalog = Catalog()
        # Runtime telemetry (repro.telemetry): the default keeps the
        # unified metrics registry on and per-query tracing off;
        # telemetry=True also captures span trees; pass a configured
        # Telemetry to share a registry or tune thresholds.
        self.telemetry = Telemetry.coerce(telemetry)
        # Compiled expression engine (CSE + masked CASE routing) for
        # Filter/Project evaluation; False selects the interpreted
        # np.select path (the differential-testing oracle).
        self.compile_expressions = compile_expressions
        # Adaptive execution: profile every run, learn selectivities and
        # costs in the FeedbackStore, re-optimize drifted cached plans.
        # False disables the whole loop (the differential oracle for the
        # adaptive path); results must be bit-for-bit identical.
        self.adaptive = adaptive
        self.feedback: Optional[FeedbackStore] = (
            feedback if feedback is not None
            else (FeedbackStore() if adaptive else None))
        self.enable_cross = enable_optimizations if enable_cross is None \
            else enable_cross
        self.enable_data_induced = enable_optimizations \
            if enable_data_induced is None else enable_data_induced
        self.enable_optimizations = enable_optimizations
        self.strategy = strategy if enable_optimizations else "none"
        self.gpu_available = gpu_available
        self.dop = dop
        self.runtime = PredictRuntime(batch_size=batch_size, gpu_spec=gpu_spec)
        if self.adaptive:
            self.runtime.feedback = self.feedback
        self.last_run: Optional[RunStats] = None
        self.serving_stats = ServingStats(registry=self.telemetry.metrics)
        # Fault injection (repro.resilience): when set, every registered
        # site in this session's stack consults the injector. None (the
        # default) keeps the hooks to a single attribute check.
        self.faults = faults
        self.runtime.faults = faults
        # Per-fingerprint circuit breakers: repeated failures of a cached
        # adaptive plan trip to a safe static re-optimization (no learned
        # annotations), half-opening after a recovery interval. Pass a
        # configured CircuitBreakerBoard, or False to disable.
        if isinstance(breakers, CircuitBreakerBoard):
            self.breakers: Optional[CircuitBreakerBoard] = breakers
        else:
            self.breakers = CircuitBreakerBoard() if breakers else None
        # Normalized plan cache (on by default): repeated queries skip
        # parse/bind/optimize. Pass a PlanCache to control capacity, or
        # False to disable. Invalidation is wired to catalog mutations.
        if isinstance(plan_cache, PlanCache):
            self.plan_cache: Optional[PlanCache] = plan_cache
        else:
            self.plan_cache = PlanCache() if plan_cache else None
        if self.plan_cache is not None:
            self.plan_cache.attach(self.catalog)
            # Re-home the cache's counters onto the session registry so
            # one snapshot sees cache + serving + latency together.
            self.plan_cache.stats.bind(self.telemetry.metrics)
        # Thread-local retry context: _attempt_query stamps the attempt
        # number here so the query trace can carry it.
        self._attempt_context = threading.local()
        # Sampled re-profiling: with a rate N, a *fixed-point* cached plan
        # is profiled on every Nth hit instead of every call (fresh and
        # still-converging plans always profile, so the feedback loop
        # converges at full speed; drift detection fires on the sampled
        # profiles).
        if profile_sample_rate is not None and profile_sample_rate < 1:
            raise ValueError("profile_sample_rate must be >= 1")
        self.profile_sample_rate = profile_sample_rate
        # Warm-start lineage, pending snapshot state and checkpointing.
        self.warm = WarmState(self)
        if warm_start is not None:
            self.load_snapshot(warm_start)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Union[Table, PartitionedTable],
                       primary_key: Optional[Sequence[str]] = None,
                       partition_column: Optional[str] = None,
                       replace: bool = False) -> None:
        """Register a table (optionally partitioned by a column)."""
        self.catalog.add_table(name, table, primary_key=primary_key,
                               partition_column=partition_column,
                               replace=replace)

    def spill_table(self, name: str, directory: Union[str, Path],
                    budget_bytes: Optional[int] = None) -> int:
        """Spill a registered table's partitions to memory-mapped files.

        Largest partitions spill first until resident bytes fit
        ``budget_bytes`` (everything spills with no budget); queries keep
        producing bit-for-bit identical results over the read-only
        memmap views. Bytes moved out of memory accumulate in the
        ``spill_bytes`` metric. Spill writes go through the session's
        fault injector (site ``spill.write``), like every other
        persistence path.
        """
        entry = self.catalog.table(name)
        moved = entry.data.spill(directory, budget_bytes=budget_bytes,
                                 faults=self.faults)
        self.telemetry.metrics.counter("spill_bytes").inc(moved)
        return moved

    def register_model(self, name: str,
                       model: Union[Graph, Pipeline, str],
                       replace: bool = False, **metadata) -> Graph:
        """Register a trained pipeline under ``name``.

        Accepts an onnxlite Graph, a ``repro.learn`` Pipeline (converted on
        the fly, like ONNX export), or a path to a serialized graph.
        """
        if isinstance(model, Pipeline):
            graph = convert_pipeline(model, name=name)
        elif isinstance(model, Graph):
            graph = model
        elif isinstance(model, str):
            graph = load_graph(model)
        else:
            raise CatalogError(
                f"cannot register model of type {type(model).__name__}"
            )
        self.catalog.add_model(name, graph, replace=replace, **metadata)
        return graph

    # ------------------------------------------------------------------
    # Persistence & warm start (repro.persist)
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Export this session's warm state (plans, feedback, stats)."""
        return build_snapshot(self)

    def save_snapshot(self, path: Union[str, Path]) -> Path:
        """Write :meth:`snapshot` to ``path`` (atomically) and return it."""
        return self.snapshot().save(path)

    def load_snapshot(self, snapshot: Union[str, Path, Snapshot]) -> Dict[str, int]:
        """Warm-start this session from a snapshot (or a path to one).

        Feedback merges into the session's store immediately (commutative
        union — call once per fleet snapshot to merge several). Plan
        entries and table statistics whose dependencies are already
        registered install now; the rest stay pending and install
        automatically as matching tables/models are registered. Entries
        whose dependencies exist with *different* content (schema or
        model changed) are dropped — the ordinary miss path re-optimizes.

        Returns a summary dict: ``plans_installed`` / ``plans_pending`` /
        ``plans_dropped`` / ``feedback_operators`` / ``tables_with_stats``.
        """
        return self.warm.load(snapshot)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: str) -> PlanNode:
        """Parse + bind (no optimization)."""
        return Binder(self.catalog).bind(parse(query))

    def _optimizer(self, static: bool = False) -> RavenOptimizer:
        """The session optimizer; ``static=True`` builds the degraded-mode
        variant that trusts no learned annotation (no feedback store, so
        conjuncts stay in query-text order and batch sizing is default)."""
        return RavenOptimizer(
            self.catalog,
            enable_cross=self.enable_cross,
            enable_data_induced=self.enable_data_induced,
            strategy=self.strategy,
            gpu_available=self.gpu_available,
            feedback=self.feedback if self.adaptive and not static else None,
            predict_batch_rows=self.runtime.batch_size,
        )

    def optimize(self, query: str):
        """Parse, bind and optimize; returns (plan, report)."""
        return self._optimize_stmt(parse(query))

    def _optimize_stmt(self, stmt, static: bool = False):
        bound = Binder(self.catalog).bind(stmt)
        if not self.enable_optimizations and self.strategy in (None, "none"):
            # Raven (no-opt): only the host engine's own passes run.
            plan = RelationalOptimizer(self.catalog).optimize(bound)
            return plan, OptimizationReport()
        return self._optimizer(static=static).optimize(bound)

    def _resolve(self, query: str, normalized, deadline=None, trace=None,
                 static: bool = False):
        """Resolve ``query``'s plan under a timed ``optimize`` span: via
        the plan cache (:meth:`_plan_for`) or, with ``static``, the open
        breaker's static re-optimization (no learned annotation; cached
        on the breaker entry, version-validated like any cached plan).
        Returns ``(plan, report, cache_hit, entry, optimize_seconds)``."""
        started = time.perf_counter()
        span = (trace.root.child("optimize", category="optimize",
                                 static=static)
                if trace is not None else None)
        try:
            if not static:
                plan, report, cache_hit, entry = self._plan_for(
                    query, normalized, deadline, span)
            else:
                cache_hit = False
                entry = self.breakers.static_entry(normalized.key,
                                                   self.catalog)
                if entry is None:
                    if span is not None:
                        span.event("cache.miss")
                    entry = self._optimize_to_entry(query, normalized,
                                                    deadline, static=True)
                    self.breakers.set_static_entry(normalized.key, entry)
                elif span is not None:
                    span.event("cache.hit")
                plan, report = entry.plan, entry.report
        except BaseException:
            if span is not None:
                span.finish(status="error")
            raise
        if span is not None:
            span.finish(cache_hit=cache_hit)
        return plan, report, cache_hit, entry, time.perf_counter() - started

    def _plan_for(self, query: str, normalized, deadline=None, span=None):
        """Resolve a query through the cache.

        Returns ``(plan, report, cache_hit, entry)``. ``normalized`` is
        None exactly when the cache is disabled; ``entry`` is then None
        too (the adaptive staleness check uses it after execution).

        Concurrent misses for the same normalized key are single-flighted:
        the first caller optimizes while the others wait on the in-flight
        entry (``plan_cache.stats.coalesced``) instead of redundantly
        re-optimizing. The wait is bounded (the cache's ``join_timeout``,
        clamped to the query's deadline): if the owner fails, wedges, or
        times out, waiters optimize independently.

        On a miss the dependency versions are captured *before* optimizing:
        if a concurrent registration lands mid-optimization, the inserted
        entry's recorded versions no longer match the live catalog and the
        next lookup discards it instead of serving a stale plan.
        """
        if normalized is None:
            if deadline is not None:
                deadline.check("plan optimization")
            plan, report = self.optimize(query)
            return plan, report, False, None
        cache = self.plan_cache
        entry, flight, owner = cache.begin(normalized.key, self.catalog)
        hit_event = "cache.hit"
        if entry is None and not owner:
            if span is not None:
                span.event("cache.join")
            timeout = (deadline.bound(cache.join_timeout)
                       if deadline is not None else cache.join_timeout)
            entry = cache.join(flight, self.catalog, timeout=timeout)
            hit_event = "cache.coalesced"
        if entry is not None:
            if span is not None:
                span.event(hit_event)
            return entry.plan, entry.report, True, entry
        # A miss: this caller owns the flight, or the owner failed, timed
        # out, or had its entry invalidated. Optimize here and publish.
        if span is not None:
            span.event("cache.miss")
        try:
            entry = self._optimize_to_entry(query, normalized, deadline)
        except BaseException:
            if owner:
                cache.complete(flight, None)
            raise
        if owner:
            cache.complete(flight, entry)
        else:
            cache.put(normalized.key, entry)
        return entry.plan, entry.report, False, entry

    def _optimize_to_entry(self, query: str, normalized, deadline=None,
                           static: bool = False) -> CachedPlan:
        """Parse + optimize a query into a cache-ready entry."""
        if deadline is not None:
            deadline.check("plan optimization")
        if self.faults is not None:
            self.faults.fire("plan_cache.optimize", detail=normalized.template)
        stmt = parse(query)
        deps = query_dependencies(stmt)
        versions = dependency_versions(self.catalog, deps.tables, deps.models)
        plan, report = self._optimize_stmt(stmt, static=static)
        return CachedPlan(
            template=normalized.template,
            params=normalized.params,
            plan=plan,
            report=report,
            tables=deps.tables,
            models=deps.models,
            versions=versions,
        )

    def explain(self, query: str, analyze: bool = False) -> str:
        """Optimized plan rendering plus the optimizer's report.

        With ``analyze=True`` the query is actually executed (through
        the plan cache, so warm entries render as cache hits) and the
        plan is annotated with *observed* per-operator rows in/out,
        selectivity, and self-time, plus the serving context that
        produced it: cache hit/miss, circuit-breaker state, plan
        fingerprint, and compile-vs-reuse counts. Profiling is forced on,
        and the run bypasses the breaker board: an EXPLAIN must not
        consume a half-open breaker's trial slot.
        """
        if not analyze:
            return self.prepare(query).explain()
        normalized = (normalize_query(query)
                      if self.plan_cache is not None else None)
        plan, report, cache_hit, _entry, optimize_seconds = self._resolve(
            query, normalized)
        _table, stats = self._execute(plan, report, optimize_seconds,
                                      cache_hit, profiler=PlanProfiler())
        breaker_state = (self.breakers.state(normalized.key)
                         if self.breakers is not None and normalized is not None
                         else None)
        return render_analyze(stats.operator_profiles,
                              info=dict(vars(stats),
                                        breaker_state=breaker_state),
                              report=report)

    def to_sql_server(self, query: str) -> str:
        """T-SQL text of the optimized plan (paper §6: SQL Server output)."""
        plan, _ = self.optimize(query)
        return plan_to_sql(plan)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def sql(self, query: str,
            deadline: Union[Deadline, float, None] = None) -> Table:
        """Optimize (or fetch from the plan cache) and execute a query.

        ``deadline`` (seconds, or a :class:`~repro.resilience.Deadline`)
        bounds the call cooperatively: checked at operator boundaries,
        predict batches and plan-cache waits, raising
        :class:`~repro.errors.DeadlineExceededError` at most one check
        interval past expiry.
        """
        return self.sql_with_stats(query, deadline=deadline)[0]

    def sql_with_stats(self, query: str,
                       deadline: Union[Deadline, float, None] = None
                       ) -> Tuple[Table, RunStats]:
        """Like :meth:`sql` but also returns this call's :class:`RunStats`.

        Safe for concurrent use: stats are computed per call, never read
        back from shared session state. On a plan-cache hit
        ``stats.optimize_seconds`` is just the normalize+lookup time.

        Adaptive sessions profile the execution, fold the observations
        into the feedback store, and — when the feedback-driven passes
        would now produce a different plan than the cached one — mark the
        cache entry stale so the next call re-optimizes it (observable as
        ``plan_cache.stats.reoptimizations``).

        When the query's circuit breaker is open (its adaptive plan
        failed repeatedly), the call is served from a safe static
        re-optimization instead (``stats.static_plan``,
        ``serving_stats.degraded_runs``).
        """
        deadline = Deadline.coerce(deadline)
        telemetry = self.telemetry
        trace = telemetry.start_trace(query)
        if trace is not None:
            attempt = getattr(self._attempt_context, "attempt", None)
            if attempt is not None:
                trace.root.set(attempt=attempt)
        started = time.perf_counter()
        # The live-concurrency gauge: dec in the finally so no error path
        # (breaker raise, deadline, executor fault) can wedge it high.
        self.serving_stats.in_flight.inc()
        try:
            table, stats = self._sql_routed(query, deadline, trace)
        except BaseException as error:
            if trace is not None:
                telemetry.tracer.finish(trace, status="error", error=error)
            telemetry.observe_query(query, time.perf_counter() - started,
                                    trace=trace, error=error)
            raise
        finally:
            self.serving_stats.in_flight.dec()
        if trace is not None:
            trace.root.set(cache_hit=stats.cache_hit,
                           static_plan=stats.static_plan,
                           plan_fingerprint=stats.plan_fingerprint)
            telemetry.tracer.finish(trace)
        telemetry.observe_query(query, time.perf_counter() - started,
                                stats=stats, trace=trace)
        return table, stats

    def _sql_routed(self, query: str, deadline: Optional[Deadline],
                    trace=None) -> Tuple[Table, RunStats]:
        """Route one query: breaker admission, then the adaptive path or
        the degraded static one. Breaker transitions land on the trace
        root as events."""
        normalized = (normalize_query(query)
                      if self.plan_cache is not None else None)
        key = None
        route = None
        if self.breakers is not None and normalized is not None:
            key = normalized.key
            route = self.breakers.acquire(key)
            if route == ROUTE_TRIAL:
                self.serving_stats.inc("breaker_half_opens")
                if trace is not None:
                    trace.root.event("breaker.trial")
            elif route == ROUTE_DEGRADED and trace is not None:
                trace.root.event("breaker.degraded")
        try:
            if route == ROUTE_DEGRADED:
                # Served from the static re-optimization, never profiled:
                # feedback must keep describing the adaptive path the
                # half-open trial will retest.
                self.serving_stats.inc("degraded_runs")
                plan, report, _hit, _entry, seconds = self._resolve(
                    query, normalized, deadline, trace, static=True)
                table, stats = self._execute(plan, report, seconds,
                                             deadline=deadline, trace=trace)
                stats.static_plan = True
                return table, stats
            table, stats = self._sql_adaptive(query, normalized, deadline,
                                              trace)
        except BaseException as error:
            if isinstance(error, DeadlineExceededError):
                self.serving_stats.inc("deadline_exceeded")
            self._breaker_outcome(key, route, error, trace=trace)
            raise
        self._breaker_outcome(key, route, None, trace=trace)
        return table, stats

    def _sql_adaptive(self, query: str, normalized, deadline, trace=None
                      ) -> Tuple[Table, RunStats]:
        """The ordinary (non-degraded) plan-cache + adaptive-loop path."""
        plan, report, cache_hit, entry, optimize_seconds = self._resolve(
            query, normalized, deadline, trace)
        table, stats = self._execute(plan, report, optimize_seconds,
                                     cache_hit,
                                     self._profiler_for(entry, cache_hit),
                                     deadline=deadline, trace=trace)
        if entry is not None and stats.operator_profiles is not None:
            # Stale = the feedback passes would now produce a different
            # plan, or an operator's recent behaviour has drifted from
            # its long-run average (EWMA drift signal) — either way the
            # plan was optimized against assumptions execution no longer
            # supports. A consumed drift signal is reset so the slow
            # EWMA's convergence tail cannot keep re-marking the
            # replacement plan call after call.
            drifted = self._drifted_fingerprints(stats.operator_profiles)
            if drifted or feedback_divergence(entry.plan, self.feedback,
                                              self.runtime.batch_size,
                                              self.catalog):
                if self.plan_cache.mark_stale(normalized.key, entry) \
                        and trace is not None:
                    trace.root.event("plan.stale", drifted=len(drifted))
                for fingerprint in drifted:
                    self.feedback.consume_drift(fingerprint)
                entry.fixed_point = False
            else:
                # Converged: eligible for sampled re-profiling, and what
                # a snapshot records as this plan's adaptive state. Also
                # the right moment to auto-checkpoint — the cache holds
                # the *replacement* plan, not the just-dropped stale one.
                entry.fixed_point = True
                self.warm.maybe_checkpoint()
        return table, stats

    def _breaker_outcome(self, key, route, error, trace=None) -> None:
        """Report one adaptive-path result to the breaker board.

        Failures are library errors (RavenError, including deadline
        expiry — a plan that repeatedly blows its deadline deserves
        tripping) and internal defects; admission rejections
        (BackpressureError) and BaseExceptions like KeyboardInterrupt
        never count. Degraded (static) runs report nothing.
        """
        if key is None or route == ROUTE_DEGRADED:
            return
        trial = route == ROUTE_TRIAL
        if error is None:
            event = self.breakers.record_success(key, trial=trial)
        elif (isinstance(error, Exception)
              and not isinstance(error, BackpressureError)):
            event = self.breakers.record_failure(key, trial=trial)
        else:
            return
        if event is None:
            return
        if trace is not None:
            trace.root.event(f"breaker.{event}")
        if event == EVENT_TRIPPED:
            self.serving_stats.inc("breaker_trips")
        elif event == EVENT_REOPENED:
            self.serving_stats.inc("breaker_reopens")
        elif event == EVENT_CLOSED:
            self.serving_stats.inc("breaker_closes")

    def _profiler_for(self, entry=None, cache_hit: bool = False
                      ) -> Optional[PlanProfiler]:
        """The profiler for one execution, or None not to profile.

        Only adaptive sessions profile. Without a ``profile_sample_rate``
        every adaptive execution profiles. With one, only *fixed-point*
        cached plans are throttled — every Nth hit still profiles, so
        EWMA drift detection keeps firing, just on a sample.
        """
        if not self.adaptive:
            return None
        rate = self.profile_sample_rate
        if (rate is None or rate <= 1 or entry is None or not cache_hit
                or not entry.fixed_point or entry.hits % rate == 0):
            return PlanProfiler()
        return None

    def _drifted_fingerprints(self, root: OperatorProfile) -> List[str]:
        """Profiled operator/conjunct fingerprints tripping drift."""
        drifted: List[str] = []
        for profile in root.walk():
            if self.feedback.has_drifted(profile.fingerprint):
                drifted.append(profile.fingerprint)
            for part in profile.conjuncts:
                if self.feedback.has_drifted(part.fingerprint):
                    drifted.append(part.fingerprint)
            for step in profile.joins:
                if self.feedback.has_drifted(step.fingerprint):
                    drifted.append(step.fingerprint)
        return drifted

    def serve(self, queries: Iterable[str], workers: int = 4,
              max_pending: Optional[int] = None,
              backpressure: str = "block",
              retry: Optional[RetryPolicy] = None,
              deadline: Union[Deadline, float, None] = None) -> List[Table]:
        """Execute a batch of queries concurrently; results keep order.

        Dispatches over a thread pool (numpy kernels release the GIL, so
        vectorized work overlaps); each call still goes through the plan
        cache, and large scans additionally split into morsels inside a
        worker when the session's ``dop`` > 1 (see
        :mod:`repro.relational.morsel`).

        ``max_pending`` bounds the pending-query depth (submitted but not
        yet finished). When the bound is reached, ``backpressure`` decides:
        ``"block"`` stalls admission until a worker finishes (classic
        queue backpressure), ``"raise"`` rejects the query with
        :class:`~repro.errors.BackpressureError` and counts it in
        ``serving_stats.rejected``.

        ``retry`` re-runs transiently-failed queries per the policy
        (counted in ``serving_stats.retries``); ``deadline`` is a
        per-query budget in seconds (or a shared
        :class:`~repro.resilience.Deadline`). The first *final* failure
        still aborts the batch — use :meth:`serve_outcomes` for per-query
        error isolation.
        """
        return [table for table, _ in
                self.serve_with_stats(queries, workers=workers,
                                      max_pending=max_pending,
                                      backpressure=backpressure,
                                      retry=retry, deadline=deadline)]

    def serve_with_stats(self, queries: Iterable[str], workers: int = 4,
                         max_pending: Optional[int] = None,
                         backpressure: str = "block",
                         retry: Optional[RetryPolicy] = None,
                         deadline: Union[Deadline, float, None] = None
                         ) -> List[Tuple[Table, RunStats]]:
        """:meth:`serve`, returning ``(table, stats)`` per query in order."""
        outcomes = self._serve(queries, workers, max_pending, backpressure,
                               retry, deadline, isolate=False)
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return [(outcome.table, outcome.stats) for outcome in outcomes]

    def serve_outcomes(self, queries: Iterable[str], workers: int = 4,
                       max_pending: Optional[int] = None,
                       backpressure: str = "block",
                       retry: Optional[RetryPolicy] = None,
                       deadline: Union[Deadline, float, None] = None
                       ) -> List[QueryOutcome]:
        """:meth:`serve` with per-query error isolation.

        Returns one :class:`~repro.resilience.QueryOutcome` per query, in
        order: value or typed error, attempt count, degraded-mode flags.
        A failing query never aborts the batch — its outcome carries the
        final error after retries exhausted (``serving_stats.failed``),
        and under ``backpressure="raise"`` a rejected query's outcome
        carries the :class:`~repro.errors.BackpressureError` with
        ``attempts=0``.
        """
        return self._serve(queries, workers, max_pending, backpressure,
                           retry, deadline, isolate=True)

    def _serve(self, queries: Iterable[str], workers: int,
               max_pending: Optional[int], backpressure: str,
               retry: Optional[RetryPolicy],
               deadline: Union[Deadline, float, None],
               isolate: bool) -> List[QueryOutcome]:
        """The serve dispatch loop: admission gate, counting and ordered
        pool dispatch, one outcome per query.

        Without ``isolate`` a rejection raises at admission (nothing
        after it is submitted) and a serial batch stops at its first
        final failure; callers raise the first failure in order.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backpressure not in ("block", "raise"):
            raise ValueError("backpressure must be 'block' or 'raise'")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        queries = list(queries)
        gate = (threading.BoundedSemaphore(max_pending)
                if max_pending is not None else None)
        stats = self.serving_stats

        def rejection(query: str) -> Optional[QueryOutcome]:
            """Admit ``query`` (None) or return its rejected outcome."""
            if gate is not None:
                if backpressure == "block":
                    gate.acquire()
                elif not gate.acquire(blocking=False):
                    stats.inc("rejected")
                    error = BackpressureError(
                        f"pending-query depth {max_pending} exceeded "
                        f"(policy='raise'): {query[:80]!r}")
                    if not isolate:
                        raise error
                    return QueryOutcome(query=query, attempts=0, error=error)
            stats.inc("submitted")
            return None

        def run_one(index: int, query: str) -> QueryOutcome:
            try:
                return self._attempt_query(query, retry, deadline,
                                           salt=index)
            finally:
                stats.inc("completed")
                if gate is not None:
                    gate.release()

        outcomes: List[QueryOutcome] = []
        if workers == 1 or len(queries) <= 1:
            for index, query in enumerate(queries):
                outcome = rejection(query) or run_one(index, query)
                outcomes.append(outcome)
                if outcome.error is not None and not isolate:
                    break
            return outcomes
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = []
            for index, query in enumerate(queries):
                # Backpressure applies *before* submission.
                pending.append(rejection(query)
                               or pool.submit(run_one, index, query))
        return [item if isinstance(item, QueryOutcome) else item.result()
                for item in pending]

    def _attempt_query(self, query: str, retry: Optional[RetryPolicy],
                       deadline: Union[Deadline, float, None],
                       salt: int = 0) -> QueryOutcome:
        """Run one query under the retry policy; always returns an outcome.

        A numeric ``deadline`` becomes a fresh per-query Deadline spanning
        all attempts; a Deadline instance is used as-is (shared budget).
        Backoff never retries past the policy's sleep budget or the
        query's deadline, and jitter is deterministic per (policy seed,
        salt) so a serve batch's retry schedule is reproducible.
        """
        deadline = Deadline.coerce(deadline)
        rng = retry.rng(salt) if retry is not None else None
        attempts = 0
        slept = 0.0
        while True:
            attempts += 1
            self._attempt_context.attempt = attempts
            try:
                table, stats = self.sql_with_stats(query, deadline=deadline)
            except Exception as error:
                can_retry = (retry is not None
                             and attempts < retry.max_attempts
                             and retry.is_retryable(error))
                if can_retry:
                    delay = retry.delay_for(attempts, rng)
                    if (retry.budget_seconds is not None
                            and slept + delay > retry.budget_seconds):
                        can_retry = False
                    elif (deadline is not None
                          and deadline.remaining() <= delay):
                        can_retry = False
                if not can_retry:
                    self.serving_stats.inc("failed")
                    return QueryOutcome(query=query, attempts=attempts,
                                        error=raven_typed(error))
                self.serving_stats.inc("retries")
                time.sleep(delay)
                slept += delay
                continue
            finally:
                self._attempt_context.attempt = None
            return QueryOutcome(
                query=query, table=table, stats=stats, attempts=attempts,
                degraded=outcome_degraded_flags(stats, attempts))

    def prepare(self, query: str) -> "PreparedQuery":
        """Optimize once, execute many times (offline optimization, §7.4).

        The paper notes Raven's optimizations "could be performed offline
        (saving the optimized model/plan) — this way Raven can be beneficial
        for any dataset size". A prepared query amortizes the optimizer
        cost across executions and exposes the optimized pipeline graphs
        for persistence.
        """
        plan, report = self.optimize(query)
        return PreparedQuery(self, query, plan, report)

    def execute_plan(self, plan: PlanNode) -> Table:
        """Execute an already-optimized plan."""
        return self._execute(plan, None, 0.0,
                             profiler=self._profiler_for())[0]

    def _execute(self, plan: PlanNode, report: Optional[OptimizationReport],
                 optimize_seconds: float, cache_hit: bool = False,
                 profiler: Optional[PlanProfiler] = None,
                 deadline: Optional[Deadline] = None,
                 trace=None) -> Tuple[Table, RunStats]:
        """Run ``plan`` under the caller's ``profiler`` (None = no
        profile); an adaptive session folds the profile into its
        feedback store."""
        # Per-call runtime view: shares the inference-session and compiled-
        # program caches but keeps partition dispatch and GPU-time
        # accounting local, so concurrent calls never interleave state.
        runtime = self.runtime.for_call()
        span = (trace.root.child("execute", category="execute")
                if trace is not None else None)
        executor = QueryExecutor(self.catalog, runtime, dop=self.dop,
                                 compile_expressions=self.compile_expressions,
                                 profiler=profiler, deadline=deadline,
                                 faults=self.faults, span=span,
                                 feedback=self.feedback,
                                 metrics=self.telemetry.metrics)
        started = time.perf_counter()
        try:
            result = executor.execute(plan)
        except BaseException:
            if span is not None:
                span.finish(status="error")
            raise
        wall = time.perf_counter() - started
        if span is not None:
            span.finish(rows=result.num_rows)
        fallbacks = executor.exec_stats.expression_fallbacks
        self.runtime.add_gpu_adjustment(runtime.gpu_time_adjustment)
        if fallbacks:
            self.serving_stats.inc("expression_fallbacks", fallbacks)
        profiles: Optional[OperatorProfile] = None
        if profiler is not None:
            profiles = profiler.profile_tree(plan)
            if self.adaptive and self.feedback is not None:
                self.feedback.record_profile(profiles)
        stats = RunStats(
            gpu_adjustment_seconds=runtime.gpu_time_adjustment,
            optimize_seconds=optimize_seconds,
            execute_seconds=wall,
            report=report,
            cache_hit=cache_hit,
            programs_compiled=executor.exec_stats.programs_compiled,
            programs_reused=executor.exec_stats.programs_reused,
            operator_profiles=profiles,
            expression_fallbacks=fallbacks,
            plan_fingerprint=plan_fingerprint(plan),
        )
        self.last_run = stats
        return result, stats


class PreparedQuery:
    """An optimized, repeatedly-executable prediction query.

    Holds the optimized plan (optimizer cost already paid); the optimized
    model graphs can be saved to disk and re-registered later, so the
    logical optimizations survive across sessions.
    """

    def __init__(self, session: RavenSession, query: str, plan: PlanNode,
                 report: OptimizationReport):
        self.session = session
        self.query = query
        self.plan = plan
        self.report = report

    def execute(self) -> Table:
        """Run the prepared plan (no re-optimization)."""
        return self.execute_with_stats()[0]

    def execute_with_stats(self) -> Tuple[Table, RunStats]:
        """Run the prepared plan, returning this call's stats."""
        session = self.session
        return session._execute(self.plan, self.report, 0.0,
                                profiler=session._profiler_for())

    def optimized_graphs(self) -> List[Graph]:
        """The post-optimization pipeline graphs still in the plan.

        Empty when MLtoSQL compiled every Predict away.
        """
        from repro.relational.logical import find_predict_nodes
        return [predict.graph for predict in find_predict_nodes(self.plan)]

    def save_models(self, directory: str) -> List[str]:
        """Persist the optimized model graphs ("saving the optimized model").

        Returns the written file paths (``<dir>/<model>_optimized.ronnx``).
        """
        import os

        from repro.onnxlite.serialize import save_graph
        from repro.relational.logical import find_predict_nodes

        os.makedirs(directory, exist_ok=True)
        paths: List[str] = []
        for predict in find_predict_nodes(self.plan):
            path = os.path.join(directory,
                                f"{predict.model_name}_optimized.ronnx")
            save_graph(predict.graph, path)
            paths.append(path)
        return paths

    def explain(self) -> str:
        return self.plan.pretty(self.session.catalog) + "\n-- " + \
            self.report.summary().replace("\n", "\n-- ")
