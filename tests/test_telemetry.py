"""Telemetry layer: metrics registry, trace spans, EXPLAIN ANALYZE,
slow-query log, and the stats back-compat shims.

Covers the observability contracts end to end: span-tree shape per query
class (cache miss / hit / degraded / re-optimized), thread safety under
``serve(workers=N)``, histogram quantile accuracy against a numpy
reference, exporter golden outputs, the zero-allocation disabled path,
and crash-safe telemetry dumps under torn-write fault injection.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import RavenSession, Telemetry
from repro.errors import CatalogError, InjectedFaultError
from repro.resilience import CircuitBreakerBoard, FaultInjector
from repro.serving.batcher import MicroBatcher
from repro.serving.plan_cache import PlanCacheStats
from repro.telemetry import (
    TIMESERIES_SCHEMA,
    MetricsRegistry,
    MetricsSampler,
    SlowQueryLog,
    Tracer,
    geometric_bounds,
    quantile_from_counts,
)
from repro.telemetry.metrics import DEFAULT_GROWTH
from repro.telemetry import trace as trace_module
from repro.core.session import ServingStats

FILTER_QUERY = "SELECT pi.id FROM patient_info AS pi WHERE pi.age > 50"


def make_session(patients_table, pulmonary_table, dt_pipeline, **kwargs):
    kwargs.setdefault("telemetry", True)
    sess = RavenSession(**kwargs)
    sess.register_table("patient_info", patients_table, primary_key=["id"])
    sess.register_table("pulmonary_test", pulmonary_table, primary_key=["id"])
    sess.register_model("covid_risk", dt_pipeline)
    return sess


@pytest.fixture()
def traced_session(patients_table, pulmonary_table, dt_pipeline):
    return make_session(patients_table, pulmonary_table, dt_pipeline)


# ---------------------------------------------------------------------------
# Unit: MetricsRegistry instruments
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("requests")
        b = registry.counter("requests")
        assert a is b
        a.inc()
        a.inc(4)
        assert b.value == 5

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        ok = registry.counter("queries", {"outcome": "ok"})
        err = registry.counter("queries", {"outcome": "error"})
        assert ok is not err
        ok.inc(3)
        snap = registry.snapshot()
        assert snap["counters"]["queries{outcome=ok}"] == 3
        assert snap["counters"]["queries{outcome=error}"] == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("depth")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("depth")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_counter_thread_safety(self):
        counter = MetricsRegistry().counter("hits")

        def hammer():
            for _ in range(2_000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 16_000

    def test_geometric_bounds_cover_range(self):
        bounds = geometric_bounds(1e-6, 2 ** 0.25, 3600.0)
        assert bounds[0] == 1e-6
        assert bounds[-1] >= 3600.0
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(abs(r - 2 ** 0.25) < 1e-9 for r in ratios)


class TestHistogramQuantiles:
    def test_quantiles_match_numpy_within_one_growth_factor(self):
        rng = np.random.default_rng(7)
        sample = rng.lognormal(mean=-6.0, sigma=1.2, size=20_000)
        hist = MetricsRegistry().histogram("latency")
        for value in sample:
            hist.observe(float(value))
        growth = 2 ** 0.25
        for q in (0.50, 0.95, 0.99):
            estimate = hist.quantile(q)
            truth = float(np.quantile(sample, q))
            assert truth / growth <= estimate <= truth * growth, (
                f"p{q:.0%}: estimate {estimate:.6g} vs numpy {truth:.6g}")

    def test_single_value_reported_exactly(self):
        hist = MetricsRegistry().histogram("latency")
        hist.observe(0.0125)
        assert hist.quantile(0.5) == pytest.approx(0.0125)
        assert hist.quantile(0.99) == pytest.approx(0.0125)

    def test_empty_histogram_quantile_is_none(self):
        hist = MetricsRegistry().histogram("latency")
        assert hist.quantile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["p99"] is None

    def test_snapshot_count_sum_min_max(self):
        hist = MetricsRegistry().histogram("latency")
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(0.007)
        assert snap["min"] == 0.001 and snap["max"] == 0.004


class TestHistogramEdgeCases:
    """The corners the sampler's windowed-delta math leans on:
    boundary interpolation, tiny windows, and state-diff monotonicity."""

    BOUNDS = (1.0, 2.0, 4.0)

    def test_boundary_observation_lands_in_its_bucket(self):
        # bisect_left gives "value <= bound" buckets: an observation
        # exactly on a bound belongs to that bound's bucket.
        hist = MetricsRegistry().histogram("h", bounds=self.BOUNDS)
        hist.observe(2.0)
        assert hist.state().counts == (0, 1, 0, 0)
        # Clamping to observed min/max makes the report exact anyway.
        assert hist.quantile(0.5) == pytest.approx(2.0)

    def test_interpolation_stays_inside_the_landing_bucket(self):
        # All mass in bucket (1, 2]: geometric interpolation never
        # leaves it — q→0 approaches the lower edge, q=1 hits the bound.
        counts = (0, 10, 0, 0)
        assert quantile_from_counts(self.BOUNDS, counts, 10, 1.0) == \
            pytest.approx(2.0)
        assert quantile_from_counts(self.BOUNDS, counts, 10, 0.0) == \
            pytest.approx(1.0)
        p50 = quantile_from_counts(self.BOUNDS, counts, 10, 0.5)
        assert 1.0 < p50 < 2.0
        assert p50 == pytest.approx(2.0 ** 0.5)  # log-linear midpoint

    def test_first_bucket_uses_synthetic_low_edge(self):
        # Bucket 0 has no lower bound; the interpolation treats it as
        # one growth factor below, so estimates stay within the bound.
        counts = (4, 0, 0, 0)
        low = quantile_from_counts(self.BOUNDS, counts, 4, 0.0)
        assert low == pytest.approx(1.0 / DEFAULT_GROWTH)
        assert quantile_from_counts(self.BOUNDS, counts, 4, 1.0) == \
            pytest.approx(1.0)

    def test_overflow_bucket_reports_max_or_last_bound(self):
        counts = (0, 0, 0, 2)
        assert quantile_from_counts(self.BOUNDS, counts, 2, 0.5) == \
            pytest.approx(4.0)
        assert quantile_from_counts(self.BOUNDS, counts, 2, 0.5,
                                    observed_max=7.5) == pytest.approx(7.5)

    def test_empty_and_single_observation_windows(self):
        assert quantile_from_counts(self.BOUNDS, (0, 0, 0, 0), 0, 0.5) is None
        hist = MetricsRegistry().histogram("h")
        hist.observe(0.0125)
        state = hist.state()
        # A one-observation state reports that value exactly, any q.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert state.quantile(q) == pytest.approx(0.0125)

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile_from_counts(self.BOUNDS, (1, 0, 0, 0), 1, 1.5)

    def test_state_diffs_stay_non_negative_under_concurrent_observes(self):
        # Bucket counts only grow, so diffs between any two captures
        # taken mid-storm are well-formed window histograms.
        hist = MetricsRegistry().histogram("h")
        rng = np.random.default_rng(3)
        values = rng.lognormal(mean=-6.0, sigma=1.0, size=4_000)
        states = []

        def storm(chunk):
            for value in chunk:
                hist.observe(float(value))

        threads = [threading.Thread(target=storm, args=(values[i::4],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            states.append(hist.state())
        for thread in threads:
            thread.join()
        states.append(hist.state())

        for before, after in zip(states, states[1:]):
            assert after.count >= before.count
            assert after.sum >= before.sum - 1e-12
            diffs = [now - prior for now, prior
                     in zip(after.counts, before.counts)]
            assert all(diff >= 0 for diff in diffs)
            assert sum(diffs) == after.count - before.count
        assert states[-1].count == len(values)
        # The final diff-vs-zero is the cumulative histogram itself.
        window_p50 = quantile_from_counts(states[-1].bounds,
                                          states[-1].counts,
                                          states[-1].count, 0.5)
        truth = float(np.quantile(values, 0.5))
        assert truth / DEFAULT_GROWTH <= window_p50 <= truth * DEFAULT_GROWTH


class TestExporterGoldens:
    def _golden_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("queries", {"outcome": "ok"}).inc(7)
        registry.gauge("queue_rows").set(42)
        hist = registry.histogram("batch_rows", bounds=[1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        return registry

    def test_prometheus_golden(self):
        expected = (
            "# TYPE batch_rows histogram\n"
            'batch_rows_bucket{le="1"} 1\n'
            'batch_rows_bucket{le="10"} 2\n'
            'batch_rows_bucket{le="100"} 3\n'
            'batch_rows_bucket{le="+Inf"} 4\n'
            "batch_rows_sum 555.5\n"
            "batch_rows_count 4\n"
            "# TYPE queries counter\n"
            'queries{outcome="ok"} 7\n'
            "# TYPE queue_rows gauge\n"
            "queue_rows 42\n"
        )
        assert self._golden_registry().to_prometheus() == expected

    def test_snapshot_golden(self):
        snap = self._golden_registry().snapshot()
        assert snap["counters"] == {"queries{outcome=ok}": 7}
        assert snap["gauges"] == {"queue_rows": 42}
        batch = snap["histograms"]["batch_rows"]
        assert batch["count"] == 4
        assert batch["sum"] == pytest.approx(555.5)
        assert batch["min"] == 0.5 and batch["max"] == 500.0
        # Snapshot round-trips through JSON (the dump contract).
        assert json.loads(json.dumps(snap)) == snap


# ---------------------------------------------------------------------------
# Unit: counter groups (ServingStats, PlanCacheStats)
# ---------------------------------------------------------------------------

class TestStatsBackCompat:
    def test_serving_stats_attribute_api(self):
        stats = ServingStats()
        assert stats.submitted == 0
        stats.inc("submitted", 3)
        stats.inc("retries", 5)
        assert stats.submitted == 3 and stats.retries == 5
        snap = stats.snapshot()
        assert snap == stats
        stats.inc("submitted")
        assert snap != stats and snap.submitted == 3
        # Fields change only through the atomic inc.
        with pytest.raises(AttributeError):
            stats.retries = 0

    def test_serving_stats_lands_on_registry(self):
        registry = MetricsRegistry()
        stats = ServingStats(registry=registry)
        for amount, field in enumerate(ServingStats.FIELDS, start=1):
            stats.inc(field, amount)
        counters = registry.snapshot()["counters"]
        for amount, field in enumerate(ServingStats.FIELDS, start=1):
            assert counters[f"serving_{field}"] == amount

    def test_plan_cache_stats_attribute_api(self):
        stats = PlanCacheStats()
        stats.inc("hits", 3)
        stats.inc("misses")
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.snapshot() == PlanCacheStats(hits=3, misses=1)
        assert "hits=3" in repr(stats)
        with pytest.raises(AttributeError):
            stats.hits = 0

    def test_bind_rehomes_counters_with_values(self):
        stats = PlanCacheStats(hits=2)
        registry = MetricsRegistry()
        stats.bind(registry)
        assert stats.hits == 2
        stats.inc("hits")
        assert registry.snapshot()["counters"]["plan_cache_hits"] == 3
        serving = ServingStats(completed=4)
        serving.bind(registry)
        serving.inc("completed")
        assert registry.snapshot()["counters"]["serving_completed"] == 5

    def test_session_registry_sees_both_stat_families(self, traced_session,
                                                      covid_query):
        traced_session.serve([covid_query, covid_query], workers=1)
        counters = traced_session.telemetry.metrics_snapshot()["counters"]
        assert counters["serving_submitted"] == 2
        assert counters["serving_completed"] == 2
        assert counters["plan_cache_misses"] == 1
        assert counters["plan_cache_hits"] >= 1


# ---------------------------------------------------------------------------
# Span trees per query class
# ---------------------------------------------------------------------------

class TestSpanTrees:
    def test_cache_miss_trace_shape(self, traced_session, covid_query):
        traced_session.sql(covid_query)
        trace = traced_session.telemetry.tracer.last()
        root = trace.root
        assert root.name == "query" and trace.status == "ok"
        assert root.attributes["cache_hit"] is False
        assert root.attributes["static_plan"] is False
        assert root.attributes["plan_fingerprint"]
        optimize = root.find("optimize")
        assert "cache.miss" in optimize.event_names()
        execute = root.find("execute")
        operators = [s for s in execute.walk() if s.category == "operator"]
        assert operators, "execute span carries the operator tree"
        scans = [s for s in operators if s.name == "Scan"]
        assert scans and all(
            s.attributes["rows_in"] == s.attributes["rows"] for s in scans)
        # Interior operators report rows_in as the sum of child outputs.
        joins = [s for s in operators if s.name == "Join"]
        for join in joins:
            children = [c for c in join.children if c.category == "operator"]
            assert join.attributes["rows_in"] == sum(
                c.attributes["rows"] for c in children)
        assert all(s.end is not None for s in root.walk())

    def test_cache_hit_trace_shape(self, traced_session, covid_query):
        traced_session.sql(covid_query)
        traced_session.sql(covid_query)
        trace = traced_session.telemetry.tracer.last()
        assert trace.root.attributes["cache_hit"] is True
        assert "cache.hit" in trace.root.find("optimize").event_names()

    def test_predict_batch_span_when_model_not_compiled(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query):
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            enable_optimizations=False)
        sess.sql(covid_query)
        trace = sess.telemetry.tracer.last()
        batch = trace.root.find("predict.batch")
        assert batch is not None and batch.category == "predict"
        assert batch.attributes["rows"] > 0

    def test_degraded_trace_has_breaker_events(
            self, patients_table, pulmonary_table, dt_pipeline):
        board = CircuitBreakerBoard(failure_threshold=1,
                                    recovery_seconds=1000.0)
        faults = FaultInjector(seed=11)
        faults.inject("executor.operator", max_fires=1)
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            faults=faults, breakers=board)
        with pytest.raises(InjectedFaultError):
            sess.sql(FILTER_QUERY)
        failing = sess.telemetry.tracer.last()
        assert failing.status == "error"
        assert "InjectedFaultError" in failing.error
        assert "breaker.tripped" in failing.root.event_names()

        sess.sql(FILTER_QUERY)  # served from the static re-optimization
        degraded = sess.telemetry.tracer.last()
        assert degraded.status == "ok"
        assert "breaker.degraded" in degraded.root.event_names()
        assert degraded.root.attributes["static_plan"] is True
        assert degraded.root.find("optimize").attributes["static"] is True

    def test_reoptimization_marks_plan_stale_event(
            self, traced_session, covid_query, monkeypatch):
        traced_session.sql(covid_query)
        traced_session.sql(covid_query)  # warm hit, no stale marking yet
        assert "plan.stale" not in \
            traced_session.telemetry.tracer.last().root.event_names()
        monkeypatch.setattr("repro.core.session.feedback_divergence",
                            lambda *args, **kwargs: True)
        traced_session.sql(covid_query)
        trace = traced_session.telemetry.tracer.last()
        assert "plan.stale" in trace.root.event_names()
        assert traced_session.plan_cache.stats.reoptimizations >= 1

    def test_error_trace_status_and_ring(self, traced_session):
        with pytest.raises(CatalogError):
            traced_session.sql("SELECT x FROM missing_table")
        trace = traced_session.telemetry.tracer.last()
        assert trace.status == "error"
        assert trace.error.startswith("CatalogError")
        assert trace.root.status == "error"

    def test_serve_traces_are_thread_safe(self, traced_session, covid_query):
        queries = [covid_query, FILTER_QUERY] * 6
        traced_session.serve(queries, workers=4)
        traces = traced_session.telemetry.tracer.traces()
        assert len(traces) == len(queries)
        for trace in traces:
            assert trace.status == "ok"
            assert trace.root.end is not None
            for span in trace.root.walk():
                assert span.end is not None, f"unfinished span {span.name}"
        snap = traced_session.telemetry.metrics_snapshot()
        query_hist = snap["histograms"]["query_seconds"]
        assert query_hist["count"] == len(queries)
        assert snap["counters"]["queries{outcome=ok}"] == len(queries)

    def test_trace_ring_is_bounded(self, patients_table, pulmonary_table,
                                   dt_pipeline):
        telemetry = Telemetry(tracing=True, trace_capacity=4)
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            telemetry=telemetry)
        for _ in range(10):
            sess.sql(FILTER_QUERY)
        assert len(sess.telemetry.tracer) == 4

    def test_chrome_export_structure(self, traced_session, covid_query):
        traced_session.sql(covid_query)
        doc = traced_session.telemetry.tracer.export_chrome()
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} >= {"query", "optimize",
                                                 "execute", "Scan"}
        assert any(e["name"] == "cache.miss" for e in instants)
        for event in complete:
            assert event["dur"] >= 0 and "trace_id" in event["args"]
        # The whole document is JSON-serializable (the dump contract).
        json.dumps(doc)

    def test_chrome_metadata_names_process_and_threads(self, traced_session,
                                                       covid_query):
        traced_session.sql(covid_query)
        traced_session.serve([FILTER_QUERY] * 4, workers=2)
        events = traced_session.telemetry.tracer.export_chrome()["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        process = [e for e in metadata if e["name"] == "process_name"]
        names = [e for e in metadata if e["name"] == "thread_name"]
        assert len(process) == 1
        assert process[0]["args"]["name"] == "repro-serving"
        # Every thread that recorded a span gets exactly one name record,
        # so Perfetto shows a labeled timeline row per thread.
        span_tids = {e["tid"] for e in events if e["ph"] in ("X", "i")}
        assert {e["tid"] for e in names} == span_tids
        assert len({e["tid"] for e in names}) == len(names)
        assert any(e["args"]["name"] == threading.current_thread().name
                   for e in names)
        # Metadata records lead the document (viewers apply them first).
        first_span = next(i for i, e in enumerate(events) if e["ph"] != "M")
        assert all(e["ph"] == "M" for e in events[:first_span])

    def test_chrome_metadata_absent_without_traces(self, patients_table,
                                                   pulmonary_table,
                                                   dt_pipeline):
        sess = make_session(patients_table, pulmonary_table, dt_pipeline)
        assert sess.telemetry.tracer.export_chrome()["traceEvents"] == []


# ---------------------------------------------------------------------------
# Disabled path: zero allocation, near-zero work
# ---------------------------------------------------------------------------

class TestDisabledPath:
    def test_tracer_start_returns_none_without_allocating(self, monkeypatch):
        allocations = []
        original = trace_module.Trace.__init__

        def counting(self, *args, **kwargs):
            allocations.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(trace_module.Trace, "__init__", counting)
        tracer = Tracer(enabled=False)
        assert tracer.start("SELECT 1") is None
        assert not allocations

    def test_default_session_allocates_no_traces(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query,
            monkeypatch):
        allocations = []
        original = trace_module.Trace.__init__

        def counting(self, *args, **kwargs):
            allocations.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(trace_module.Trace, "__init__", counting)
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            telemetry=None)
        assert sess.telemetry.tracing is False
        sess.sql(covid_query)
        assert not allocations
        assert len(sess.telemetry.tracer) == 0
        # Metrics still flow on the default layer.
        snap = sess.telemetry.metrics_snapshot()
        assert snap["histograms"]["query_seconds"]["count"] == 1

    def test_enabled_false_disables_observation_entirely(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query):
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            telemetry=None)
        sess.telemetry.enabled = False
        sess.sql(covid_query)
        snap = sess.telemetry.metrics_snapshot()
        assert snap["histograms"]["query_seconds"]["count"] == 0


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------

class TestExplainAnalyze:
    def test_analyze_renders_observed_execution(self, traced_session,
                                                covid_query):
        text = traced_session.explain(covid_query, analyze=True)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "route: adaptive | plan cache: miss" in text
        assert "breaker: closed" in text
        assert "plan fingerprint: " in text
        assert "optimize: " in text and "execute: " in text
        # Observed per-operator cardinalities, not estimates.
        assert "Scan(" in text and "rows sel=" in text
        assert "->" in text
        # Second run lands on the warmed cache.
        again = traced_session.explain(covid_query, analyze=True)
        assert "plan cache: hit" in again

    def test_analyze_notes_applied_rules(self, traced_session, covid_query):
        text = traced_session.explain(covid_query, analyze=True)
        assert "model_projection_pushdown" in text

    def test_analyze_does_not_consume_breaker_trials(
            self, patients_table, pulmonary_table, dt_pipeline):
        board = CircuitBreakerBoard(failure_threshold=1,
                                    recovery_seconds=1000.0)
        faults = FaultInjector(seed=12)
        faults.inject("executor.operator", max_fires=1)
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            faults=faults, breakers=board)
        with pytest.raises(InjectedFaultError):
            sess.sql(FILTER_QUERY)
        text = sess.explain(FILTER_QUERY, analyze=True)
        assert "breaker: open" in text
        # The breaker stays open: analyze bypassed the board.
        _, run = sess.sql_with_stats(FILTER_QUERY)
        assert run.static_plan

    def test_plain_explain_unchanged(self, traced_session, covid_query):
        text = traced_session.explain(covid_query)
        assert "model_projection_pushdown" in text
        assert "EXPLAIN ANALYZE" not in text


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------

class TestSlowQueryLog:
    def test_threshold_gates_recording(self, patients_table, pulmonary_table,
                                       dt_pipeline, covid_query):
        telemetry = Telemetry(tracing=True, slow_query_seconds=3600.0)
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            telemetry=telemetry)
        sess.sql(covid_query)
        assert len(sess.telemetry.slow_log) == 0
        sess.telemetry.slow_log.threshold_seconds = 0.0
        table, stats = sess.sql_with_stats(covid_query)
        entries = sess.telemetry.slow_log.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["query"] == covid_query
        assert entry["plan_fingerprint"] == stats.plan_fingerprint
        assert entry["seconds"] >= 0
        assert entry["trace"]["root"]["name"] == "query"

    def test_capacity_bounds_entries(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=3)
        for index in range(7):
            log.record(f"q{index}", seconds=0.5)
        entries = log.entries()
        assert len(entries) == 3
        assert entries[-1]["query"] == "q6"

    def test_errored_slow_query_records_error(self, patients_table,
                                              pulmonary_table, dt_pipeline):
        telemetry = Telemetry(tracing=True, slow_query_seconds=0.0)
        sess = make_session(patients_table, pulmonary_table, dt_pipeline,
                            telemetry=telemetry)
        with pytest.raises(CatalogError):
            sess.sql("SELECT x FROM missing_table")
        entry = sess.telemetry.slow_log.entries()[-1]
        assert "CatalogError" in entry["error"]

    def test_dump_roundtrip(self, tmp_path):
        log = SlowQueryLog(threshold_seconds=0.0)
        log.record("SELECT 1", seconds=2.5)
        path = tmp_path / "slow.json"
        log.dump(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-slowlog-v1"
        assert doc["entries"][0]["query"] == "SELECT 1"


# ---------------------------------------------------------------------------
# Micro-batcher instrumentation
# ---------------------------------------------------------------------------

def _request_row(index: int) -> dict:
    return {
        "age": 40.0 + index,
        "bmi": 24.0 + (index % 5),
        "bpm": 70.0 + index,
        "fev": 3.0,
        "asthma": index % 2,
        "smoker": "yes" if index % 2 else "no",
        "hypertension": ("none", "mild", "severe")[index % 3],
    }


class TestBatcherInstrumentation:
    def test_queue_gauges_track_depth(self, traced_session):
        batcher = MicroBatcher(traced_session)
        snap = traced_session.telemetry.metrics_snapshot
        for index in range(5):
            batcher.predict("covid_risk", _request_row(index))
        gauges = snap()["gauges"]
        assert gauges["batcher_queue_requests"] == 5
        assert gauges["batcher_queue_rows"] == 5
        batcher.flush()
        gauges = snap()["gauges"]
        assert gauges["batcher_queue_requests"] == 0
        assert gauges["batcher_queue_rows"] == 0

    def test_batch_size_histogram_observes_flushes(self, traced_session):
        batcher = MicroBatcher(traced_session)
        for index in range(8):
            batcher.predict("covid_risk", _request_row(index))
        batcher.flush()
        hist = traced_session.telemetry.metrics_snapshot()["histograms"]
        batch = hist["batcher_batch_rows"]
        assert batch["count"] == 1 and batch["max"] == 8.0

    def test_flush_produces_batcher_trace(self, traced_session):
        batcher = MicroBatcher(traced_session)
        futures = [batcher.predict("covid_risk", _request_row(i))
                   for i in range(4)]
        batcher.flush()
        for future in futures:
            future.result(timeout=5)
        traces = [t for t in traced_session.telemetry.tracer.traces()
                  if t.root.name.startswith("batcher:")]
        assert traces
        trace = traces[-1]
        assert trace.root.attributes["model"] == "covid_risk"
        assert trace.root.attributes["requests"] == 4
        assert trace.root.attributes["rows"] == 4
        assert trace.root.find("predict.batch") is not None


# ---------------------------------------------------------------------------
# Metrics sampler: windowed deltas over the registry
# ---------------------------------------------------------------------------

class FakeClock:
    """A manually-advanced clock, so window intervals are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestMetricsSampler:
    def _sampler(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        return registry, clock, MetricsSampler(registry, clock=clock)

    def test_first_sample_is_baseline(self):
        _, _, sampler = self._sampler()
        assert sampler.sample() is None
        assert len(sampler) == 0

    def test_window_diffs_counters_histograms_and_copies_gauges(self):
        registry, clock, sampler = self._sampler()
        ok = registry.counter("queries", {"outcome": "ok"})
        errors = registry.counter("queries", {"outcome": "error"})
        hist = registry.histogram("query_seconds")
        depth = registry.gauge("batcher_queue_depth")
        sampler.sample()

        for _ in range(8):
            ok.inc()
            hist.observe(0.010)
        for _ in range(2):
            errors.inc()
            hist.observe(0.100)
        depth.set(5)
        clock.advance(2.0)
        window = sampler.sample()

        assert window["t"] == pytest.approx(2.0)
        assert window["interval"] == pytest.approx(2.0)
        assert window["qps"] == pytest.approx(5.0)  # 10 finished / 2s
        assert window["error_rate"] == pytest.approx(0.2)
        assert window["counters"]["queries{outcome=ok}"] == 8
        assert window["rates"]["queries{outcome=ok}"] == pytest.approx(4.0)
        assert window["gauges"]["batcher_queue_depth"] == 5
        seconds = window["histograms"]["query_seconds"]
        assert seconds["count"] == 10
        assert seconds["sum"] == pytest.approx(0.28)
        assert 0.010 / DEFAULT_GROWTH <= seconds["p50"] <= \
            0.010 * DEFAULT_GROWTH
        assert 0.100 / DEFAULT_GROWTH <= seconds["p99"] <= \
            0.100 * DEFAULT_GROWTH
        assert len(sampler) == 1

    def test_window_quantiles_ignore_prior_history(self):
        # The whole point of per-bucket diffs: a window's p50 reflects
        # only that window's observations, not the cumulative past.
        registry, clock, sampler = self._sampler()
        hist = registry.histogram("query_seconds")
        for _ in range(100):
            hist.observe(0.001)
        sampler.sample()  # baseline *after* the fast history
        for _ in range(5):
            hist.observe(1.0)
        clock.advance(1.0)
        window = sampler.sample()
        seconds = window["histograms"]["query_seconds"]
        assert seconds["count"] == 5
        assert seconds["p50"] >= 1.0 / DEFAULT_GROWTH
        # The cumulative estimate still sits near the fast mode.
        assert hist.quantile(0.5) < 0.01

    def test_idle_window_is_all_zeros(self):
        registry, clock, sampler = self._sampler()
        registry.counter("queries", {"outcome": "ok"}).inc(3)
        hist = registry.histogram("query_seconds")
        hist.observe(0.01)
        sampler.sample()
        clock.advance(1.0)
        window = sampler.sample()
        assert window["qps"] == 0.0
        assert window["counters"]["queries{outcome=ok}"] == 0
        assert window["histograms"]["query_seconds"]["count"] == 0
        assert window["histograms"]["query_seconds"]["p50"] is None

    def test_instrument_appearing_mid_window_reports_full_state(self):
        registry, clock, sampler = self._sampler()
        sampler.sample()
        late = registry.histogram("late_seconds")
        late.observe(0.25)
        clock.advance(1.0)
        window = sampler.sample()
        assert window["histograms"]["late_seconds"]["count"] == 1

    def test_clear_resets_the_series_and_baseline(self):
        registry, clock, sampler = self._sampler()
        counter = registry.counter("queries", {"outcome": "ok"})
        sampler.sample()
        counter.inc(4)
        clock.advance(1.0)
        sampler.sample()
        assert len(sampler) == 1
        sampler.clear()
        assert len(sampler) == 0
        counter.inc(2)
        clock.advance(1.0)
        assert sampler.sample() is None  # fresh baseline again
        clock.advance(1.0)
        counter.inc(1)
        window = sampler.sample()
        assert window["counters"]["queries{outcome=ok}"] == 1

    def test_dump_writes_timeseries_schema(self, tmp_path):
        registry, clock, sampler = self._sampler()
        registry.counter("queries", {"outcome": "ok"}).inc(1)
        sampler.sample()
        clock.advance(1.0)
        registry.counter("queries", {"outcome": "ok"}).inc(1)
        sampler.sample()
        path = tmp_path / "timeseries.json"
        sampler.dump(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == TIMESERIES_SCHEMA
        assert len(doc["samples"]) == 1
        assert doc["samples"][0]["counters"]["queries{outcome=ok}"] == 1

    def test_background_mode_samples_until_stopped(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries", {"outcome": "ok"})
        sampler = MetricsSampler(registry)
        sampler.start(interval=0.01)
        with pytest.raises(RuntimeError):
            sampler.start(interval=0.01)
        deadline = time.perf_counter() + 5.0
        while len(sampler) < 2:
            counter.inc()
            assert time.perf_counter() < deadline
        sampler.stop()
        count = len(sampler)
        assert count >= 2  # interval windows plus the final flush
        sampler.stop()  # idempotent
        assert len(sampler) == count
        total = sum(w["counters"]["queries{outcome=ok}"]
                    for w in sampler.samples())
        assert total == counter.value

    def test_invalid_interval_rejected(self):
        _, _, sampler = self._sampler()
        with pytest.raises(ValueError):
            sampler.start(interval=0.0)

    def test_session_facade_sampler_sees_serving_traffic(
            self, traced_session, covid_query):
        sampler = traced_session.telemetry.sampler()
        assert sampler.registry is traced_session.telemetry.metrics
        sampler.sample()
        traced_session.sql(covid_query)
        window = sampler.sample()
        assert window["counters"]["queries{outcome=ok}"] == 1
        assert window["histograms"]["query_seconds"]["count"] == 1
        assert window["gauges"]["serving_queries_in_flight"] == 0


# ---------------------------------------------------------------------------
# Live-concurrency gauge
# ---------------------------------------------------------------------------

class TestQueriesInFlightGauge:
    def test_gauge_reads_load_mid_query_and_drains_after(
            self, traced_session, monkeypatch):
        seen = []
        routed = type(traced_session)._sql_routed

        def spy(self, query, deadline, trace=None):
            seen.append(self.serving_stats.queries_in_flight)
            return routed(self, query, deadline, trace)

        monkeypatch.setattr(type(traced_session), "_sql_routed", spy)
        traced_session.sql(FILTER_QUERY)
        assert seen == [1]
        assert traced_session.serving_stats.queries_in_flight == 0

    def test_error_paths_never_wedge_the_gauge(self, traced_session):
        with pytest.raises(CatalogError):
            traced_session.sql("SELECT m.id FROM missing AS m WHERE m.x > 0")
        assert traced_session.serving_stats.queries_in_flight == 0
        outcomes = traced_session.serve_outcomes(
            [FILTER_QUERY, "SELECT m.id FROM missing AS m WHERE m.x > 0"])
        assert [o.ok for o in outcomes] == [True, False]
        assert traced_session.serving_stats.queries_in_flight == 0

    def test_snapshot_and_repr_carry_the_gauge(self):
        stats = ServingStats(queries_in_flight=3)
        assert stats.queries_in_flight == 3
        copy = stats.snapshot()
        assert copy.queries_in_flight == 3
        assert "queries_in_flight=3" in repr(stats)
        # Equality stays counters-only: live concurrency is not identity.
        assert ServingStats(queries_in_flight=3) == ServingStats()


# ---------------------------------------------------------------------------
# Telemetry dumps + chaos
# ---------------------------------------------------------------------------

class TestTelemetryDump:
    def test_dump_writes_all_surfaces(self, traced_session, covid_query,
                                      tmp_path):
        traced_session.telemetry.slow_log.threshold_seconds = 0.0
        traced_session.sql(covid_query)
        paths = traced_session.telemetry.dump(tmp_path)
        traces = json.loads((tmp_path / "traces.json").read_text())
        assert traces["schema"] == "repro-traces-v1"
        assert traces["traces"][0]["root"]["name"] == "query"
        chrome = json.loads((tmp_path / "trace_events.json").read_text())
        assert chrome["traceEvents"]
        slow = json.loads((tmp_path / "slow_queries.json").read_text())
        assert slow["entries"]
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["schema"] == "repro-metrics-v1"
        assert "query_seconds" in metrics["metrics"]["histograms"]
        assert set(paths) == {"traces", "chrome", "slow_log", "metrics"}


@pytest.mark.chaos
class TestChaosTelemetryDump:
    def test_torn_dump_preserves_previous_and_serving_continues(
            self, traced_session, covid_query, tmp_path):
        traced_session.sql(covid_query)
        faults = FaultInjector(seed=13)
        first_paths = traced_session.telemetry.dump(tmp_path, faults=faults)
        first = (tmp_path / "traces.json").read_text()

        traced_session.sql(covid_query)
        faults.inject("telemetry.dump", mode="torn",
                      on_hits=[faults.hits("telemetry.dump") + 1])
        with pytest.raises(InjectedFaultError):
            traced_session.telemetry.dump(tmp_path, faults=faults)
        # The previous dump survives the torn write bit-for-bit, and the
        # ring itself is untouched.
        assert (tmp_path / "traces.json").read_text() == first
        json.loads((tmp_path / "traces.json").read_text())

        # Serving never blocks or corrupts: queries keep flowing and the
        # next dump supersedes the torn one.
        traced_session.sql(covid_query)
        paths = traced_session.telemetry.dump(tmp_path, faults=faults)
        assert paths == first_paths
        doc = json.loads((tmp_path / "traces.json").read_text())
        assert len(doc["traces"]) == 3
