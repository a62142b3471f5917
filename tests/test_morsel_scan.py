"""Morsel-driven parallel scans: planning, skipping, determinism.

The contract under test is bit-for-bit equality with serial execution
over the same partitioned layout — the morsel pool may run partitions
in any order on any worker, but the merged result must be exactly what
``dop=1`` produces.
"""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import RavenSession, Table
from repro.datasets import hospital
from repro.learn import DecisionTreeClassifier
from repro.relational import execute, find_predict_nodes
from repro.relational.executor import Executor, Morsel
from repro.relational.logical import Scan
from repro.relational.morsel import (
    MIN_MORSEL_ROWS,
    MorselExecutor,
    plan_morsels,
)
from repro.storage.catalog import Catalog
from repro.storage.partition import Partition, PartitionedTable
from repro.storage.statistics import TableStats
from repro.tensor.device import RunResult, SimulatedGpuDevice


def tables_equal_bitwise(a, b) -> bool:
    if a.column_names != b.column_names:
        return False
    for name in a.column_names:
        x, y = a.array(name), b.array(name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


def make_events(n=60_000, buckets=6, seed=11) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        id=np.arange(n),
        bucket=np.repeat(np.arange(buckets), n // buckets).astype(np.int64),
        x=rng.normal(size=n),
        y=rng.uniform(0, 100, size=n),
    )


def make_session(dop, table=None, **kwargs) -> RavenSession:
    session = RavenSession(dop=dop, **kwargs)
    session.register_table("events", table if table is not None
                           else make_events(),
                           primary_key=["id"], partition_column="bucket")
    return session


QUERIES = [
    "SELECT e.id, e.x FROM events AS e WHERE e.y < 37.0",
    "SELECT e.id, e.x + e.y AS s FROM events AS e WHERE e.x > 1.0",
    "SELECT e.id, e.x FROM events AS e WHERE e.bucket = 3 AND e.y < 50.0",
    "SELECT e.id FROM events AS e WHERE e.bucket > 99",
    "SELECT AVG(e.x) AS m, COUNT(*) AS c FROM events AS e WHERE e.y < 37.0",
    "SELECT e.bucket, COUNT(*) AS c, AVG(e.x) AS m FROM events AS e "
    "GROUP BY e.bucket ORDER BY bucket",
    "SELECT e.id, e.x FROM events AS e WHERE e.x > 1.5 ORDER BY id LIMIT 40",
]


# ---------------------------------------------------------------------------
# Morsel planning
# ---------------------------------------------------------------------------

class TestPlanMorsels:
    def test_partition_aligned_and_covering(self):
        morsels = plan_morsels([(0, 20_000), (1, 9_000), (3, 30_000)], dop=4)
        by_part = {}
        for m in morsels:
            by_part.setdefault(m.partition, []).append(m)
        assert set(by_part) == {0, 1, 3}
        for index, rows in [(0, 20_000), (1, 9_000), (3, 30_000)]:
            parts = sorted(by_part[index])
            assert parts[0].start == 0 and parts[-1].stop == rows
            for a, b in zip(parts, parts[1:]):
                assert a.stop == b.start  # contiguous, no overlap

    def test_zero_row_partitions_produce_no_morsels(self):
        morsels = plan_morsels([(0, 0), (1, 10_000), (2, 0)], dop=2)
        assert {m.partition for m in morsels} == {1}

    def test_floor_prevents_tiny_morsels(self):
        morsels = plan_morsels([(0, MIN_MORSEL_ROWS + 1)], dop=8)
        # Never more than ceil(rows / MIN_MORSEL_ROWS) morsels.
        assert len(morsels) <= 2

    def test_explicit_morsel_rows(self):
        # 100 rows at morsel_rows=30 → 4 chunks, balanced by chunk_ranges.
        morsels = plan_morsels([(0, 100)], dop=2, morsel_rows=30)
        assert [(m.start, m.stop) for m in sorted(morsels)] == \
            [(0, 25), (25, 50), (50, 75), (75, 100)]


class TestMorselRestriction:
    def test_scan_slices_one_partition(self):
        table = make_events(600, buckets=3)
        catalog = Catalog()
        catalog.add_table("events", table, partition_column="bucket")
        executor = Executor(
            catalog, scan_restrictions={"events": Morsel(1, 50, 120)})
        out = executor.execute(Scan("events"))
        expected = catalog.table("events").data.partitions[1] \
            .table.slice(50, 120)
        # Scan qualifies output names with the table name; compare data.
        assert out.num_rows == expected.num_rows
        for qualified, bare in zip(out.column_names, expected.column_names):
            assert np.array_equal(out.array(qualified), expected.array(bare))


# ---------------------------------------------------------------------------
# Differential: morsel-parallel vs serial, bit-for-bit
# ---------------------------------------------------------------------------

class TestMorselDifferential:
    @pytest.fixture(scope="class")
    def oracle(self):
        session = make_session(dop=1)
        return [session.sql(q) for q in QUERIES]

    @pytest.mark.parametrize("dop", [1, 2, 4])
    def test_bit_for_bit_across_dop(self, oracle, dop):
        session = make_session(dop=dop)
        for query, expected in zip(QUERIES, oracle):
            assert tables_equal_bitwise(session.sql(query), expected), query

    @pytest.mark.parametrize("dop", [2, 4])
    def test_interpreted_engine_matches_too(self, oracle, dop):
        session = make_session(dop=dop, compile_expressions=False)
        for query, expected in zip(QUERIES, oracle):
            assert tables_equal_bitwise(session.sql(query), expected), query

    def test_static_session_matches(self, oracle):
        session = make_session(dop=4, adaptive=False)
        for query, expected in zip(QUERIES, oracle):
            assert tables_equal_bitwise(session.sql(query), expected), query

    @pytest.fixture(scope="class")
    def reference(self):
        """Unrestricted single-pass execution of each optimized plan —
        independent of the morsel runner, unlike the dop=1 oracle."""
        session = make_session(dop=1, adaptive=False)
        return [execute(session.optimize(q)[0], session.catalog)
                for q in QUERIES]

    @pytest.mark.parametrize("dop", [1, 2, 4])
    def test_matches_unrestricted_reference(self, reference, dop):
        session = make_session(dop=dop)
        for query, expected in zip(QUERIES, reference):
            assert tables_equal_bitwise(session.sql(query), expected), query

    def test_single_partition_table(self):
        table = make_events(20_000, buckets=1)
        serial = RavenSession(dop=1)
        serial.register_table("events", table)
        parallel = RavenSession(dop=4)
        parallel.register_table("events", table)
        query = "SELECT e.id, e.x FROM events AS e WHERE e.y < 20.0"
        assert tables_equal_bitwise(serial.sql(query), parallel.sql(query))

    def test_empty_partitions_in_layout(self):
        base = make_events(6_000, buckets=3)
        parts = []
        for part in PartitionedTable.from_table(base, "bucket").partitions:
            parts.append(part)
            empty = part.table.slice(0, 0)
            parts.append(Partition(table=empty,
                                   stats=TableStats.collect(empty),
                                   key=f"{part.key}-empty"))
        layout = PartitionedTable(parts, partition_column="bucket")
        serial = RavenSession(dop=1)
        serial.register_table("events", layout)
        parallel = RavenSession(dop=4)
        parallel.register_table("events", layout)
        for query in QUERIES:
            assert tables_equal_bitwise(serial.sql(query),
                                        parallel.sql(query)), query


# ---------------------------------------------------------------------------
# Runtime zone-map skipping and telemetry
# ---------------------------------------------------------------------------

class TestRuntimeSkipping:
    def test_pruned_partitions_are_counted(self):
        session = make_session(dop=4)
        session.sql("SELECT e.id FROM events AS e WHERE e.bucket = 2")
        counters = session.telemetry.metrics.snapshot()["counters"]
        assert counters.get("partitions_skipped") == 5
        assert counters.get("morsels_executed", 0) >= 1

    def test_all_partitions_skipped_yields_typed_empty(self):
        session = make_session(dop=4)
        out = session.sql("SELECT e.id, e.x FROM events AS e "
                          "WHERE e.bucket > 99")
        assert out.num_rows == 0
        assert out.column_names == ["id", "x"]
        counters = session.telemetry.metrics.snapshot()["counters"]
        assert counters.get("partitions_skipped") == 6
        assert counters.get("morsels_executed", 0) == 0

    def test_morsel_spans_under_tracing(self):
        session = make_session(dop=4, telemetry=True)
        session.sql("SELECT e.id FROM events AS e WHERE e.y < 37.0")
        trace = session.telemetry.tracer.last()
        spans = [s for s in trace.spans() if s.name == "scan.morsel"]
        assert spans, "no scan.morsel spans recorded"
        assert all(s.attributes["table"] == "events" for s in spans)
        assert {s.attributes["partition"] for s in spans} == set(range(6))


# ---------------------------------------------------------------------------
# Skew-aware scheduling
# ---------------------------------------------------------------------------

class TestScheduling:
    def test_warm_feedback_orders_by_observed_cost(self):
        session = make_session(dop=2)
        query = "SELECT e.id FROM events AS e WHERE e.y < 37.0"
        session.sql(query)  # cold: records per-partition observations
        catalog = session.catalog
        executor = MorselExecutor(catalog, dop=2,
                                  feedback=session.feedback)
        target = Scan("events", alias="e", columns=["id", "y"])
        fingerprint = executor._scan_fingerprint(target)
        warm = [session.feedback.partition_seconds_per_row(fingerprint, p)
                for p in range(6)]
        assert all(v is not None and v >= 0.0 for v in warm)

    def test_single_worker_runs_canonical_order(self, monkeypatch):
        # Order only matters to a pool: one worker must not follow the
        # (timing-fed) schedule, so a serial query's work is the same
        # sequence every time.
        monkeypatch.setattr(MorselExecutor, "_schedule",
                            lambda self, morsels, target: morsels[::-1])
        session = make_session(dop=1, telemetry=True)
        session.sql("SELECT e.id FROM events AS e WHERE e.y < 37.0")
        trace = session.telemetry.tracer.last()
        order = [s.attributes["partition"] for s in trace.spans()
                 if s.name == "scan.morsel"]
        assert order == list(range(6))

    def test_cold_schedule_is_deterministic_lpt(self):
        catalog = Catalog()
        catalog.add_table("events", make_events(6_000),
                          partition_column="bucket")
        executor = MorselExecutor(catalog, dop=2)
        morsels = [Morsel(0, 0, 100), Morsel(1, 0, 500), Morsel(2, 0, 500),
                   Morsel(3, 0, 50)]
        out = executor._schedule(list(morsels), Scan("events"))
        assert out == [Morsel(1, 0, 500), Morsel(2, 0, 500),
                       Morsel(0, 0, 100), Morsel(3, 0, 50)]


# ---------------------------------------------------------------------------
# Generated partition layouts vs the unrestricted reference
# ---------------------------------------------------------------------------

LAYOUT_QUERIES = [
    "SELECT e.id, e.x FROM events AS e WHERE e.y < 37.0",
    "SELECT e.id, e.x + e.y AS s FROM events AS e WHERE e.bucket = 1",
    "SELECT AVG(e.x) AS m, COUNT(*) AS c FROM events AS e WHERE e.y < 60.0",
    "SELECT e.id, e.x FROM events AS e WHERE e.x > 0.5 ORDER BY id LIMIT 7",
]


def make_layout(sizes, seed) -> PartitionedTable:
    """One partition per entry of ``sizes`` (0- and 1-row ones included),
    with ``bucket`` equal to the partition index so zone maps skip."""
    rng = np.random.default_rng(seed)
    parts = []
    offset = 0
    for index, rows in enumerate(sizes):
        table = Table.from_arrays(
            id=np.arange(offset, offset + rows),
            bucket=np.full(rows, index, dtype=np.int64),
            x=rng.normal(size=rows),
            y=rng.uniform(0, 100, size=rows),
        )
        offset += rows
        parts.append(Partition(table=table, stats=TableStats.collect(table),
                               key=index))
    return PartitionedTable(parts, partition_column="bucket")


class TestGeneratedLayouts:
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=st.lists(st.one_of(st.sampled_from([0, 1]),
                                    st.integers(2, 3_000),
                                    # Above MIN_MORSEL_ROWS: split at dop > 1.
                                    st.integers(8_193, 20_000)),
                          min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 16),
           dop=st.sampled_from([1, 2, 3, 4]),
           compiled=st.booleans())
    def test_layout_matches_unrestricted_reference(self, sizes, seed, dop,
                                                   compiled):
        layout = make_layout(sizes, seed)
        session = RavenSession(dop=dop, compile_expressions=compiled)
        session.register_table("events", layout)
        for query in LAYOUT_QUERIES:
            plan, _ = session.optimize(query)
            expected = execute(plan, session.catalog)
            assert tables_equal_bitwise(session.sql(query), expected), \
                (query, sizes, dop, compiled)


# ---------------------------------------------------------------------------
# The serial tail runs under the query's context
# ---------------------------------------------------------------------------

class TestTailContext:
    def test_tail_operators_are_traced_and_profiled(self):
        rng = np.random.default_rng(0)
        n = 50_000
        table = Table.from_arrays(id=np.arange(n), v=rng.normal(size=n))
        session = RavenSession(dop=2, telemetry=True)
        session.register_table("t", table, primary_key=["id"])
        query = ("SELECT d.id, d.v FROM t AS d WHERE d.v > 0.0 "
                 "ORDER BY v LIMIT 5")
        session.sql(query)
        names = {span.name for span in
                 session.telemetry.tracer.last().spans()}
        assert {"Sort", "Limit"} <= names
        assert len([s for s in session.telemetry.tracer.last().spans()
                    if s.name == "scan.morsel"]) > 1  # tail over merged
        rendered = session.explain(query, analyze=True)
        match = re.search(r"Sort\(.*\): (\d+)->(\d+) rows", rendered)
        assert match is not None, rendered
        rows_in, rows_out = int(match.group(1)), int(match.group(2))
        assert rows_in == rows_out == int((table.array("v") > 0).sum())


# ---------------------------------------------------------------------------
# Partition-specialized Predict runs as morsels
# ---------------------------------------------------------------------------

class TestSpecializedPredict:
    MODELED_SECONDS = 1_000.0

    @pytest.fixture(scope="class")
    def dataset(self):
        # 60k rows over 6 rcount partitions: ~10k-row partitions, so
        # dop > 1 splits each one into several morsels.
        dataset = hospital.generate(60_000, seed=3)
        pipeline = dataset.train_pipeline(
            DecisionTreeClassifier(max_depth=8, random_state=0),
            train_rows=3_000)
        return dataset, pipeline

    def make(self, dataset, dop, **kwargs):
        data, pipeline = dataset
        session = RavenSession(dop=dop, **kwargs)
        data.register(session, partition_column="rcount")
        session.register_model("los", pipeline)
        query = data.prediction_query("los")
        predict = find_predict_nodes(session.optimize(query)[0])[0]
        assert predict.per_partition_graphs is not None
        return session, query

    @pytest.mark.parametrize("strategy", ["none", "dnn"])
    def test_bit_for_bit_across_dop(self, dataset, strategy):
        results = {}
        for dop in (1, 2, 4):
            session, query = self.make(dataset, dop, strategy=strategy)
            results[dop] = session.sql(query)
            morsels = session.telemetry.metrics.counter("morsels_executed")
            if dop == 1:
                assert morsels.value == 6  # one morsel per partition
            else:
                assert morsels.value > 6  # partitions split into morsels
        for dop in (2, 4):
            assert tables_equal_bitwise(results[dop], results[1]), dop

    @pytest.mark.parametrize("dop", [1, 2, 4, 16])
    def test_gpu_adjustment_sums_across_morsels(self, dataset, dop,
                                                monkeypatch):
        calls = []
        original = SimulatedGpuDevice.run

        def modeled(device, program, inputs):
            result = original(device, program, inputs)
            calls.append(1)
            return RunResult(result.outputs, self.MODELED_SECONDS,
                             simulated=True)

        monkeypatch.setattr(SimulatedGpuDevice, "run", modeled)
        session, query = self.make(dataset, dop, strategy="dnn",
                                   gpu_available=True)
        calls.clear()
        # A tiny switch interval makes a lost update of the shared
        # adjustment (concurrent morsels at dop > 1) show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, stats = session.sql_with_stats(query)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) >= 6  # one inference per morsel
        # adjustment = sum over morsels of (modeled - measured seconds).
        assert stats.gpu_adjustment_seconds == pytest.approx(
            self.MODELED_SECONDS * len(calls), abs=0.5 * len(calls))
