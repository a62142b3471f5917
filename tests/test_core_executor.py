"""Tests for PredictRuntime (UDF-style batching, modes, partition dispatch)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import MicroBatcher, RavenSession, Table
from repro.core.executor import PredictRuntime, QueryExecutor
from repro.errors import ExecutionError
from repro.learn import DecisionTreeClassifier, make_standard_pipeline
from repro.onnxlite import convert_pipeline
from repro.relational.logical import Predict, PredictMode, Scan
from repro.storage import Catalog, DataType


@pytest.fixture()
def setup(rng):
    n = 25_000
    table = Table.from_arrays(
        id=np.arange(n), x=rng.normal(size=n), z=rng.normal(size=n),
        c=rng.choice(["a", "b"], n))
    y = ((table.array("x") > 0) | (table.array("c") == "a")).astype(int)
    pipeline = make_standard_pipeline(
        DecisionTreeClassifier(max_depth=5, random_state=0), ["x", "z"], ["c"])
    pipeline.fit(table.head(3_000), y[:3_000])
    graph = convert_pipeline(pipeline)
    catalog = Catalog()
    catalog.add_table("t", table, primary_key=["id"])
    catalog.add_model("m", graph)
    predict = Predict(
        Scan("t", "d"), "m", graph,
        input_mapping={"x": "d.x", "z": "d.z", "c": "d.c"},
        output_columns=[("p.score", "score", DataType.FLOAT)],
    )
    return catalog, predict, pipeline, table


class TestBatching:
    def test_small_input_single_batch(self, setup):
        catalog, predict, pipeline, table = setup
        runtime = PredictRuntime(batch_size=100_000)
        out = QueryExecutor(catalog, runtime).execute(predict)
        assert out.num_rows == table.num_rows

    def test_batched_equals_unbatched(self, setup):
        catalog, predict, pipeline, table = setup
        big = QueryExecutor(catalog, PredictRuntime(batch_size=10 ** 9)) \
            .execute(predict)
        small = QueryExecutor(catalog, PredictRuntime(batch_size=1_000)) \
            .execute(predict)
        assert np.allclose(big.array("p.score"), small.array("p.score"))

    def test_batch_boundary_not_multiple(self, setup):
        catalog, predict, pipeline, table = setup
        # 25_000 rows with batch 7_000 -> last partial batch of 4_000.
        out = QueryExecutor(catalog, PredictRuntime(batch_size=7_000)) \
            .execute(predict)
        expected = pipeline.predict_proba(table)[:, 1]
        assert np.allclose(np.sort(out.array("p.score")), np.sort(expected))

    def test_scores_match_pipeline(self, setup):
        catalog, predict, pipeline, table = setup
        out = QueryExecutor(catalog, PredictRuntime()).execute(predict)
        ordered = out.take(np.argsort(out.array("d.id")))
        expected = pipeline.predict_proba(table)[:, 1]
        assert np.allclose(ordered.array("p.score"), expected, atol=1e-12)


class TestModes:
    def test_dnn_cpu_mode(self, setup):
        catalog, predict, pipeline, table = setup
        node = predict.replace(mode=PredictMode.DNN_CPU)
        runtime = PredictRuntime()
        out = QueryExecutor(catalog, runtime).execute(node)
        assert out.num_rows == table.num_rows
        assert runtime.gpu_time_adjustment == 0.0

    def test_dnn_gpu_mode_accumulates_adjustment(self, setup):
        catalog, predict, pipeline, table = setup
        node = predict.replace(mode=PredictMode.DNN_GPU)
        runtime = PredictRuntime()
        QueryExecutor(catalog, runtime).execute(node)
        assert runtime.gpu_time_adjustment != 0.0

    def test_all_modes_agree(self, setup):
        catalog, predict, pipeline, table = setup
        results = {}
        for mode in PredictMode:
            node = predict.replace(mode=mode)
            out = QueryExecutor(catalog, PredictRuntime()).execute(node)
            results[mode] = np.sort(out.array("p.score"))
        base = results[PredictMode.ML_RUNTIME]
        for mode, scores in results.items():
            assert np.allclose(scores, base, atol=1e-9), mode

    def test_session_caching_across_calls(self, setup):
        catalog, predict, pipeline, table = setup
        runtime = PredictRuntime()
        executor = QueryExecutor(catalog, runtime)
        executor.execute(predict)
        sessions_after_first = dict(runtime._sessions)
        executor.execute(predict)
        assert dict(runtime._sessions) == sessions_after_first


class TestErrors:
    def test_wide_output_rejected(self, setup):
        catalog, predict, pipeline, table = setup
        # Bind the 2-wide probabilities edge to a scalar column: must fail.
        bad = predict.replace(output_columns=[
            ("p.probs", "probabilities", DataType.FLOAT)])
        bad.graph = bad.graph.copy()
        bad.graph.outputs = ["label", "probabilities"]
        with pytest.raises(ExecutionError):
            QueryExecutor(catalog, PredictRuntime()).execute(bad)

    def test_per_partition_mismatch_rejected(self, setup):
        catalog, predict, pipeline, table = setup
        node = predict.replace(per_partition_graphs=[predict.graph])
        with pytest.raises(ExecutionError):
            QueryExecutor(catalog, PredictRuntime()).execute(node)


class TestRunStats:
    def test_adjusted_seconds_includes_gpu_model(self, setup):
        catalog, predict, pipeline, table = setup
        session = RavenSession(strategy="dnn", gpu_available=True)
        session.catalog = catalog
        session.sql("SELECT d.id, p.score FROM PREDICT(MODEL = m, "
                    "DATA = t AS d) WITH (score FLOAT) AS p")
        stats = session.last_run
        assert stats.adjusted_seconds == pytest.approx(
            stats.execute_seconds + stats.gpu_adjustment_seconds)

    def test_concurrent_gpu_adjustments_sum_into_the_session(self, setup):
        catalog, _, _, table = setup
        session = RavenSession(strategy="dnn", gpu_available=True,
                               telemetry=True)
        session.register_table("t", table, primary_key=["id"])
        session.register_model("m", catalog.model("m").graph)
        query = ("SELECT d.id, p.score FROM PREDICT(MODEL = m, "
                 "DATA = t AS d) WITH (score FLOAT) AS p")
        batcher = MicroBatcher(session)
        for index in range(4):
            batcher.predict("m", {"x": 0.1 * index, "z": 0.0, "c": "a"})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                flushed = pool.submit(batcher.flush)
                runs = list(pool.map(
                    lambda _: session.sql_with_stats(query)[1], range(8)))
                assert flushed.result() == 1
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert any(trace.root.name == "batcher:m"
                   for trace in session.telemetry.tracer.traces())
        assert all(run.gpu_adjustment_seconds != 0.0 for run in runs)
        # Equal up to float reassociation: a lost update would drop a
        # whole call's adjustment.
        assert session.runtime.gpu_time_adjustment == pytest.approx(
            sum(run.gpu_adjustment_seconds for run in runs), rel=1e-9)
