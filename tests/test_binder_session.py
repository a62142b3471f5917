"""Binder + end-to-end session tests, including the semantics-preservation
property over randomized pipelines and queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import RavenSession, Table
from repro.core.binder import Binder
from repro.errors import CatalogError, PlanError
from repro.learn import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    make_standard_pipeline,
)
from repro.relational import Aggregate, Join, Limit, Sort, find_predict_nodes, walk


class TestBinder:
    def test_star_expansion(self, session):
        plan = session.plan("SELECT * FROM patient_info AS pi")
        names = plan.output_schema(session.catalog).names
        assert names[0] == "id" and "smoker" in names

    def test_qualified_star(self, session):
        plan = session.plan(
            "SELECT pt.* FROM patient_info AS pi "
            "JOIN pulmonary_test AS pt ON pi.id = pt.id")
        names = plan.output_schema(session.catalog).names
        assert set(names) == {"id", "bpm", "fev"}

    def test_unqualified_resolution(self, session):
        plan = session.plan("SELECT age FROM patient_info AS pi")
        assert plan.output_schema(session.catalog).names == ["age"]

    def test_ambiguous_column_rejected(self, session):
        with pytest.raises(PlanError):
            session.plan("SELECT id FROM patient_info AS pi "
                         "JOIN pulmonary_test AS pt ON pi.id = pt.id")

    def test_unknown_column_rejected(self, session):
        with pytest.raises(PlanError):
            session.plan("SELECT nope FROM patient_info AS pi")

    def test_unknown_table_rejected(self, session):
        with pytest.raises(CatalogError):
            session.plan("SELECT a FROM missing_table")

    def test_join_condition_must_span_sides(self, session):
        with pytest.raises(PlanError):
            session.plan("SELECT pi.age FROM patient_info AS pi "
                         "JOIN pulmonary_test AS pt ON pi.id = pi.asthma")

    def test_duplicate_output_names_deduplicated(self, session):
        plan = session.plan(
            "SELECT * FROM patient_info AS pi "
            "JOIN pulmonary_test AS pt ON pi.id = pt.id")
        names = plan.output_schema(session.catalog).names
        assert len(names) == len(set(names))  # id collision got a suffix

    def test_aggregates_build_aggregate_node(self, session):
        plan = session.plan("SELECT smoker, COUNT(*) AS n, AVG(age) AS m "
                            "FROM patient_info AS pi GROUP BY smoker")
        assert any(isinstance(n, Aggregate) for n in walk(plan))

    def test_non_grouped_select_item_rejected(self, session):
        with pytest.raises(PlanError):
            session.plan("SELECT age, COUNT(*) FROM patient_info AS pi "
                         "GROUP BY smoker")

    def test_order_and_limit(self, session):
        plan = session.plan("SELECT age FROM patient_info AS pi "
                            "ORDER BY age DESC LIMIT 3")
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, Sort)

    def test_cte_referenced_twice(self, session):
        plan = session.plan(
            "WITH base AS (SELECT id, age FROM patient_info AS pi) "
            "SELECT a.age FROM base AS a JOIN base AS b ON a.id = b.id")
        assert any(isinstance(n, Join) for n in walk(plan))

    def test_predict_binding(self, session, covid_query):
        plan = session.plan(covid_query)
        predict = find_predict_nodes(plan)[0]
        assert predict.input_mapping["age"] == "d.age"
        assert predict.input_mapping["bpm"] == "d.bpm"
        assert predict.output_columns[0][0] == "p.score"

    def test_predict_missing_input_rejected(self, session):
        with pytest.raises(CatalogError):
            # patient_info alone lacks bpm/fev needed by the model
            session.plan(
                "SELECT p.score FROM PREDICT(MODEL = covid_risk, "
                "DATA = patient_info AS d) WITH (score FLOAT) AS p")

    def test_predict_unknown_model(self, session):
        with pytest.raises(CatalogError):
            session.plan("SELECT p.s FROM PREDICT(MODEL = nope, "
                         "DATA = patient_info AS d) WITH (s FLOAT) AS p")


class TestSessionExecution:
    def test_simple_select(self, session):
        out = session.sql("SELECT age FROM patient_info AS pi LIMIT 5")
        assert out.num_rows == 5

    def test_aggregate_query(self, session):
        out = session.sql("SELECT smoker, COUNT(*) AS n "
                          "FROM patient_info AS pi GROUP BY smoker")
        assert out.num_rows == 2
        assert out.array("n").sum() == 4000

    def test_prediction_query_end_to_end(self, session, noopt_session,
                                         covid_query, dt_pipeline,
                                         joined_frame):
        optimized = session.sql(covid_query)
        reference = noopt_session.sql(covid_query)
        mask = joined_frame.array("asthma") == 1
        proba = dt_pipeline.predict_proba(joined_frame)[:, 1]
        expected = int(((proba > 0.5) & mask).sum())
        assert optimized.num_rows == reference.num_rows == expected

    def test_last_run_stats_populated(self, session, covid_query):
        session.sql(covid_query)
        stats = session.last_run
        assert stats.execute_seconds > 0
        assert stats.optimize_seconds > 0
        assert stats.report is not None

    def test_explain_mentions_rules(self, session, covid_query):
        text = session.explain(covid_query)
        assert "model_projection_pushdown" in text

    def test_register_model_from_file(self, tmp_path, session, dt_pipeline):
        from repro.onnxlite import convert_pipeline, save_graph
        path = tmp_path / "m.ronnx"
        save_graph(convert_pipeline(dt_pipeline), str(path))
        session.register_model("from_file", str(path))
        assert session.catalog.has_model("from_file")

    def test_register_model_bad_type(self, session):
        with pytest.raises(CatalogError):
            session.register_model("bad", 12345)

    def test_dop_session_matches_serial(self, patients_table, pulmonary_table,
                                        dt_pipeline, covid_query):
        serial = RavenSession(enable_optimizations=False, dop=1)
        serial.register_table("patient_info", patients_table,
                              primary_key=["id"])
        serial.register_table("pulmonary_test", pulmonary_table,
                              primary_key=["id"])
        serial.register_model("covid_risk", dt_pipeline)
        parallel = RavenSession(enable_optimizations=False, dop=4)
        parallel.catalog = serial.catalog
        a = serial.sql(covid_query)
        b = parallel.sql(covid_query)
        assert a.num_rows == b.num_rows
        assert np.allclose(np.sort(a.array("score")),
                           np.sort(b.array("score")))

    def test_aggregate_over_predictions(self, session):
        query = """
        WITH data AS (SELECT * FROM patient_info AS pi
                      JOIN pulmonary_test AS pt ON pi.id = pt.id)
        SELECT AVG(p.score) AS avg_score, COUNT(*) AS n
        FROM PREDICT(MODEL = covid_risk, DATA = data AS d)
        WITH (score FLOAT) AS p
        """
        out = session.sql(query)
        assert out.num_rows == 1
        assert 0.0 <= out.array("avg_score")[0] <= 1.0
        assert out.array("n")[0] == 4000


# ---------------------------------------------------------------------------
# The central property: optimization preserves query semantics.
# ---------------------------------------------------------------------------

_MODEL_FACTORIES = [
    lambda seed: LogisticRegression(penalty="l1", C=0.1, max_iter=400),
    lambda seed: DecisionTreeClassifier(max_depth=5, random_state=seed),
    lambda seed: GradientBoostingClassifier(n_estimators=5, max_depth=2,
                                            random_state=seed),
]

_PREDICATES = [
    "",
    "WHERE d.f1 = 1",
    "WHERE d.x0 > 0.0",
    "WHERE d.c0 = 'a'",
    "WHERE d.f1 = 1 AND d.x0 > -0.5",
    "WHERE p.score > 0.5",
    "WHERE d.f1 = 0 AND p.score > 0.3",
]


@given(st.integers(0, 10_000), st.integers(0, 2),
       st.integers(0, len(_PREDICATES) - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_optimizer_preserves_semantics(seed, model_kind, predicate_index,
                                       use_dnn):
    """For random pipelines/predicates, every optimization strategy returns
    exactly the rows and scores of the unoptimized plan."""
    rng = np.random.default_rng(seed)
    n = 600
    table = Table.from_arrays(
        id=np.arange(n),
        x0=rng.normal(size=n), x1=rng.normal(size=n),
        f1=rng.integers(0, 2, n),
        c0=rng.choice(["a", "b", "c"], n))
    y = ((table.array("x0") > 0) | (table.array("c0") == "a")).astype(int)
    pipeline = make_standard_pipeline(
        _MODEL_FACTORIES[model_kind](seed), ["x0", "x1", "f1"], ["c0"])
    pipeline.fit(table, y)

    query = (
        "SELECT d.id, p.score FROM PREDICT(MODEL = m, DATA = t AS d) "
        f"WITH (score FLOAT) AS p {_PREDICATES[predicate_index]}"
    )

    reference_session = RavenSession(enable_optimizations=False)
    reference_session.register_table("t", table)
    reference_session.register_model("m", pipeline)
    reference = reference_session.sql(query)

    strategy = "dnn" if use_dnn else "sql"
    optimized_session = RavenSession(strategy=strategy, gpu_available=use_dnn)
    optimized_session.catalog = reference_session.catalog
    optimized = optimized_session.sql(query)

    assert optimized.num_rows == reference.num_rows
    ref_sorted = reference.take(np.argsort(reference.array("id")))
    opt_sorted = optimized.take(np.argsort(optimized.array("id")))
    assert np.array_equal(ref_sorted.array("id"), opt_sorted.array("id"))
    assert np.allclose(ref_sorted.array("score"), opt_sorted.array("score"),
                       atol=1e-9)
