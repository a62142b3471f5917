"""The paper's running example (§2.2): COVID-risk prediction over a join.

Reproduces Fig. 2/Fig. 3 end to end: a trained pipeline over patient +
pulmonary-test data, a prediction query with a data predicate
(``asthma = 1``) and an output predicate (``risk = 'high'``), and the
unified-IR view before/after Raven's cross-optimizations.

Run with: ``python examples/hospital_risk.py``
"""

import numpy as np

from repro import RavenSession, Table
from repro.ir import UnifiedIR, ir_to_text
from repro.learn import DecisionTreeClassifier, make_standard_pipeline
from repro.relational import find_predict_nodes


def build_tables(n: int = 60_000, seed: int = 0):
    rng = np.random.default_rng(seed)
    patients = Table.from_arrays(
        id=np.arange(n),
        age=rng.normal(55, 16, n).round(),
        bmi=rng.normal(27, 5, n),
        asthma=rng.integers(0, 2, n),
        hypertension=rng.choice(["none", "mild", "severe"], n,
                                p=[0.6, 0.3, 0.1]),
        smoker=rng.choice(["yes", "no"], n, p=[0.25, 0.75]),
    )
    pulmonary = Table.from_arrays(
        id=np.arange(n),
        bpm=rng.normal(72, 12, n),
        fev=rng.normal(3.0, 0.7, n),
    )
    risk = np.where(
        (patients.array("age") > 62)
        | ((patients.array("asthma") == 1) & (pulmonary.array("bpm") > 78))
        | ((patients.array("smoker") == "yes")
           & (patients.array("hypertension") == "severe")),
        "high", "low")
    return patients, pulmonary, risk


QUERY = """
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN pulmonary_test AS pt ON pi.id = pt.id
)
SELECT d.id, p.risk_of_covid
FROM PREDICT(MODEL = covid_risk, DATA = data AS d)
     WITH (risk_of_covid STRING) AS p
WHERE d.asthma = 1 AND p.risk_of_covid = 'high'
"""


def main() -> None:
    patients, pulmonary, risk = build_tables()
    joined = Table({**patients.columns,
                    "bpm": pulmonary.columns["bpm"],
                    "fev": pulmonary.columns["fev"]})
    pipeline = make_standard_pipeline(
        DecisionTreeClassifier(max_depth=7, random_state=0),
        ["age", "bmi", "bpm", "fev", "asthma"],
        ["hypertension", "smoker"])
    pipeline.fit(joined, risk)

    session = RavenSession()
    session.register_table("patient_info", patients, primary_key=["id"])
    session.register_table("pulmonary_test", pulmonary, primary_key=["id"])
    session.register_model("covid_risk", pipeline)

    # --- The unified IR before optimization (paper Fig. 2, step 3) -------
    bound = session.plan(QUERY)
    print("=== unified IR, unoptimized ===")
    print(ir_to_text(UnifiedIR(bound, session.catalog)))

    # --- Optimize (paper Fig. 2, step 4) ----------------------------------
    plan, report = session.optimize(QUERY)
    print("\n=== optimizer report ===")
    print(report.summary())

    predicts = find_predict_nodes(plan)
    if predicts:
        graph = predicts[0].graph
        print("\noptimized pipeline inputs:", graph.input_names)
        tree_node = next(n for n in graph.nodes
                         if n.op_type == "TreeEnsembleClassifier")
        total = sum(t.node_count() for t in tree_node.attrs["trees"])
        print(f"optimized tree size: {total} nodes")
        print("\n=== unified IR, optimized ===")
        print(ir_to_text(UnifiedIR(plan, session.catalog)))
    else:
        print("\n(the whole pipeline was compiled to SQL expressions)")
        print(plan.pretty(session.catalog))

    # --- Execute (paper Fig. 2, step 5) ------------------------------------
    result = session.sql(QUERY)
    noopt = RavenSession(enable_optimizations=False)
    noopt.catalog = session.catalog
    reference = noopt.sql(QUERY)
    speedup = (noopt.last_run.execute_seconds
               / max(session.last_run.execute_seconds, 1e-9))
    print(f"\nhigh-risk asthma patients found: {result.num_rows} "
          f"(no-opt agrees: {reference.num_rows == result.num_rows})")
    print(f"optimized {session.last_run.execute_seconds * 1e3:.1f} ms vs "
          f"unoptimized {noopt.last_run.execute_seconds * 1e3:.1f} ms "
          f"-> {speedup:.2f}x")


if __name__ == "__main__":
    main()
