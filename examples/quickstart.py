"""Quickstart: train a pipeline, register it, run an optimized prediction query.

Run with: ``python examples/quickstart.py``
"""

import numpy as np

from repro import RavenSession, Table
from repro.learn import GradientBoostingClassifier, make_standard_pipeline


def main() -> None:
    rng = np.random.default_rng(0)
    n = 50_000

    # 1. Some data: a single customer table.
    customers = Table.from_arrays(
        id=np.arange(n),
        age=rng.normal(45, 14, n).round(),
        income=rng.gamma(4.0, 15_000.0, n),
        tenure_months=rng.integers(1, 120, n).astype(float),
        plan=rng.choice(["basic", "plus", "premium"], n),
        region=rng.choice(["north", "south", "east", "west"], n),
    )
    churned = ((customers.array("tenure_months") < 12)
               | ((customers.array("plan") == "basic")
                  & (customers.array("age") < 30))).astype(int)

    # 2. Train the paper's canonical pipeline shape:
    #    StandardScaler + OneHotEncoder -> Concat -> model.
    pipeline = make_standard_pipeline(
        GradientBoostingClassifier(n_estimators=20, max_depth=3,
                                   random_state=0),
        numeric_columns=["age", "income", "tenure_months"],
        categorical_columns=["plan", "region"],
    )
    pipeline.fit(customers, churned)

    # 3. Register data + model with a Raven session. The pipeline is
    #    converted to the ONNX-style graph format on registration.
    session = RavenSession()
    session.register_table("customers", customers, primary_key=["id"])
    graph = session.register_model("churn", pipeline)
    print("registered model operators:", graph.operator_counts())

    # 4. A prediction query with the paper's PREDICT syntax. The WHERE
    #    clause both filters rows *and* lets Raven prune the model.
    query = """
        SELECT d.id, p.score
        FROM PREDICT(MODEL = churn, DATA = customers AS d)
             WITH (score FLOAT) AS p
        WHERE d.plan = 'basic' AND p.score > 0.7
    """
    result = session.sql(query)
    print(f"\n{result.num_rows} high-churn-risk basic-plan customers")
    print("first rows:", result.head(3).to_rows())
    print(f"\nexecution took {session.last_run.execute_seconds * 1e3:.1f} ms; "
          f"optimizer applied: {session.last_run.report.rules_applied}")

    # 5. Inspect what the optimizer did.
    print("\n--- optimized plan ---")
    print(session.explain(query))

    # 6. And the T-SQL the optimized plan corresponds to (paper §6).
    print("\n--- SQL Server output (truncated) ---")
    print(session.to_sql_server(query)[:400], "...")


if __name__ == "__main__":
    main()
