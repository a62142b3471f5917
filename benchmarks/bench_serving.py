"""Serving-layer benchmarks: plan-cache warmup and threaded throughput.

Measures what the serving subsystem exists for:

* **cold vs warm plan cache** — the parse+bind+optimize overhead of the
  first execution against the normalize+lookup overhead of every later
  one (the paper's optimize-once/run-many regime);
* **throughput vs workers** — ``session.serve`` dispatching a batch of
  repeated prediction queries over a growing thread pool, verified
  bit-for-bit against serial execution.
"""

import numpy as np

from benchmarks._util import run_report
from repro.bench.harness import ReportTable
from repro.bench.workloads import build_workload

WORKERS = (1, 2, 4, 8)
QUERIES_PER_RUN = 24


def _tables_equal(a, b) -> bool:
    return (a.column_names == b.column_names
            and all(np.array_equal(a.array(name), b.array(name))
                    for name in a.column_names))


def _cold_vs_warm_report() -> ReportTable:
    workload = build_workload("hospital", "dt")
    table = ReportTable(
        title="Plan cache: cold vs warm optimize overhead (hospital, dt)",
        columns=["phase", "optimize_ms", "wall_ms", "cache"],
    )
    session = workload.make_session()
    _, cold = session.sql_with_stats(workload.query)
    table.add(phase="cold", optimize_ms=cold.optimize_seconds * 1e3,
              wall_ms=cold.execute_seconds * 1e3,
              cache="miss")
    warm_optimize = []
    warm_wall = []
    for _ in range(10):
        _, warm = session.sql_with_stats(workload.query)
        assert warm.cache_hit
        warm_optimize.append(warm.optimize_seconds)
        warm_wall.append(warm.execute_seconds)
    warm_mean = float(np.mean(warm_optimize))
    table.add(phase="warm(x10)", optimize_ms=warm_mean * 1e3,
              wall_ms=float(np.mean(warm_wall)) * 1e3, cache="hit")
    speedup = cold.optimize_seconds / max(warm_mean, 1e-9)
    table.note(f"optimize overhead cold/warm = {speedup:.1f}x "
               f"(acceptance: >= 5x)")
    stats = session.plan_cache.stats
    table.note(f"cache counters: hits={stats.hits} misses={stats.misses} "
               f"evictions={stats.evictions}")
    assert speedup >= 5.0, (
        f"warm-cache optimize overhead only {speedup:.1f}x lower than cold"
    )
    return table


def _throughput_report() -> ReportTable:
    workload = build_workload("hospital", "dt")
    session = workload.make_session()
    queries = [workload.query] * QUERIES_PER_RUN
    serial = [session.sql(query) for query in queries]

    import time
    table = ReportTable(
        title="Serving throughput vs worker count (hospital, dt)",
        columns=["workers", "seconds", "queries_per_s", "matches_serial"],
    )
    for workers in WORKERS:
        started = time.perf_counter()
        served = session.serve(queries, workers=workers)
        elapsed = time.perf_counter() - started
        matches = all(_tables_equal(expected, actual)
                      for expected, actual in zip(serial, served))
        assert matches, f"serve(workers={workers}) diverged from serial"
        table.add(workers=workers, seconds=elapsed,
                  queries_per_s=len(queries) / elapsed,
                  matches_serial="yes")
    table.note("results verified bit-for-bit against serial execution")
    return table


def test_plan_cache_cold_vs_warm(benchmark):
    run_report(benchmark, _cold_vs_warm_report, "serving_plan_cache")


def test_throughput_vs_workers(benchmark):
    run_report(benchmark, _throughput_report, "serving_throughput")
