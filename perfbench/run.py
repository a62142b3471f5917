"""Hospital prediction-query benchmark: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tree_serve --seed 1 --seconds 10 \\
        --trace 0

Each run generates its inputs from ``--seed`` (dataset, model, query
stream), computes the expected results with the repository's oracle
session (``compile_expressions=False, adaptive=False, dop=1``), sets the
system up several times (the last set-up serves the run), and drives a
one-client closed loop for ``--seconds``. Every result the oracle
answered is compared bit for bit; any mismatch or failed request makes
the run exit non-zero.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps each
layer's entry points (see ``tracing.py``), reports the per-layer
metrics and writes the spans to ``perfbench/out/``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-ups per run; setup_s is their median.
SETUPS = 3
# Warm-up ends after this many consecutive cache hits without a new
# re-optimization (or after WARMUP_LIMIT queries).
WARMUP_STABLE = 3
WARMUP_LIMIT = 20
# Per-request counts are taken over the first COUNT_WINDOW stream
# indices, so they do not depend on how many requests a run completes.
COUNT_WINDOW = 64
# Kernels of the hospital pipeline graph, reported individually.
KERNELS = ("OneHotEncoder", "Concat", "Scaler", "TreeEnsembleClassifier",
           "FeatureExtractor")
# Span names -> per-layer self-time metric prefixes.
LAYERS = ("relational.expr", "core.predict", "core.parser", "core.binder",
          "core.optimizer", "relational.compile", "serving.normalize",
          "serving.plan_cache", "relational.executor", "core.executor",
          "adaptive", "core.session", "telemetry")
# A request's summed span self times may differ from its root span's
# duration by float rounding only.
TRACE_GAP_SECONDS = 1e-6
PLANNING = ("core.parser", "core.binder", "core.optimizer",
            "relational.compile")


@dataclass
class Request:
    index: int
    seconds: float
    error: Optional[str]
    mismatch: bool
    cache_hit: bool = False
    compiled: int = 0
    reused: int = 0
    fallbacks: int = 0
    retries: int = 0
    degraded: bool = False
    skipped: int = 0
    reoptimizations: int = 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="flip one bit of one checked result (tests "
                             "that the output check fails)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: library sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs the library on sys.path
    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(workloads.SPECS)})", file=sys.stderr)
        return 2

    inputs = workloads.generate(args.workload, args.seed)
    expected = oracle_results(inputs)
    gc.collect()
    reset_peak_rss()

    tracer = uninstall = None
    if args.trace:
        from tracing import Tracer, install_probes
        tracer = Tracer()
        uninstall = install_probes(tracer)
    try:
        setups = []
        session = None
        for _ in range(SETUPS):
            session = None  # release the previous set-up before the next
            gc.collect()
            session, timings = set_up(inputs)
            setups.append(timings)
        requests, started, elapsed = drive(session, inputs, expected,
                                           args.seconds, tracer, args.perturb)
        peak_rss_mb = read_peak_rss_mb()
    finally:
        if uninstall is not None:
            uninstall()

    completed = [r for r in requests if r.error is None]
    latencies = sorted(r.seconds * 1e3 for r in completed)
    mismatches = sum(r.mismatch for r in requests)
    errors = sum(r.error is not None for r in requests)
    failed = sum(r.error is not None or r.mismatch for r in requests)
    e2e = {
        "qps": (len(completed) / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (p90(latencies), "ms"),
        "setup_s": (statistics.median(s["total"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "requests": (len(requests), "count"),
        "checked": (sum(inputs.is_checked(r.index) for r in requests),
                    "count"),
        "failed_share": (failed / max(len(requests), 1), "share"),
    }
    trace_ok = True
    if tracer is not None:
        per_request, gap = tracer.self_times()
        metrics = layer_metrics(per_request, tracer.counts, inputs,
                                requests, setups, elapsed)
        # Spans of the timed phase outside every request root: work on a
        # thread whose stack the request's root span does not reach.
        orphans = sum(1 for span in tracer.spans()
                      if span[5] is None and span[2] >= started)
        info["trace.self_sum_gap_ms"] = (gap * 1e3, "ms")
        info["trace.orphan_spans"] = (orphans, "count")
        trace_ok = gap < TRACE_GAP_SECONDS and orphans == 0
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        report = {**{f"traced.{k}": v for k, v in e2e.items()}, **info,
                  **metrics}
    else:
        metrics = e2e
        report = {**e2e, **info}
    for name, (value, unit) in report.items():
        print(f"{name:42s} {value:14.4f} {unit}")
    if errors:
        first = next(r.error for r in requests if r.error is not None)
        print(f"perfbench: {errors} request(s) failed; first: {first}",
              file=sys.stderr)
    if mismatches:
        print(f"perfbench: {mismatches} result(s) differ from the oracle",
              file=sys.stderr)
    if not trace_ok:
        print("perfbench: trace check failed (self times must add up to "
              "each request span; no span may fall outside a request)",
              file=sys.stderr)
    correct = failed == 0 and trace_ok
    print(json.dumps({
        "correct": correct,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Oracle, set-up and the timed closed loop
# ----------------------------------------------------------------------
def register(session, inputs) -> Dict[str, float]:
    from workloads import MODEL
    started = time.perf_counter()
    inputs.dataset.register(session,
                            partition_column=inputs.spec.partition_column)
    registered = time.perf_counter()
    session.register_model(MODEL, inputs.pipeline)
    return {"register": registered - started,
            "convert": time.perf_counter() - registered}


def oracle_results(inputs) -> Dict[str, object]:
    """Expected result of every checked query, from the oracle session
    (same table layout and strategy; interpreted, non-adaptive, serial)."""
    from repro import RavenSession
    session = RavenSession(compile_expressions=False, adaptive=False, dop=1)
    register(session, inputs)
    return {query: session.sql(query) for query in inputs.checked_queries()}


def set_up(inputs):
    """Create, register and warm a session; returns it with timings.

    A workload with one query repeats it until the cached plan has hit
    WARMUP_STABLE times in a row without a re-optimization; an ad-hoc
    workload (whose distinct queries never hit) runs its warm-up queries
    once each.
    """
    from repro import RavenSession
    started = time.perf_counter()
    session = RavenSession()
    timings = register(session, inputs)
    if len(inputs.warmup) > 1:
        for query in inputs.warmup:
            session.sql(query)
    else:
        stable = 0
        for _ in range(WARMUP_LIMIT):
            reopts = session.plan_cache.stats.reoptimizations
            _, stats = session.sql_with_stats(inputs.warmup[0])
            settled = (stats.cache_hit and
                       session.plan_cache.stats.reoptimizations == reopts)
            stable = stable + 1 if settled else 0
            if stable == WARMUP_STABLE:
                break
    timings["total"] = time.perf_counter() - started
    return session, timings


def drive(session, inputs, expected, seconds, tracer, perturb):
    """Closed loop with one client: the next request is sent when the
    previous one returns, until ``seconds`` have passed."""
    requests: List[Request] = []
    skipped = session.telemetry.metrics.counter("partitions_skipped")
    cache_stats = session.plan_cache.stats
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    while time.perf_counter() < deadline:
        query = inputs.query(index)
        skipped_before = skipped.value
        reopts_before = cache_stats.reoptimizations
        root = tracer.begin_request(index) if tracer else None
        begun = time.perf_counter()
        outcome = session.serve_outcomes([query], workers=1)[0]
        took = time.perf_counter() - begun
        if root is not None:
            tracer.end_request(root)
        if outcome.error is not None:
            requests.append(Request(index, took, repr(outcome.error), False))
        else:
            mismatch = False
            if inputs.is_checked(index):
                table = outcome.table
                if perturb:
                    column = table.array(table.column_names[-1])
                    column.view("uint8")[0] ^= 1
                    perturb = False
                mismatch = not identical(table, expected[query])
            stats = outcome.stats
            requests.append(Request(
                index, took, None, mismatch,
                cache_hit=stats.cache_hit,
                compiled=stats.programs_compiled,
                reused=stats.programs_reused,
                fallbacks=stats.expression_fallbacks,
                retries=outcome.attempts - 1,
                degraded="static-plan" in outcome.degraded,
                skipped=skipped.value - skipped_before,
                reoptimizations=cache_stats.reoptimizations - reopts_before))
        index += 1
    return requests, started, time.perf_counter() - started


def identical(actual, expected) -> bool:
    """Bit-for-bit equality of two result tables."""
    if actual.column_names != expected.column_names:
        return False
    for name in expected.column_names:
        a, b = actual.array(name), expected.array(name)
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind in "OU":
            if not (a == b).all():
                return False
        elif not np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                np.ascontiguousarray(b).view(np.uint8)):
            return False
    return True


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def p90(sorted_values: List[float]) -> float:
    """Nearest-rank 90th percentile of an ascending list."""
    return sorted_values[-(-9 * len(sorted_values) // 10) - 1]


def layer_metrics(per_request, counts, inputs, requests, setups, elapsed):
    """Per-layer metrics of a traced run (ms are per completed request)."""
    from tracing import INFERENCE_KERNELS, ROOT_SPAN
    timed = [r for r in requests if r.error is None]
    n = max(len(timed), 1)
    totals: Dict[str, float] = {}
    root_total = 0.0
    for request in timed:
        for name, seconds in per_request.get(request.index, {}).items():
            totals[name] = totals.get(name, 0.0) + seconds
            root_total += seconds
    featurize = sum(v for k, v in totals.items() if k.startswith("onnxlite.")
                    and k[len("onnxlite."):] not in INFERENCE_KERNELS)
    infer = sum(v for k, v in totals.items() if k.startswith("onnxlite.")
                and k[len("onnxlite."):] in INFERENCE_KERNELS)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (totals.get(layer, 0.0) * 1e3 / n, "ms")
    for kernel in KERNELS:
        metrics[f"onnxlite.{kernel}.self_ms"] = (
            totals.get(f"onnxlite.{kernel}", 0.0) * 1e3 / n, "ms")
    metrics["onnxlite.featurize.self_ms"] = (featurize * 1e3 / n, "ms")
    metrics["onnxlite.infer.self_ms"] = (infer * 1e3 / n, "ms")
    metrics["bench.self_ms"] = (totals.get(ROOT_SPAN, 0.0) * 1e3 / n, "ms")
    share = 1.0 / root_total if root_total else 0.0
    metrics["share.relational.expr"] = (
        totals.get("relational.expr", 0.0) * share, "share")
    metrics["share.onnxlite"] = ((featurize + infer) * share, "share")
    metrics["share.planning"] = (
        sum(totals.get(name, 0.0) for name in PLANNING) * share, "share")

    window = [r for r in timed if r.index < COUNT_WINDOW]
    w = max(len(window), 1)
    compiled = sum(r.compiled for r in window)
    reused = sum(r.reused for r in window)
    metrics.update({
        "relational.expr.instructions": (sum(
            counts.get((r.index, "relational.expr.instructions"), 0)
            for r in window) / w, "count/query"),
        "core.predict.rows": (sum(
            counts.get((r.index, "core.predict.rows"), 0)
            for r in window) / w, "rows/query"),
        "relational.compile.programs_compiled": (compiled / w,
                                                 "count/query"),
        "relational.compile.reuse_share": (
            reused / max(compiled + reused, 1), "share"),
        "relational.compile.fallbacks": (sum(r.fallbacks for r in window),
                                         "count"),
        "serving.plan_cache.hit_share": (
            sum(r.cache_hit for r in window) / w, "share"),
        "relational.skipping.skipped_share": (
            sum(r.skipped for r in window) / (w * inputs.num_partitions),
            "share"),
        "adaptive.reoptimizations": (sum(r.reoptimizations for r in window),
                                     "count"),
        "resilience.retries": (sum(r.retries for r in window), "count"),
        "resilience.degraded_runs": (sum(r.degraded for r in window),
                                     "count"),
        "storage.register_s": (statistics.median(
            s["register"] for s in setups), "s"),
        "onnxlite.convert_s": (statistics.median(
            s["convert"] for s in setups), "s"),
        "trace.qps": (len(timed) / elapsed, "1/s"),
    })
    return metrics


# ----------------------------------------------------------------------
# Peak resident memory (Linux): VmHWM, reset once the inputs exist.
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        print("perfbench: cannot reset the peak-RSS mark; peak_rss_mb "
              "includes input generation", file=sys.stderr)


def read_peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
