"""Noise-aware perf-regression gates over the ledger.

Each :class:`Gate` names one metric of one bench, its *direction*
(speedups are higher-is-better, latencies lower-is-better) and a
relative tolerance band. A candidate value is compared against the
**median of a trailing window** of full-scale ledger records — one
noisy run in the history cannot move the median, and one missing commit
just shortens the window — and fails only when it falls outside the
band:

* higher-is-better: fail when ``current < median * (1 - tolerance)``
* lower-is-better:  fail when ``current > median * (1 + tolerance)``

A gate with no history passes with status ``no-history`` (a brand-new
bench cannot regress); a gated bench whose committed JSON is missing or
whose metric disappeared fails loudly — losing the artifact is exactly
the silent-regression mode the gate exists to catch.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obsv.ledger import Ledger
from repro.obsv.schema import SCALE_FULL, flatten_metrics

HIGHER_IS_BETTER = "higher"
LOWER_IS_BETTER = "lower"
DIRECTIONS = (HIGHER_IS_BETTER, LOWER_IS_BETTER)

#: Default relative tolerance band. Kept below 0.20 so a true 20%
#: regression always fires; wide enough that ordinary run-to-run timing
#: noise (observed well under 10% on the gated speedup ratios) doesn't.
DEFAULT_TOLERANCE = 0.15

#: Default trailing-window length for the baseline median.
DEFAULT_WINDOW = 5

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NO_HISTORY = "no-history"
STATUS_MISSING = "missing"


@dataclass(frozen=True)
class Gate:
    """One gated metric: bench + dotted metric path + direction + band."""

    bench: str
    metric: str
    direction: str = HIGHER_IS_BETTER
    tolerance: float = DEFAULT_TOLERANCE
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, "
                             f"got {self.direction!r}")
        if not 0.0 <= self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in [0, 1), got {self.tolerance}")

    @property
    def name(self) -> str:
        return f"{self.bench}:{self.metric}"


#: The four hard-won bench wins this repo gates (ROADMAP "Recent").
#: Tolerances are sized from observed run-to-run noise, not wishes: the
#: two expression-engine ratios time raw numpy kernels (no session fixed
#: costs to damp them) and swing 25-40% on shared single-cpu runners;
#: the adaptive ratio times ~5ms warmed calls and was observed swinging
#: ~15% around its median, so it gets 20%; joins and persist ratios sit
#: on larger per-call work and stay within 15%.
DEFAULT_GATES: Sequence[Gate] = (
    Gate("expressions", "workloads.deep_tree_case_depth8.speedup",
         tolerance=0.30),
    Gate("expressions", "workloads.wide_cse_projection_x32.speedup",
         tolerance=0.40),
    Gate("expressions", "workloads.categorical_tree_depth8.speedup",
         tolerance=0.30),
    Gate("adaptive", "speedup", tolerance=0.20),
    Gate("joins", "speedup"),
    Gate("persist", "speedup"),
    # Resilience SLOs. Availability is a count ratio, not a timing —
    # zero tolerance: any query the retrying fleet fails to answer under
    # the injected 1% predict-fault rate is a real regression. The p99
    # blowup (faulty p99 / clean p99, machine-normalized by
    # construction) is a tail-latency ratio of ~ms calls, so it gets a
    # wide band like the other small-denominator ratios.
    Gate("resilience", "availability", tolerance=0.0),
    Gate("resilience", "p99_blowup", LOWER_IS_BETTER, tolerance=0.40),
    # Telemetry overhead ratios. Both hover at ~1.0x on a ~10ms warmed
    # query (interleaved-round medians damp machine drift), so the
    # bands are small absolute slack: a default-layer regression to
    # ~1.05x of its trailing median means per-query observation grew
    # real work (allocation, lock contention), and tracing drifting
    # past ~1.10x of its median approaches the bench's own 1.10x hard
    # ceiling.
    Gate("telemetry", "disabled_overhead", LOWER_IS_BETTER, tolerance=0.05),
    Gate("telemetry", "tracing_overhead", LOWER_IS_BETTER, tolerance=0.10),
    # Partition-native execution ratios. The skipping and morsel
    # speedups divide warmed multi-ms scans and were observed swinging
    # ~15% around their medians on a single-cpu runner, so both get
    # 25%; the spill ratio compares two page-cache-warm scans of the
    # same bytes and hovers at ~1.0x, but memmap reads ride kernel
    # readahead behavior, so it gets the wider small-denominator band.
    Gate("partitions", "skipping_speedup", tolerance=0.25),
    Gate("partitions", "morsel_speedup", tolerance=0.25),
    Gate("partitions", "spill_slowdown", LOWER_IS_BETTER, tolerance=0.30),
    # Serving load observatory. Unlike the ratio gates above, these two
    # are *absolute* serving numbers, so their run-to-run noise carries
    # thread-scheduling and machine drift undamped: the closed-loop peak
    # sustained QPS (throughput at the response curve's knee) was
    # observed swinging ~25% across runs on a shared runner, and the
    # open-loop p99 at ~70% of that peak is a tail latency of ~ms
    # queries under Poisson arrivals — the widest-variance number in the
    # suite. Both get wide bands; the trailing-window median is what
    # keeps them honest across machines.
    Gate("load", "peak_qps", tolerance=0.40),
    Gate("load", "p99_at_70pct_seconds", LOWER_IS_BETTER, tolerance=0.50),
)


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate against one candidate payload."""

    gate: Gate
    status: str
    current: Optional[float] = None
    baseline: Optional[float] = None
    history: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_PASS, STATUS_NO_HISTORY)

    @property
    def delta(self) -> Optional[float]:
        """Relative change vs baseline (positive = current is larger)."""
        if self.current is None or not self.baseline:
            return None
        return self.current / self.baseline - 1.0


def check_gate(gate: Gate, current: Optional[float],
               history: Sequence[float]) -> GateResult:
    """Evaluate one gate given the candidate value and window values."""
    if current is None:
        return GateResult(gate, STATUS_MISSING,
                          detail="metric missing from candidate results")
    if not history:
        return GateResult(gate, STATUS_NO_HISTORY, current=current,
                          detail="no ledger history at this scale yet")
    baseline = statistics.median(history)
    if gate.direction == HIGHER_IS_BETTER:
        bound = baseline * (1.0 - gate.tolerance)
        failed = current < bound
        relation = f"{current:.6g} < {bound:.6g}"
    else:
        bound = baseline * (1.0 + gate.tolerance)
        failed = current > bound
        relation = f"{current:.6g} > {bound:.6g}"
    if failed:
        detail = (f"{relation} (median of {len(history)} trailing "
                  f"record(s) = {baseline:.6g}, tolerance "
                  f"{gate.tolerance:.0%})")
        return GateResult(gate, STATUS_FAIL, current=current,
                          baseline=baseline, history=len(history),
                          detail=detail)
    return GateResult(gate, STATUS_PASS, current=current, baseline=baseline,
                      history=len(history), detail="within tolerance band")


def check_results(results: Mapping[str, Mapping[str, object]], ledger: Ledger,
                  gates: Sequence[Gate] = DEFAULT_GATES,
                  tolerance: Optional[float] = None,
                  window: Optional[int] = None) -> List[GateResult]:
    """Run every gate over candidate bench payloads (bench name → JSON).

    Candidates are compared against the trailing window of *full-scale*
    ledger records, excluding any record of the candidate's own commit —
    the question is always "did this change regress prior history".
    ``tolerance`` / ``window`` override every gate's own setting (CLI
    escape hatch).
    """
    outcomes: List[GateResult] = []
    for gate in gates:
        if tolerance is not None or window is not None:
            gate = Gate(gate.bench, gate.metric, gate.direction,
                        tolerance if tolerance is not None else gate.tolerance,
                        window if window is not None else gate.window)
        payload = results.get(gate.bench)
        if payload is None:
            outcomes.append(GateResult(
                gate, STATUS_MISSING,
                detail=f"no results JSON for gated bench {gate.bench!r}"))
            continue
        metrics = flatten_metrics(payload)
        provenance = payload.get("provenance")
        sha = provenance.get("sha") if isinstance(provenance, Mapping) else None
        window_records = ledger.window(
            gate.bench, scale=SCALE_FULL, limit=gate.window,
            exclude_sha=sha if isinstance(sha, str) else None)
        history = [r.metrics[gate.metric] for r in window_records
                   if gate.metric in r.metrics]
        outcomes.append(check_gate(gate, metrics.get(gate.metric), history))
    return outcomes


def history_values(ledger: Ledger, gate: Gate,
                   scale: str = SCALE_FULL) -> Dict[str, float]:
    """sha → metric value across the full history (for rendering)."""
    return ledger.metric_values(gate.bench, gate.metric, scale=scale)


def best_value(values: Sequence[float], direction: str) -> Optional[float]:
    """The best historical value under a direction annotation."""
    if not values:
        return None
    return max(values) if direction == HIGHER_IS_BETTER else min(values)
