"""A unified, thread-safe metrics registry: counters, gauges, histograms.

This is the single runtime home for the serving stack's counters
(``ServingStats`` and ``PlanCache.stats``, both :class:`CounterGroup`
subclasses; batcher queue depth; expression fallbacks): every mutation
lands on a registry-backed instrument, so one snapshot (or one
Prometheus scrape) sees the whole system.

Three instrument kinds, all labeled and all safe for concurrent use:

* :class:`Counter` — monotonic count (``inc``);
* :class:`Gauge` — point-in-time level (``set``/``inc``/``dec``);
* :class:`Histogram` — **log-bucketed** distribution for latencies: the
  bucket bounds grow geometrically (default ×2\\ :sup:`1/4` from 1µs),
  so the p50/p95/p99 estimates carry a bounded *relative* error (one
  growth factor) across six decades of latency while storing ~130 ints.

Exporters: :meth:`MetricsRegistry.snapshot` (one JSON-able dict, with
quantile estimates) and :meth:`MetricsRegistry.to_prometheus`
(Prometheus text exposition format, cumulative ``_bucket`` counts).

Hot-path cost: an instrument operation is one lock acquire + an integer
add (histograms add one ``bisect``); instruments are created once and
held by their owners, so the registry dict is not on the per-query path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default geometric bucket layout for latency histograms: 1µs … ~1h,
#: growing ×2^0.25 (~19%) per bucket. Quantile estimates interpolate
#: geometrically inside a bucket, so the worst-case relative error of a
#: reported quantile is one growth factor.
DEFAULT_START = 1e-6
DEFAULT_GROWTH = 2.0 ** 0.25
DEFAULT_MAX_VALUE = 3600.0

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _render_prometheus_labels(labels: LabelItems,
                              extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return f"{{{inner}}}"


class Counter:
    """A monotonic counter. ``inc`` is atomic (the counter carries its
    own lock)."""

    __slots__ = ("name", "labels", "_lock", "_value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({_render_key(self.name, self.labels)}={self.value})"


class Gauge:
    """A point-in-time level (queue depth, ring occupancy)."""

    __slots__ = ("name", "labels", "_lock", "_value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Gauge({_render_key(self.name, self.labels)}={self.value})"


def geometric_bounds(start: float, growth: float,
                     max_value: float) -> List[float]:
    """Geometric bucket upper bounds ``start, start*growth, … >= max_value``."""
    if start <= 0 or growth <= 1.0 or max_value <= start:
        raise ValueError("need start > 0, growth > 1, max_value > start")
    bounds = [start]
    while bounds[-1] < max_value:
        bounds.append(bounds[-1] * growth)
    return bounds


def quantile_from_counts(bounds: Sequence[float], counts: Sequence[int],
                         total: int, q: float,
                         observed_min: Optional[float] = None,
                         observed_max: Optional[float] = None,
                         ) -> Optional[float]:
    """Estimated q-quantile from per-bucket counts (``counts[i]`` is the
    number of observations with ``value <= bounds[i]`` not in an earlier
    bucket; ``counts[len(bounds)]`` is the overflow bucket).

    This is the one quantile implementation: ``Histogram.quantile`` calls
    it on its live counts, and :class:`~repro.telemetry.sampler
    .MetricsSampler` calls it on *bucket-count diffs* between snapshots —
    so a windowed interval quantile carries exactly the same one-growth-
    factor error bound as a cumulative one. Interpolation inside the
    landing bucket is geometric (log-linear, matching the bucket layout);
    when the observed min/max are known the estimate is clamped to them.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if total <= 0:
        return None
    target = q * total
    cumulative = 0.0
    estimate: Optional[float] = None
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(bounds):
                # Overflow bucket: the best point estimate is the max if
                # we have it, else the last finite bound.
                estimate = (observed_max if observed_max is not None
                            else bounds[-1])
                break
            high = bounds[index]
            low = bounds[index - 1] if index > 0 else high / DEFAULT_GROWTH
            fraction = max(0.0, min(
                1.0, (target - cumulative) / bucket_count))
            if low > 0 and high > low:
                estimate = low * (high / low) ** fraction
            else:
                estimate = low + (high - low) * fraction
            break
        cumulative += bucket_count
    if estimate is None:
        estimate = observed_max if observed_max is not None else bounds[-1]
    # Clamp to the observed range when known: a quantile can never fall
    # outside [min, max], whatever the bucket bounds say.
    if observed_min is not None:
        estimate = max(observed_min, estimate)
    if observed_max is not None:
        estimate = min(observed_max, estimate)
    return estimate


class HistogramState:
    """An immutable point-in-time capture of a histogram's raw buckets.

    ``counts`` are per-bucket (not cumulative), aligned with ``bounds``
    plus one trailing overflow slot — the shape ``quantile_from_counts``
    consumes. Two states from the same histogram diff into a *window*:
    per-bucket count deltas are non-negative because bucket counts only
    ever grow.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds, counts, count, total, low, high):
        self.bounds = bounds
        self.counts = counts
        self.count = count
        self.sum = total
        self.min = low
        self.max = high

    def quantile(self, q: float) -> Optional[float]:
        return quantile_from_counts(self.bounds, self.counts, self.count, q,
                                    self.min, self.max)


class Histogram:
    """A log-bucketed distribution with quantile estimation.

    ``observe`` is one bisect + one add under the instrument lock.
    ``quantile(q)`` walks the cumulative counts and interpolates
    *geometrically* within the landing bucket (log-linear, matching the
    bucket layout), clamped to the observed min/max — so a
    single-valued histogram reports that value exactly, and in general
    the estimate is within one ``growth`` factor of the true quantile.
    Explicit ``bounds`` override the geometric layout (used by tests
    and by count-valued histograms like batch sizes).
    """

    __slots__ = ("name", "labels", "_lock", "_bounds", "_counts",
                 "_count", "_sum", "_min", "_max")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems = (),
                 start: float = DEFAULT_START, growth: float = DEFAULT_GROWTH,
                 max_value: float = DEFAULT_MAX_VALUE,
                 bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        if bounds is not None:
            self._bounds = sorted(float(b) for b in bounds)
            if not self._bounds:
                raise ValueError("bounds must be non-empty")
        else:
            self._bounds = geometric_bounds(start, growth, max_value)
        # One count per bound ("value <= bound" bucket) + overflow.
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (q in [0, 1]); None when empty."""
        with self._lock:
            return quantile_from_counts(self._bounds, self._counts,
                                        self._count, q, self._min, self._max)

    def state(self) -> HistogramState:
        """Consistent point-in-time capture of the raw per-bucket counts
        (one lock acquire; the returned state is detached)."""
        with self._lock:
            return HistogramState(tuple(self._bounds), tuple(self._counts),
                                  self._count, self._sum,
                                  self._min, self._max)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            count, total = self._count, self._sum
            low, high = self._min, self._max
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus style
        (the final pair is ``(inf, total_count)``)."""
        with self._lock:
            out: List[Tuple[float, int]] = []
            cumulative = 0
            for bound, bucket_count in zip(self._bounds, self._counts):
                cumulative += bucket_count
                out.append((bound, cumulative))
            out.append((float("inf"), self._count))
            return out

    def __repr__(self) -> str:
        return (f"Histogram({_render_key(self.name, self.labels)}, "
                f"count={self.count})")


class MetricsRegistry:
    """Named, labeled instruments with snapshot + Prometheus exporters.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the instrument, later calls
    return the same object — so independent components meeting on one
    registry (session counters, plan-cache counters, batcher gauges)
    aggregate instead of colliding. Requesting an existing name as a
    different kind raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: "Dict[Tuple[str, LabelItems], object]" = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str,
                       labels: Optional[Mapping[str, str]], **kwargs):
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is not None:
                if not isinstance(instrument, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{instrument.kind}, requested {cls.kind}")
                return instrument
            instrument = cls(name, key[1], **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  **kwargs) -> Histogram:
        return self._get_or_create(Histogram, name, labels, **kwargs)

    def instruments(self) -> List[object]:
        """Point-in-time instrument list, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._instruments.items())
            return [instrument for _, instrument in items]

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """One JSON-able dict of everything the registry holds."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for instrument in self.instruments():
            key = _render_key(instrument.name, instrument.labels)
            if isinstance(instrument, Counter):
                out["counters"][key] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][key] = instrument.value
            else:
                out["histograms"][key] = instrument.snapshot()
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one scrape payload).

        Instruments sharing a name emit one ``# TYPE`` header; histogram
        buckets are cumulative with the standard ``le`` label and
        ``+Inf`` terminator, plus ``_sum`` and ``_count`` series.
        """
        lines: List[str] = []
        seen_types: set = set()
        for instrument in self.instruments():
            name = instrument.name
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {instrument.kind}")
            labels = instrument.labels
            if isinstance(instrument, (Counter, Gauge)):
                rendered = _render_prometheus_labels(labels)
                lines.append(f"{name}{rendered} {_format(instrument.value)}")
                continue
            for bound, cumulative in instrument.bucket_counts():
                le = "+Inf" if bound == float("inf") else _format(bound)
                rendered = _render_prometheus_labels(labels, ("le", le))
                lines.append(f"{name}_bucket{rendered} {cumulative}")
            rendered = _render_prometheus_labels(labels)
            lines.append(f"{name}_sum{rendered} {_format(instrument.sum)}")
            lines.append(f"{name}_count{rendered} {instrument.count}")
        return "\n".join(lines) + "\n"


class CounterGroup:
    """Registry counters named ``<PREFIX><field>`` for each of a
    subclass's ``FIELDS``, read as attributes (``stats.hits``) and changed
    only through the atomic :meth:`inc` — assigning one raises
    ``AttributeError``. Equality compares the field values."""

    PREFIX = ""
    FIELDS: Tuple[str, ...] = ()

    __slots__ = ("_counters",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls.FIELDS:
            setattr(cls, name, property(
                lambda self, _name=name: self._counters[_name].value))

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 **values: int):
        if registry is None:
            registry = MetricsRegistry()
        self._counters = {name: registry.counter(self.PREFIX + name)
                          for name in self.FIELDS}
        for name, value in values.items():
            self.inc(name, value)

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to the ``name`` counter."""
        self._counters[name].inc(amount)

    def bind(self, registry: MetricsRegistry) -> None:
        """Re-home the counters onto ``registry`` (a session's shared
        one), carrying the values accumulated so far."""
        for name, current in self._counters.items():
            target = registry.counter(current.name)
            if target is not current:
                target.inc(current.value)
                self._counters[name] = target

    def values(self) -> Dict[str, int]:
        return {name: counter.value
                for name, counter in self._counters.items()}

    def snapshot(self) -> "CounterGroup":
        """A detached copy of the current values (on a private registry)."""
        return type(self)(**self.values())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.values() == other.values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}"
                          for name, value in self.values().items())
        return f"{type(self).__name__}({inner})"


def _format(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"
