"""A normalized, versioned, LRU-bounded cache of optimized plans.

The paper's end-to-end wins come from optimizing a prediction query once
and running the optimized plan many times; under repeated traffic the
parse + bind + optimize cost on every ``RavenSession.sql()`` call throws
that away. The cache stores the fully optimized physical plan and its
:class:`~repro.core.optimizer.OptimizationReport`, keyed by

* the normalized query template and lifted-literal signature
  (:mod:`repro.serving.normalize`); and
* the catalog versions of every table/model the query references.

Concurrent misses for the same normalized key are **single-flighted**
(:meth:`PlanCache.begin` / :meth:`PlanCache.join`): the first caller
optimizes while the others wait on the in-flight entry instead of
redundantly re-optimizing; coalesced waits are counted in
``stats.coalesced``. If the owner fails (or its entry is invalidated
before publication) waiters fall back to optimizing independently.

Entries are invalidated two ways, belt and braces:

* **eagerly** — the cache subscribes to catalog change notifications
  (:meth:`repro.storage.catalog.Catalog.subscribe`), so re-registering a
  table or model drops every plan that read it;
* **on lookup** — each entry records the dependency versions it was
  optimized against, and :meth:`get` rejects entries whose recorded
  versions no longer match the live catalog (covers plans inserted while
  a concurrent DDL was in flight).

All operations are thread-safe; counters are exposed via :attr:`stats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.storage.catalog import Catalog
from repro.telemetry.metrics import CounterGroup

DEFAULT_CAPACITY = 128
# Default bound on waiting for another caller's in-flight optimization:
# a wedged owner (deadlocked optimizer, injected delay fault) must not
# strand waiters forever — on expiry they optimize independently.
DEFAULT_JOIN_TIMEOUT = 30.0

# (kind, name) -> catalog entry version at optimization time.
DependencyVersions = Dict[Tuple[str, str], int]


class PlanCacheStats(CounterGroup):
    """Hit/miss/eviction/invalidation counters (monotonic).

    ``coalesced`` counts misses that waited on a concurrent in-flight
    optimization of the same key and received its entry instead of
    optimizing redundantly; they are deliberately not counted as hits
    (or misses), so ``hit_rate`` reflects genuinely warm lookups.
    ``reoptimizations`` are entries dropped because execution feedback
    diverged from the plan (adaptive re-optimization through the
    single-flight miss path); ``restored`` are entries installed from a
    persisted snapshot (warm start) after validating against the live
    catalog; ``join_timeouts`` are single-flight waits that expired
    before the owner published (the waiter optimized independently).
    The session binds them onto its shared registry.
    """

    PREFIX = "plan_cache_"
    FIELDS = ("hits", "misses", "evictions", "invalidations", "coalesced",
              "reoptimizations", "restored", "join_timeouts")

    __slots__ = ()

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


@dataclass
class CachedPlan:
    """One optimized plan plus everything needed to validate reuse."""

    template: str
    params: Tuple
    plan: object  # repro.relational.logical.PlanNode
    report: object  # repro.core.optimizer.OptimizationReport
    tables: FrozenSet[str] = frozenset()
    models: FrozenSet[str] = frozenset()
    versions: DependencyVersions = field(default_factory=dict)
    hits: int = 0
    # True once a profiled execution found no feedback divergence: the
    # plan reached its adaptive fixed point. Sampled re-profiling
    # (``RavenSession(profile_sample_rate=...)``) only throttles profiling
    # for fixed-point entries, so convergence stays at full speed.
    fixed_point: bool = False

    def depends_on(self, kind: str, name: str) -> bool:
        names = self.tables if kind == "table" else self.models
        return name in names

    def is_current(self, catalog: Catalog) -> bool:
        return all(catalog.entry_version(kind, name) == version
                   for (kind, name), version in self.versions.items())


def dependency_versions(catalog: Catalog, tables, models) -> DependencyVersions:
    """Capture the live versions of a query's dependencies.

    Unregistered names map to ``None`` so that *registering* them later
    also invalidates (resolution could change).
    """
    versions: DependencyVersions = {}
    for name in tables:
        versions[("table", name)] = catalog.entry_version("table", name)
    for name in models:
        versions[("model", name)] = catalog.entry_version("model", name)
    return versions


#: Sentinel distinguishing "use the cache's join_timeout" from an
#: explicit ``timeout=None`` (wait unbounded).
_USE_DEFAULT = object()


class Flight:
    """An in-flight optimization of one cache key (single-flight token)."""

    __slots__ = ("key", "event")

    def __init__(self, key: Tuple):
        self.key = key
        self.event = threading.Event()


class PlanCache:
    """Thread-safe LRU cache of optimized plans for one session."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 join_timeout: Optional[float] = DEFAULT_JOIN_TIMEOUT):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        if join_timeout is not None and join_timeout <= 0:
            raise ValueError("join_timeout must be positive (or None)")
        self.capacity = capacity
        # Default wait bound applied when join() gets no explicit timeout.
        self.join_timeout = join_timeout
        self._entries: "OrderedDict[Tuple, CachedPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self._stats = PlanCacheStats()
        self._flights: Dict[Tuple, Flight] = {}

    # ------------------------------------------------------------------
    def _lookup_locked(self, key: Tuple, catalog: Catalog) -> Optional[CachedPlan]:
        """Version-validated lookup; counts hits/invalidations, not misses."""
        entry = self._entries.get(key)
        if entry is not None and not entry.is_current(catalog):
            # Stale insert that raced a catalog mutation.
            del self._entries[key]
            self._stats.inc("invalidations")
            return None
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self._stats.inc("hits")
        entry.hits += 1
        return entry

    def get(self, key: Tuple, catalog: Catalog) -> Optional[CachedPlan]:
        """Look up a plan; validates dependency versions before returning."""
        with self._lock:
            entry = self._lookup_locked(key, catalog)
            if entry is None:
                self._stats.inc("misses")
            return entry

    def put(self, key: Tuple, entry: CachedPlan) -> None:
        with self._lock:
            self._put_locked(key, entry)

    def restore(self, key: Tuple, entry: CachedPlan) -> None:
        """Install an entry deserialized from a snapshot (warm start).

        The caller (:mod:`repro.persist.snapshot`) has already validated
        the entry against the live catalog and re-stamped its dependency
        versions; this is an ordinary LRU insert that additionally counts
        in ``stats.restored``. A live entry for the same key — optimized
        in *this* process against the current data — always wins.
        """
        with self._lock:
            if key in self._entries:
                return
            self._put_locked(key, entry)
            self._stats.inc("restored")

    def entries(self) -> list:
        """Point-in-time ``(key, entry)`` list, LRU-oldest first.

        Snapshot export iterates this copy outside the lock; entries are
        shared objects, but their plan/report fields are immutable after
        publication.
        """
        with self._lock:
            return list(self._entries.items())

    def _put_locked(self, key: Tuple, entry: CachedPlan) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.inc("evictions")

    # ------------------------------------------------------------------
    # Single-flight misses
    # ------------------------------------------------------------------
    def begin(self, key: Tuple, catalog: Catalog
              ) -> Tuple[Optional[CachedPlan], Optional[Flight], bool]:
        """Single-flight lookup: ``(entry, flight, owner)``.

        * ``entry`` is not None — cache hit, nothing else to do.
        * ``owner`` True — this caller must optimize, then call
          :meth:`complete` with the entry (or None on failure).
        * otherwise — another caller is already optimizing this key; wait
          via :meth:`join`.
        """
        with self._lock:
            entry = self._lookup_locked(key, catalog)
            if entry is not None:
                return entry, None, False
            flight = self._flights.get(key)
            if flight is None:
                flight = Flight(key)
                self._flights[key] = flight
                self._stats.inc("misses")
                return None, flight, True
            return None, flight, False

    def complete(self, flight: Flight, entry: Optional[CachedPlan]) -> None:
        """Publish the owner's result (entry=None on failure) and wake waiters."""
        with self._lock:
            if entry is not None:
                self._put_locked(flight.key, entry)
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
        flight.event.set()

    def join(self, flight: Flight, catalog: Catalog,
             timeout: Optional[float] = _USE_DEFAULT) -> Optional[CachedPlan]:
        """Wait for an in-flight optimization and fetch its entry.

        A waiter that receives the owner's entry counts as ``coalesced``
        (a miss whose optimization was saved) — deliberately *not* as a
        hit, so cold concurrent bursts don't inflate ``hit_rate``.
        Returns None when the owner failed, timed out, or its entry was
        already invalidated; that waiter re-optimizes independently and
        counts as an ordinary miss. The wait is bounded by the cache's
        ``join_timeout`` unless an explicit ``timeout`` (or None, meaning
        unbounded) is passed; expiries count in ``stats.join_timeouts``.
        """
        if timeout is _USE_DEFAULT:
            timeout = self.join_timeout
        finished = flight.event.wait(timeout)
        with self._lock:
            if not finished:
                self._stats.inc("join_timeouts")
            entry = None
            if finished:
                entry = self._entries.get(flight.key)
                if entry is not None and not entry.is_current(catalog):
                    del self._entries[flight.key]
                    self._stats.inc("invalidations")
                    entry = None
            if entry is None:
                self._stats.inc("misses")
                return None
            self._entries.move_to_end(flight.key)
            self._stats.inc("coalesced")
            entry.hits += 1
            return entry

    # ------------------------------------------------------------------
    # Adaptive staleness
    # ------------------------------------------------------------------
    def mark_stale(self, key: Tuple,
                   entry: Optional[CachedPlan] = None) -> bool:
        """Drop an entry whose plan no longer matches execution feedback.

        Called by the session when the adaptive subsystem detects drift
        (the feedback-driven passes would now produce a different plan).
        The next lookup for the key misses and re-optimizes through the
        ordinary single-flight path — with the feedback store warm, the
        replacement plan reflects the observed behaviour. Counted in
        ``stats.reoptimizations``.

        When ``entry`` is given, only that exact entry is dropped: a
        concurrent execution of an already-replaced plan must not evict
        the fresh re-optimized entry that superseded it. Returns False
        when nothing was dropped (a concurrent call won the race).
        """
        with self._lock:
            current = self._entries.get(key)
            if current is None or (entry is not None and current is not entry):
                return False
            del self._entries[key]
            self._stats.inc("reoptimizations")
            return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, kind: Optional[str] = None,
                   name: Optional[str] = None) -> int:
        """Drop entries depending on ``(kind, name)``; everything if None.

        Returns the number of entries removed.
        """
        with self._lock:
            if kind is None or name is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                stale = [key for key, entry in self._entries.items()
                         if entry.depends_on(kind, name)]
                for key in stale:
                    del self._entries[key]
                removed = len(stale)
            self._stats.inc("invalidations", removed)
            return removed

    def attach(self, catalog: Catalog) -> None:
        """Subscribe this cache's invalidation hook to catalog changes."""
        catalog.subscribe(self._on_catalog_change)

    def detach(self, catalog: Catalog) -> None:
        catalog.unsubscribe(self._on_catalog_change)

    def _on_catalog_change(self, kind: str, name: str) -> None:
        self.invalidate(kind, name)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> PlanCacheStats:
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return f"PlanCache(size={len(self)}/{self.capacity}, {self._stats!r})"
