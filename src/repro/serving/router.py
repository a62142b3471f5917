"""Shard-key routing over a fleet of per-shard sessions.

A deployment that outgrows one session partitions its traffic by a
shard key (tenant, region, partition value) and runs one
``RavenSession`` per shard. :class:`ShardRouter` is the front door:
it maps keys to sessions deterministically, fans a mixed batch out to
the owning shards' ``serve`` loops, and keeps results in submission
order.

Each shard session carries a **stable persistence origin**
(``shard-<key>``), so shard snapshots written across restarts keep
their identity: the fleet-union merge in
:class:`~repro.persist.store.SnapshotStore` deduplicates by origin,
and a shard restored from its own snapshot continues the same
feedback lineage instead of appearing as a brand-new worker.

Fan-out is observable: every routed query lands on ``shard=<key>``-
labeled instruments (``router_queries``, ``router_errors``,
``router_query_seconds``) in the router's :class:`MetricsRegistry`, so
per-shard QPS and latency skew show up in one Prometheus scrape or one
:class:`~repro.telemetry.sampler.MetricsSampler` time series.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, \
    Tuple, Union

from repro.errors import RavenError
from repro.storage.table import Table
from repro.telemetry.metrics import MetricsRegistry


def shard_origin(key: object) -> str:
    """The persistence origin name for one shard (``shard-<key>``)."""
    return f"shard-{key}"


class ShardRouter:
    """Routes queries to per-shard sessions by shard key.

    ``shards`` maps shard keys to their sessions. Keys not present in
    the map route by stable hash over the sorted key list (rendezvous
    with the textual key — deterministic across processes, unlike
    ``hash()``), so value-sharded traffic with an open key domain still
    lands consistently.
    """

    def __init__(self, shards: Mapping[object, "RavenSession"],
                 registry: Optional[MetricsRegistry] = None):
        if not shards:
            raise RavenError("a shard router needs at least one shard")
        self.shards: Dict[object, "RavenSession"] = dict(shards)
        self._ordered = sorted(self.shards, key=str)
        for key, session in self.shards.items():
            session.warm.origin = shard_origin(key)
        # Fan-out metrics, labeled ``shard=<key>`` so per-shard QPS and
        # latency skew show up in one scrape. ``registry`` lets a caller
        # (or the load observatory's sampler) share a registry with other
        # components; by default the router owns its own.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._shard_queries: Dict[object, object] = {}
        self._shard_errors: Dict[object, object] = {}
        self._shard_seconds: Dict[object, object] = {}
        for key in self._ordered:
            labels = {"shard": str(key)}
            self._shard_queries[key] = self.metrics.counter(
                "router_queries", labels)
            self._shard_errors[key] = self.metrics.counter(
                "router_errors", labels)
            self._shard_seconds[key] = self.metrics.histogram(
                "router_query_seconds", labels)

    def _observe(self, owner: object, seconds: Optional[float],
                 ok: bool = True) -> None:
        self._shard_queries[owner].inc()
        if seconds is not None:
            self._shard_seconds[owner].observe(seconds)
        if not ok:
            self._shard_errors[owner].inc()

    @classmethod
    def build(cls, keys: Iterable[object],
              factory: Callable[[object], "RavenSession"]) -> "ShardRouter":
        """Construct one session per key via ``factory(key)``."""
        return cls({key: factory(key) for key in keys})

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key: object) -> object:
        """The shard key owning ``key`` (exact match, else stable hash)."""
        if key in self.shards:
            return key
        digest = hashlib.sha256(str(key).encode("utf-8")).digest()
        return self._ordered[int.from_bytes(digest[:8], "big")
                             % len(self._ordered)]

    def session(self, key: object) -> "RavenSession":
        """The session owning ``key``."""
        return self.shards[self.route(key)]

    def sql(self, key: object, query: str, **kwargs) -> Table:
        """Run one query on the shard owning ``key``."""
        owner = self.route(key)
        started = time.perf_counter()
        try:
            table = self.shards[owner].sql(query, **kwargs)
        except BaseException:
            self._observe(owner, time.perf_counter() - started, ok=False)
            raise
        self._observe(owner, time.perf_counter() - started)
        return table

    def serve(self, items: Iterable[Tuple[object, str]], workers: int = 4,
              **kwargs) -> List[Table]:
        """Fan ``(shard_key, query)`` pairs out to their shards.

        Queries group by owning shard and run through each shard
        session's :meth:`~repro.core.session.RavenSession.serve` (so
        per-shard plan caches, backpressure and retry policies all
        apply); shards execute concurrently and results come back in
        submission order. ``workers`` bounds the per-shard serve pool;
        ``kwargs`` pass through to each shard's ``serve``.
        """
        items = list(items)
        by_shard = self._group(items)
        results: List[Optional[Table]] = [None] * len(items)

        def run_shard(owner: object, indexes: List[int]) -> None:
            try:
                pairs = self.shards[owner].serve_with_stats(
                    [items[i][1] for i in indexes], workers=workers,
                    **kwargs)
            except BaseException:
                # The shard batch aborted; attribute one error to the
                # shard so the skew view still sees the failure.
                self._observe(owner, None, ok=False)
                raise
            for i, (table, stats) in zip(indexes, pairs):
                results[i] = table
                self._observe(owner, stats.total_seconds)

        self._fan_out(by_shard, run_shard)
        return results  # type: ignore[return-value]

    def serve_outcomes(self, items: Iterable[Tuple[object, str]],
                       workers: int = 4, **kwargs) -> List["QueryOutcome"]:
        """:meth:`serve` with per-query error isolation: one
        :class:`~repro.resilience.QueryOutcome` per ``(shard_key, query)``
        pair, in submission order. Per-shard metrics record every
        outcome (errors included), so a shard degrading under load is
        visible as ``router_errors{shard=…}`` next to its latency skew.
        """
        items = list(items)
        by_shard = self._group(items)
        outcomes: List[Optional["QueryOutcome"]] = [None] * len(items)

        def run_shard(owner: object, indexes: List[int]) -> None:
            shard_outcomes = self.shards[owner].serve_outcomes(
                [items[i][1] for i in indexes], workers=workers, **kwargs)
            for i, outcome in zip(indexes, shard_outcomes):
                outcomes[i] = outcome
                seconds = (outcome.stats.total_seconds
                           if outcome.stats is not None else None)
                self._observe(owner, seconds, ok=outcome.ok)

        self._fan_out(by_shard, run_shard)
        return outcomes  # type: ignore[return-value]

    def _group(self, items: List[Tuple[object, str]]
               ) -> Dict[object, List[int]]:
        by_shard: Dict[object, List[int]] = {}
        for index, (key, _) in enumerate(items):
            by_shard.setdefault(self.route(key), []).append(index)
        return by_shard

    @staticmethod
    def _fan_out(by_shard: Dict[object, List[int]],
                 run_shard: Callable[[object, List[int]], None]) -> None:
        if len(by_shard) <= 1:
            for owner, indexes in by_shard.items():
                run_shard(owner, indexes)
            return
        with ThreadPoolExecutor(max_workers=len(by_shard)) as pool:
            futures = [pool.submit(run_shard, owner, indexes)
                       for owner, indexes in by_shard.items()]
            for future in futures:
                future.result()

    # ------------------------------------------------------------------
    # Fleet persistence: one snapshot per shard, named by origin
    # ------------------------------------------------------------------
    def snapshot_name(self, key: object) -> str:
        return f"{shard_origin(key)}.json"

    def save_snapshots(self, directory: Union[str, Path]) -> List[Path]:
        """Write every shard's snapshot as ``<dir>/shard-<key>.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return [self.shards[key].save_snapshot(
                    directory / self.snapshot_name(key))
                for key in self._ordered]

    def load_snapshots(self, directory: Union[str, Path]
                       ) -> Dict[object, Dict[str, int]]:
        """Warm-start each shard from its own origin-named snapshot.

        Missing files are skipped (a shard added since the last save
        simply starts cold); returns each loaded shard's summary.
        """
        directory = Path(directory)
        summaries: Dict[object, Dict[str, int]] = {}
        for key in self._ordered:
            path = directory / self.snapshot_name(key)
            if path.exists():
                summaries[key] = self.shards[key].load_snapshot(path)
        return summaries
