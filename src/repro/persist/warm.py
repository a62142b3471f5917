"""A session's warm-start and checkpoint state (``session.warm``).

:class:`WarmState` holds the snapshot lineage (``origin`` and the
``ancestors`` whose feedback the session imported, so a fleet merge
never counts an observation twice), the snapshot plans and statistics
still waiting for their tables/models to be registered, and the
auto-checkpoint claim of an attached :class:`~repro.persist.SnapshotStore`.
"""

from __future__ import annotations

import threading
import uuid
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.errors import PersistError, RavenError
from repro.persist.snapshot import Snapshot, install_plans, table_digest
from repro.storage.statistics import TableStats


class WarmState:
    """Warm-start lineage, pending snapshot state and checkpointing."""

    def __init__(self, session):
        self.session = session
        # A fleet union merges only the newest snapshot per origin.
        self.origin = uuid.uuid4().hex[:12]
        self.ancestors: set = set()
        self._lock = threading.Lock()
        self._install_lock = threading.Lock()
        self._plans: List[dict] = []
        self._stats: Dict[str, dict] = {}
        # Set by SnapshotStore.attach/detach: checkpoint into ``store``
        # every ``checkpoint_every`` re-optimizations past ``checkpointed``.
        self.store = None
        self.checkpoint_every = 0
        self.checkpointed = 0
        self._claim_lock = threading.Lock()

    def load(self, snapshot: Union[str, Path, Snapshot]) -> Dict[str, int]:
        """Merge a snapshot (or a path to one) into the session; see
        :meth:`~repro.core.session.RavenSession.load_snapshot`."""
        if not isinstance(snapshot, Snapshot):
            snapshot = Snapshot.load(snapshot)
        session = self.session
        feedback_operators = 0
        if snapshot.feedback is not None and session.feedback is not None:
            # merge_state validates the whole payload before folding
            # anything in (all-or-nothing), so a malformed feedback
            # export degrades to "no feedback" — plans and statistics
            # still load — instead of crashing the constructor.
            try:
                session.feedback.merge_state(snapshot.feedback)
                feedback_operators = len(
                    snapshot.feedback.get("operators", {}))
                if snapshot.origin:
                    self.ancestors.add(snapshot.origin)
                self.ancestors.update(snapshot.ancestors)
            except PersistError:
                pass
        with self._lock:
            self._stats.update(snapshot.table_stats)
            if session.plan_cache is not None:
                self._plans.extend(snapshot.plans)
        # Subscribe *before* the initial install pass (and after the plan
        # cache's invalidation hook, so a registration first invalidates,
        # then installs): a registration landing between the pass and a
        # later subscription would otherwise leave its plans pending
        # forever. catalog.subscribe is idempotent.
        session.catalog.subscribe(self._on_catalog_change)
        for name in session.catalog.table_names:
            self._augment_stats(name)
        installed, dropped = self._install_plans()
        with self._lock:
            pending = len(self._plans)
        return {"plans_installed": installed, "plans_pending": pending,
                "plans_dropped": dropped,
                "feedback_operators": feedback_operators,
                "tables_with_stats": len(snapshot.table_stats)}

    def _on_catalog_change(self, kind: str, name: str) -> None:
        if kind == "table":
            self._augment_stats(name)
        self._install_plans()

    def _augment_stats(self, name: str) -> None:
        """Apply a snapshot's statistics to a freshly registered table.

        Only fills fields live collection left unknown, and only when the
        table's content digest still matches the snapshot's — statistics
        from a different schema must never leak in. Applied (or
        discarded) once per table.
        """
        catalog = self.session.catalog
        with self._lock:
            payload = self._stats.get(name)
        if payload is None or not catalog.has_table(name):
            return
        if table_digest(catalog.table(name)) == payload.get("digest"):
            try:
                stats = TableStats.from_dict(payload["stats"])
            except (KeyError, TypeError, ValueError):
                stats = None
            if stats is not None:
                catalog.augment_stats(name, stats)
            try:
                partition_stats = [TableStats.from_dict(part) for part
                                   in payload.get("partitions") or []]
            except (KeyError, TypeError, ValueError):
                partition_stats = []
            if partition_stats:
                # Matching digest means matching content, and
                # partitioning is a pure function of content — the
                # layout check inside is just belt and braces.
                catalog.augment_partition_stats(name, partition_stats)
        with self._lock:
            self._stats.pop(name, None)

    def _install_plans(self) -> Tuple[int, int]:
        """Try installing pending snapshot plans; ``(installed, dropped)``.

        Serialized by ``_install_lock`` so a concurrent registration
        cannot observe an empty pending list mid-install and skip entries
        that just became ready. Only lock-free catalog reads happen under
        the lock (no catalog-lock inversion with the change listener).
        """
        with self._install_lock:
            with self._lock:
                pending = self._plans
                self._plans = []
            if not pending:
                return 0, 0
            installed, still_pending, dropped = install_plans(
                self.session.plan_cache, self.session.catalog, pending)
            with self._lock:
                self._plans = still_pending + self._plans
        return installed, dropped

    def maybe_checkpoint(self) -> None:
        """Save a snapshot when K re-optimizations passed since the last.

        The session calls this when a cached plan converges — the cache
        then holds the *replacement* plan, not the just-dropped stale one.
        """
        store = self.store
        if store is None:
            return
        reoptimizations = self.session.plan_cache.stats.reoptimizations
        with self._claim_lock:
            previous = self.checkpointed
            if reoptimizations - previous < self.checkpoint_every:
                return
            self.checkpointed = reoptimizations
        try:
            store.save(self.session)
        except (OSError, RavenError):
            # Checkpoints are best-effort: a full disk, or a concurrent
            # drop_table racing build_snapshot's catalog reads, must not
            # fail the serving call that crossed the threshold.
            # Un-claim the counter so a later crossing retries.
            with self._claim_lock:
                if self.checkpointed == reoptimizations:
                    self.checkpointed = previous
