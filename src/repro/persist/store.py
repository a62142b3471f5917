"""SnapshotStore: a rotating directory of session snapshots.

Serving deployments checkpoint through this: N workers periodically
:meth:`SnapshotStore.save` their warm state into one shared directory,
and a newly spawned worker warm-starts from
:meth:`SnapshotStore.load_merged`.

Two fleet realities shape the layout:

* **Workers are separate processes.** File names embed the snapshot's
  *origin* (a per-session id stamped by ``build_snapshot``), so two
  workers can never race each other to the same sequence number and
  silently clobber a checkpoint; writes themselves are write-then-rename
  atomic, so readers only ever see complete files.
* **Checkpoints of one worker are cumulative.** Successive snapshots of
  the same session contain everything the previous ones did, so
  ``load_merged`` merges only the *newest* snapshot per origin —
  merging two checkpoints of one worker would double-count every
  observation and overweight its least-converged state. Across distinct
  origins the FeedbackStore merge is commutative, so the union is
  order-insensitive.

Rotation is per origin: each worker keeps its ``keep`` newest
checkpoints without evicting anyone else's.

Auto-checkpointing: :meth:`SnapshotStore.attach` hooks a session so that
every K adaptive re-optimizations — at the moment the *replacement* plan
is cached — a fresh snapshot is written. Checkpoints happen on the
serving thread that crossed the threshold; writing is one JSON dump, and
the interval K bounds how often it is paid.
"""

from __future__ import annotations

import hashlib
import re
import threading
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import PersistError
from repro.persist.snapshot import Snapshot, _plan_key, build_snapshot

DEFAULT_KEEP = 4
_SNAPSHOT_NAME = re.compile(
    r"^(?P<prefix>[^-]+)-(?P<origin>[0-9a-f]{4,32})-(?P<seq>\d{6})\.json$")


class SnapshotStore:
    """Origin-and-sequence-numbered snapshot files under one directory."""

    def __init__(self, directory: Union[str, Path], keep: int = DEFAULT_KEEP,
                 prefix: str = "snapshot", faults=None):
        if keep < 1:
            raise ValueError("snapshot store must keep >= 1 files")
        if not re.fullmatch(r"[^-/]+", prefix):
            raise ValueError("snapshot prefix must not contain '-' or '/'")
        self.directory = Path(directory)
        self.keep = keep
        self.prefix = prefix
        # Optional repro.resilience.FaultInjector for the snapshot.write
        # site (torn-write crash simulation in the chaos suite).
        self.faults = faults
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _scan(self) -> List[Tuple[str, int, Path]]:
        """All retained ``(origin, sequence, path)``, sequence-ordered."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(path.name)
            if match and match.group("prefix") == self.prefix:
                found.append((match.group("origin"),
                              int(match.group("seq")), path))
        return sorted(found, key=lambda item: (item[1], item[0]))

    def paths(self) -> List[Path]:
        """Retained snapshot files, oldest (lowest sequence) first."""
        return [path for _, _, path in self._scan()]

    def latest(self) -> Optional[Path]:
        """The most recently *written* snapshot file.

        Sequence numbers are per-origin counters (a decommissioned
        worker's seq 40 is not newer than a fresh worker's seq 1), so
        cross-origin recency goes by file modification time.
        """
        best = None
        for _, _, path in self._scan():
            try:
                key = (path.stat().st_mtime, path.name)
            except OSError:
                continue  # pruned by a concurrent save
            if best is None or key > best[0]:
                best = (key, path)
        return best[1] if best is not None else None

    def save(self, session_or_snapshot) -> Path:
        """Write the origin's next checkpoint and prune its old ones."""
        if isinstance(session_or_snapshot, Snapshot):
            snapshot = session_or_snapshot
        else:
            snapshot = build_snapshot(session_or_snapshot)
        # An origin-less snapshot (hand-built) gets a one-off identity:
        # it can never collide with, or shadow, another worker's files.
        # Origins that do not fit the filename grammar (hand-set, foreign
        # writer) are hashed into it — deterministically, so the same
        # foreign origin still dedups across its own checkpoints; written
        # files must always be visible to _scan() or rotation/merging
        # would silently ignore (and resequence over) them.
        origin = snapshot.origin or uuid.uuid4().hex[:12]
        if not re.fullmatch(r"[0-9a-f]{4,32}", origin):
            origin = hashlib.md5(origin.encode("utf-8")).hexdigest()[:12]
        with self._lock:
            entries = self._scan()
            sequence = max((seq for own, seq, _ in entries if own == origin),
                           default=0) + 1
            path = self.directory / \
                f"{self.prefix}-{origin}-{sequence:06d}.json"
            snapshot.save(path, faults=self.faults)
            mine = [(seq, stale) for own, seq, stale in self._scan()
                    if own == origin]
            for _, stale in sorted(mine)[:-self.keep]:
                stale.unlink(missing_ok=True)
        return path

    def load_latest(self) -> Optional[Snapshot]:
        path = self.latest()
        return Snapshot.load(path) if path is not None else None

    def load_merged(self) -> Optional[Snapshot]:
        """The union of every origin's newest snapshot (fleet warm start).

        Feedback states merge commutatively across origins; table
        statistics and plan entries keep the first copy seen per key
        (most recently written snapshots win; equal keys hold equal
        fixed-point state). Two exclusions keep the union honest:

        * a snapshot whose origin appears in another included snapshot's
          *ancestry* is skipped entirely — a warm-started worker already
          re-exports its ancestors' observations, and counting them
          twice would skew every call-weighted merge;
        * unreadable or malformed files — a checkpoint from a worker
          killed mid-write, hand-corrupted, or written by a different
          format version — contribute nothing (validated per file before
          anything merges): a warm start must degrade to "less warm",
          never to a crash or a partial, order-dependent union.

        The returned snapshot's ``ancestors`` is the full ancestry of
        everything included, so a session warm-started from it keeps the
        provenance chain intact across generations.
        """
        newest: Dict[str, Tuple[int, Path]] = {}
        for origin, sequence, path in self._scan():
            current = newest.get(origin)
            if current is None or sequence > current[0]:
                newest[origin] = (sequence, path)
        if not newest:
            return None
        from repro.adaptive.feedback import FeedbackStore

        # Load-and-validate phase: decode each candidate fully (plan keys
        # included) before merging anything, so a bad file is all-or-
        # nothing rather than a partial contribution.
        candidates = []  # (recency key, snapshot, [(plan key, payload)])
        for _, path in newest.values():
            try:
                snapshot = Snapshot.load(path)
                plan_pairs = [(_plan_key(payload), payload)
                              for payload in snapshot.plans]
            except (PersistError, KeyError, TypeError, AttributeError,
                    ValueError):
                continue
            try:
                stamp = path.stat().st_mtime
            except OSError:
                stamp = 0.0
            candidates.append(((stamp, path.name), snapshot, plan_pairs))

        covered = set()
        for _, snapshot, _ in candidates:
            covered.update(snapshot.ancestors)
        candidates = [item for item in candidates
                      if item[1].origin is None or item[1].origin not in covered]

        merged = Snapshot()
        feedback = FeedbackStore()
        have_feedback = False
        seen_keys = set()
        ancestry = set()
        for _, snapshot, plan_pairs in sorted(candidates,
                                              key=lambda item: item[0],
                                              reverse=True):
            if snapshot.feedback is not None:
                try:
                    # All-or-nothing (validated before folding): on
                    # failure this file contributes nothing at all.
                    feedback.merge_state(snapshot.feedback)
                    have_feedback = True
                except PersistError:
                    continue
            if snapshot.origin:
                ancestry.add(snapshot.origin)
            ancestry.update(snapshot.ancestors)
            for name, stats in snapshot.table_stats.items():
                merged.table_stats.setdefault(name, stats)
            for key, payload in plan_pairs:
                if key not in seen_keys:
                    seen_keys.add(key)
                    merged.plans.append(payload)
        if have_feedback:
            merged.feedback = feedback.export_state()
        merged.ancestors = sorted(ancestry)
        return merged

    # ------------------------------------------------------------------
    # Session auto-checkpointing
    # ------------------------------------------------------------------
    def attach(self, session, every_reoptimizations: int = 8) -> None:
        """Checkpoint ``session`` every K adaptive re-optimizations."""
        if every_reoptimizations < 1:
            raise ValueError("every_reoptimizations must be >= 1")
        warm = session.warm
        warm.checkpointed = (session.plan_cache.stats.reoptimizations
                             if session.plan_cache is not None else 0)
        warm.checkpoint_every = every_reoptimizations
        warm.store = self

    def detach(self, session) -> None:
        session.warm.store = None

    def __repr__(self) -> str:
        return (f"SnapshotStore({str(self.directory)!r}, "
                f"files={len(self.paths())}, keep={self.keep})")
