"""Persistence & warm start: durable plans, mergeable feedback, stats.

A :class:`~repro.core.session.RavenSession` used to start cold: the
PlanCache, the FeedbackStore's learned selectivities/costs and the
catalog statistics all died with the process, so every restarted serving
worker re-paid optimization and re-learned what the fleet already knew.
This package makes the warm state a durable, shareable asset:

* :mod:`~repro.persist.plan_codec` — schema-versioned plan ⇄ dict round
  trip covering the whole logical algebra (every operator and expression
  node type, including ``MultiJoin`` and learned annotations);
* :mod:`~repro.persist.snapshot` — :class:`Snapshot` bundles plan-cache
  entries (content-digest validated against the live catalog on load),
  the FeedbackStore's exported state, and per-table statistics;
* :mod:`~repro.persist.store` — :class:`SnapshotStore`, a rotating
  checkpoint directory serving workers save into and new workers
  warm-start from (``load_merged`` unions the fleet's snapshots);
* :mod:`~repro.persist.warm` — :class:`WarmState`, the per-session
  persistence state (``session.warm``): snapshot lineage, plans and
  statistics pending registration, and the auto-checkpoint claim.
  Snapshot export, the shard router and the store read and set it
  there, never through session internals.

Entry points on the session::

    session.save_snapshot("warm.json")
    fresh = RavenSession(warm_start="warm.json")   # or a Snapshot
    store = SnapshotStore("checkpoints/")
    store.attach(session, every_reoptimizations=8)
"""

from repro.persist.plan_codec import (
    PLAN_FORMAT,
    expression_from_dict,
    expression_to_dict,
    plan_from_dict,
    plan_to_dict,
)
from repro.persist.snapshot import (
    SNAPSHOT_FORMAT,
    Snapshot,
    build_snapshot,
    model_digest,
    table_digest,
)
from repro.persist.store import SnapshotStore

__all__ = [
    "PLAN_FORMAT", "SNAPSHOT_FORMAT", "Snapshot", "SnapshotStore",
    "build_snapshot", "expression_from_dict", "expression_to_dict",
    "model_digest", "plan_from_dict", "plan_to_dict", "table_digest",
]
