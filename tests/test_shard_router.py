"""Shard-key routing, per-origin snapshots, fan-out serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro import RavenSession, ShardRouter, Snapshot, Table
from repro.errors import RavenError
from repro.serving import shard_origin


def make_table(seed, n=8_000) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        id=np.arange(n),
        bucket=np.repeat(np.arange(4), n // 4).astype(np.int64),
        x=rng.normal(size=n),
    )


def make_router(keys=("us", "eu"), dop=2) -> ShardRouter:
    def factory(key):
        session = RavenSession(dop=dop)
        session.register_table(
            "events", make_table(sum(map(ord, str(key)))),
            primary_key=["id"], partition_column="bucket")
        return session
    return ShardRouter.build(keys, factory)


QUERY = "SELECT e.id FROM events AS e WHERE e.bucket = 1"


class TestRouting:
    def test_exact_keys_route_to_their_shard(self):
        router = make_router()
        assert router.route("us") == "us"
        assert router.route("eu") == "eu"
        assert router.session("us") is router.shards["us"]

    def test_unknown_keys_hash_deterministically(self):
        router = make_router()
        owner = router.route("apac")
        assert owner in ("us", "eu")
        assert all(router.route("apac") == owner for _ in range(10))
        # A fresh router over the same keys agrees (no process salt).
        assert make_router().route("apac") == owner

    def test_empty_router_rejected(self):
        with pytest.raises(RavenError):
            ShardRouter({})


class TestServe:
    def test_results_keep_submission_order(self):
        router = make_router()
        items = [("us", QUERY), ("eu", QUERY), ("us", QUERY)]
        tables = router.serve(items)
        assert len(tables) == 3
        for (key, _), table in zip(items, tables):
            expected = router.session(key).sql(QUERY)
            assert np.array_equal(table.array("id"), expected.array("id"))

    def test_sql_routes_single_queries(self):
        router = make_router()
        out = router.sql("eu", QUERY)
        assert out.num_rows == 2_000


class TestPerOriginSnapshots:
    def test_sessions_carry_shard_origins(self):
        router = make_router()
        assert router.shards["us"].warm.origin == shard_origin("us")
        assert router.shards["eu"].warm.origin == "shard-eu"

    def test_save_load_roundtrip_by_origin(self, tmp_path):
        router = make_router()
        router.sql("us", QUERY)
        router.sql("eu", QUERY)
        paths = router.save_snapshots(tmp_path)
        assert sorted(p.name for p in paths) == \
            ["shard-eu.json", "shard-us.json"]
        for path in paths:
            snapshot = Snapshot.load(path)
            assert snapshot.origin == path.stem
            # Partitioned zone maps ride the snapshot (codec extension).
            assert len(snapshot.table_stats["events"]["partitions"]) == 4
        fresh = make_router()
        summaries = fresh.load_snapshots(tmp_path)
        assert set(summaries) == {"us", "eu"}
        assert all(s["plans_installed"] == 1 for s in summaries.values())

    def test_missing_snapshot_starts_cold(self, tmp_path):
        router = make_router()
        router.save_snapshots(tmp_path)
        (tmp_path / "shard-eu.json").unlink()
        grown = make_router(keys=("us", "eu", "jp"))
        summaries = grown.load_snapshots(tmp_path)
        assert set(summaries) == {"us"}  # eu deleted, jp never saved
