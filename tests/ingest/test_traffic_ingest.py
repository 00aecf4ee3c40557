"""Mixed read/write storms: ingest batches on the traffic event heap."""

import pytest

from repro.api import Dataset
from repro.errors import QueryError

SHAPE = (24, 12, 12)


def make(small_model, *, seed=42, shards=4, k=2, layout="multimap"):
    ds = Dataset.create(SHAPE, layout=layout, drive=small_model,
                        seed=seed).with_shards(shards)
    if k > 1:
        ds = ds.with_replication(k)
    return ds


class TestMixedStorm:
    def test_healthy_storm_completes_reads_and_writes(self, small_model):
        ds = make(small_model, shards=2, k=1)
        rep = (
            ds.traffic()
            .clients(2, queries=5)
            .ingest(stream="clustered", n_points=384, batch_points=128,
                    flush_points=128)
            .run()
        )
        stats = rep.meta["ingest"]["stats"]
        assert stats["streamed_points"] == 384
        assert stats["buffered_points"] == 0
        assert stats["flushed_points"] == 384
        per_client = {}
        for t in rep.traces:
            per_client.setdefault(t.client, []).append(t)
        assert len(per_client["c0"]) == len(per_client["c1"]) == 5
        assert len(per_client["ingest0"]) == 3  # 384 / 128 batches
        assert all(
            t.label.startswith("ingest[")
            for t in per_client["ingest0"]
        )

    def test_storm_with_mid_run_kill_loses_nothing(self, small_model):
        """The acceptance storm: 4 shards, k=2, one disk killed mid-run
        — every read query and every ingest batch completes, the dead
        copy's write subs are dropped (survivors hold the batch)."""
        ds = make(small_model)
        rep = (
            ds.traffic()
            .clients(2, queries=6)
            .ingest(stream="clustered", n_points=768, batch_points=128,
                    flush_points=256)
            .kill(5.0, 1)
            .run()
        )
        fails = rep.meta["failures"]
        assert fails["dropped_write_subs"] >= 1
        stats = rep.meta["ingest"]["stats"]
        assert stats["streamed_points"] == 768
        assert stats["buffered_points"] == 0
        per_client = {}
        for t in rep.traces:
            per_client.setdefault(t.client, 0)
            per_client[t.client] += 1
        assert per_client == {"c0": 6, "c1": 6, "ingest0": 6}

    def test_acked_batches_live_on_survivors(self, small_model):
        """After the kill, every chunk still has a live copy holding
        the acknowledged points — nothing needs the dead disk."""
        ds = make(small_model)
        (
            ds.traffic()
            .clients(1, queries=4)
            .ingest(stream="clustered", n_points=512, batch_points=128,
                    flush_points=128)
            .kill(5.0, 1)
            .run()
        )
        rm = ds.storage.replica_map
        failed = ds.storage.failed
        assert failed == {1}
        for ci in range(len(ds.storage.shard_map.chunks)):
            assert rm.live_copies(ci, failed)

    def test_unreplicated_write_loss_is_loud(self, small_model):
        """k=1: a disk dying with a flush in flight would lose an
        acknowledged batch — the engine must refuse, not limp on."""
        ds = make(small_model, shards=2, k=1)
        storm = (
            ds.traffic()
            .ingest(stream="clustered", n_points=768, batch_points=128,
                    flush_points=128)
            .kill(1.0, 1)
        )
        with pytest.raises(QueryError, match="acknowledged ingest batch"):
            storm.run()


class TestMetaGating:
    def test_no_ingest_client_no_ingest_meta(self, small_model):
        ds = make(small_model, shards=2, k=1)
        rep = ds.traffic().clients(1, queries=3).run()
        assert "ingest" not in rep.meta
        assert "failures" not in rep.meta

    def test_read_only_failures_have_no_write_counter(self, small_model):
        ds = make(small_model, shards=2, k=2)
        rep = (
            ds.traffic().clients(2, queries=4).kill(5.0, 1).run()
        )
        assert "dropped_write_subs" not in rep.meta["failures"]

    def test_ingest_meta_describes_the_pipeline(self, small_model):
        ds = make(small_model, shards=2, k=1)
        rep = (
            ds.traffic()
            .clients(1, queries=3)
            .ingest(stream="uniform", loader="fixed", n_points=256,
                    batch_points=128, flush_points=128)
            .run()
        )
        out = rep.meta["ingest"]
        assert out["loader"] == "fixed"
        assert out["stream"]["stream"] == "uniform"
        assert out["flush_points"] == 128

    def test_named_ingest_client_and_describe(self, small_model):
        ds = make(small_model, shards=2, k=1)
        rep = (
            ds.traffic()
            .clients(1, queries=3)
            .ingest(name="writer", n_points=128, flush_points=64)
            .run()
        )
        clients = {c["name"]: c for c in rep.meta["clients"]}
        assert clients["writer"]["role"] == "ingest"
        assert any(t.client == "writer" for t in rep.traces)


class TestSpecLayering:
    def test_with_ingest_spec_feeds_the_storm(self, small_model):
        ds = make(small_model, shards=2, k=1)
        ds = ds.with_ingest(stream="clustered", n_points=256,
                            batch_points=128, flush_points=128)
        rep = ds.traffic().clients(1, queries=3).ingest().run()
        assert rep.meta["ingest"]["stream"]["stream"] == "clustered"
        assert rep.meta["ingest"]["stats"]["streamed_points"] == 256
