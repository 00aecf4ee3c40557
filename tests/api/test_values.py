"""Datasets are values: every ``with_*`` returns a new dataset, the
receiver never changes, and the stack is built lazily, at most once."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.dataset
import repro.replica.executor
import repro.shard.executor
from repro.api import Dataset
from repro.errors import DatasetError, ReproError

SHAPE = (16, 8, 8)
DRIVE = "minidrive"

#: (method, args, kwargs) steps for random chains, including calls that
#: are invalid on some specs (replicating unsharded, k above the disks)
STEPS = [
    ("with_layout", ("zorder",), {}),
    ("with_layout", ("multimap",), {}),
    ("with_shards", (2,), {}),
    ("with_shards", (3,), {"strategy": "round_robin"}),
    ("with_shards", (1,), {}),
    ("with_replication", (2,), {}),
    ("with_replication", (1,), {"read_policy": "round_robin"}),
    ("with_cache", (256,), {"policy": "slru", "prefetch": "track"}),
    ("with_cache", (128,), {"scope": "per_shard"}),
    ("with_cache", (0,), {}),
    ("with_telemetry", (), {}),
    ("with_telemetry", (), {"monitor": {"window_ms": 20.0}}),
    ("with_telemetry", (), {"trace": False, "metrics": False}),
    ("with_ingest", (), {"stream": "clustered", "n_points": 64}),
    ("configure_store", (), {"points_per_cell": 4}),
]


def state(ds):
    """What a call must leave untouched on its receiver."""
    return (json.dumps(ds.describe(), sort_keys=True), ds.storage,
            ds.cache, ds.telemetry)


class TestReceiverUntouched:
    @given(st.lists(st.sampled_from(STEPS), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_random_chains_leave_every_receiver_unchanged(self, steps):
        ds = Dataset.create(SHAPE, layout="naive", drive=DRIVE, seed=3)
        for name, args, kwargs in steps:
            desc, storage, cache, tele = state(ds)
            try:
                derived = getattr(ds, name)(*args, **kwargs)
            except ReproError:
                derived = None
            assert json.dumps(ds.describe(), sort_keys=True) == desc
            assert ds.storage is storage
            assert ds.cache is cache
            assert ds.telemetry is tele
            if derived is not None:
                assert derived is not ds
                ds = derived

    @pytest.mark.parametrize("call", [
        lambda ds: ds.with_cache(64, service_ms_per_block=-1),
        lambda ds: ds.with_cache(64, policy="nope"),
        lambda ds: ds.with_cache(64, scope="nope"),
        lambda ds: ds.with_shards(2, strategy="typo"),
        lambda ds: ds.with_shards(0),
        lambda ds: ds.with_replication(2),
        lambda ds: ds.with_shards(2).with_replication(3),
        lambda ds: ds.with_shards(2).with_replication(2, placement="nope"),
        lambda ds: ds.with_shards(3).with_replication(3).with_shards(2),
        lambda ds: ds.with_telemetry(exporter="nope"),
        lambda ds: ds.with_monitor(window_ms=0.0),
        lambda ds: ds.with_ingest(loader="nope"),
        lambda ds: ds.with_layout("nope"),
    ])
    def test_bad_arguments_raise_at_the_call(self, call):
        ds = Dataset.create(SHAPE, layout="multimap", drive=DRIVE)
        with pytest.raises(ReproError):
            call(ds)
        assert ds.describe() == Dataset.create(
            SHAPE, layout="multimap", drive=DRIVE
        ).describe()

    def test_hand_wired_pool_refuses_to_be_dropped(self):
        from repro.cache import BufferPool

        ds = Dataset.create(SHAPE, layout="multimap", drive=DRIVE)
        ds.storage.cache = BufferPool(64)
        with pytest.raises(DatasetError, match="hand-wired"):
            ds.with_telemetry()
        # replacing the pool through the spec is always allowed
        assert ds.with_cache(128).cache.capacity == 128


class TestOrderIndependence:
    @pytest.mark.parametrize("scope", ["shared", "per_shard"])
    def test_cache_and_shards_commute(self, scope):
        """Both orders, derived from one base dataset, describe the same
        stack and replay byte-identical same-seed reports."""
        base = Dataset.create(SHAPE, layout="multimap", drive=DRIVE,
                              seed=13)
        cache = dict(capacity_blocks=512, policy="slru", prefetch="track",
                     scope=scope)
        a = base.with_cache(**cache).with_shards(2)
        b = base.with_shards(2).with_cache(**cache)

        def run(ds):
            return (ds.query().random_beams(axis=1, n=3)
                    .random_beams(axis=2, n=3).range_selectivity(5.0)
                    .repeats(2).run().to_json())

        assert a.describe() == b.describe()
        assert run(a) == run(b)


class TestBuildOnce:
    def test_storm_chain_places_each_copy_once(self, monkeypatch):
        placed = []
        for mod in (repro.api.dataset, repro.shard.executor,
                    repro.replica.executor):
            def counting(*args, _build=mod.build_mapper, **kwargs):
                placed.append(args[3])  # the disk the mapper lands on
                return _build(*args, **kwargs)

            monkeypatch.setattr(mod, "build_mapper", counting)
        k = 2
        ds = (Dataset.create(SHAPE, layout="multimap", drive=DRIVE, seed=1)
              .with_shards(4).with_replication(k).with_cache(1024)
              .with_telemetry(monitor=True))
        assert placed == []  # nothing is built until first use
        ds.mapper
        n_chunks = ds.shard_map.n_chunks
        assert len(placed) == n_chunks * k
        ds.storage, ds.volume, ds.telemetry
        ds.random_beams(axis=1, n=2).run()
        assert len(placed) == n_chunks * k
