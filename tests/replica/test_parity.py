"""Parity: ``with_replication(1)`` is bit-identical to the sharded stack.

The acceptance bar of the replica subsystem: a single-copy replicated
dataset runs the full replica machinery (replica map, copy selection,
ReplicatedPrepared, the failover-capable traffic path) yet must produce
bit-identical results and JSON to the PR 4 sharded stack across the
executor, batch ``Report`` JSON, and traffic JSON — with and without an
active cache.  Every comparison is ``==`` on full JSON or dataclass
fields, no tolerances — the same bar the 1-shard and capacity-0 cache
parities hold.
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.query.workload import random_beam, random_range_cube
from repro.traffic import QueryMix

LAYOUTS = ["multimap", "naive", "zorder", "hilbert"]
SHAPE = (24, 12, 12)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestBatchParity:
    def test_report_json_identical(self, small_model, layout):
        sharded = Dataset.create(SHAPE, layout=layout, drive=small_model,
                                 seed=11).with_shards(2)
        r_sharded = sharded.query().random_beams(axis=1, n=5) \
                           .range_selectivity(5.0).run()
        replicated = Dataset.create(SHAPE, layout=layout,
                                    drive=small_model, seed=11) \
            .with_shards(2).with_replication(1)
        r_replicated = replicated.query().random_beams(axis=1, n=5) \
                                 .range_selectivity(5.0).run()
        assert r_sharded.to_json() == r_replicated.to_json()

    def test_executor_results_identical(self, small_model, layout):
        """Query-by-query QueryResult equality through the managers."""
        ds1 = Dataset.create(SHAPE, layout=layout,
                             drive=small_model).with_shards(3)
        ds2 = Dataset.create(SHAPE, layout=layout,
                             drive=small_model).with_shards(3) \
            .with_replication(1)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        for _ in range(3):
            q1 = random_beam(SHAPE, 1, rng1)
            q2 = random_beam(SHAPE, 1, rng2)
            assert ds1.storage.run_query(ds1.mapper, q1, rng=rng1) \
                == ds2.storage.run_query(ds2.mapper, q2, rng=rng2)
        for _ in range(2):
            q1 = random_range_cube(SHAPE, 8.0, rng1)
            q2 = random_range_cube(SHAPE, 8.0, rng2)
            assert ds1.storage.run_query(ds1.mapper, q1, rng=rng1) \
                == ds2.storage.run_query(ds2.mapper, q2, rng=rng2)


class TestReadPolicyParity:
    @pytest.mark.parametrize(
        "read_policy", ["primary", "round_robin", "least_loaded"]
    )
    def test_any_policy_with_one_copy_identical(self, small_model,
                                                read_policy):
        """One copy per chunk: every read policy must pick it."""
        sharded = Dataset.create(SHAPE, layout="multimap",
                                 drive=small_model, seed=3).with_shards(2)
        replicated = Dataset.create(
            SHAPE, layout="multimap", drive=small_model, seed=3,
        ).with_shards(2).with_replication(1, read_policy=read_policy)
        batch = sharded.query().random_beams(axis=2, n=4)
        assert batch.run().to_json() == \
            replicated.random_beams(axis=2, n=4).run().to_json()

    def test_locality_aligned_placement_also_identical(self, small_model):
        sharded = Dataset.create(SHAPE, layout="multimap",
                                 drive=small_model, seed=3).with_shards(2)
        replicated = Dataset.create(
            SHAPE, layout="multimap", drive=small_model, seed=3,
        ).with_shards(2).with_replication(
            1, placement="locality_aligned",
        )
        batch = sharded.query().random_beams(axis=2, n=4)
        assert batch.run().to_json() == \
            replicated.random_beams(axis=2, n=4).run().to_json()


class TestTrafficParity:
    @pytest.mark.parametrize("layout", ["multimap", "zorder"])
    def test_seeded_traffic_json_identical(self, small_model, layout):
        def run(ds):
            return (
                ds.traffic()
                .clients(3, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(8)
                .run()
            )

        sharded = Dataset.create(SHAPE, layout=layout, drive=small_model,
                                 seed=9).with_shards(2)
        replicated = Dataset.create(SHAPE, layout=layout,
                                    drive=small_model, seed=9) \
            .with_shards(2).with_replication(1)
        assert run(sharded).to_json() == run(replicated).to_json()

    def test_unsharded_vs_one_shard_one_copy(self, small_model):
        """The whole chain: plain == with_shards(1).with_replication(1)."""
        def run(ds):
            return (
                ds.traffic()
                .clients(1, mix=QueryMix.beams(1), queries=6)
                .slice_runs(None)
                .run()
            )

        plain = Dataset.create(SHAPE, layout="multimap",
                               drive=small_model, seed=13)
        replicated = Dataset.create(SHAPE, layout="multimap",
                                    drive=small_model, seed=13) \
            .with_shards(1).with_replication(1)
        assert run(plain).to_json() == run(replicated).to_json()


class TestCachedParity:
    def test_cached_one_copy_identical(self, small_model):
        """An active pool composes with k=1 parity bit-for-bit."""
        def build(replicate):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=21).with_shards(2)
            if replicate:
                ds = ds.with_replication(1)
            return ds.with_cache(2048, policy="slru", prefetch="track")

        r_shard = build(False).query().random_beams(axis=1, n=6) \
                              .repeats(2).run()
        r_repl = build(True).query().random_beams(axis=1, n=6) \
                            .repeats(2).run()
        assert r_shard.to_json() == r_repl.to_json()

    def test_cached_per_shard_scope_identical(self, small_model):
        def build(replicate):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=23).with_shards(2)
            if replicate:
                ds = ds.with_replication(1)
            return ds.with_cache(1024, scope="per_shard")

        r_shard = build(False).random_beams(axis=2, n=5).run()
        r_repl = build(True).random_beams(axis=2, n=5).run()
        assert r_shard.to_json() == r_repl.to_json()

    def test_cached_traffic_one_copy_identical(self, small_model):
        def run(replicate):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=27).with_shards(2)
            if replicate:
                ds = ds.with_replication(1)
            ds = ds.with_cache(2048, prefetch="track")
            return (
                ds.traffic()
                .clients(2, mix=QueryMix.beams(1, 2), queries=5)
                .slice_runs(8)
                .run()
            )

        assert run(False).to_json() == run(True).to_json()


class TestMetaGating:
    def test_one_copy_meta_has_no_replica_keys(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(2).with_replication(1)
        report = ds.random_beams(axis=1, n=2).run()
        assert "replicas" not in report.meta
        assert "replicas" not in ds.describe()
        assert ds.replication_k == 1 and ds.is_replicated
        assert ds.replica_map is not None

    def test_multi_copy_meta_present(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(3).with_replication(
            2, placement="locality_aligned", read_policy="round_robin",
        )
        report = ds.random_beams(axis=2, n=2).run()
        assert report.meta["replicas"]["k"] == 2
        assert report.meta["replicas"]["read_policy"] == "round_robin"
        assert ds.describe()["replicas"]["placement"] == \
            "locality_aligned"
        assert ds.replication_k == 2

    def test_unreplicated_dataset_properties(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        assert ds.replication_k == 1
        assert not ds.is_replicated
        assert ds.replica_map is None
