"""The Telemetry handle and its carriage across dataset rebuilds."""

import pytest

from repro.errors import ObsError
from repro.obs import Telemetry


class TestConstruction:
    def test_needs_at_least_one_half(self):
        with pytest.raises(ObsError):
            Telemetry(trace=False, metrics=False)

    def test_unknown_exporter_fails_fast(self):
        with pytest.raises(Exception):
            Telemetry(exporter="nope")

    def test_halves_are_optional(self):
        t = Telemetry(trace=True, metrics=False)
        assert t.tracer is not None and t.metrics is None
        m = Telemetry(trace=False, metrics=True)
        assert m.tracer is None and m.metrics is not None
        assert t.active and m.active

    def test_describe_gates_halves(self):
        t = Telemetry(trace=True, metrics=False)
        assert set(t.describe()) == {"trace"}
        m = Telemetry(trace=False, metrics=True, exporter="jsonl")
        assert set(m.describe()) == {"metrics", "exporter"}


class TestFacade:
    def test_attach_detach(self, make_dataset):
        ds = make_dataset()
        assert ds.telemetry is None
        ds = ds.with_telemetry()
        assert ds.telemetry is not None
        ds = ds.with_telemetry(trace=False, metrics=False)
        assert ds.telemetry is None

    def test_meta_obs_gated(self, make_dataset):
        plain = make_dataset().random_beams(axis=1, n=2).run()
        assert "obs" not in plain.meta
        traced = (
            make_dataset().with_telemetry().random_beams(axis=1, n=2).run()
        )
        assert traced.meta["obs"]["trace"]["n_queries"] == 2

    def test_describe_carries_spec(self, make_dataset):
        ds = make_dataset().with_telemetry(exporter="chrome")
        assert ds.describe()["obs"] == {
            "trace": True, "metrics": True, "exporter": "chrome",
        }
        ds = ds.with_telemetry(trace=False, metrics=False)
        assert "obs" not in ds.describe()

    def test_with_shards_derives_a_fresh_handle(self, make_dataset):
        ds = make_dataset().with_telemetry()
        tele = ds.telemetry
        ds.random_beams(axis=1, n=1).run()
        sharded = ds.with_shards(2)
        # the derived dataset records into a fresh handle of the same spec
        assert sharded.telemetry is not tele
        assert sharded.describe()["obs"] == ds.describe()["obs"]
        sharded.random_beams(axis=1, n=1).run()
        assert sharded.telemetry.tracer.n_queries == 1
        # the receiver's handle still holds its own recording
        assert ds.telemetry is tele
        assert tele.tracer.n_queries == 1

    def test_with_replication_derives_a_fresh_handle(self, make_dataset):
        ds = make_dataset().with_telemetry().with_shards(2)
        tele = ds.telemetry
        ds.random_beams(axis=1, n=1).run()
        replicated = ds.with_replication(2)
        assert replicated.telemetry is not tele
        assert replicated.describe()["obs"] == ds.describe()["obs"]
        assert replicated.telemetry.tracer.n_queries == 0
        assert ds.telemetry is tele
        assert tele.tracer.n_queries == 1

    def test_with_layout_clone_gets_fresh_telemetry(self, make_dataset):
        ds = make_dataset().with_telemetry(exporter="jsonl")
        ds.random_beams(axis=1, n=1).run()
        clone = ds.with_layout("zorder")
        assert clone.telemetry is not None
        assert clone.telemetry is not ds.telemetry
        assert clone.telemetry.exporter == "jsonl"
        assert clone.telemetry.tracer.n_queries == 0

    def test_traffic_meta_carries_obs(self, make_dataset):
        ds = make_dataset().with_telemetry()
        report = (
            ds.traffic().clients(2, queries=3).run()
        )
        obs = report.meta["obs"]
        assert obs["trace"]["n_queries"] == 6
        assert obs["metrics"]["counters"]["queries"] == 6


class TestIngestSpans:
    def test_flush_spans_recorded(self, make_dataset):
        ds = make_dataset(layout="zorder").with_telemetry()
        ds.ingest(stream="uniform", n_points=128, flush_points=64).run()
        cats = ds.telemetry.tracer.phase_ms()
        assert "flush" in cats and cats["flush"] > 0

    def test_reorg_span_recorded(self, make_dataset):
        # one point per cell forces overflow chains, so the reorganise
        # pass has real folding work to record
        ds = make_dataset(layout="zorder", shape=(16, 8, 8), seed=7)
        ds = ds.with_telemetry()
        report = ds.ingest(
            stream="clustered", n_points=256, flush_points=64,
            loader_opts={"points_per_cell": 1}, reorganize=True,
        ).run()
        assert report.reorg is not None
        reorgs = [
            r for r in ds.telemetry.tracer.roots if r.cat == "reorg"
        ]
        assert len(reorgs) == 1
        span = reorgs[0]
        assert span.dur_ms == pytest.approx(report.reorg["reorg_ms"])
        assert span.attrs["pages_freed"] == report.reorg["pages_freed"]
