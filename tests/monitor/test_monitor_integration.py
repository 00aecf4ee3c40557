"""The monitor wired through the dataset façade and the engines.

Covers the façade surface (``with_telemetry(monitor=...)`` /
``with_monitor``), the gated ``meta["monitor"]`` block, determinism
(same seed + workload ⇒ byte-identical payloads), and the acceptance
storm: a kill-one-disk run fires a degraded-capacity alert and walks
healthy → degraded → recovering.
"""

import json

import pytest

from repro.errors import DatasetError, MonitorError, ObsError
from repro.monitor import Monitor
from repro.obs import Telemetry
from repro.traffic import PoissonArrivals

MONITOR_KEYS = {
    "window_ms", "n_windows", "windows", "summary", "rules",
    "alerts", "health", "events",
}


def storm(make_dataset, *, monitor=True, seed=42, rules=None):
    """One kill-and-revive storm on a replicated dataset."""
    ds = make_dataset(seed=seed).with_shards(2).with_replication(2)
    opts = {"window_ms": 50.0}
    if rules is not None:
        opts["rules"] = rules
    if monitor:
        ds = ds.with_monitor(**opts)
    report = (
        ds.traffic()
        .clients(2, queries=5, arrival=PoissonArrivals(rate_qps=10.0))
        .kill(60.0, 0, revive_at_ms=200.0)
        .run()
    )
    return ds, report


class TestFacade:
    def test_with_monitor_attaches(self, make_dataset):
        ds = make_dataset().with_monitor(window_ms=25.0)
        assert isinstance(ds.monitor, Monitor)
        assert ds.monitor.window_ms == 25.0
        assert ds.telemetry.monitor is ds.monitor
        # default trace + metrics ride along
        assert ds.telemetry.tracer is not None
        assert ds.telemetry.metrics is not None

    def test_with_telemetry_monitor_dict(self, make_dataset):
        ds = make_dataset().with_telemetry(monitor={"window_ms": 10.0})
        assert ds.monitor.window_ms == 10.0
        assert ds.describe()["obs"]["monitor"] == {"window_ms": 10.0}

    def test_with_telemetry_monitor_true(self, make_dataset):
        ds = make_dataset().with_telemetry(monitor=True)
        assert ds.monitor.window_ms == 50.0
        assert ds.describe()["obs"]["monitor"] is True

    def test_monitor_only_telemetry(self, make_dataset):
        ds = make_dataset().with_telemetry(
            trace=False, metrics=False, monitor=True
        )
        assert ds.telemetry.tracer is None
        assert ds.telemetry.metrics is None
        assert ds.monitor is not None

    def test_instance_rejected(self, make_dataset):
        with pytest.raises(DatasetError, match="options dict"):
            make_dataset().with_telemetry(monitor=Monitor())
        with pytest.raises(DatasetError, match="monitor must be"):
            make_dataset().with_monitor(monitor=Monitor())

    def test_with_monitor_false_removes_just_the_monitor(
            self, make_dataset):
        ds = make_dataset().with_monitor(window_ms=25.0)
        ds = ds.with_monitor(False)
        assert ds.monitor is None
        assert ds.telemetry is not None  # trace + metrics remain
        assert "monitor" not in ds.describe()["obs"]

    def test_with_monitor_false_on_monitor_only_detaches(
            self, make_dataset):
        ds = make_dataset().with_telemetry(
            trace=False, metrics=False, monitor=True
        )
        ds = ds.with_monitor(False)
        assert ds.telemetry is None
        assert "obs" not in ds.describe()

    def test_with_monitor_false_rejects_options(self, make_dataset):
        with pytest.raises(DatasetError, match="make no sense"):
            make_dataset().with_monitor(False, window_ms=10.0)

    def test_with_monitor_preserves_exporter_spec(self, make_dataset):
        ds = make_dataset().with_telemetry(exporter="jsonl")
        ds = ds.with_monitor(window_ms=25.0)
        assert ds.telemetry.exporter == "jsonl"
        assert ds.monitor.window_ms == 25.0

    def test_telemetry_requires_something(self):
        with pytest.raises(ObsError, match="at least one"):
            Telemetry(trace=False, metrics=False)

    def test_monitor_window_validation_surfaces(self, make_dataset):
        with pytest.raises(MonitorError, match="window_ms"):
            make_dataset().with_monitor(window_ms=0.0)

    def test_shard_and_replication_derive_a_fresh_monitor(
            self, make_dataset):
        ds = make_dataset().with_monitor(window_ms=25.0)
        mon = ds.monitor
        ds.random_beams(axis=1, n=2).run()
        derived = ds.with_shards(2).with_replication(2)
        # a fresh monitor of the same spec on the derived dataset
        assert derived.monitor is not mon
        assert derived.monitor.window_ms == 25.0
        assert derived.describe()["obs"] == ds.describe()["obs"]
        # the receiver's monitor still holds its own recording
        assert ds.monitor is mon
        assert mon.describe()["summary"]["queries"] == 2

    def test_with_layout_clone_reinstantiates(self, make_dataset):
        ds = make_dataset().with_monitor(window_ms=25.0)
        clone = ds.with_layout("zorder")
        assert clone.monitor is not None
        assert clone.monitor is not ds.monitor
        assert clone.monitor.window_ms == 25.0


class TestBatchMeta:
    def test_meta_monitor_schema(self, make_dataset):
        ds = make_dataset().with_monitor(window_ms=25.0)
        report = ds.random_beams(axis=1, n=4).run()
        mon = report.meta["monitor"]
        assert set(mon) == MONITOR_KEYS
        assert mon["window_ms"] == 25.0
        assert mon["summary"]["queries"] == 4
        assert sum(w["queries"] for w in mon["windows"]) == 4
        assert mon["health"] == {"state": "healthy", "transitions": []}
        assert [r["rule"] for r in mon["rules"]] == [
            "burn_rate", "degraded_capacity", "latency_threshold",
            "queue_saturation",
        ]

    def test_monitor_only_meta_skips_empty_obs(self, make_dataset):
        ds = make_dataset().with_telemetry(
            trace=False, metrics=False, monitor=True
        )
        report = ds.random_beams(axis=1, n=3).run()
        assert "obs" not in report.meta
        assert report.meta["monitor"]["summary"]["queries"] == 3

    def test_batch_payload_independent_of_tracing(self, make_dataset):
        """The monitor's own clock makes batch windows identical
        whether or not the tracer (whose clock batch roots ride) is
        attached."""
        def payload(**tele):
            ds = make_dataset().with_telemetry(monitor=True, **tele)
            ds.random_beams(axis=1, n=4).run()
            return json.dumps(ds.monitor.describe(), sort_keys=True)

        assert payload(trace=True, metrics=True) == payload(
            trace=False, metrics=False)

    def test_reset_clears_recordings(self, make_dataset):
        ds = make_dataset().with_monitor()
        ds.random_beams(axis=1, n=3).run()
        assert ds.monitor.series.n_windows > 0
        ds.telemetry.reset()
        assert ds.monitor.series.n_windows == 0
        assert ds.monitor.clock_ms == 0.0


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, make_dataset):
        payloads = []
        for _ in range(2):
            ds, report = storm(make_dataset)
            payloads.append(json.dumps(
                report.meta["monitor"], sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_different_seed_differs(self, make_dataset):
        a = json.dumps(storm(make_dataset, seed=42)[1].meta["monitor"],
                       sort_keys=True)
        b = json.dumps(storm(make_dataset, seed=7)[1].meta["monitor"],
                       sort_keys=True)
        assert a != b


class TestAcceptanceStorm:
    def test_kill_fires_degraded_capacity_and_walks_states(
            self, make_dataset):
        ds, report = storm(make_dataset,
                           rules={"degraded_capacity": None})
        mon = report.meta["monitor"]
        rules = {a["rule"] for a in mon["alerts"]}
        assert rules == {"degraded_capacity"}
        walk = [mon["health"]["transitions"][0]["from"]] + [
            t["to"] for t in mon["health"]["transitions"]]
        assert walk == ["healthy", "degraded", "recovering", "healthy"]
        assert [e["action"] for e in mon["events"]] == [
            "kill", "revive"]
        # the degraded stretch is exactly the sub-capacity windows
        degraded = [w["w"] for w in mon["windows"]
                    if w["capacity"] < 1.0]
        assert degraded == [a["window"] for a in mon["alerts"]]

    def test_default_rules_also_catch_the_kill(self, make_dataset):
        ds, report = storm(make_dataset)
        mon = report.meta["monitor"]
        rules = {a["rule"] for a in mon["alerts"]}
        assert "degraded_capacity" in rules
        transitions = [t["to"] for t in mon["health"]["transitions"]]
        assert transitions[0] == "degraded"
        assert "recovering" in transitions

    def test_windows_reconcile_with_report(self, make_dataset):
        ds, report = storm(make_dataset)
        mon = report.meta["monitor"]
        assert mon["summary"]["queries"] == 10
        assert sum(w["queries"] for w in mon["windows"]) == 10
        # the axis spans the makespan
        assert mon["n_windows"] == int(report.makespan_ms / 50.0) + 1
        # utilisation never exceeds 1 and capacity dips exactly while
        # a member disk is down
        for w in mon["windows"]:
            assert all(0.0 <= u <= 1.0 for u in w["util"].values())
            assert 0.0 <= w["cache_hit_ratio"] <= 1.0
