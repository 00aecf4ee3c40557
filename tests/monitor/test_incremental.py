"""Reports cost O(1) in history: structural checks, no wall clock.

``Telemetry.describe()`` reads running totals instead of re-walking
spans, and ``Monitor.describe()`` re-renders only the windows touched
since the previous describe (plus the windows whose alerts read them).
These tests count the work directly: ``Span.walk`` calls, rendered
rows and per-window rule evaluations.  The aliasing tests pin that
every payload is a fresh container, so mutating one report's ``meta``
never reaches the caches or a later report.
"""

import json
from collections import Counter

import pytest

from repro.monitor import Monitor, TimeSeries
from repro.monitor.slo import (
    AlertEvent,
    BurnRateRule,
    DegradedCapacityRule,
    LatencyThresholdRule,
    QueueSaturationRule,
)
from repro.obs import Span
from repro.traffic import PoissonArrivals

RULES = {
    "latency_threshold": {"threshold_ms": 20.0},
    "burn_rate": {"objective_ms": 15.0, "windows": 3},
    "queue_saturation": {"utilization": 0.5},
    "degraded_capacity": None,
}


def stormed(make_dataset):
    """A monitored 2-shard x k=2 stack after a kill-and-revive storm."""
    ds = (
        make_dataset()
        .with_shards(2).with_replication(2).with_cache(256)
        .with_monitor(window_ms=25.0, rules=RULES)
    )
    (
        ds.traffic()
        .clients(3, queries=8, arrival=PoissonArrivals(rate_qps=20.0))
        .kill(40.0, 0, revive_at_ms=160.0)
        .run()
    )
    return ds


@pytest.fixture()
def counted(monkeypatch):
    """Count rendered rows, per-rule window evaluations, touched
    windows and span walks."""
    calls = Counter()
    evaluated: dict = {}
    touched: set = set()

    def wrap(cls, name, record):
        original = getattr(cls, name)

        def counting(self, *args):
            record(self, *args)
            return original(self, *args)

        monkeypatch.setattr(cls, name, counting)

    wrap(TimeSeries, "_render",
         lambda self, b: calls.update(["render"]))
    wrap(TimeSeries, "_window", lambda self, b: touched.add(b))
    wrap(Span, "walk", lambda self: calls.update(["walk"]))
    for cls in (BurnRateRule, DegradedCapacityRule, LatencyThresholdRule,
                QueueSaturationRule):
        wrap(cls, "window_alerts",
             lambda self, series, b: evaluated.setdefault(
                 self.name, set()).add(b))

    def reset():
        calls.clear()
        evaluated.clear()
        touched.clear()

    return calls, evaluated, touched, reset


class TestNoRewalk:
    def test_telemetry_describe_walks_no_span(self, make_dataset,
                                              counted):
        ds = stormed(make_dataset)
        calls, _, _, reset = counted
        reset()
        out = ds.telemetry.describe()
        assert calls["walk"] == 0
        assert out["trace"]["n_spans"] > out["trace"]["n_queries"] > 0

    def test_monitor_describe_walks_no_span(self, make_dataset, counted):
        ds = stormed(make_dataset)
        calls, _, _, reset = counted
        reset()
        ds.monitor.describe()
        assert calls["walk"] == 0


class TestTouchedOnly:
    def test_second_describe_renders_nothing(self, make_dataset, counted):
        ds = stormed(make_dataset)
        calls, evaluated, _, reset = counted
        first = ds.monitor.describe()
        reset()
        second = ds.monitor.describe()
        assert calls["render"] == 0
        assert evaluated == {}
        assert second == first

    def test_one_shot_renders_touched_windows_and_lookback(
            self, make_dataset, counted):
        ds = stormed(make_dataset)
        mon = ds.monitor
        mon.describe()
        calls, evaluated, touched, reset = counted
        reset()
        ds.random_beams(axis=1, n=2).run()
        # the one-shot lands on windows the storm already filled
        n = mon.series.n_windows
        assert touched and max(touched) < n
        assert calls["render"] == len(touched)
        reach = {b + j for b in touched for j in range(3)}
        assert evaluated["burn_rate"] == {b for b in reach if b < n}
        assert evaluated["latency_threshold"] == touched
        assert evaluated["queue_saturation"] == touched
        assert "degraded_capacity" not in evaluated
        # describing again after the report did is free
        reset()
        mon.describe()
        assert calls["render"] == 0 and evaluated == {}

    def test_disk_event_invalidates_capacity_from_its_window(
            self, make_dataset, counted):
        ds = stormed(make_dataset)
        mon = ds.monitor
        before = mon.describe()
        calls, evaluated, touched, reset = counted
        reset()
        n = mon.series.n_windows
        # after the storm's revive at 160 ms: window 12 of 25 ms
        mon.record_disk_event(300.0, "kill", 1, 1, 2)
        after = mon.describe()
        assert touched == {12}
        assert calls["render"] == 1
        # one window earlier too, in case t / window_ms rounded up
        assert evaluated["degraded_capacity"] == set(range(11, n))
        assert "degraded_capacity" not in {
            e["rule"] for e in before["alerts"] if e["window"] >= 12}
        caps = [r["capacity"] for r in after["windows"]]
        assert caps[12:] == [0.5] * (n - 12)
        assert after["windows"][:12] == before["windows"][:12]
        assert {e["window"] for e in after["alerts"]
                if e["rule"] == "degraded_capacity"} >= set(range(12, n))


class TestFreshPayloads:
    def test_mutating_a_report_changes_nothing_later(self, make_dataset):
        def run(mutate):
            ds = stormed(make_dataset)
            first = ds.random_beams(axis=1, n=2).run()
            if mutate:
                mon = first.meta["monitor"]
                mon["windows"][0]["util"]["0"] = 99.0
                mon["windows"][0]["util"].clear()
                mon["windows"][0]["queries"] = -1
                mon["alerts"][0]["value"] = -1.0
                mon["alerts"][0]["detail"] = "mutated"
                mon["summary"]["latency_ms"].clear()
                first.meta["obs"]["trace"]["phase_ms"].clear()
            second = ds.random_beams(axis=2, n=2).run()
            return second.to_json(), ds

        clean, _ = run(False)
        mutated, ds = run(True)
        assert mutated == clean
        assert "mutated" not in json.dumps(ds.monitor.describe())

    def test_describe_returns_fresh_containers(self, make_dataset):
        ds = stormed(make_dataset)
        a, b = ds.monitor.describe(), ds.monitor.describe()
        assert a == b
        assert a["windows"][0] is not b["windows"][0]
        assert a["windows"][0]["util"] is not b["windows"][0]["util"]
        assert a["windows"][0]["queue"] is not b["windows"][0]["queue"]
        assert a["alerts"][0] is not b["alerts"][0]
        obs = ds.telemetry.describe()
        assert obs["trace"]["phase_ms"] is not \
            ds.telemetry.describe()["trace"]["phase_ms"]


class TestRunningTotals:
    def test_tracer_totals_match_a_full_walk(self, make_dataset):
        ds = stormed(make_dataset)
        ds.random_beams(axis=0, n=3).run()
        tracer = ds.telemetry.tracer
        totals: dict = {}
        spans = 0
        for root in tracer.roots:
            for span in root.walk():
                spans += 1
                totals[span.cat] = totals.get(span.cat, 0.0) + span.dur_ms
        assert tracer.n_spans == spans
        # same summation order: bit-identical, not approximately equal
        assert tracer.phase_ms() == dict(sorted(totals.items()))
        ds.telemetry.reset()
        assert tracer.n_spans == 0 and tracer.phase_ms() == {}

    def test_merged_latency_matches_a_window_merge(self, make_dataset):
        ds = stormed(make_dataset)
        series = ds.monitor.series
        merged = series.merged_latency()
        by_window = merged.__class__(series.buckets)
        for b in sorted(series._windows):
            by_window = by_window.merge(series._windows[b].latency)
        assert merged.counts == by_window.counts
        assert merged.overflow == by_window.overflow
        assert (merged.count, merged.min, merged.max) == \
            (by_window.count, by_window.min, by_window.max)
        assert merged.percentiles() == by_window.percentiles()
        assert merged is not series.merged_latency()


class TestDuckTypedRule:
    def test_evaluate_only_rule_runs_in_full_each_describe(self):
        class Slow:
            """Alert on every window with a query; count evaluations."""

            name = "slow"
            calls = 0

            def evaluate(self, series):
                Slow.calls += 1
                return [
                    AlertEvent((b + 1) * series.window_ms, self.name,
                               "warn", b, 1.0, 0.0, "slow")
                    for b in sorted(series._windows)
                ]

            def describe(self):
                return {"rule": self.name, "params": {}}

        mon = Monitor(window_ms=25.0, rules=["latency_threshold", Slow()])
        mon.ingest(Span("q", "query", 0.0, 30.0), advance=True)
        first = mon.describe()
        mon.ingest(Span("q", "query", 0.0, 30.0), advance=True)
        second = mon.describe()
        assert Slow.calls == 2
        assert [a["window"] for a in first["alerts"]] == [0, 1]
        assert [a["window"] for a in second["alerts"]] == [0, 1, 2]
