"""Zero-impact observer: attached telemetry never changes results.

Two pins:

* **bit-identity** — batch Report JSON, traffic JSON, and ingest JSON
  are byte-identical with and without an attached Telemetry (modulo the
  gated ``meta["obs"]`` key, which only ever *adds*);
* **reconciliation** — the span trees re-derive the aggregate numbers:
  root durations sum to the batch total, per-query service/flush spans
  match the traces' service accounting, and mechanical attribution
  inside each service span sums to its duration.
"""

import json

import pytest


def strip_obs(payload: str) -> dict:
    """Drop the two gated keys an attached Telemetry *adds* (the
    recordings and the dataset spec); everything else must match."""
    data = json.loads(payload)
    meta = data.get("meta", {})
    meta.pop("obs", None)
    meta.get("dataset", {}).pop("obs", None)
    return data


class TestBitIdentity:
    def test_batch_report_identical(self, make_dataset):
        plain = make_dataset().random_beams(axis=1, n=4).run()
        traced = (
            make_dataset().with_telemetry()
            .random_beams(axis=1, n=4).run()
        )
        assert strip_obs(traced.to_json()) == json.loads(plain.to_json())

    def test_traffic_json_identical(self, make_dataset):
        def storm(attach):
            ds = make_dataset()
            if attach:
                ds = ds.with_telemetry()
            return ds.traffic().clients(3, queries=4).run().to_json()

        assert strip_obs(storm(True)) == json.loads(storm(False))

    def test_traffic_with_failover_identical(self, make_dataset):
        def storm(attach):
            ds = make_dataset().with_shards(2).with_replication(2)
            if attach:
                ds = ds.with_telemetry()
            return (
                ds.traffic()
                .clients(2, queries=4)
                .kill(5.0, 0)
                .run()
                .to_json()
            )

        assert strip_obs(storm(True)) == json.loads(storm(False))

    def test_ingest_report_identical(self, make_dataset):
        def run(attach):
            ds = make_dataset(layout="zorder", shape=(16, 8, 8), seed=7)
            if attach:
                ds = ds.with_telemetry()
            return ds.ingest(
                stream="clustered", n_points=256, flush_points=64,
                loader_opts={"points_per_cell": 1}, reorganize=True,
            ).run().to_json()

        assert run(True) == run(False)

    def test_metrics_only_is_also_zero_impact(self, make_dataset):
        plain = make_dataset().random_beams(axis=2, n=3).run()
        traced = (
            make_dataset().with_telemetry(trace=False, metrics=True)
            .random_beams(axis=2, n=3).run()
        )
        assert strip_obs(traced.to_json()) == json.loads(plain.to_json())


class TestReconciliation:
    def test_batch_roots_sum_to_report_total(self, make_dataset):
        ds = make_dataset().with_cache(256).with_telemetry()
        report = ds.random_beams(axis=1, n=5).run()
        roots = ds.telemetry.tracer.roots
        assert sum(r.dur_ms for r in roots) == pytest.approx(
            report.total_ms
        )

    def test_service_span_attribution_sums_to_duration(self, make_dataset):
        ds = make_dataset().with_telemetry()
        ds.random_beams(axis=1, n=4).run()
        spans = [
            s
            for root in ds.telemetry.tracer.roots
            for s in root.walk()
            if s.cat == "service"
        ]
        assert spans
        for s in spans:
            mech = (s.attrs["seek_ms"] + s.attrs["rotation_ms"]
                    + s.attrs["transfer_ms"] + s.attrs["switch_ms"])
            # mechanical attribution accounts for the span up to the
            # drive's fixed per-request command overhead
            assert mech == pytest.approx(s.dur_ms, rel=0.05, abs=1.0)

    def test_traffic_spans_match_trace_service(self, make_dataset):
        ds = make_dataset().with_telemetry()
        report = ds.traffic().clients(2, queries=4).run()
        by_name = {root.name: root for root in ds.telemetry.tracer.roots}
        assert len(by_name) == len(report.traces)
        for trace in report.traces:
            root = by_name[f"{trace.client}#{trace.index}"]
            svc = sum(
                s.dur_ms for s in root.walk()
                if s.cat in ("service", "flush")
            )
            assert svc == pytest.approx(trace.service_ms)
            assert root.dur_ms == pytest.approx(trace.latency_ms)
            assert root.t0_ms == pytest.approx(trace.arrival_ms)

    def test_traffic_phase_totals_match_drive_busy(self, make_dataset):
        ds = make_dataset().with_shards(2).with_telemetry()
        report = ds.traffic().clients(2, queries=4).run()
        busy = sum(d.busy_ms for d in report.drives)
        phases = ds.telemetry.tracer.phase_ms()
        spans_busy = phases.get("service", 0.0) + phases.get("flush", 0.0)
        assert spans_busy == pytest.approx(busy)
