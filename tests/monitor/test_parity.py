"""Zero-impact monitoring: an attached Monitor never changes results.

The monitor analogue of ``tests/obs/test_parity.py``: batch Report
JSON, traffic JSON (including a failover storm), and ingest JSON are
byte-identical with and without an attached monitor, modulo the gated
``meta["obs"]``/``meta["monitor"]`` keys, which only ever *add*.
"""

import json


def strip_monitor(payload: str) -> dict:
    """Drop the gated keys an attached Telemetry + Monitor *add*."""
    data = json.loads(payload)
    meta = data.get("meta", {})
    meta.pop("obs", None)
    meta.pop("monitor", None)
    meta.get("dataset", {}).pop("obs", None)
    return data


class TestBitIdentity:
    def test_batch_report_identical(self, make_dataset):
        plain = make_dataset().random_beams(axis=1, n=4).run()
        monitored = (
            make_dataset().with_monitor()
            .random_beams(axis=1, n=4).run()
        )
        assert strip_monitor(monitored.to_json()) == json.loads(
            plain.to_json())

    def test_monitor_only_telemetry_identical(self, make_dataset):
        plain = make_dataset().random_beams(axis=2, n=3).run()
        monitored = (
            make_dataset()
            .with_telemetry(trace=False, metrics=False, monitor=True)
            .random_beams(axis=2, n=3).run()
        )
        assert strip_monitor(monitored.to_json()) == json.loads(
            plain.to_json())

    def test_traffic_json_identical(self, make_dataset):
        def run(attach):
            ds = make_dataset()
            if attach:
                ds = ds.with_monitor()
            return ds.traffic().clients(3, queries=4).run().to_json()

        assert strip_monitor(run(True)) == json.loads(run(False))

    def test_traffic_failover_identical(self, make_dataset):
        def run(attach):
            ds = make_dataset().with_shards(2).with_replication(2)
            if attach:
                ds = ds.with_monitor()
            return (
                ds.traffic()
                .clients(2, queries=4)
                .kill(5.0, 0, revive_at_ms=60.0)
                .run()
                .to_json()
            )

        assert strip_monitor(run(True)) == json.loads(run(False))

    def test_ingest_report_identical(self, make_dataset):
        def run(attach):
            ds = make_dataset(layout="zorder", shape=(16, 8, 8), seed=7)
            if attach:
                ds = ds.with_monitor()
            return ds.ingest(
                stream="clustered", n_points=256, flush_points=64,
                loader_opts={"points_per_cell": 1}, reorganize=True,
            ).run().to_json()

        assert run(True) == run(False)

    def test_monitor_rides_existing_telemetry_unchanged(
            self, make_dataset):
        """Adding a monitor to a traced run must not perturb the
        trace: the span recordings are identical either way."""
        def phase_totals(monitor):
            ds = make_dataset().with_telemetry(monitor=monitor)
            ds.traffic().clients(2, queries=4).run()
            return ds.telemetry.tracer.phase_ms()

        assert phase_totals(True) == phase_totals(None)
