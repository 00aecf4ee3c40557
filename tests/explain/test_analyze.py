"""ANALYZE: measured splits, reconciliation, and model error."""

import json

import pytest

from repro.api.dataset import Dataset
from repro.query.workload import BeamQuery

BEAM = BeamQuery(0, (0, 6, 6))


@pytest.fixture()
def out():
    ds = Dataset.create((240, 12, 12), layout="multimap",
                        drive="minidrive", seed=42)
    return ds.explain(BEAM, analyze=True)


class TestAnalyze:
    def test_measured_and_reconciliation_present(self, out):
        assert out["measured"]["total_ms"] > 0
        rec = out["reconciliation"]
        assert {"per_phase", "per_disk", "summed_abs_error_ms",
                "summed_rel_error", "cost_match"} <= set(rec)

    def test_model_error_is_small_for_seeded_beam(self, out):
        """The ghost drive starts cold while the real run randomises
        the head once — the divergence is bounded by one positioning."""
        rec = out["reconciliation"]
        assert rec["summed_rel_error"] < 0.5
        assert rec["per_phase"]["service"]["measured_ms"] > 0

    def test_costs_match_for_streaming_beam(self, out):
        assert out["predicted"]["dominant_cost"] == "transfer_bound"
        assert out["measured"]["dominant_cost"] == "transfer_bound"
        assert out["reconciliation"]["cost_match"] is True

    def test_mechanical_split_reconciles_with_phase_total(self, out):
        meas = out["measured"]
        mech = (meas["seek_ms"] + meas["rotation_ms"]
                + meas["transfer_ms"] + meas["switch_ms"])
        assert mech == pytest.approx(
            meas["phase_ms"]["service"], abs=0.01
        )

    def test_json_serializable(self, out):
        json.dumps(out)

    def test_private_telemetry_restored(self):
        ds = Dataset.create((48, 12, 12), layout="multimap",
                            drive="minidrive", seed=42)
        ds = ds.with_telemetry(trace=True)
        tele = ds.telemetry
        queries_before = tele.tracer.n_queries
        ds.explain(BEAM, analyze=True)
        assert ds.storage.obs is tele
        # ANALYZE's execution was traced privately, not into the
        # user's stream
        assert tele.tracer.n_queries == queries_before

    def test_sharded_analyze_reconciles_per_disk(self):
        from repro.query.workload import RangeQuery

        ds = (Dataset.create((48, 12, 12), layout="multimap",
                             drive="minidrive", seed=42)
              .with_shards(2))
        out = ds.explain(RangeQuery((0, 0, 0), (48, 12, 12)),
                         analyze=True)
        rec = out["reconciliation"]
        assert sorted(rec["per_disk"]) == ["0", "1"]
        for row in rec["per_disk"].values():
            assert row["measured_ms"] > 0

    def test_cached_analyze_reports_hits(self):
        ds = (Dataset.create((48, 12, 12), layout="multimap",
                             drive="minidrive", seed=42)
              .with_cache(4096))
        ds.run([BEAM])
        out = ds.explain(BEAM, analyze=True)
        assert out["measured"]["cache"]["hits"] \
            == out["predicted"]["cache"]["expected_hits"]
        assert "cache" in out["reconciliation"]["per_phase"]
