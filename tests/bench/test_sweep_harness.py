"""The declarative sweep harness: validation, meta, and the shared storm
argument group."""

import json
from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.bench.sweep import SWEEPS
from repro.errors import BenchmarkError, QueryError
from repro.ingest import run_ingest_sweep

ROOT = Path(__file__).resolve().parents[2]

COUNTS = [
    (name, p.name)
    for name in SWEEPS
    for p in SWEEPS.get(name).all_params
    if p.count
]


class TestCountValidation:
    @pytest.mark.parametrize("sweep,param", COUNTS)
    @pytest.mark.parametrize("bad", ["zero", "negative"])
    def test_every_count_rejects_non_positive(self, sweep, param, bad):
        decl = SWEEPS.get(sweep)
        value = 0 if bad == "zero" else -2
        if decl.axis is not None and param == decl.axis.name:
            value = (1, value)
        with pytest.raises(BenchmarkError, match=param):
            decl.run((8, 8, 8), layouts=("naive",), drive="minidrive",
                     **{param: value})

    def test_count_axis_rejects_empty(self):
        with pytest.raises(BenchmarkError, match="shard_counts"):
            SWEEPS.get("scale").run((8, 8, 8), shard_counts=())

    def test_scale_cli_zero_shards(self):
        with pytest.raises(BenchmarkError, match="shard_counts"):
            main(["scale", "--shape", "24,8,8", "--shards", "0",
                  "--drive", "minidrive", "--quiet"])

    @pytest.mark.parametrize("axis", ["7", "3", "-4"])
    def test_scale_split_axis_out_of_range(self, axis):
        # at the parent --split-axis 7 on a 3-d shape silently slabbed
        # axis 1 (7 % 3) and recorded split_axis: 1
        with pytest.raises(BenchmarkError, match="split_axis"):
            main(["scale", "--shape", "24,8,8", "--split-axis", axis,
                  "--shards", "1,2", "--drive", "minidrive", "--quiet"])

    def test_scale_negative_split_axis_counts_from_the_end(self):
        data = SWEEPS.get("scale").run(
            (24, 8, 8), layouts=("naive",), shard_counts=(2,),
            split_axis=-1, n_beams=2, drive="minidrive",
        )
        assert data["meta"]["split_axis"] == 2
        assert data["meta"]["chunk_shapes"][2] == [24, 8, 4]

    def test_scale_cli_zero_beams(self):
        with pytest.raises(BenchmarkError, match="n_beams"):
            main(["scale", "--shape", "24,8,8", "--shards", "1,2",
                  "--beams", "0", "--drive", "minidrive", "--quiet"])

    @pytest.mark.parametrize("param", ["n_shards", "k"])
    def test_ingest_zero_shards_or_k(self, param):
        with pytest.raises(BenchmarkError, match=param):
            run_ingest_sweep((16, 8, 8), layouts=("naive",),
                             drive="minidrive", **{param: 0})

    def test_unknown_argument_is_a_type_error(self):
        with pytest.raises(TypeError, match="dataset_opts"):
            run_ingest_sweep((16, 8, 8), dataset_opts={})


class TestHarness:
    def test_positional_layouts_and_axis(self):
        data = SWEEPS.get("scale").run(
            (24, 8, 8), ("naive",), (1, 2), n_beams=2, drive="minidrive"
        )
        assert set(data["naive"]) == {1, 2}
        assert data["meta"]["shard_counts"] == [1, 2]
        assert data["meta"]["layouts"] == ["naive"]

    def test_meta_records_resolved_parameters(self):
        data = SWEEPS.get("traffic").run(
            (16, 8, 8), layouts=("naive",), client_counts=(1,),
            queries_per_client=2, drive="minidrive", arrival="poisson",
            rate=80.0,
        )
        meta = data["meta"]
        assert meta["mix"] == "beam:1+beam:2"
        assert meta["arrival"] == {"model": "poisson", "rate_qps": 80.0,
                                   "start_ms": 0.0}
        assert meta["client_counts"] == [1]
        json.dumps(data)

    def test_ingest_defaults_to_minidrive(self):
        data = run_ingest_sweep((16, 8, 8), layouts=("naive",),
                                loaders=("fixed",), n_points=128,
                                batch_points=64, flush_points=128)
        assert data["meta"]["drive"] == "minidrive"


class TestStormGroup:
    STORM = ["--shape", "16,8,8", "--drive", "minidrive", "--clients", "1",
             "--queries", "2", "--quiet"]

    @pytest.mark.parametrize("command", ["traffic", "trace", "dashboard"])
    def test_negative_slice_runs_raises(self, command):
        with pytest.raises(QueryError, match="slice_runs"):
            main([command, *self.STORM, "--slice-runs", "-3"])

    def test_traffic_zero_slice_runs_is_whole_query(self, tmp_path):
        dest = tmp_path / "storm.json"
        assert main(["traffic", *self.STORM, "--layouts", "naive",
                     "--slice-runs", "0", "--json", str(dest)]) == 0
        assert json.loads(dest.read_text())["meta"]["slice_runs"] is None


def test_bench_ingest_json_reproduces_from_its_meta():
    """``BENCH_ingest.json`` is pinned: re-running the sweep from the
    file's own meta must give the file back."""
    pinned = json.loads((ROOT / "BENCH_ingest.json").read_text())
    meta = pinned["meta"]
    decl = SWEEPS.get("ingest")
    data = decl.run(
        meta["shape"], layouts=meta["layouts"], drive=meta["drive"],
        **{p.name: meta[p.name] for p in decl.all_params},
    )
    assert json.loads(json.dumps(data)) == pinned
