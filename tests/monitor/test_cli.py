"""The ``dashboard`` and ``diff`` bench subcommands."""

import json

import pytest

from repro.bench.cli import console_main, main
from repro.errors import MonitorError
from repro.monitor.dashboard import run_dashboard

DASH_QUICK = ["dashboard", "--shape", "16,8,8", "--drive", "minidrive",
              "--clients", "2", "--queries", "3", "--seed", "11"]
STORM = ["dashboard", "--shape", "24,12,12", "--drive", "minidrive",
         "--clients", "2", "--queries", "4", "--shards", "2", "--k", "2",
         "--kill-at", "40", "--revive-at", "160", "--seed", "11"]


def export(tmp_path, name, argv):
    dest = tmp_path / name
    assert main(argv + ["--json", str(dest), "--quiet"]) == 0
    return dest


class TestDashboard:
    def test_renders_sparklines_and_health(self, capsys):
        assert main(DASH_QUICK) == 0
        out = capsys.readouterr().out
        assert "qps" in out
        assert "p99 ms" in out
        assert "health: healthy" in out

    def test_json_export_carries_monitor(self, tmp_path):
        data = json.loads(export(
            tmp_path, "run.json", DASH_QUICK).read_text())
        assert data["monitor"]["n_windows"] >= 1
        assert data["throughput_qps"] > 0.0

    def test_storm_renders_alerts_and_transitions(
            self, tmp_path, capsys):
        assert main(STORM) == 0
        out = capsys.readouterr().out
        assert "degraded_capacity" in out
        assert "healthy -> degraded" in out

    def test_rejects_bad_arrival(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(DASH_QUICK + ["--arrival", "chaotic"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--shards", "--k"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_rejects_non_positive_counts(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(DASH_QUICK + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err

    @pytest.mark.parametrize("param", ["shards", "k"])
    def test_run_dashboard_rejects_counts_below_one(self, param):
        # at the parent these ran a silent unsharded, unreplicated storm
        with pytest.raises(MonitorError, match=f"{param} must be a "
                           "positive integer, got 0"):
            run_dashboard((16, 8, 8), drive="minidrive", clients=1,
                          queries=1, **{param: 0})

    def test_console_prints_one_error_line(self, capsys):
        assert console_main(DASH_QUICK + ["--window-ms", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["multimap-bench: error: window_ms must be "
                       "positive, got 0.0"]

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("burn_rate", "degraded_capacity",
                     "latency_threshold", "queue_saturation"):
            assert rule in out


class TestDiff:
    def test_same_seed_runs_diff_clean(self, tmp_path, capsys):
        a = export(tmp_path, "a.json", DASH_QUICK)
        b = export(tmp_path, "b.json", DASH_QUICK)
        assert a.read_bytes() == b.read_bytes()
        assert main(["diff", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        a = export(tmp_path, "a.json", DASH_QUICK)
        data = json.loads(a.read_text())
        data["makespan_ms"] *= 2.0
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["diff", str(a), str(b)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_band(self, tmp_path):
        a = export(tmp_path, "a.json", DASH_QUICK)
        data = json.loads(a.read_text())
        data["makespan_ms"] *= 1.2
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["diff", str(a), str(b)]) == 1
        assert main(["diff", str(a), str(b),
                     "--tolerance", "0.5"]) == 0

    def test_json_export(self, tmp_path):
        a = export(tmp_path, "a.json", DASH_QUICK)
        dest = tmp_path / "diff.json"
        assert main(["diff", str(a), str(a), "--json", str(dest),
                     "--quiet"]) == 0
        assert json.loads(dest.read_text())["regressions"] == []
