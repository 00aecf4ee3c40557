"""The ``repro-bench dashboard`` subcommand's engine and renderer.

:func:`run_dashboard` runs one seeded traffic storm with a
:class:`~repro.monitor.Monitor` attached — optionally killing (and
reviving) a member disk mid-storm — and returns the full monitoring
payload: windowed time-series, SLO alerts, and the health timeline.
:func:`render_dashboard` draws it as sparkline rows (throughput, p99,
in-flight, cache hit ratio, capacity, ingest goodput), a per-drive
utilisation heatmap, and the alert/health tables.  Everything derives
from the monitor, so the report is deterministic under a fixed seed —
which is why ``repro-bench diff`` over two same-seed dashboard exports
is an exact-zero check.
"""

from __future__ import annotations

__all__ = ["render_dashboard", "run_dashboard"]


def run_dashboard(shape, *, layout: str = "multimap",
                  drive: str = "atlas10k3", clients: int = 4,
                  queries: int = 16, seed=42, window_ms: float = 50.0,
                  rules=None, shards: int | None = None,
                  k: int | None = None, kill_at: float | None = None,
                  kill_disk: int = 0, revive_at: float | None = None,
                  exporter: str | None = None, **storm):
    """Run one monitored traffic storm.

    ``shards``/``k`` optionally scale out / replicate the dataset
    first (a kill needs ``k >= 2`` to keep answering); ``kill_at`` /
    ``revive_at`` schedule the storm's disk failure; ``storm`` holds the
    storm group's settings as in :func:`~repro.obs.trace_cmd.run_trace`.
    Returns ``(data, telemetry)`` like ``run_trace``.
    """
    from repro.api.dataset import Dataset
    from repro.traffic.storm import storm_traffic

    ds = Dataset.create(tuple(shape), layout=layout, drive=drive,
                        seed=seed)
    if shards is not None and shards > 1:
        ds = ds.with_shards(int(shards))
    if k is not None and k > 1:
        ds = ds.with_replication(int(k))
    ds = ds.with_telemetry(exporter=exporter,
                           monitor={"window_ms": window_ms, "rules": rules})
    run = storm_traffic(ds, clients, queries, **storm)
    if kill_at is not None:
        run.kill(float(kill_at), int(kill_disk),
                 revive_at_ms=(float(revive_at)
                               if revive_at is not None else None))
    report = run.run()
    tele = ds.telemetry
    tracer = tele.tracer
    data = {
        "dataset": ds.describe(),
        "makespan_ms": report.makespan_ms,
        "throughput_qps": report.throughput_qps(),
        "phase_ms": {cat: round(ms, 3)
                     for cat, ms in tracer.phase_ms().items()},
        "monitor": tele.monitor.describe(),
    }
    return data, tele


_GLYPHS = " .:-=+*#%@"


def _spark(values, peak=None) -> str:
    """One sparkline row: each glyph scales its value against the
    series peak (or an explicit ``peak`` for ratio series)."""
    top = peak if peak is not None else max(values, default=0.0)
    if top <= 0:
        return " " * len(values)
    return "".join(
        _GLYPHS[min(int(min(v / top, 1.0) * (len(_GLYPHS) - 1) + 0.5),
                    len(_GLYPHS) - 1)]
        for v in values
    )


def render_dashboard(data: dict) -> str:
    """Console dashboard: header, sparkline panel, per-drive heatmap,
    alerts, and the health timeline."""
    from repro.bench.reporting import render_table

    mon = data["monitor"]
    windows = mon["windows"]
    ds = data["dataset"]
    parts = [
        f"dashboard: {ds['layout']} {tuple(ds['shape'])} on "
        f"{ds['drive']} — makespan {data['makespan_ms']:.1f} ms, "
        f"{data['throughput_qps']:.1f} q/s, "
        f"{mon['n_windows']} x {mon['window_ms']:g} ms windows"
    ]
    if windows:
        lat = mon["summary"]["latency_ms"]
        parts.append(
            "latency (ms): " + ", ".join(
                f"{k}={v:g}" for k, v in lat.items())
        )
        series = {
            "qps": [w["qps"] for w in windows],
            "p99 ms": [w["p99_ms"] for w in windows],
            "inflight": [w["inflight"] for w in windows],
        }
        rows = [
            [name, _spark(vals), f"{max(vals, default=0.0):g}"]
            for name, vals in series.items()
        ]
        hits = [w["cache_hit_ratio"] for w in windows]
        rows.append(["cache hit", _spark(hits, peak=1.0),
                     f"{max(hits, default=0.0):g}"])
        caps = [w["capacity"] for w in windows]
        rows.append(["capacity", _spark(caps, peak=1.0),
                     f"{min(caps, default=1.0):g}"])
        ingest = [w["ingest_mb_s"] for w in windows]
        if any(ingest):
            rows.append(["ingest MB/s", _spark(ingest),
                         f"{max(ingest):g}"])
        parts.append(render_table(["series", "windows", "peak"], rows))
        # per-drive utilisation heatmap (one row per disk)
        disks = sorted({int(d) for w in windows for d in w["util"]})
        if disks:
            parts.append("drive utilization (1 glyph per window):")
            for d in disks:
                row = [w["util"].get(str(d), 0.0) for w in windows]
                parts.append(f"  d{d} |{_spark(row, peak=1.0)}|")
    alerts = mon["alerts"]
    if alerts:
        parts.append(f"{len(alerts)} alert(s):")
        parts.append(render_table(
            ["t ms", "rule", "sev", "w", "detail"],
            [[f"{a['t_ms']:g}", a["rule"], a["severity"],
              a["window"], a["detail"]] for a in alerts],
        ))
    else:
        parts.append("no alerts")
    health = mon["health"]
    line = f"health: {health['state']}"
    if health["transitions"]:
        line += " (" + " -> ".join(
            [health["transitions"][0]["from"]]
            + [t["to"] for t in health["transitions"]]
        ) + ")"
    parts.append(line)
    for t in health["transitions"]:
        parts.append(
            f"  {t['t_ms']:>9.1f} ms  {t['from']} -> {t['to']}: "
            f"{t['reason']}"
        )
    return "\n".join(parts)
