"""The continuous-monitoring handle attached via the dataset façade.

:class:`Monitor` is what ``Dataset.with_telemetry(monitor=...)`` (or
``with_monitor``) hangs off the dataset's
:class:`~repro.obs.Telemetry`: the telemetry forwards every completed
root span here, the traffic engine reports kill/revive capacity
events, and :meth:`describe` assembles the gated ``meta["monitor"]``
block — windowed time-series rows, SLO alerts, and the health-state
timeline.

Like the tracer's seeded batch clock, the monitor keeps its own
``clock_ms`` so batch recordings (which each start at the tracer's
clock, or at 0 when tracing is off) are translated onto one contiguous
axis; traffic recordings already carry simulated times and pass
through unshifted.  Everything downstream is a pure function of the
recorded spans, so same seed + workload ⇒ a byte-identical payload.

:meth:`Monitor.describe` costs O(windows touched since the previous
describe) plus assembling the payload, not O(history): the series
re-renders only the rows a recording or a kill/revive event touched,
and the monitor caches each rule's alerts (and their ``to_dict``) per
window, re-evaluating a window only when a change reaches it — through
the window itself, a rule's ``lookback`` (``burn_rate``), or the
capacity column (``degraded_capacity``).  What stays per call is the
health replay and copying the payload out: every call returns fresh
containers, so mutating one report's ``meta`` never reaches the caches
or a later report.
"""

from __future__ import annotations

from operator import itemgetter

from repro.monitor.health import HealthTracker
from repro.monitor.slo import resolve_rules
from repro.monitor.timeseries import TimeSeries
from repro.obs.metrics import DEFAULT_BUCKETS_MS

__all__ = ["Monitor"]


def _entry(alert) -> tuple:
    """An alert with its sort key and its ``to_dict``, computed once."""
    return (alert.t_ms, alert.rule, alert.detail), alert, alert.to_dict()


class Monitor:
    """Windowed time-series + SLO rules + health state for one dataset.

    ``window_ms`` sizes the tumbling windows; ``rules`` takes any form
    :func:`~repro.monitor.slo.resolve_rules` accepts (default: every
    registered rule at its defaults); ``recover_windows`` is the
    health machine's probation length.

    :meth:`describe` costs O(windows touched since the previous
    describe) plus assembling the payload: alerts are cached per rule
    and window (with their ``to_dict``) and re-evaluated only where a
    change reaches, see the module docstring.
    """

    def __init__(self, window_ms: float = 50.0, rules=None,
                 recover_windows: int = 2, buckets=DEFAULT_BUCKETS_MS):
        self.series = TimeSeries(window_ms, buckets=buckets)
        #: a tuple: the alert cache below is laid out per rule
        self.rules = tuple(resolve_rules(rules))
        self.health = HealthTracker(recover_windows)
        #: per rule, per window: the window's alert entries (see
        #: :func:`_entry`); None for a rule without ``window_alerts``,
        #: which is evaluated in full on every describe
        self._alert_cache = [
            [] if hasattr(rule, "window_alerts") else None
            for rule in self.rules
        ]
        #: batch-clock translation: batch roots sit on the tracer's
        #: clock (or all at 0 with tracing off); the shift tiles them
        #: onto the monitor's own axis either way
        self.clock_ms = 0.0

    @property
    def window_ms(self) -> float:
        return self.series.window_ms

    # ------------------------------------------------------------------
    # ingestion (called by Telemetry / the traffic engine)
    # ------------------------------------------------------------------

    def ingest(self, root, *, advance: bool) -> None:
        """Fold one completed root span into the series.

        ``advance`` mirrors :meth:`Telemetry.observe_query`: batch
        recordings tile the clock, traffic recordings carry simulated
        times.
        """
        shift = self.clock_ms - root.t0_ms if advance else 0.0
        self.series.ingest(root, shift)
        if advance:
            self.clock_ms += root.dur_ms

    def record_disk_event(self, t_ms: float, action: str, disk: int,
                          live: int, total: int) -> None:
        """Forwarded by the traffic engine on kill/revive."""
        self.series.record_disk_event(t_ms, action, disk, live, total)

    def reset(self) -> None:
        self.series.reset()
        self.clock_ms = 0.0

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _refresh_alerts(self) -> None:
        """Re-evaluate the cached windows the series' changes reach."""
        series = self.series
        touched, cap_from = series.changes()
        n = series.n_windows
        for rule, cache in zip(self.rules, self._alert_cache):
            if cache is None:
                continue
            if touched is None:  # the series was reset
                cache.clear()
            stale = set(range(len(cache), n))
            cache.extend([None] * (n - len(cache)))
            if rule.reads_windows:
                reach = rule.lookback + 1
                for t in touched or ():
                    stale.update(range(t, min(t + reach, n)))
            if rule.reads_capacity:
                stale.update(range(cap_from, n))
            for b in stale:
                cache[b] = [_entry(a) for a in rule.window_alerts(series, b)]

    def _alert_entries(self) -> list:
        """Every rule's alert entries, in one deterministic
        simulated-time order."""
        self._refresh_alerts()
        out = []
        for rule, cache in zip(self.rules, self._alert_cache):
            if cache is None:
                out.extend(_entry(a) for a in rule.evaluate(self.series))
            else:
                for entries in cache:
                    out.extend(entries)
        out.sort(key=itemgetter(0))
        return out

    def alerts(self) -> list:
        """Every rule's alerts over the current series, in one
        deterministic simulated-time order."""
        return [a for _, a, _ in self._alert_entries()]

    def describe(self) -> dict:
        """The gated ``meta["monitor"]`` payload (stable key set), in
        fresh containers."""
        entries = self._alert_entries()
        alerts = [a for _, a, _ in entries]
        merged = self.series.merged_latency()
        return {
            "window_ms": self.series.window_ms,
            "n_windows": self.series.n_windows,
            "windows": self.series.rows(),
            "summary": {
                "queries": merged.count,
                "latency_ms": {
                    k: round(v, 3)
                    for k, v in merged.percentiles().items()
                },
            },
            "rules": [rule.describe() for rule in self.rules],
            "alerts": [dict(d) for _, _, d in entries],
            "health": self.health.evaluate(self.series, alerts),
            "events": [
                {"t_ms": round(t, 3), "action": action, "disk": disk,
                 "live": live, "total": total}
                for t, action, disk, live, total
                in self.series.capacity_events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Monitor(window_ms={self.series.window_ms}, "
            f"windows={self.series.n_windows}, "
            f"rules={len(self.rules)})"
        )
