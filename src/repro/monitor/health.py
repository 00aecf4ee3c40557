"""Per-dataset health state machine.

Four states, driven by the same deterministic inputs the SLO rules
consume (capacity events, alerts, window boundaries):

``healthy``     full capacity, no firing alerts
``degraded``    a member disk is down (kill event, capacity < 1)
``saturated``   load-class alerts (queue saturation / budget burn)
                firing while degraded
``recovering``  capacity restored (revive) but the probation period —
                ``recover_windows`` consecutive alert-free windows at
                full capacity — has not elapsed yet

Transitions are emitted in simulated-time order with the triggering
reason, so a kill-one-disk storm walks ``healthy → degraded →
recovering`` (and ``→ healthy`` if the run outlives the probation)
byte-identically run over run.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import MonitorError

__all__ = ["HEALTH_STATES", "HealthTracker"]

HEALTH_STATES = ("healthy", "degraded", "saturated", "recovering")

#: alert rules that indicate load pressure (escalate degraded →
#: saturated) rather than reduced capacity
_LOAD_RULES = ("queue_saturation", "burn_rate")


class HealthTracker:
    """Replays a run's events into a health-state timeline.

    Pure and deterministic: :meth:`evaluate` takes the
    :class:`~repro.monitor.timeseries.TimeSeries` plus the alert list
    the SLO engine produced and returns the final state with every
    transition, stamped at simulated time.
    """

    def __init__(self, recover_windows: int = 2):
        recover_windows = int(recover_windows)
        if recover_windows < 1:
            raise MonitorError(
                f"recover_windows must be >= 1, got {recover_windows}"
            )
        self.recover_windows = recover_windows

    def evaluate(self, series, alerts) -> dict:
        """The health payload: final ``state`` plus the ``transitions``
        list (``{"t_ms", "from", "to", "reason"}`` dicts)."""
        wms = series.window_ms
        n = series.n_windows
        # one merged timeline; kind ranks break ties at equal times so
        # a kill and a same-instant alert apply in cause→effect order
        timeline = []
        for t, action, disk, live, total in series.capacity_events:
            timeline.append((float(t), 0, "disk", (action, disk, live,
                                                   total)))
        for alert in alerts:
            timeline.append((alert.t_ms, 1, "alert", alert))
        for b in range(n):
            timeline.append(((b + 1) * wms, 2, "window", b))
        timeline.sort(key=itemgetter(0, 1))

        alert_windows = {a.window for a in alerts}
        caps = series.capacity_series()

        state = "healthy"
        transitions: list[dict] = []
        clean = 0  # consecutive clean full-capacity windows seen

        def move(t, to, reason):
            nonlocal state
            if to != state:
                transitions.append({
                    "t_ms": round(t, 3),
                    "from": state,
                    "to": to,
                    "reason": reason,
                })
                state = to

        for t, _, kind, payload in timeline:
            if kind == "disk":
                action, disk, live, total = payload
                if action == "kill":
                    clean = 0
                    move(t, "degraded", f"disk {disk} failed "
                                        f"({live}/{total} live)")
                elif live >= total and state in ("degraded", "saturated"):
                    clean = 0
                    move(t, "recovering",
                         f"disk {disk} revived ({live}/{total} live)")
            elif kind == "alert":
                if payload.rule in _LOAD_RULES and state == "degraded":
                    move(t, "saturated", f"{payload.rule} while degraded")
            elif kind == "window":
                b = payload
                if b in alert_windows or caps[b] < 1.0:
                    clean = 0
                else:
                    clean += 1
                    if (state == "recovering"
                            and clean >= self.recover_windows):
                        move(t, "healthy",
                             f"{self.recover_windows} clean windows")
        return {"state": state, "transitions": transitions}

    def describe(self) -> dict:
        return {"recover_windows": self.recover_windows}
