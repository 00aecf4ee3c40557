"""Declarative SLO rules over the windowed time-series.

:data:`RULES` is the registry the ``repro-bench --list-rules`` flag
prints; :func:`register_rule` adds a rule class (its docstring first
line is the listed description, the convention every other registry
follows).  A rule is constructed with keyword thresholds and exposes
``evaluate(series) -> list[AlertEvent]``; the four builtins cover the
operational surface the ROADMAP's "millions of users" story needs:

``latency_threshold``   a window's latency quantile over a limit
``burn_rate``           error-budget burn over a rolling window span
``queue_saturation``    a drive pegged near 100 % utilisation
``degraded_capacity``   live member disks below the full complement

Evaluation is a pure function of the series: rules walk the window
rows in order and stamp every alert with the *simulated* end of the
offending window, so same seed + workload ⇒ byte-identical alert
streams (the determinism pin in ``tests/monitor``).

The builtins evaluate one window at a time (``window_alerts(series,
b)``) and declare what a window's alerts read: the window's own
accumulators plus ``lookback`` earlier windows (``burn_rate`` reads
``windows - 1``), or the capacity column (``degraded_capacity``).
That is what lets :class:`~repro.monitor.Monitor` cache alerts per
rule and window and re-evaluate only the windows a change can reach.
A rule that offers only ``evaluate(series)`` still works; it is
evaluated in full on every describe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MonitorError
from repro.registry import Registry

__all__ = [
    "AlertEvent",
    "BurnRateRule",
    "DegradedCapacityRule",
    "LatencyThresholdRule",
    "QueueSaturationRule",
    "RULES",
    "register_rule",
    "resolve_rules",
    "rule_names",
]

#: name -> rule class; list with ``repro-bench --list-rules``
RULES = Registry("SLO rule")


def register_rule(name: str):
    """Class decorator: register an SLO rule under ``name`` (the class
    gains a ``name`` attribute so alerts can cite their origin)."""

    def wrap(cls):
        cls.name = name
        RULES.add(name, cls)
        return cls

    return wrap


def rule_names() -> tuple[str, ...]:
    return RULES.names()


@dataclass(frozen=True)
class AlertEvent:
    """One deterministic alert: rule ``rule`` fired on window
    ``window`` at simulated ``t_ms`` (the window's end) because
    ``value`` crossed ``threshold``."""

    t_ms: float
    rule: str
    severity: str
    window: int
    value: float
    threshold: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "t_ms": round(self.t_ms, 3),
            "rule": self.rule,
            "severity": self.severity,
            "window": self.window,
            "value": round(self.value, 4),
            "threshold": self.threshold,
            "detail": self.detail,
        }


class _Rule:
    """Shared plumbing: parameter capture, the describe() payload, and
    the full evaluation as every window's ``window_alerts`` in order.

    What one window's alerts read: with ``reads_windows``, the window's
    accumulators and those of ``lookback`` earlier windows; with
    ``reads_capacity``, its capacity column entry.
    """

    name = "?"
    reads_windows = True
    lookback = 0
    reads_capacity = False

    def __init__(self, **params):
        self.params = params

    def describe(self) -> dict:
        return {
            "rule": self.name,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }

    def evaluate(self, series) -> list:
        return [
            alert
            for b in range(series.n_windows)
            for alert in self.window_alerts(series, b)
        ]

    def _alert(self, series, b: int, value: float, threshold: float,
               detail: str) -> AlertEvent:
        return AlertEvent(
            t_ms=(b + 1) * series.window_ms, rule=self.name,
            severity=self.severity, window=b, value=value,
            threshold=threshold, detail=detail,
        )


@register_rule("latency_threshold")
class LatencyThresholdRule(_Rule):
    """Alert when a window's latency quantile exceeds a threshold."""

    def __init__(self, q: float = 0.99, threshold_ms: float = 500.0,
                 severity: str = "page"):
        super().__init__(q=float(q), threshold_ms=float(threshold_ms))
        self.q = float(q)
        self.threshold_ms = float(threshold_ms)
        self.severity = severity

    def window_alerts(self, series, b: int) -> list:
        w = series._windows.get(b)
        if w is None or w.latency.count == 0:
            return []
        value = w.latency.quantile(self.q)
        if not value > self.threshold_ms:
            return []
        return [self._alert(
            series, b, value, self.threshold_ms,
            f"p{self.q * 100:g} {value:.2f} ms > {self.threshold_ms:g} ms",
        )]


@register_rule("burn_rate")
class BurnRateRule(_Rule):
    """Alert when the error budget burns too fast over rolling windows.

    The "error" is a query slower than ``objective_ms``; ``budget`` is
    the tolerated slow fraction.  Over each rolling span of ``windows``
    windows the burn rate is (observed slow fraction) / budget — an
    alert fires when it reaches ``factor`` (2.0 means the budget would
    be exhausted in half the intended period), the standard multiwindow
    burn-rate construction.
    """

    def __init__(self, objective_ms: float = 250.0, budget: float = 0.1,
                 windows: int = 4, factor: float = 2.0,
                 severity: str = "page"):
        if not 0 < budget <= 1:
            raise MonitorError(
                f"burn-rate budget must be in (0, 1], got {budget}"
            )
        if windows < 1:
            raise MonitorError("burn_rate needs at least one window")
        super().__init__(objective_ms=float(objective_ms),
                         budget=float(budget), windows=int(windows),
                         factor=float(factor))
        self.objective_ms = float(objective_ms)
        self.budget = float(budget)
        self.windows = int(windows)
        self.factor = float(factor)
        self.severity = severity
        self.lookback = self.windows - 1

    def window_alerts(self, series, b: int) -> list:
        total = 0
        slow = 0.0
        for i in range(max(b - self.windows + 1, 0), b + 1):
            w = series._windows.get(i)
            if w is None or w.latency.count == 0:
                continue
            total += w.latency.count
            slow += w.latency.count * (
                1.0 - w.latency.fraction_le(self.objective_ms)
            )
        if total == 0:
            return []
        burn = (slow / total) / self.budget
        if not burn >= self.factor:
            return []
        return [self._alert(
            series, b, burn, self.factor,
            f"burn {burn:.2f}x over last {self.windows} windows "
            f"(objective {self.objective_ms:g} ms, "
            f"budget {self.budget:g})",
        )]


@register_rule("queue_saturation")
class QueueSaturationRule(_Rule):
    """Alert when a drive is pegged near 100 % busy for a window."""

    def __init__(self, utilization: float = 0.98,
                 severity: str = "warn"):
        if not 0 < utilization <= 1:
            raise MonitorError(
                f"saturation utilization must be in (0, 1], "
                f"got {utilization}"
            )
        super().__init__(utilization=float(utilization))
        self.utilization = float(utilization)
        self.severity = severity

    def window_alerts(self, series, b: int) -> list:
        w = series._windows.get(b)
        if w is None:
            return []
        out = []
        for disk in sorted(w.busy_ms):
            util = min(w.busy_ms[disk] / series.window_ms, 1.0)
            if util >= self.utilization:
                out.append(self._alert(
                    series, b, util, self.utilization,
                    f"disk {disk} at {util * 100:.1f}% busy",
                ))
        return out


@register_rule("degraded_capacity")
class DegradedCapacityRule(_Rule):
    """Alert while live member disks are below the full complement."""

    def __init__(self, min_fraction: float = 1.0,
                 severity: str = "warn"):
        super().__init__(min_fraction=float(min_fraction))
        self.min_fraction = float(min_fraction)
        self.severity = severity

    reads_windows = False
    reads_capacity = True

    def window_alerts(self, series, b: int) -> list:
        cap = series.capacity_at(b)
        if not cap < self.min_fraction:
            return []
        return [self._alert(
            series, b, cap, self.min_fraction,
            f"capacity at {cap * 100:g}% of member disks",
        )]


def resolve_rules(spec) -> list:
    """Turn a rule spec into constructed rule instances.

    Accepts ``None`` (every builtin at defaults), a name -> params
    mapping (params ``None`` for defaults), an iterable of names, or an
    iterable of pre-built rule instances — mirroring the forms the
    other façade specs take while staying JSON-describable.
    """
    if spec is None:
        return [RULES.get(name)() for name in RULES.names()]
    if isinstance(spec, dict):
        return [
            RULES.get(name)(**(params or {}))
            for name, params in sorted(spec.items())
        ]
    out = []
    for item in spec:
        if isinstance(item, str):
            out.append(RULES.get(item)())
        elif hasattr(item, "evaluate"):
            out.append(item)
        else:
            raise MonitorError(
                f"rules must be names, name->params mappings, or rule "
                f"instances; got {type(item).__name__}"
            )
    return out
