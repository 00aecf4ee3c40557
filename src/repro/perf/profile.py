"""Lightweight counter/timer probes for the preparation hot path.

The hooks live in :meth:`StorageManager.commit` (the one step of
preparation with side effects — planning stays pure) and the
:class:`TrafficSim` event loop, guarded by ``PROBES.enabled`` so the
disabled cost is one attribute read.  While enabled, report meta gains a
gated ``"perf"`` entry (a :meth:`PerfProbes.delta` of the run); while
disabled — the default — every report and traffic JSON stays
bit-identical to a build without probes.  Timers measure wall clock and
never feed back into simulated results, so determinism is untouched.

Since the :mod:`repro.obs` telemetry layer landed, :class:`PerfProbes`
is a **deprecation shim**: a
:class:`~repro.obs.metrics.MetricsRegistry` subclass adding only the
``enabled`` gate (and the legacy ``count`` spelling of ``inc``).  Its
snapshots keep the historical two-key ``{"counters", "timers_ms"}``
shape because the probe hooks never touch gauges or histograms and the
registry gates those keys on being non-empty.

Probe *names* are now declared in the :data:`PROBE_SPECS` registry —
one documented marker function per probe, its docstring first line the
description — and :data:`PROBE_DOCS` is a live
:class:`~repro.registry.DocsView` over it, so ``repro-bench
--list-probes`` derives its table from the registrations instead of a
hand-maintained dict.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.registry import DocsView, Registry, first_doc_line

__all__ = [
    "PerfProbes",
    "PROBES",
    "PROBE_DOCS",
    "PROBE_SPECS",
    "ProbeSpec",
    "profiled",
    "register_probe",
]


@dataclass(frozen=True)
class ProbeSpec:
    """One declared probe: the counter/timer name the hooks emit."""

    name: str
    fn: object
    description: str


PROBE_SPECS = Registry("perf probe")


def register_probe(name: str, *, description: str = ""):
    """Declare a probe name (decorator over a documented marker
    function; the docstring first line becomes the description)."""

    def decorator(fn):
        PROBE_SPECS.add(name, ProbeSpec(
            name=name, fn=fn,
            description=description or first_doc_line(fn),
        ))
        return fn

    return decorator


@register_probe("plans_prepared")
def _plans_prepared():
    """request plans committed by the storage manager"""


@register_probe("cells_planned")
def _cells_planned():
    """dataset cells covered by prepared plans"""


@register_probe("runs_prepared")
def _runs_prepared():
    """coalesced runs across prepared plans"""


@register_probe("prepare_plan_ms")
def _prepare_plan_ms():
    """wall time inside StorageManager.prepare (plan + commit)"""


@register_probe("traffic_events")
def _traffic_events():
    """events popped off the traffic simulator's heap"""


@register_probe("traffic_run_ms")
def _traffic_run_ms():
    """wall time inside TrafficSim.run"""


#: live name -> description view over the declared probes (surfaced by
#: ``repro-bench --list-probes``)
PROBE_DOCS = DocsView(PROBE_SPECS)


class PerfProbes(MetricsRegistry):
    """A named counter/timer registry (off by default).

    Deprecation shim over :class:`~repro.obs.metrics.MetricsRegistry`:
    adds the ``enabled`` gate the prepare/traffic hooks check, and keeps
    ``count`` as the legacy spelling of :meth:`MetricsRegistry.inc`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    #: legacy spelling of :meth:`MetricsRegistry.inc`
    count = MetricsRegistry.inc


#: the process-wide registry the hooks report to
PROBES = PerfProbes()


@contextmanager
def profiled(reset: bool = True):
    """Enable :data:`PROBES` for a ``with`` block, restoring the prior
    state on exit.  ``reset`` starts the block from zeroed totals."""
    prior = PROBES.enabled
    if reset:
        PROBES.reset()
    PROBES.enable()
    try:
        yield PROBES
    finally:
        PROBES.enabled = prior
