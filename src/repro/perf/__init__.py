"""Plan-preparation fast path: memoized mapper tables, profiling
probes, reference pipelines, and the pinned perf sweep.

``repro.perf`` is the speed scoreboard of the repository:

``memo``       the process-wide :data:`MEMO` sharing curve code tables
               and basic-cube plans across ``with_layout``/``with_shards``
               clones instead of re-deriving them per mapper
``profile``    the :data:`PROBES` counter/timer registry hooked into
               :meth:`StorageManager.commit` and the traffic
               engine's event loop (off by default; zero overhead and
               bit-identical report JSON while disabled)
``reference``  the slow per-cell preparation pipeline vectorized plans
               are pinned bit-identical against, and the numpy-per-step
               SPTF scheduler the drive's angular scan is pinned against
``sweep``      ``repro-bench perf``: plans/s, cells/s, prep-vs-service
               split, preparation and SPTF speedups per layout, and the
               ``--check`` regression gate against the checked-in
               ``BENCH_perf.json``

``memo`` and ``profile`` import nothing from the rest of the package so
mappers can use them without cycles; the sweep (which builds Datasets)
loads lazily.
"""

from __future__ import annotations

from repro.perf.memo import MEMO, MapperMemo
from repro.perf.profile import (
    PROBE_DOCS,
    PROBE_SPECS,
    PROBES,
    PerfProbes,
    ProbeSpec,
    profiled,
    register_probe,
)

#: lazily loaded names -> defining module (sweep/reference pull in the
#: Dataset façade, which imports the mappers that import repro.perf.memo)
_LAZY_EXPORTS = {
    "reference_prepare": "repro.perf.reference",
    "reference_intersections": "repro.perf.reference",
    "reference_sptf": "repro.perf.reference",
    "run_perf_sweep": "repro.perf.sweep",
    "render_perf_sweep": "repro.perf.sweep",
    "check_perf": "repro.perf.sweep",
}

__all__ = [
    "MEMO",
    "MapperMemo",
    "PROBES",
    "PROBE_DOCS",
    "PROBE_SPECS",
    "PerfProbes",
    "ProbeSpec",
    "profiled",
    "register_probe",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
