"""repro.shard — multi-disk scale-out via declustered chunk placement.

The shard layer turns the single-drive stack into a parallel storage
system: a :class:`ShardMap` declusters a dataset's chunks across the
member disks of one :class:`~repro.lvm.volume.LogicalVolume` using the
registered strategies of :data:`repro.lvm.striping.STRATEGIES`
(``round_robin``, ``disk_modulo``, ``cube_aligned``), one registered
mapper per chunk places its cells on the owning disk, and the
:class:`ShardedStorageManager` services queries scatter-gather — drives
in parallel, per-drive head state preserved, query time = makespan::

    from repro import Dataset

    ds = Dataset.create((64, 16, 16), layout="multimap", seed=42)
    ds = ds.with_shards(4, strategy="disk_modulo")
    report = ds.random_beams(axis=2, n=8).run()
    print(report.meta["shards"]["stats"]["parallel_efficiency"])

A 1-shard dataset is bit-identical to the unsharded stack across the
executor, batch reports, and traffic runs — ``tests/shard/test_parity.py``
pins the guarantee.  :func:`run_scale_sweep` produces the
speedup-vs-disks curves per layout (``repro-bench scale``).
"""

from repro.shard.executor import (
    ShardStats,
    ShardedMapper,
    ShardedStorageManager,
)
from repro.shard.map import ShardMap
from repro.shard.scale import (
    render_scale_sweep,
    run_scale_sweep,
    scale_beams,
)

__all__ = [
    "ShardMap",
    "ShardStats",
    "ShardedMapper",
    "ShardedStorageManager",
    "render_scale_sweep",
    "run_scale_sweep",
    "scale_beams",
]
