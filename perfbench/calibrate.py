"""A fixed CPU kernel that tracks how fast the machine runs right now.

On a shared machine the speed available to one process drifts by 10-20%
over minutes, which moves every CPU-time metric of a run together.  The
benchmark runs this kernel before every round and scales its CPU-time
metrics by ``REFERENCE_S / median(kernel seconds)``: the values read as
CPU time at the speed of the reference machine.  The kernel mixes the
work the simulator does (heap and dict updates, small allocations,
NumPy sorting and searching on a few thousand integers), so its time
moves with the simulator's.  It is part of the benchmark, not of the
program, so a change to the program never changes it.
"""

from __future__ import annotations

import heapq
from time import process_time

import numpy as np

#: median kernel CPU seconds on the reference machine (a 2-core VM,
#: Python 3.11, NumPy 2.4), where the benchmark was tuned
REFERENCE_S = 0.0300

_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 4096)


def kernel_s() -> float:
    """CPU seconds one run of the kernel takes."""
    t0 = process_time()
    heap: list = []
    counts: dict = {}
    for i in range(7000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        counts[i % 997] = counts.get(i % 997, 0) + 1
        if len(heap) > 256:
            heapq.heappop(heap)
    rows = [(i, str(i), [i]) for i in range(2000)]
    del rows
    for _ in range(20):
        uniq = np.unique(_KEYS)
        np.searchsorted(uniq, _KEYS[:512])
        np.argsort(_KEYS, kind="stable")
    return process_time() - t0
