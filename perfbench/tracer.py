"""Wall-clock span recorder wrapped around the public calls of each layer.

The traced run installs thin wrappers on the *instances* a workload
builds (mappers, storage managers, drives, buffer pools, telemetry,
the traffic run) and, where the program builds the object itself, on
the class or module for the duration of the round (``build_mapper``,
``IngestPipeline``).  Nothing under ``src/`` changes.

Every span carries a name, a start, an end, the index of its parent
span and an operation id (one id per query on ``paper_batch``, one per
traffic run on the storm workloads).  Spans are kept in memory and
written out once, when the benchmark ends.  A span's self time is its
duration minus the time its direct children cover; the process is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType


class Tracer:
    """In-memory spans plus per-name totals (inclusive, self, calls)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.op = 0
        self._open: list[list] = []  # [span index, child seconds]
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: self seconds per (outermost span name, span name)
        self.root_self_s: dict[tuple, float] = defaultdict(float)
        self._restore: list[tuple] = []
        self._muted = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def parent_name(self) -> str | None:
        """Name of the innermost open span, or ``None`` at top level."""
        return self.spans[self._open[-1][0]][0] if self._open else None

    def open(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((name, perf_counter(), None, parent, self.op))
        self._open.append([len(self.spans) - 1, 0.0])

    def close(self) -> None:
        """Close the innermost span."""
        end = perf_counter()
        idx, child_s = self._open.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)
        dur = end - start
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        root = self.spans[self._open[0][0]][0] if self._open else name
        self.root_self_s[root, name] += dur - child_s
        self.calls[name] += 1
        if self._open:
            self._open[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    @contextmanager
    def muted(self):
        """Wrapped calls inside record nothing (the benchmark's own
        correctness probes)."""
        self._muted = True
        try:
            yield
        finally:
            self._muted = False

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(self, obj, attr: str, name: str, on_call=None) -> None:
        """Replace ``obj.attr`` by a span-recording wrapper.

        ``on_call(args, kwargs, result)`` may record counts.  Instance
        wrappers die with the instance; class and module wrappers are
        undone by :meth:`restore`.
        """
        fn = getattr(obj, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._muted:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        if isinstance(obj, (type, ModuleType)):
            # a plain function set on a class binds ``self`` like the
            # method it replaces
            self._restore.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, wrapper)

    def restore(self) -> None:
        """Undo every class- and module-level wrapper."""
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per line: name, start/end in microseconds
        from the first span, parent index, operation id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1),
                    "parent": parent,
                    "op": op,
                }) + "\n")
