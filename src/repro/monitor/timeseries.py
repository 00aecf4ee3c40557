"""Tumbling-window time-series over the simulated clock.

:class:`TimeSeries` folds the span trees an attached
:class:`~repro.obs.Telemetry` forwards (see
:meth:`repro.monitor.Monitor.ingest`) into fixed windows of
``window_ms`` simulated milliseconds.  Window ``w`` covers
``[w * window_ms, (w + 1) * window_ms)``; a query is attributed to the
window its *completion* falls in (completions pop off the traffic
engine's event heap in non-decreasing time, so the series is a pure
function of the recorded spans), while interval quantities — drive
busy time, per-drive in-system queries, global in-flight queries —
spread over every window they overlap.

Per window the collector records:

* completions and the window's latency :class:`~repro.obs.Histogram`
  (root durations), rendered as throughput and quantiles;
* per-drive utilisation (service/flush span overlap / window length)
  and queue depth (time-averaged queries with work in that drive's
  system, arrival to the drive's last slice — a Little's-law count);
* global in-flight queries (root-span overlap / window length);
* cache hit ratio (cache-span hits vs. serviced disk blocks);
* ingest goodput (flush-span blocks, also as MB/s at 512 B/block);
* degraded capacity: the minimum live-disk fraction during the window,
  replayed from the kill/revive events the traffic engine reports.

Everything is consumed from values the engine already computed — no
RNG draws, no wall clock — so same seed + workload ⇒ byte-identical
window rows.

The reads are incremental.  ``_window()`` marks every window an ingest
or disk event touches as dirty; :meth:`TimeSeries.rows` re-renders only
the dirty windows and the ones added since the last read, keeps every
other row from its cache, and patches the capacity column from the
first window a kill/revive event can have changed.  The overall latency
histogram is kept running as roots arrive.  One read therefore costs
O(windows touched since the previous read) plus copying the rows out,
whatever the length of the recorded history.  :meth:`TimeSeries.changes`
hands the same invalidation to caches built on top of the series (the
SLO alert cache of :class:`~repro.monitor.Monitor`).
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.errors import MonitorError
from repro.obs.metrics import DEFAULT_BUCKETS_MS, Histogram

__all__ = ["TimeSeries"]


def _event_time(event: tuple) -> float:
    return event[0]


#: bytes per block (§5.2 maps one cell to one 512-byte block) — the
#: conversion behind the ingest-goodput MB/s column
BLOCK_BYTES = 512


class _Window:
    """Accumulators for one tumbling window (created on first touch)."""

    __slots__ = ("queries", "latency", "busy_ms", "queue_ms",
                 "inflight_ms", "cache_hits", "disk_blocks",
                 "flush_blocks", "reorg_ms")

    def __init__(self, buckets) -> None:
        self.queries = 0
        self.latency = Histogram(buckets)
        self.busy_ms: dict[int, float] = {}
        self.queue_ms: dict[int, float] = {}
        self.inflight_ms = 0.0
        self.cache_hits = 0
        self.disk_blocks = 0
        self.flush_blocks = 0
        self.reorg_ms = 0.0


class TimeSeries:
    """The windowed collector behind :class:`repro.monitor.Monitor`.

    Besides the per-window accumulators it keeps the report state
    incrementally (see the module docstring): a dirty set filled by
    ``_window()``, each window's rendered row, the capacity column
    (valid for a prefix of the windows, cut back by every kill/revive
    event), and a running merged latency histogram.
    """

    def __init__(self, window_ms: float = 50.0,
                 buckets=DEFAULT_BUCKETS_MS):
        window_ms = float(window_ms)
        if not window_ms > 0:
            raise MonitorError(
                f"window_ms must be positive, got {window_ms}"
            )
        self.window_ms = window_ms
        self.buckets = tuple(float(b) for b in buckets)
        self._windows: dict[int, _Window] = {}
        #: (t_ms, action, disk, live, total) in recording order — the
        #: capacity step function the degraded-capacity column and the
        #: health machine replay
        self.capacity_events: list[tuple] = []
        #: (t0_ms, t1_ms) background-reorganisation intervals
        self.reorgs: list[tuple] = []
        self._max_index = -1
        self._latency = Histogram(self.buckets)
        #: the capacity events stably sorted by time
        self._events_by_t: list[tuple] = []
        #: per-window capacity and the live fraction at each window's
        #: end, valid for the windows below their length
        self._caps: list[float] = []
        self._levels: list[float] = []
        #: the first window an event since the last refresh can have
        #: changed the capacity of (None: no event)
        self._cap_stale: int | None = None
        #: rendered rows (private: :meth:`rows` hands out copies)
        self._rows: list[dict] = []
        #: windows touched since the rows were last brought up to date
        self._dirty: set[int] = set()
        #: what :meth:`changes` reports next: touched windows (None after
        #: a reset) and the first window whose capacity was recomputed
        self._changed: set[int] | None = set()
        self._changed_cap = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def _index(self, t_ms: float) -> int:
        return max(int(t_ms / self.window_ms), 0)

    def _window(self, index: int) -> _Window:
        w = self._windows.get(index)
        if w is None:
            w = self._windows[index] = _Window(self.buckets)
            if index > self._max_index:
                self._max_index = index
        self._dirty.add(index)
        return w

    def _spread(self, t0: float, t1: float, add) -> None:
        """Call ``add(window, overlap_ms)`` for every window the
        interval ``[t0, t1)`` overlaps (degenerate intervals touch
        their containing window with 0 ms, so it still materialises)."""
        if t1 < t0:
            t0, t1 = t1, t0
        first = self._index(t0)
        last = self._index(max(t1 - 1e-12, t0)) if t1 > t0 else first
        for b in range(first, last + 1):
            lo = b * self.window_ms
            overlap = min(t1, lo + self.window_ms) - max(t0, lo)
            add(self._window(b), max(overlap, 0.0))

    def ingest(self, root, shift: float = 0.0) -> None:
        """Fold one completed root span into the windows.

        ``shift`` translates batch-clock recordings onto the monitor's
        own clock (see :meth:`repro.monitor.Monitor.ingest`); traffic
        recordings already carry simulated times and pass 0.
        """
        t0 = root.t0_ms + shift
        t1 = root.t1_ms + shift
        if root.cat == "query":
            w = self._window(self._index(t1))
            w.queries += 1
            w.latency.observe(root.dur_ms)
            self._latency.observe(root.dur_ms)

            def add_inflight(win, ms):
                win.inflight_ms += ms

            self._spread(t0, t1, add_inflight)
        elif root.cat == "reorg":
            self.reorgs.append((t0, t1))

            def add_reorg(win, ms):
                win.reorg_ms += ms

            self._spread(t0, t1, add_reorg)
        # span-tree walk: drive busy + blocks, cache hits, and the
        # per-drive interval each disk's portion of the query occupies
        disk_last: dict[int, float] = {}
        for span in root.walk():
            if span.cat in ("service", "flush"):
                disk = int(span.attrs.get("disk", -1))
                s0 = span.t0_ms + shift
                s1 = span.t1_ms + shift

                def add_busy(win, ms, disk=disk):
                    win.busy_ms[disk] = win.busy_ms.get(disk, 0.0) + ms

                self._spread(s0, s1, add_busy)
                blocks = int(span.attrs.get("blocks", 0))
                w = self._window(self._index(s1))
                w.disk_blocks += blocks
                if span.cat == "flush":
                    w.flush_blocks += blocks
                disk_last[disk] = max(disk_last.get(disk, s1), s1)
            elif span.cat == "cache":
                w = self._window(self._index(span.t1_ms + shift))
                w.cache_hits += int(span.attrs.get("hits", 0))
        for disk, last in disk_last.items():

            def add_queue(win, ms, disk=disk):
                win.queue_ms[disk] = win.queue_ms.get(disk, 0.0) + ms

            self._spread(t0, last, add_queue)

    def record_disk_event(self, t_ms: float, action: str, disk: int,
                          live: int, total: int) -> None:
        """One kill/revive event from the traffic engine (simulated
        time; ``live``/``total`` are the storage's member-disk counts
        after the event applied)."""
        if action not in ("kill", "revive"):
            raise MonitorError(
                f"disk event action must be 'kill' or 'revive', "
                f"got {action!r}"
            )
        event = (float(t_ms), action, int(disk), int(live), int(total))
        self.capacity_events.append(event)
        insort(self._events_by_t, event, key=_event_time)
        # the capacity column is stale from the event's window on (one
        # window earlier too, in case t / window_ms rounded up)
        stale = max(self._index(event[0]) - 1, 0)
        del self._caps[stale:]
        del self._levels[stale:]
        if self._cap_stale is None or stale < self._cap_stale:
            self._cap_stale = stale
        # materialise the window so an end-of-run kill still shows up
        self._window(self._index(event[0]))

    def reset(self) -> None:
        self._windows.clear()
        self.capacity_events.clear()
        self.reorgs.clear()
        self._max_index = -1
        self._latency = Histogram(self.buckets)
        self._events_by_t.clear()
        self._caps.clear()
        self._levels.clear()
        self._cap_stale = None
        self._rows.clear()
        self._dirty.clear()
        self._changed = None
        self._changed_cap = 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    @property
    def n_windows(self) -> int:
        return self._max_index + 1

    def merged_latency(self) -> Histogram:
        """One histogram over every window's completions (the overall
        quantile summary the differ compares), as a fresh copy of the
        running one.  Its bucket counts, min and max equal a merge of
        the window histograms; ``sum`` is accumulated in recording
        order."""
        return Histogram(self.buckets).merge(self._latency)

    def _update_caps(self) -> None:
        """Extend the capacity column to every window.

        Window ``b`` holds the minimum of the capacity step function
        over the window (1.0 with no failure events); the live fraction
        at the end of the last valid window carries the replay on.
        """
        n = self.n_windows
        start = len(self._caps)
        if start >= n:
            return
        events = self._events_by_t
        current = self._levels[-1] if start else 1.0
        # events before this window's start were consumed by the prefix
        ei = (bisect_left(events, start * self.window_ms, key=_event_time)
              if start else 0)
        for b in range(start, n):
            hi = (b + 1) * self.window_ms
            low = current
            while ei < len(events) and events[ei][0] < hi:
                _, _, _, live, total = events[ei]
                current = live / total if total else 1.0
                low = min(low, current)
                ei += 1
            self._caps.append(round(low, 4))
            self._levels.append(current)

    def capacity_at(self, index: int) -> float:
        """Window ``index``'s live-disk fraction."""
        self._update_caps()
        return self._caps[index]

    def capacity_series(self) -> list[float]:
        """Per-window live-disk fraction: the minimum of the capacity
        step function over each window (1.0 with no failure events)."""
        self._update_caps()
        return list(self._caps)

    def _refresh(self) -> None:
        """Bring the cached rows up to date: patch the capacity column
        where events changed it, then render the dirty windows and the
        windows added since the last refresh."""
        n = self.n_windows
        self._update_caps()
        rows = self._rows
        cap_from = len(rows)
        if self._cap_stale is not None:
            cap_from = min(self._cap_stale, cap_from)
            self._cap_stale = None
        for b in range(cap_from, len(rows)):
            rows[b]["capacity"] = self._caps[b]
        touched = self._dirty
        touched.update(range(len(rows), n))
        rows.extend([None] * (n - len(rows)))
        for b in touched:
            rows[b] = self._render(b)
        if self._changed is not None:
            self._changed |= touched
        self._changed_cap = min(self._changed_cap, cap_from)
        self._dirty = set()

    def changes(self) -> tuple:
        """What changed since the previous call, for a cache built over
        the series: ``(touched, cap_from)``, the windows whose
        accumulators were touched or that are new (``None`` after a
        reset: every window), and the first window whose capacity was
        recomputed."""
        self._refresh()
        out = (self._changed, self._changed_cap)
        self._changed = set()
        self._changed_cap = self.n_windows
        return out

    def _render(self, b: int) -> dict:
        """Window ``b``'s JSON row (empty windows keep the full key
        set)."""
        w = self._windows.get(b)
        wms = self.window_ms
        row = {
            "w": b,
            "t0_ms": round(b * wms, 3),
            "queries": 0,
            "qps": 0.0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "util": {},
            "queue": {},
            "inflight": 0.0,
            "cache_hit_ratio": 0.0,
            "ingest_blocks": 0,
            "ingest_mb_s": 0.0,
            "capacity": self._caps[b],
        }
        if w is not None:
            row["queries"] = w.queries
            row["qps"] = round(w.queries / (wms / 1e3), 3)
            row["p50_ms"] = round(w.latency.quantile(0.50), 3)
            row["p99_ms"] = round(w.latency.quantile(0.99), 3)
            row["util"] = {
                str(d): round(min(ms / wms, 1.0), 4)
                for d, ms in sorted(w.busy_ms.items())
            }
            row["queue"] = {
                str(d): round(ms / wms, 4)
                for d, ms in sorted(w.queue_ms.items())
            }
            row["inflight"] = round(w.inflight_ms / wms, 4)
            served = w.cache_hits + w.disk_blocks
            row["cache_hit_ratio"] = (
                round(w.cache_hits / served, 4) if served else 0.0
            )
            row["ingest_blocks"] = w.flush_blocks
            row["ingest_mb_s"] = round(
                w.flush_blocks * BLOCK_BYTES / (wms / 1e3) / 1e6, 4
            )
            if w.reorg_ms > 0:
                row["reorg_frac"] = round(min(w.reorg_ms / wms, 1.0), 4)
        return row

    def rows(self) -> list[dict]:
        """The JSON window table (one dict per window, empty windows
        included so the axis is contiguous from 0), as fresh copies of
        the cached rows."""
        self._refresh()
        return [
            {**row, "util": dict(row["util"]), "queue": dict(row["queue"])}
            for row in self._rows
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSeries(window_ms={self.window_ms}, "
            f"n_windows={self.n_windows})"
        )
