"""Disk drive service-time simulator.

A :class:`DiskDrive` owns a head position (track + wall-clock time, from
which the rotational angle follows) and services requests expressed as
*runs* — ``(start_lbn, n_blocks)`` pairs of consecutive LBNs.  Every access
is decomposed into the classic cost components:

``seek``      arm movement between cylinders (plus head switches),
``rotation``  wait for the first target sector to pass under the head,
``transfer``  sectors streaming under the head,
``switch``    track-boundary crossings *inside* a run (settle + realign).

Three scheduling policies are provided for batches:

* ``"fifo"``    service in the order given (the storage manager already
                ordered the batch, e.g. a semi-sequential path);
* ``"sorted"``  ascending-LBN elevator pass, the order the paper's storage
                manager issues for the linearised mappings;
* ``"sptf"``    shortest-positioning-time-first within a bounded lookahead
                window, modelling the drive's internal queue scheduler
                (the paper relies on this for MultiMap's semi-sequential
                fetches: "the disk's internal scheduler will ensure that
                they are fetched in the most efficient way").

The batch path is vectorised: per-run geometry is computed with numpy
once per batch.  The fixed-order policies then only run the rotational
recurrence, which is inherently sequential, as a tight loop over floats.

SPTF is an exact angular scan.  A request's positioning cost is its seek
plus the wait for its start angle ``a0`` to come around:
``seek + ((a0 - (t + overhead + seek) / rot) % 1) * rot``.  That is its
angular offset ahead of the head's phase ``((t + overhead) / rot) % 1``,
in ms, plus a whole number of revolutions, so it is never below the
offset.  The window is kept sorted by ``(a0, request index)``; each step
bisects to the head's phase and walks forward cyclically, computing each
candidate's exact cost, and stops once the next candidate's offset alone
exceeds the best cost found — every later candidate lies further ahead.
The walk starts :data:`SCAN_BACK_REV` behind the phase so that requests
whose wait snaps to zero (see :data:`SNAP_REV`) are seen first, and the
stop test keeps a :data:`SCAN_GUARD_MS` margin for float rounding.  Ties
go to the lowest request index, so the scan picks exactly what a full
argmin over the window picks (pinned against
:func:`repro.perf.reference.reference_sptf`), while evaluating a
handful of candidates per step instead of the whole window.

Seek costs come from the profile's per-distance table
(:attr:`repro.disk.mechanics.SeekProfile.table`) on every path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.models import DiskModel
from repro.errors import GeometryError

__all__ = ["DiskDrive", "BatchResult", "RunTiming", "TrackCache"]

# Rotational waits within SNAP_REV of a full revolution are floating-point
# artifacts of on-the-knife-edge alignments (e.g. the zero-skew toy disk);
# physically the block is reachable with no wait.  Real models keep margins
# of a sector or more, far above this tolerance.
SNAP_REV = 1e-7

# The SPTF scan starts this far behind the head's phase, so requests that
# sit just behind it (and snap to a zero wait) are evaluated first.
SCAN_BACK_REV = 1e-6
# Margin on the scan's stop test.  Rounding in the cost expression is
# below 1e-15 of the clock, so this keeps the scan exact for simulated
# clocks up to ~1e9 ms.
SCAN_GUARD_MS = 1e-6


def _wait_rev(delta: float) -> float:
    """Fractional-revolution wait to reach angle delta ahead (snapped)."""
    w = delta % 1.0
    return 0.0 if w > 1.0 - SNAP_REV else w


class TrackCache:
    """LRU cache of whole tracks (firmware segment cache + read-ahead).

    The drives of the paper's era had small segment caches; modern drives
    buffer tens of MB.  The model is deliberately simple: a serviced run
    leaves every track it touched fully buffered (read-ahead fills the
    remainder), and a later request whose blocks all lie in buffered
    tracks is served at bus speed instead of mechanically.  The
    `modern-cache` ablation uses this to show how large caches erode the
    penalties that motivate track-aware placement.
    """

    def __init__(self, capacity_tracks: int):
        self.capacity = int(capacity_tracks)
        # buffered tracks, least recently used first
        self._lru: dict[int, None] = {}

    def _touch(self, track_first: int, track_last: int) -> None:
        for t in range(track_first, track_last + 1):
            self._lru.pop(t, None)
            self._lru[t] = None

    def hit(self, track_first: int, track_last: int) -> bool:
        """All tracks of the run buffered?  Refreshes recency on hit."""
        if all(t in self._lru for t in range(track_first, track_last + 1)):
            self._touch(track_first, track_last)
            return True
        return False

    def insert(self, track_first: int, track_last: int) -> None:
        self._touch(track_first, track_last)
        while len(self._lru) > self.capacity:
            del self._lru[next(iter(self._lru))]

    def clear(self) -> None:
        self._lru.clear()


@dataclass(frozen=True)
class RunTiming:
    """Timing breakdown of a single serviced run (all in ms)."""

    start_ms: float
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    switch_ms: float
    overhead_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.overhead_ms
            + self.seek_ms
            + self.rotation_ms
            + self.transfer_ms
            + self.switch_ms
        )

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.total_ms


@dataclass
class BatchResult:
    """Aggregate timing of a serviced batch."""

    total_ms: float
    n_requests: int
    n_blocks: int
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    switch_ms: float
    overhead_ms: float = 0.0
    per_request_ms: np.ndarray | None = None
    order: np.ndarray | None = None

    @property
    def ms_per_block(self) -> float:
        return self.total_ms / self.n_blocks if self.n_blocks else 0.0

    def __add__(self, other: "BatchResult") -> "BatchResult":
        return BatchResult(
            total_ms=self.total_ms + other.total_ms,
            n_requests=self.n_requests + other.n_requests,
            n_blocks=self.n_blocks + other.n_blocks,
            seek_ms=self.seek_ms + other.seek_ms,
            rotation_ms=self.rotation_ms + other.rotation_ms,
            transfer_ms=self.transfer_ms + other.transfer_ms,
            switch_ms=self.switch_ms + other.switch_ms,
            overhead_ms=self.overhead_ms + other.overhead_ms,
        )

    @staticmethod
    def empty() -> "BatchResult":
        return BatchResult(0.0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)


class DiskDrive:
    """Simulated disk drive with positional state.

    Parameters
    ----------
    model:
        Geometry + mechanics pairing (see :mod:`repro.disk.models`).
    cache_tracks:
        Optional firmware segment cache capacity in whole tracks (0 = no
        cache, the default — matching the paper's measured behaviour).
        Cache hits are served at bus speed; see :class:`TrackCache`.
    """

    #: bus transfer cost per cached block (Ultra160-class, ms)
    CACHE_BLOCK_MS = 0.0032

    def __init__(self, model: DiskModel, cache_tracks: int = 0):
        self.model = model
        self.geometry: DiskGeometry = model.geometry
        self.mechanics: DiskMechanics = model.mechanics
        self._rot = self.mechanics.rotation_ms
        self._overhead = self.mechanics.command_overhead_ms
        self._head_switch = float(self.mechanics.head_switch_ms)
        self._seek_table = self.mechanics.seek.table
        if self._seek_table.size < self.geometry.n_cylinders:
            raise GeometryError(
                "seek profile max_cylinders is shorter than the geometry"
            )
        # scalar view of the same array: indexing yields Python floats
        self._seek_ms = self._seek_table.data
        self._time_ms = 0.0
        self._track = 0
        self.cache = TrackCache(cache_tracks) if cache_tracks > 0 else None
        # Exact cost of crossing one in-zone track boundary mid-run:
        # settle plus the wait for the skewed next track to come around.
        settle = self.mechanics.head_switch_ms
        self._boundary_cost = np.array(
            [
                settle
                + _wait_rev(
                    z.skew_sectors / z.sectors_per_track - settle / self._rot
                )
                * self._rot
                for z in self.geometry.zones
            ]
        )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def now_ms(self) -> float:
        return self._time_ms

    @property
    def current_track(self) -> int:
        return self._track

    @property
    def current_cylinder(self) -> int:
        return self._track // self.geometry.surfaces

    def reset(self, track: int = 0, time_ms: float = 0.0) -> None:
        if not 0 <= track < self.geometry.n_tracks:
            raise GeometryError(f"track {track} out of range")
        self._track = track
        self._time_ms = float(time_ms)

    def draw_position(self, rng: np.random.Generator) -> tuple[int, float]:
        """Draw a uniformly random ``(track, time_ms)`` head position.

        Consumes exactly the draws :meth:`randomize_position` would, so a
        position can be drawn early (e.g. when a traffic client submits a
        query) and applied later with :meth:`reset` without perturbing the
        caller's random stream.
        """
        return (
            int(rng.integers(self.geometry.n_tracks)),
            float(rng.uniform(0.0, self._rot)),
        )

    def randomize_position(self, rng: np.random.Generator) -> None:
        """Place the head at a uniformly random track and rotation phase."""
        self._track, self._time_ms = self.draw_position(rng)

    def advance_clock(self, t_ms: float) -> None:
        """Advance the clock to ``t_ms`` without moving the head.

        Models the platter spinning while the drive sits idle between
        requests (the traffic simulator calls this when dispatching to an
        idle drive, so the rotational phase reflects the wait).  Clocks
        never move backwards; a ``t_ms`` at or before *now* is a no-op.
        """
        if t_ms > self._time_ms:
            self._time_ms = float(t_ms)

    def head_angle(self, t_ms: float | None = None) -> float:
        """Platter angle under the head at time ``t`` (revolutions)."""
        t = self._time_ms if t_ms is None else t_ms
        return (t / self._rot) % 1.0

    # ------------------------------------------------------------------
    # single-request service
    # ------------------------------------------------------------------

    def _positioning(
        self, issue: float, from_cyl: int, from_track: int,
        cyl: int, track: int, angle: float,
    ) -> tuple[float, float]:
        """Exact (seek_ms, rotation_ms) to reach ``angle`` on ``track``.

        ``issue`` is the clock plus command overhead, when the arm starts
        moving from ``from_track``.  :meth:`service`,
        :meth:`positioning_time` and the SPTF scan all price a request
        with this one expression, so they agree to the bit.
        """
        dist = cyl - from_cyl
        if dist:
            seek = self._seek_ms[dist if dist > 0 else -dist]
        elif track != from_track:
            seek = self._head_switch
        else:
            seek = 0.0
        wait = (angle - (issue + seek) / self._rot) % 1.0
        if wait > 1.0 - SNAP_REV:
            wait = 0.0
        return seek, wait * self._rot

    def _position_on(self, lbn: int) -> tuple[int, float, float]:
        """(track, seek_ms, rotation_ms) to position on ``lbn`` now."""
        geom = self.geometry
        surfaces = geom.surfaces
        track = geom.track_of(lbn)
        seek, wait = self._positioning(
            self._time_ms + self._overhead,
            self._track // surfaces, self._track,
            track // surfaces, track, geom.start_angle(lbn),
        )
        return track, seek, wait

    def positioning_time(self, lbn: int) -> tuple[float, float]:
        """(seek_ms, rotation_ms) :meth:`service` would charge to position
        on ``lbn`` (command overhead included) — no state change."""
        self.geometry.check_lbn(lbn)
        _, seek, wait = self._position_on(lbn)
        return seek, wait

    def service(self, lbn: int, nblocks: int = 1) -> RunTiming:
        """Service one run of ``nblocks`` consecutive LBNs; advance state."""
        if nblocks < 1:
            raise GeometryError("nblocks must be >= 1")
        geom = self.geometry
        geom.check_lbn(lbn)
        geom.check_lbn(lbn + nblocks - 1)
        start_ms = self._time_ms
        if self.cache is not None:
            track = geom.track_of(lbn)
            last_track = geom.track_of(lbn + nblocks - 1)
            if self.cache.hit(track, last_track):
                cost = self._overhead + nblocks * self.CACHE_BLOCK_MS
                self._time_ms += cost
                return RunTiming(
                    start_ms, 0.0, 0.0, nblocks * self.CACHE_BLOCK_MS,
                    0.0, self._overhead,
                )
        track, seek, wait = self._position_on(lbn)
        t = self._time_ms + self._overhead + seek + wait
        transfer, switch, end_track = self._transfer_scalar(lbn, nblocks, t)
        self._time_ms = t + transfer + switch
        self._track = end_track
        if self.cache is not None:
            self.cache.insert(track, end_track)
        return RunTiming(start_ms, seek, wait, transfer, switch, self._overhead)

    def _transfer_scalar(
        self, lbn: int, nblocks: int, t: float
    ) -> tuple[float, float, int]:
        """Exact transfer of a run, track by track (handles zone crossings).

        Returns (transfer_ms, switch_ms, final_track).  ``t`` is the time at
        which the first sector starts passing under the head.
        """
        geom = self.geometry
        mech = self.mechanics
        rot = self._rot
        track = geom.track_of(lbn)
        sector = geom.sector_of(lbn)
        spt = geom.track_length(track)
        transfer = 0.0
        switch = 0.0
        remaining = nblocks
        while True:
            burst = min(remaining, spt - sector)
            transfer += burst * (rot / spt)
            t += burst * (rot / spt)
            remaining -= burst
            if remaining == 0:
                return transfer, switch, track
            # cross to the next track: settle, then wait for its first
            # sector to come around (the skew normally absorbs the settle).
            track += 1
            spt = geom.track_length(track)
            sector = 0
            t_settle = t + mech.head_switch_ms
            next_angle = geom.start_angle(geom.track_first_lbn(track))
            realign = _wait_rev(next_angle - t_settle / rot) * rot
            switch += mech.head_switch_ms + realign
            t = t_settle + realign

    # ------------------------------------------------------------------
    # batch service
    # ------------------------------------------------------------------

    def _prepare_runs(self, starts, lengths):
        """Vectorised per-run geometry needed by the batch schedulers.

        Returns a dict of ndarrays: start cylinder/track/angle, end
        cylinder/track/angle, in-run transfer + switch cost.  Runs that
        cross a zone boundary are flagged for the exact scalar path.
        """
        geom = self.geometry
        rot = self._rot
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.shape != lengths.shape:
            raise GeometryError("starts and lengths must have equal shape")
        if lengths.size and lengths.min() < 1:
            raise GeometryError("run lengths must be >= 1")
        ends = starts + lengths - 1

        zi0, track0, sector0, spt0, a0 = geom.decompose(starts)
        zie, tracke, sectore, spte, ae = geom.decompose(ends)

        cross_zone = zi0 != zie
        sector_time = rot / spt0
        boundaries = tracke - track0
        transfer = lengths * sector_time
        # Each in-zone boundary costs settle + realign to the skewed next
        # track; that cost depends only on the zone, precomputed at init.
        switch = boundaries * self._boundary_cost[zi0]
        end_angle = (ae + 1.0 / spte) % 1.0

        surfaces = self.geometry.surfaces
        return {
            "starts": starts,
            "lengths": lengths,
            "cyl0": track0 // surfaces,
            "track0": track0,
            "a0": a0,
            "cyle": tracke // surfaces,
            "tracke": tracke,
            "end_angle": end_angle,
            "transfer": transfer,
            "switch": switch,
            "cross_zone": cross_zone,
        }

    def _seek_vector(self, dist: np.ndarray, track_diff: np.ndarray) -> np.ndarray:
        """Vectorised seek component: seek table, head switch, or zero."""
        seeks = self._seek_table[dist]
        seeks[(dist == 0) & (track_diff != 0)] = self._head_switch
        return seeks

    def service_runs(
        self,
        starts,
        lengths,
        *,
        policy: str = "sorted",
        window: int = 64,
        collect: bool = False,
    ) -> BatchResult:
        """Service a batch of runs under a scheduling policy.

        Parameters
        ----------
        starts, lengths:
            Parallel arrays describing the runs.
        policy:
            ``"fifo"``, ``"sorted"`` or ``"sptf"`` (see module docstring).
        window:
            Lookahead depth for ``"sptf"`` — models the drive's command
            queue; requests are admitted in issue order.
        collect:
            If true, return per-request service times and the service order.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        n = int(starts.size)
        if n == 0:
            return BatchResult.empty()
        info = self._prepare_runs(starts, lengths)
        if bool(info["cross_zone"].any()):
            return self._service_cross_zone(starts, lengths, policy, collect)
        if policy == "sorted":
            order = np.argsort(starts, kind="stable")
            return self._service_in_order(info, order, collect)
        if policy == "fifo":
            order = np.arange(n, dtype=np.int64)
            return self._service_in_order(info, order, collect)
        if policy == "sptf":
            return self._service_sptf(info, window, collect)
        raise ValueError(f"unknown policy {policy!r}")

    def service_lbns(self, lbns, **kwargs) -> BatchResult:
        """Service single-block requests (no coalescing)."""
        lbns = np.asarray(lbns, dtype=np.int64)
        return self.service_runs(lbns, np.ones_like(lbns), **kwargs)

    # -- fixed-order servicing (fifo / sorted) -------------------------

    def _service_in_order(self, info, order, collect: bool) -> BatchResult:
        if self.cache is not None:
            # the cache makes run costs state-dependent; take the exact
            # scalar path (ablation feature, throughput is secondary)
            starts = info["starts"]
            lengths = info["lengths"]
            timings = [
                self.service(int(starts[i]), int(lengths[i])) for i in order
            ]
            per_request = (
                np.array([tm.total_ms for tm in timings])
                if collect
                else None
            )
            return BatchResult(
                total_ms=sum(tm.total_ms for tm in timings),
                n_requests=len(timings),
                n_blocks=int(lengths.sum()),
                seek_ms=sum(tm.seek_ms for tm in timings),
                rotation_ms=sum(tm.rotation_ms for tm in timings),
                transfer_ms=sum(tm.transfer_ms for tm in timings),
                switch_ms=sum(tm.switch_ms for tm in timings),
                overhead_ms=sum(tm.overhead_ms for tm in timings),
                per_request_ms=per_request,
                order=order if collect else None,
            )
        rot = self._rot
        n = order.size
        cyl0 = info["cyl0"][order]
        track0 = info["track0"][order]
        a0 = info["a0"][order]
        cyle = info["cyle"][order]
        tracke = info["tracke"][order]
        transfer = info["transfer"][order]
        switch = info["switch"][order]

        # Seek components are order-dependent but fully precomputable.
        prev_cyl = np.empty(n, dtype=np.int64)
        prev_cyl[0] = self._track // self.geometry.surfaces
        prev_cyl[1:] = cyle[:-1]
        prev_track = np.empty(n, dtype=np.int64)
        prev_track[0] = self._track
        prev_track[1:] = tracke[:-1]
        seeks = self._seek_vector(
            np.abs(cyl0 - prev_cyl), track0 - prev_track
        )

        # The rotational recurrence is sequential; run it as a tight loop
        # over plain floats.
        t = self._time_ms
        overhead = self._overhead
        seeks_l = seeks.tolist()
        a0_l = a0.tolist()
        xfer_l = (transfer + switch).tolist()
        waits = [0.0] * n if collect else None
        rot_total = 0.0
        snap = 1.0 - SNAP_REV
        for i in range(n):
            arrival = t + overhead + seeks_l[i]
            wait = (a0_l[i] - (arrival / rot)) % 1.0
            if wait > snap:
                wait = 0.0
            wait *= rot
            rot_total += wait
            t = arrival + wait + xfer_l[i]
            if collect:
                waits[i] = wait

        total = t - self._time_ms
        self._time_ms = t
        self._track = int(tracke[-1])

        per_request = None
        if collect:
            per_request = (
                seeks + np.asarray(waits) + transfer + switch + overhead
            )
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=int(info["lengths"].sum()),
            seek_ms=float(seeks.sum()),
            rotation_ms=rot_total,
            transfer_ms=float(transfer.sum()),
            switch_ms=float(switch.sum()),
            overhead_ms=overhead * n,
            per_request_ms=per_request,
            order=order if collect else None,
        )

    # -- windowed shortest-positioning-time-first -----------------------

    def _service_sptf(self, info, window: int, collect: bool) -> BatchResult:
        if window < 1:
            raise ValueError("sptf window must be >= 1")
        rot = self._rot
        overhead = self._overhead
        positioning = self._positioning
        n = int(info["starts"].size)
        cyl0 = info["cyl0"].tolist()
        track0 = info["track0"].tolist()
        a0 = info["a0"].tolist()
        cyle = info["cyle"].tolist()
        tracke = info["tracke"].tolist()
        xfer = (info["transfer"] + info["switch"]).tolist()

        # The window, like a drive command queue, holds the first `window`
        # not-yet-serviced requests in issue order; it is kept as parallel
        # lists sorted by (start angle, request index).  Admission is in
        # index order, so a newcomer goes after any equal angle.
        next_admit = min(window, n)
        ids = sorted(range(next_admit), key=a0.__getitem__)
        angles = [a0[i] for i in ids]

        t = self._time_ms
        cur_cyl = self._track // self.geometry.surfaces
        cur_track = self._track

        order = [0] * n
        per_request = [0.0] * n if collect else None
        seek_total = rot_total = 0.0
        back_ms = SCAN_BACK_REV * rot + SCAN_GUARD_MS

        for step in range(n):
            issue = t + overhead
            start = (issue / rot) % 1.0 - SCAN_BACK_REV
            if start < 0.0:
                start += 1.0
            m = len(ids)
            pos = bisect_left(angles, start)
            best_cost = float("inf")
            best_id = best_k = -1
            best_seek = best_wait = 0.0
            for j in range(m):
                k = pos + j
                if k >= m:
                    k -= m
                ahead = angles[k] - start
                if ahead < 0.0:
                    ahead += 1.0
                # every cost is at least the candidate's angular offset
                # ahead of the head's phase, and offsets only grow from here
                if ahead * rot - back_ms > best_cost:
                    break
                i = ids[k]
                seek, wait = positioning(
                    issue, cur_cyl, cur_track, cyl0[i], track0[i], angles[k]
                )
                cost = seek + wait
                if cost < best_cost or (cost == best_cost and i < best_id):
                    best_cost, best_id, best_k = cost, i, k
                    best_seek, best_wait = seek, wait

            seek_total += best_seek
            rot_total += best_wait
            service_time = overhead + best_cost + xfer[best_id]
            if collect:
                per_request[step] = service_time
            t += service_time
            cur_cyl = cyle[best_id]
            cur_track = tracke[best_id]
            order[step] = best_id

            del ids[best_k]
            del angles[best_k]
            if next_admit < n:
                a = a0[next_admit]
                k = bisect_right(angles, a)
                angles.insert(k, a)
                ids.insert(k, next_admit)
                next_admit += 1

        total = t - self._time_ms
        self._time_ms = t
        self._track = cur_track
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=int(info["lengths"].sum()),
            seek_ms=seek_total,
            rotation_ms=rot_total,
            transfer_ms=float(info["transfer"].sum()),
            switch_ms=float(info["switch"].sum()),
            overhead_ms=overhead * n,
            per_request_ms=(
                np.array(per_request, dtype=np.float64) if collect else None
            ),
            order=np.array(order, dtype=np.int64) if collect else None,
        )

    # -- exact fallback for zone-crossing runs ---------------------------

    def _service_cross_zone(
        self, starts, lengths, policy: str, collect: bool
    ) -> BatchResult:
        order = (
            np.argsort(starts, kind="stable")
            if policy == "sorted"
            else np.arange(starts.size, dtype=np.int64)
        )
        timings = []
        for i in order:
            timings.append(self.service(int(starts[i]), int(lengths[i])))
        per_request = (
            np.array([tm.total_ms for tm in timings]) if collect else None
        )
        return BatchResult(
            total_ms=sum(tm.total_ms for tm in timings),
            n_requests=len(timings),
            n_blocks=int(np.asarray(lengths).sum()),
            seek_ms=sum(tm.seek_ms for tm in timings),
            rotation_ms=sum(tm.rotation_ms for tm in timings),
            transfer_ms=sum(tm.transfer_ms for tm in timings),
            switch_ms=sum(tm.switch_ms for tm in timings),
            overhead_ms=sum(tm.overhead_ms for tm in timings),
            per_request_ms=per_request,
            order=order if collect else None,
        )

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------

    def streaming_bandwidth_bytes_per_s(self, zone_index: int = 0) -> float:
        """Sustained sequential bandwidth within a zone (includes skew loss)."""
        zone = self.geometry.zone(zone_index)
        spt = zone.sectors_per_track
        sector_time = self._rot / spt
        track_time = self._rot + zone.skew_sectors * sector_time
        return spt * 512 / (track_time / 1000.0)
