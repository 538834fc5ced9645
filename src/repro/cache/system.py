"""The cached online tertiary storage system (HSM front-end).

The paper's setting is an *online* store: random reads hit tape only
after missing a disk staging tier.  This module adds that tier in
front of :class:`~repro.online.system.TertiaryStorageSystem`: arrivals
are looked up in a :class:`~repro.cache.store.SegmentCache` first —
hits complete immediately (disk latency is negligible against 10–100 s
locates), misses flow into the existing batch queue and scheduler
unchanged.  After each executed batch the fetched segments are staged
(subject to admission control) and the segments the head passed over
while reading through coalesced gaps are prefetched for free.

:func:`stage_batch` is that staging step, shared with the multi-drive
tier (:class:`~repro.cache.library_tier.CachedLibrarySystem`), which
calls it with a per-cartridge segment-key offset.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.cache.prefetch import (
    DEFAULT_MAX_PREFETCH_PER_BATCH,
    prefetch_candidates,
)
from repro.cache.store import SegmentCache
from repro.constants import DEFAULT_COALESCE_THRESHOLD
from repro.online.metrics import CacheStats, ResponseStats
from repro.online.system import TertiaryStorageSystem
from repro.scheduling.executor import ExecutionResult
from repro.scheduling.schedule import Schedule
from repro.workload.arrivals import TimedRequest

#: Default staging capacity: a 1 GB disk of the paper's 32 KB segments.
DEFAULT_CACHE_CAPACITY_SEGMENTS = 32_768


def stage_batch(
    cache: SegmentCache,
    model,
    head_position: int,
    schedule: Schedule,
    result: ExecutionResult,
    *,
    key_offset: int = 0,
    prefetch: bool = True,
    threshold: int = DEFAULT_COALESCE_THRESHOLD,
    limit: int | None = DEFAULT_MAX_PREFETCH_PER_BATCH,
) -> None:
    """Stage one executed batch into ``cache``.

    Demand fill offers every segment the batch read (admission-
    controlled).  A failed request delivered no data, so its segments
    are skipped -- staging them would serve future hits from segments
    that were never read.  Prefetch offers the segments the head passed
    over anyway (see :func:`~repro.cache.prefetch.prefetch_candidates`),
    but only when the batch executed cleanly: after faults the head's
    actual path no longer matches the schedule's coalesced gaps.

    Every offer is costed with the model-estimated locate time from
    ``head_position`` (where the batch left the head) and keyed
    ``key_offset + segment``, so tiers whose cache spans several
    cartridges stage into one global key space.
    """
    ok = result.success
    seen: set[int] = set()
    fetched: list[int] = []
    for position, request in enumerate(schedule):
        if ok is not None and not ok[position]:
            continue
        for segment in range(request.segment, request.end_segment):
            if segment not in seen:
                seen.add(segment)
                fetched.append(segment)
    runs = [(fetched, False)]
    if prefetch and (ok is None or result.all_succeeded):
        candidates = prefetch_candidates(schedule.requests, threshold, limit)
        runs.append((candidates, True))
    for segments, prefetched in runs:
        if segments:
            cache.admit_run(
                [segment + key_offset for segment in segments],
                model.locate_times(head_position, segments),
                prefetch=prefetched,
            )


@dataclass
class CachedTertiaryStorageSystem(TertiaryStorageSystem):
    """Single-cartridge online service with a disk staging cache.

    Parameters (beyond :class:`TertiaryStorageSystem`)
    ----------
    cache:
        The staging tier; defaults to an LRU/always-admit cache of
        :data:`DEFAULT_CACHE_CAPACITY_SEGMENTS` segments.
    hit_latency_seconds:
        Response time charged to a cache hit (0 = hits complete at
        arrival, the locate-dominated regime of the paper).
    prefetch:
        Stage the segments each batch's head passes over (see
        :mod:`repro.cache.prefetch`).
    prefetch_threshold, max_prefetch_per_batch:
        Coalescing distance and per-batch cap for prefetch.
    """

    cache: SegmentCache = field(
        kw_only=True,
        default_factory=lambda: SegmentCache(
            DEFAULT_CACHE_CAPACITY_SEGMENTS
        ),
    )
    hit_latency_seconds: float = field(kw_only=True, default=0.0)
    prefetch: bool = field(kw_only=True, default=True)
    prefetch_threshold: int = field(
        kw_only=True, default=DEFAULT_COALESCE_THRESHOLD
    )
    max_prefetch_per_batch: int = field(
        kw_only=True, default=DEFAULT_MAX_PREFETCH_PER_BATCH
    )

    def __post_init__(self) -> None:
        if self.hit_latency_seconds < 0:
            raise ValueError("hit_latency_seconds must be >= 0")
        super().__post_init__()
        # The staging tier joins the system's event stream (unless the
        # caller wired the cache to a bus of its own already).
        if self.bus is not None and self.cache.bus is None:
            self.cache.bus = self.bus
        #: The last batch's staging, held back until the simulated
        #: clock passes that batch's end: ``(end_seconds, head,
        #: schedule, result)`` or None.
        self._held: tuple | None = None
        self.batch_listeners.append(self._hold_staging)

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/byte accounting of the staging tier."""
        return self.cache.stats

    def run(self, requests: Iterable[TimedRequest]) -> ResponseStats:
        """Service a timed request stream to completion (see
        :meth:`TertiaryStorageSystem.run`), staging the last batch."""
        stats = super().run(requests)
        self._release_staging()
        return stats

    def _admit(self, item: TimedRequest, now: float) -> None:
        """Check the cache; hits complete at once, misses queue for tape.

        The batch loop admits a request that arrived while the drive
        was busy only once the batch is over, so the lookup must not
        see that batch's data unless the request arrived after the
        batch ended (a request arriving exactly at the end looks up
        first, as in the event-driven tier).
        """
        held = self._held
        if held is not None and item.arrival_seconds > held[0]:
            self._release_staging()
        if self.cache.lookup(item.segment, item.length):
            # position -1 marks a cache hit in the event stream.
            self._complete(
                item,
                item.arrival_seconds + self.hit_latency_seconds,
                position=-1,
            )
            return
        super()._admit(item, now)

    def _run_batch(self, now: float) -> None:
        self._release_staging()
        super()._run_batch(now)

    def _hold_staging(self, label, drive, batch, schedule, result) -> None:
        self._held = (
            self._drive_free_at, self.drive.position, schedule, result
        )

    def _release_staging(self) -> None:
        """Stage the held batch, if any."""
        if self._held is None:
            return
        _, head, schedule, result = self._held
        self._held = None
        stage_batch(
            self.cache,
            self.model,
            head,
            schedule,
            result,
            prefetch=self.prefetch,
            threshold=self.prefetch_threshold,
            limit=self.max_prefetch_per_batch,
        )
