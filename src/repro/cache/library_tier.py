"""The disk staging cache in front of the multi-drive library.

:class:`CachedTertiaryStorageSystem` composes the cache with one drive
by subclassing; this module composes it with any backend by
*injection*: ``CachedLibrarySystem(system=MultiDriveSystem(...))``
wraps a fresh multi-drive system and serves lookups from a shared
:class:`~repro.cache.store.SegmentCache` first.  Hits complete at
(simulated) arrival time plus the configured disk latency; misses flow
into the backend unchanged.  After every backend batch the fetched
segments are staged (admission-controlled, failure-filtered) and the
segments the head passed over are prefetched for free — the single-drive
tier's own :func:`~repro.cache.system.stage_batch`, per drive bay.

The cache is shared across cartridges, so resident segments are keyed
in a *global* address space: each cartridge (sorted by label) owns a
contiguous block of keys offset by the total segments of the
cartridges before it.  Tape-local coordinates never leak into the
cache and cross-tape collisions cannot happen.

The tier exposes the same opened serving surface as the backend
(``begin`` / ``submit`` / ``finish``, ``completion_listeners`` /
``failure_listeners``), so a :class:`~repro.serve.Gateway` can stack
on top of the cache exactly as it stacks on the bare library.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

from repro.cache.prefetch import DEFAULT_MAX_PREFETCH_PER_BATCH
from repro.cache.store import SegmentCache
from repro.cache.system import (
    DEFAULT_CACHE_CAPACITY_SEGMENTS,
    stage_batch,
)
from repro.constants import DEFAULT_COALESCE_THRESHOLD
from repro.exceptions import CacheError, LibraryError, UnknownTape
from repro.library.events import SimEvent
from repro.library.requests import LibraryRequest
from repro.library.system import MultiDriveSystem
from repro.obs.events import RequestCompleted
from repro.online.metrics import CacheStats, ResponseStats


@dataclass(frozen=True, slots=True)
class CacheLookup(SimEvent):
    """A tier request reached the cache at its arrival instant.

    Ranks after gateway admissions (−10) and before backend arrivals
    (0) at the same instant, so the lookup sees the cache exactly as
    the request's arrival time left it and a miss enters the backend
    queue in arrival order.
    """

    priority: ClassVar[int] = -5

    request_index: int


class CachedLibrarySystem:
    """A shared disk staging tier over an injected multi-drive backend.

    Parameters
    ----------
    system:
        A fresh (un-run) :class:`~repro.library.MultiDriveSystem`.
        The tier drives it through its opened serving surface; build
        it with ``bus=`` to put cache and library events on one
        stream.
    cache:
        The staging tier; defaults to an LRU/always-admit cache of
        :data:`~repro.cache.system.DEFAULT_CACHE_CAPACITY_SEGMENTS`
        segments.  Keys are global (see module docstring) — do not
        share one cache between tiers with different shelves.
    hit_latency_seconds:
        Response time charged to a cache hit.
    prefetch, prefetch_threshold, max_prefetch_per_batch:
        Passed-over-segment prefetch, as in the single-drive tier.
    """

    def __init__(
        self,
        *,
        system: MultiDriveSystem,
        cache: SegmentCache | None = None,
        hit_latency_seconds: float = 0.0,
        prefetch: bool = True,
        prefetch_threshold: int = DEFAULT_COALESCE_THRESHOLD,
        max_prefetch_per_batch: int = DEFAULT_MAX_PREFETCH_PER_BATCH,
    ) -> None:
        if hit_latency_seconds < 0:
            raise CacheError("hit_latency_seconds must be >= 0")
        self.system = system
        self.cache = (
            cache
            if cache is not None
            else SegmentCache(DEFAULT_CACHE_CAPACITY_SEGMENTS)
        )
        self.hit_latency_seconds = float(hit_latency_seconds)
        self.prefetch = prefetch
        self.prefetch_threshold = prefetch_threshold
        self.max_prefetch_per_batch = max_prefetch_per_batch
        self.kernel = system.kernel
        self.bus = system.bus
        if self.bus is not None and self.cache.bus is None:
            self.cache.bus = self.bus
        #: Response statistics over *all* tier requests — cache hits
        #: at disk latency plus backend completions at tape latency.
        self.stats = ResponseStats()
        self.submitted = 0
        #: Cache hits served without touching the backend.
        self.hits = 0
        #: Outcome hooks, same contract as the backend's (hits report
        #: ``drive_index`` −1).
        self.completion_listeners = []
        self.failure_listeners = []
        self._requests: list[LibraryRequest] = []
        # Global key space: each label's block starts where the
        # previous (sorted) label's ends.
        self._offsets: dict[str, int] = {}
        offset = 0
        for label in system.labels():
            self._offsets[label] = offset
            offset += system.cartridge(label).geometry.total_segments

        self.kernel.on(CacheLookup, self._on_lookup)
        system.completion_listeners.append(self._forward_completion)
        system.failure_listeners.append(self._forward_failure)
        system.batch_listeners.append(self._on_backend_batch)

    # -- tier state --------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/byte accounting of the staging tier."""
        return self.cache.stats

    @property
    def failed(self) -> list[LibraryRequest]:
        """Requests the backend surfaced as failed."""
        return self.system.failed

    @property
    def lost(self) -> int:
        """Requests with no recorded outcome (zero after a run)."""
        return self.submitted - self.stats.count - len(self.failed)

    @property
    def degraded(self) -> bool:
        """Has the backend dropped to its fallback scheduler?"""
        return self.system.degraded

    def labels(self) -> list[str]:
        """All cartridge labels, sorted."""
        return self.system.labels()

    # -- the run -----------------------------------------------------------

    def run(self, requests: Iterable[LibraryRequest]) -> ResponseStats:
        """Serve a timed request stream to completion."""
        self.begin()
        items = sorted(requests, key=lambda r: r.arrival_seconds)
        for request in items:
            if request.label not in self._offsets:
                raise UnknownTape(
                    f"no cartridge labelled {request.label!r}"
                )
        for request in items:
            self.submit(request)
        return self.finish()

    def begin(self) -> None:
        """Open the tier for :meth:`submit` (one-shot)."""
        self.system.begin()

    def submit(self, request: LibraryRequest) -> int:
        """Inject one request; the cache answers at its arrival time."""
        if request.label not in self._offsets:
            raise UnknownTape(
                f"no cartridge labelled {request.label!r}"
            )
        index = len(self._requests)
        self._requests.append(request)
        self.submitted += 1
        self.kernel.schedule(
            max(self.kernel.now_seconds, request.arrival_seconds),
            CacheLookup(request_index=index),
        )
        return index

    def finish(self) -> ResponseStats:
        """Drain the backend to quiescence; returns the tier stats."""
        self.system.finish()
        return self.stats

    # -- serving path ------------------------------------------------------

    def _on_lookup(self, event: CacheLookup) -> None:
        if self.bus is not None:
            self.bus.set_time(self.kernel.now_seconds)
        request = self._requests[event.request_index]
        key = self._offsets[request.label] + request.segment
        if self.cache.lookup(key, request.length):
            self.hits += 1
            completion = (
                self.kernel.now_seconds + self.hit_latency_seconds
            )
            self.stats.record(request.arrival_seconds, completion)
            for listener in self.completion_listeners:
                listener(request, completion, -1)
            if self.bus is not None:
                # position/drive −1 mark a cache hit in the stream.
                self.bus.publish(
                    RequestCompleted(
                        seconds=completion,
                        position=-1,
                        segment=request.segment,
                        length=request.length,
                        arrival_seconds=request.arrival_seconds,
                        completion_seconds=completion,
                        drive=-1,
                    )
                )
            return
        self.system.submit(request)

    def _forward_completion(
        self, item: LibraryRequest, completion_seconds: float, drive: int
    ) -> None:
        self.stats.record(item.arrival_seconds, completion_seconds)
        for listener in self.completion_listeners:
            listener(item, completion_seconds, drive)

    def _forward_failure(self, item: LibraryRequest) -> None:
        for listener in self.failure_listeners:
            listener(item)

    # -- staging -----------------------------------------------------------

    def _on_backend_batch(
        self, label: str, drive: int, batch, schedule, result
    ) -> None:
        bay = self.system.bays[drive]
        if bay.drive is None:  # pragma: no cover - bay mounted mid-batch
            raise LibraryError(
                "batch completed on a bay with no mounted drive"
            )
        stage_batch(
            self.cache,
            self.system.cartridge(label).model,
            bay.drive.position,
            schedule,
            result,
            key_offset=self._offsets[label],
            prefetch=self.prefetch,
            threshold=self.prefetch_threshold,
            limit=self.max_prefetch_per_batch,
        )
