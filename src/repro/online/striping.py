"""Striped tape arrays — the [DK93]/[GMW95] related-work extension.

The paper cites striped tape organizations (Drapeau & Katz; Golubchik,
Muntz & Watson) as the complementary lever on tape performance:
scheduling attacks positioning *latency*, striping attacks *bandwidth
and parallelism* by spreading a logical volume across several drives.
This module combines the two: :class:`StripedTapeArray` stripes a
logical address space round-robin over K cartridges, splits a random
batch into its per-drive sub-batches, schedules each sub-batch
independently (LOSS by default), and runs all drives in parallel — the
batch completes at the slowest drive's makespan.

:func:`striped_volume` sizes every stripe mapping in this module; the
array uses its one-replica mapping.

Because each drive sees ~1/K of the requests, the per-request
positioning cost *rises* (smaller batches schedule worse — Figure 4),
so the speedup from K drives is sublative: K drives buy less than K×.
The ablation benchmark quantifies that interaction.

Two more layers connect striping to the multi-drive library of
:mod:`repro.library`:

* :class:`StripedVolume` — a *replicated* stripe mapping over named
  cartridges: replica ``r`` of stripe unit ``u`` lives on cartridge
  ``(u + r) mod K`` in that cartridge's replica-``r`` region (rotated
  placement, so losing any one cartridge loses exactly one copy of
  each affected unit).
* :class:`StripedReadCoordinator` — fans a logical read out into
  per-unit sub-requests through a
  :class:`~repro.library.system.MultiDriveSystem`'s opened serving
  surface, falls back to surviving replicas when a sub-request
  exhausts the resilience layer's budgets (a *degraded read*), and
  enqueues background repair traffic that re-reads the surviving copy
  — competing with user traffic for drives, arms, and cartridges.
  The coordinator's own accounting closes the durability loop: every
  logical read ends as completed or failed, never silently lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.drive.simulated import SimulatedDrive
from repro.exceptions import (
    EmptyBatchError,
    LibraryError,
    SegmentOutOfRange,
)
from repro.library.cartridge import Cartridge
from repro.library.requests import LibraryRequest
from repro.obs.events import DegradedRead, RepairCompleted, RepairStarted
from repro.online.metrics import ResponseStats
from repro.scheduling.base import Scheduler
from repro.scheduling.executor import execute_schedule
from repro.scheduling.loss import LossScheduler
from repro.scheduling.request import Request


@dataclass(frozen=True)
class StripeMapping:
    """Round-robin mapping of a logical space onto K cartridges.

    Logical segments are grouped into *stripe units* of
    ``stripe_unit`` segments; unit ``u`` lives on cartridge
    ``u mod K`` at physical unit ``u // K``.
    """

    drives: int
    stripe_unit: int
    units_per_drive: int

    def __post_init__(self) -> None:
        # Typed errors, not a ZeroDivisionError out of locate(): the
        # mapping is arithmetic, so a zero or negative shape would
        # otherwise surface far from the construction site.
        for name in ("drives", "stripe_unit", "units_per_drive"):
            value = getattr(self, name)
            if value < 1:
                raise LibraryError(
                    f"StripeMapping {name} must be >= 1, got {value}"
                )

    @property
    def logical_total(self) -> int:
        """Number of logical segments the volume exposes."""
        return self.drives * self.units_per_drive * self.stripe_unit

    def locate(self, logical_segment: int) -> tuple[int, int]:
        """Map a logical segment to ``(drive index, physical segment)``."""
        if not 0 <= logical_segment < self.logical_total:
            raise SegmentOutOfRange(logical_segment, self.logical_total)
        unit, offset = divmod(logical_segment, self.stripe_unit)
        drive = unit % self.drives
        physical_unit = unit // self.drives
        return drive, physical_unit * self.stripe_unit + offset

    def logical_of(self, drive: int, physical_segment: int) -> int:
        """Inverse of :meth:`locate`."""
        physical_unit, offset = divmod(physical_segment, self.stripe_unit)
        unit = physical_unit * self.drives + drive
        return unit * self.stripe_unit + offset


@dataclass(frozen=True)
class StripedBatchResult:
    """Outcome of servicing one batch on the array."""

    makespan_seconds: float
    drive_seconds: tuple[float, ...]
    drive_requests: tuple[int, ...]

    @property
    def parallel_efficiency(self) -> float:
        """Total drive-busy time divided by (drives x makespan)."""
        busy = sum(self.drive_seconds)
        return busy / (len(self.drive_seconds) * self.makespan_seconds)


class StripedTapeArray:
    """K cartridges in K drives, serving one striped logical volume.

    The placement is :func:`striped_volume`'s with one replica, so the
    same checks apply: at least one cartridge, ``stripe_unit >= 1``,
    and unique cartridge labels.
    """

    def __init__(
        self,
        cartridges: list[Cartridge],
        stripe_unit: int = 1,
        scheduler: Scheduler | None = None,
    ) -> None:
        self.mapping = striped_volume(cartridges, stripe_unit).mapping
        self.cartridges = list(cartridges)
        self.scheduler = scheduler or LossScheduler()
        self._drives = [
            SimulatedDrive(cartridge.model)
            for cartridge in self.cartridges
        ]

    @property
    def logical_total(self) -> int:
        """Logical segments exposed by the volume."""
        return self.mapping.logical_total

    def split_batch(
        self, logical_segments
    ) -> list[list[int]]:
        """Per-drive physical sub-batches for a logical batch."""
        split: list[list[int]] = [[] for _ in self.cartridges]
        for logical in np.asarray(logical_segments, dtype=np.int64):
            drive, physical = self.mapping.locate(int(logical))
            split[drive].append(physical)
        return split

    def service_batch(self, logical_segments) -> StripedBatchResult:
        """Schedule and execute one batch across all drives in parallel.

        Each drive's head stays where its previous sub-batch left it
        (the paper's repeated-batches scenario, per drive).
        """
        split = self.split_batch(logical_segments)
        if not any(split):
            raise EmptyBatchError("request batch is empty")
        drive_seconds = []
        for index, physicals in enumerate(split):
            if not physicals:
                drive_seconds.append(0.0)
                continue
            drive = self._drives[index]
            schedule = self.scheduler.schedule(
                self.cartridges[index].model,
                drive.position,
                [Request(p) for p in physicals],
            )
            result = execute_schedule(drive, schedule)
            drive_seconds.append(result.total_seconds)
        return StripedBatchResult(
            makespan_seconds=max(drive_seconds),
            drive_seconds=tuple(drive_seconds),
            drive_requests=tuple(len(p) for p in split),
        )


# -- replicated volumes on the multi-drive library ---------------------------


@dataclass(frozen=True)
class StripedVolume:
    """A replicated stripe mapping over named cartridges.

    The logical space of ``mapping`` is striped round-robin over the K
    ``labels``; each stripe unit additionally exists as ``replicas``
    copies with *rotated* placement — replica ``r`` of unit ``u`` lives
    on cartridge ``(u + r) mod K``, inside that cartridge's
    replica-``r`` region (physical units
    ``[r * units_per_drive, (r + 1) * units_per_drive)``).  Rotation
    means losing one cartridge costs exactly one copy of each unit it
    held, never two, so any single-cartridge failure leaves
    ``replicas - 1`` readable copies of everything.

    Each cartridge therefore needs
    ``replicas * units_per_drive * stripe_unit`` physical segments
    (checked by :func:`striped_volume`, which sizes a volume to fit a
    shelf).
    """

    labels: tuple[str, ...]
    mapping: StripeMapping
    replicas: int = 1

    def __post_init__(self) -> None:
        if len(self.labels) != self.mapping.drives:
            raise LibraryError(
                f"volume has {len(self.labels)} labels but the "
                f"mapping stripes over {self.mapping.drives}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise LibraryError("volume labels must be unique")
        if not 1 <= self.replicas <= len(self.labels):
            raise LibraryError(
                f"replicas must be in [1, {len(self.labels)}], "
                f"got {self.replicas}"
            )

    @property
    def logical_total(self) -> int:
        """Logical segments exposed by the volume."""
        return self.mapping.logical_total

    @property
    def total_units(self) -> int:
        """Stripe units in the logical space."""
        return self.mapping.drives * self.mapping.units_per_drive

    def unit_of(self, logical_segment: int) -> tuple[int, int]:
        """The ``(stripe unit, offset within it)`` of a logical segment."""
        if not 0 <= logical_segment < self.logical_total:
            raise SegmentOutOfRange(logical_segment, self.logical_total)
        return divmod(logical_segment, self.mapping.stripe_unit)

    def unit_location(self, unit: int, replica: int) -> tuple[str, int]:
        """Cartridge label and physical segment of a unit copy's start."""
        if not 0 <= unit < self.total_units:
            raise SegmentOutOfRange(unit, self.total_units)
        if not 0 <= replica < self.replicas:
            raise LibraryError(
                f"replica must be in [0, {self.replicas}), got {replica}"
            )
        k = len(self.labels)
        label = self.labels[(unit + replica) % k]
        physical_unit = (
            replica * self.mapping.units_per_drive + unit // k
        )
        return label, physical_unit * self.mapping.stripe_unit

    def locate(
        self, logical_segment: int, replica: int = 0
    ) -> tuple[str, int]:
        """Cartridge label and physical segment of one logical segment."""
        unit, offset = self.unit_of(logical_segment)
        label, start = self.unit_location(unit, replica)
        return label, start + offset

    def unit_runs(
        self, logical_segment: int, length: int
    ) -> list[tuple[int, int, int]]:
        """Split a logical range into per-unit contiguous runs.

        Returns ``(unit, offset within unit, run length)`` triples; each
        run stays inside one stripe unit, hence lands contiguously on
        one cartridge (for every replica) — the fan-out granule of the
        read coordinator.
        """
        if length < 1:
            raise LibraryError(f"length must be >= 1, got {length}")
        if logical_segment + length > self.logical_total:
            raise SegmentOutOfRange(
                logical_segment + length - 1, self.logical_total
            )
        runs: list[tuple[int, int, int]] = []
        remaining = length
        position = logical_segment
        while remaining > 0:
            unit, offset = self.unit_of(position)
            take = min(remaining, self.mapping.stripe_unit - offset)
            runs.append((unit, offset, take))
            position += take
            remaining -= take
        return runs


def striped_volume(
    cartridges: list[Cartridge],
    stripe_unit: int = 1,
    replicas: int = 1,
) -> StripedVolume:
    """Size a :class:`StripedVolume` to fit a shelf of cartridges.

    The logical capacity is what the *smallest* cartridge can hold
    after reserving room for every replica region.
    """
    if not cartridges:
        raise LibraryError("a striped volume needs cartridges")
    if stripe_unit < 1:
        raise LibraryError("stripe_unit must be >= 1")
    smallest = min(c.geometry.total_segments for c in cartridges)
    units = smallest // (stripe_unit * max(1, replicas))
    if units < 1:
        raise LibraryError(
            f"cartridges of {smallest} segments cannot hold "
            f"{replicas} replicas of stripe unit {stripe_unit}"
        )
    return StripedVolume(
        labels=tuple(c.label for c in cartridges),
        mapping=StripeMapping(
            drives=len(cartridges),
            stripe_unit=stripe_unit,
            units_per_drive=units,
        ),
        replicas=replicas,
    )


@dataclass
class LogicalRead:
    """One user-visible read of the striped volume."""

    arrival_seconds: float
    logical_segment: int
    length: int
    #: Sub-requests still in flight (by object id).
    pending: set[int] = field(default_factory=set)
    completion_seconds: float = 0.0
    #: Sub-requests that fell back to a surviving replica.
    degraded: int = 0
    failed: bool = False


@dataclass
class _SubRead:
    read: LogicalRead
    unit: int
    offset: int
    length: int
    replica: int


@dataclass
class _Repair:
    unit: int
    replica: int
    enqueued_seconds: float


class StripedReadCoordinator:
    """Replica-aware logical reads on a multi-drive library.

    Sits on the opened serving surface of a
    :class:`~repro.library.system.MultiDriveSystem` (``begin`` /
    ``submit`` / ``finish`` plus the completion and failure listeners):

    * :meth:`submit` fans a logical read out into per-stripe-unit
      sub-requests against the primary replica — different units live
      on different cartridges, so the read parallelizes across drive
      bays;
    * a sub-request the system reports *failed* (retries and requeues
      exhausted on that cartridge) is re-issued against the next
      surviving replica — a **degraded read**
      (:class:`~repro.obs.events.DegradedRead`), preserving the
      original arrival time so the response-time statistics keep
      charging the full wait;
    * each degraded unit gets one background **repair** read of the
      whole surviving copy
      (:class:`~repro.obs.events.RepairStarted` /
      :class:`~repro.obs.events.RepairCompleted`) — re-replication
      traffic competing with user requests for drives, arms, and
      cartridges;
    * a sub-request that fails on the *last* replica marks the whole
      logical read failed — a durability loss, surfaced in
      :attr:`failed_reads`, never silently dropped: after
      :meth:`~repro.library.system.MultiDriveSystem.finish`,
      :attr:`lost` is zero by construction and the chaos sweep gates
      on it.

    The system's own ``failed`` list still counts per-cartridge
    sub-request failures; durability lives here, where redundancy is
    visible.
    """

    def __init__(self, system, volume: StripedVolume) -> None:
        for label in volume.labels:
            system.cartridge(label)  # raises UnknownTape early
        self.system = system
        self.volume = volume
        self.stats = ResponseStats()
        #: Logical reads submitted / completed.
        self.reads = 0
        self.completed = 0
        #: Logical reads that exhausted every replica.
        self.failed_reads: list[LogicalRead] = []
        #: Sub-requests served from a non-primary replica.
        self.degraded_reads = 0
        self.repairs_started = 0
        self.repairs_completed = 0
        #: Repairs whose every source replica failed.
        self.repairs_failed = 0
        self._subs: dict[int, _SubRead] = {}
        self._repairs: dict[int, _Repair] = {}
        self._units_under_repair: set[int] = set()
        system.completion_listeners.append(self._on_complete)
        system.failure_listeners.append(self._on_failure)

    @property
    def lost(self) -> int:
        """Logical reads neither completed nor surfaced as failed.

        Zero after a finished run — anything else is a coordinator
        bug, not a statistic (the chaos sweep gates on this).
        """
        return self.reads - self.completed - len(self.failed_reads)

    def submit(
        self,
        arrival_seconds: float,
        logical_segment: int,
        length: int = 1,
    ) -> LogicalRead:
        """Fan one logical read out across the primary replicas."""
        read = LogicalRead(
            arrival_seconds=arrival_seconds,
            logical_segment=logical_segment,
            length=length,
        )
        self.reads += 1
        for unit, offset, run in self.volume.unit_runs(
            logical_segment, length
        ):
            self._issue(read, unit, offset, run, replica=0)
        return read

    def _issue(
        self,
        read: LogicalRead,
        unit: int,
        offset: int,
        length: int,
        replica: int,
    ) -> None:
        label, start = self.volume.unit_location(unit, replica)
        request = LibraryRequest(
            arrival_seconds=read.arrival_seconds,
            label=label,
            segment=start + offset,
            length=length,
        )
        self._subs[id(request)] = _SubRead(
            read=read,
            unit=unit,
            offset=offset,
            length=length,
            replica=replica,
        )
        read.pending.add(id(request))
        self.system.submit(request)

    def _on_complete(
        self, request, completion_seconds: float, drive: int
    ) -> None:
        repair = self._repairs.pop(id(request), None)
        if repair is not None:
            self._finish_repair(repair, completion_seconds)
            return
        sub = self._subs.pop(id(request), None)
        if sub is None:
            return
        read = sub.read
        read.pending.discard(id(request))
        read.completion_seconds = max(
            read.completion_seconds, completion_seconds
        )
        if not read.pending and not read.failed:
            self.completed += 1
            self.stats.record(
                read.arrival_seconds, read.completion_seconds
            )

    def _on_failure(self, request) -> None:
        repair = self._repairs.pop(id(request), None)
        if repair is not None:
            self._retry_repair(repair)
            return
        sub = self._subs.pop(id(request), None)
        if sub is None:
            return
        read = sub.read
        read.pending.discard(id(request))
        next_replica = sub.replica + 1
        if next_replica < self.volume.replicas:
            # Degraded read: the unit survives on the next rotated
            # copy.  The re-issued sub keeps the original arrival, so
            # the eventual completion is charged the full wait.
            self.degraded_reads += 1
            read.degraded += 1
            label, start = self.volume.unit_location(
                sub.unit, next_replica
            )
            if self.system.bus is not None:
                self.system.bus.publish(
                    DegradedRead(
                        seconds=self.system.clock_seconds,
                        label=label,
                        segment=start + sub.offset,
                        replica=next_replica,
                        logical_segment=(
                            sub.unit * self.volume.mapping.stripe_unit
                            + sub.offset
                        ),
                    )
                )
            self._issue(
                read, sub.unit, sub.offset, sub.length, next_replica
            )
            self._start_repair(sub.unit, next_replica)
            return
        # Every replica exhausted: a durability loss, surfaced (the
        # read is failed, not lost).
        if not read.failed:
            read.failed = True
            self.failed_reads.append(read)

    # -- background repair ---------------------------------------------------

    def _start_repair(self, unit: int, source_replica: int) -> None:
        if unit in self._units_under_repair:
            return
        self._units_under_repair.add(unit)
        self.repairs_started += 1
        now = self.system.clock_seconds
        repair = _Repair(
            unit=unit,
            replica=source_replica,
            enqueued_seconds=now,
        )
        label, start = self.volume.unit_location(unit, source_replica)
        if self.system.bus is not None:
            self.system.bus.publish(
                RepairStarted(
                    seconds=now,
                    label=label,
                    segment=start,
                    length=self.volume.mapping.stripe_unit,
                    replica=source_replica,
                )
            )
        self._submit_repair(repair)

    def _submit_repair(self, repair: _Repair) -> None:
        label, start = self.volume.unit_location(
            repair.unit, repair.replica
        )
        request = LibraryRequest(
            arrival_seconds=self.system.clock_seconds,
            label=label,
            segment=start,
            length=self.volume.mapping.stripe_unit,
        )
        self._repairs[id(request)] = repair
        self.system.submit(request)

    def _retry_repair(self, repair: _Repair) -> None:
        next_replica = repair.replica + 1
        if next_replica < self.volume.replicas:
            repair.replica = next_replica
            self._submit_repair(repair)
            return
        self.repairs_failed += 1
        self._units_under_repair.discard(repair.unit)

    def _finish_repair(
        self, repair: _Repair, completion_seconds: float
    ) -> None:
        self.repairs_completed += 1
        self._units_under_repair.discard(repair.unit)
        label, start = self.volume.unit_location(
            repair.unit, repair.replica
        )
        if self.system.bus is not None:
            self.system.bus.publish(
                RepairCompleted(
                    seconds=completion_seconds,
                    label=label,
                    segment=start,
                    length=self.volume.mapping.stripe_unit,
                    replica=repair.replica,
                    wait_seconds=(
                        completion_seconds - repair.enqueued_seconds
                    ),
                )
            )
