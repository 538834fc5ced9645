"""The online tertiary storage system the paper motivates.

Glues the pieces together into the service loop of an online store:
requests arrive over time, accumulate in a batch queue, and whenever
the drive is free the queued batch is handed to a scheduling algorithm
and executed.  The simulation is event-stepped at batch granularity
(the drive is busy for the whole batch, as a real DLT would be), which
is exactly the paper's "a tape is scheduled repeatedly, executing
retrievals in batches" scenario — the head starts each batch wherever
the previous batch finished.

Passing ``bus=`` instruments the whole pipeline: the queue publishes
admit/dispatch events, the scheduler's estimate is published with each
computed schedule, the executor publishes per-request locate/read
events carrying *estimated vs actual* locate seconds, and the system
publishes per-request completions (at each request's read, not at
batch end) plus per-batch spans whose phase durations — queue wait,
locate, read, rewind — partition the measured execution exactly.  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import KW_ONLY, dataclass, field
from typing import Any

from repro.drive.simulated import SimulatedDrive
from repro.geometry.tape import TapeGeometry
from repro.model.locate import LocateTimeModel
from repro.obs.bus import EventBus
from repro.obs.events import (
    BatchCompleted,
    BatchStarted,
    DegradedMode,
    RequestCompleted,
    RequestFailed,
    ScheduleComputed,
)
from repro.online.batch_queue import BatchPolicy, BatchQueue
from repro.online.metrics import ResponseStats
from repro.resilience.injection import FaultInjector, FaultPlan
from repro.resilience.policy import ResilienceConfig
from repro.scheduling.base import Scheduler, get_scheduler
from repro.scheduling.estimator import locate_sequence_times
from repro.scheduling.executor import ExecutionResult, execute_schedule
from repro.scheduling.loss import LossScheduler
from repro.scheduling.request import Request
from repro.scheduling.schedule import Schedule
from repro.workload.arrivals import TimedRequest


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch, for reporting.

    The original fields (start, size, algorithm, total execution) are
    joined by the per-phase decomposition the telemetry layer carries:
    ``locate_seconds + transfer_seconds + rewind_seconds ==
    execution_seconds`` (to float round-off), ``queue_wait_seconds`` is
    the summed pre-execution wait of the batch's requests, and
    ``estimated_seconds`` the scheduler's model estimate.
    """

    start_seconds: float
    size: int
    algorithm: str
    execution_seconds: float
    queue_wait_seconds: float = 0.0
    locate_seconds: float = 0.0
    transfer_seconds: float = 0.0
    rewind_seconds: float = 0.0
    estimated_seconds: float | None = None
    fault_seconds: float = 0.0
    failed: int = 0

    @property
    def phase_seconds(self) -> float:
        """Sum of the execution phases (equals ``execution_seconds``)."""
        return (
            self.locate_seconds
            + self.transfer_seconds
            + self.rewind_seconds
            + self.fault_seconds
        )


@dataclass(frozen=True, slots=True)
class BatchInFlight:
    """A batch between the two halves of the :class:`BatchStep`."""

    record: BatchRecord
    index: int
    #: The queued items, in the order the queue flushed them.
    items: list
    schedule: Schedule
    result: ExecutionResult
    drive: int
    label: str


class BatchStep:
    """The paper's batch step, shared by both serving loops.

    One step takes a flushed batch through the whole service sequence.
    :meth:`_dispatch_batch` turns it into scheduling requests, times
    and runs the active scheduler, publishes the schedule and its
    per-hop locate estimates, executes it and records the batch;
    :meth:`_complete_batch` maps schedule positions back to the queued
    items, completes or requeues each one, and publishes the batch's
    completion.  Sticky degraded mode trips in the first half, as soon
    as the batch's schedule wall time and simulated execution time are
    known.

    The two serving loops differ only in their clock and in when they
    run the two halves: :class:`TertiaryStorageSystem` steps batch by
    batch and runs them back to back; the event-driven
    :class:`~repro.library.MultiDriveSystem` runs the first half when a
    batch is dispatched and the second when its completion event fires.
    Everything else that differs between them comes in as an argument
    (the locate model, the drive, the bay and tape, the record type,
    the queue a failed request goes back to) or as state the caller
    owns: ``scheduler``, ``resilience`` and ``bus`` configuration plus
    the run state :meth:`_open_batch_step` creates.
    """

    scheduler: Scheduler
    resilience: ResilienceConfig | None
    bus: EventBus | None

    def _open_batch_step(self) -> None:
        """Create the run state the step reads and writes."""
        self.stats = ResponseStats()
        self.batches: list[BatchRecord] = []
        #: Requests that exhausted their requeue budget, in failure
        #: order (empty without a resilience config, where execution
        #: either completes every request or raises).
        self.failed: list = []
        #: Times a failed request re-entered its queue.
        self.requeues = 0
        #: Synchronous outcome hooks for layers stacked above the
        #: system (cache tier, serve gateway, striped reads).  Called
        #: in simulated-time order with the *original* queued request
        #: objects -- identity survives retries and requeues, so a
        #: listener can key side state off ``id(request)`` or subclass
        #: attributes.
        self.completion_listeners: list[
            Callable[[TimedRequest, float, int], None]
        ] = []
        self.failure_listeners: list[Callable[[TimedRequest], None]] = []
        #: Called once per completed batch with ``(label, drive, batch,
        #: schedule, result)``.
        self.batch_listeners: list[Callable[..., None]] = []
        self._requeue_counts: dict[int, int] = {}
        self._degraded = False
        self._fallback_scheduler: Scheduler | None = None

    @property
    def degraded(self) -> bool:
        """Has the system dropped to its fallback scheduler?"""
        return self._degraded

    def _active_scheduler(self) -> Scheduler:
        """The scheduler for the next batch (fallback once degraded)."""
        if self._degraded:
            if self._fallback_scheduler is None:
                self._fallback_scheduler = get_scheduler(
                    self.resilience.fallback_algorithm
                )
            return self._fallback_scheduler
        return self.scheduler

    def _enter_degraded(self, reason: str, now: float) -> None:
        """Trip degraded mode (sticky for the rest of the run, and
        system-wide: the scheduler is shared by every drive)."""
        if self._degraded:
            return
        self._degraded = True
        if self.bus is not None:
            self.bus.publish(
                DegradedMode(
                    seconds=now,
                    batch_index=len(self.batches) - 1,
                    reason=reason,
                    from_algorithm=self.scheduler.name,
                    to_algorithm=self.resilience.fallback_algorithm,
                )
            )

    def _dispatch_batch(
        self,
        batch: list,
        model: LocateTimeModel,
        drive: SimulatedDrive,
        now: float,
        *,
        drive_index: int = 0,
        label: str = "",
        make_record: Callable[..., BatchRecord] = BatchRecord,
    ) -> BatchInFlight:
        """First half: schedule, execute and record one batch at ``now``."""
        requests = [Request(item.segment, item.length) for item in batch]
        schedule_started = time.perf_counter()
        schedule = self._active_scheduler().schedule(
            model, drive.position, requests
        )
        schedule_wall = time.perf_counter() - schedule_started
        batch_index = len(self.batches)
        estimated_locates = None
        if self.bus is not None:
            self.bus.publish(
                ScheduleComputed(
                    seconds=now,
                    algorithm=schedule.algorithm,
                    batch_size=len(schedule),
                    origin=schedule.origin,
                    estimated_seconds=schedule.estimated_seconds,
                )
            )
            self.bus.publish(
                BatchStarted(
                    seconds=now,
                    batch_index=batch_index,
                    batch_size=len(batch),
                    origin=schedule.origin,
                    drive=drive_index,
                )
            )
            if not schedule.whole_tape:
                # The scheduler's own per-hop estimates, so locate
                # events carry estimated-vs-actual seconds.
                estimated_locates = locate_sequence_times(model, schedule)
        result = execute_schedule(
            drive,
            schedule,
            bus=self.bus,
            estimated_locate_seconds=estimated_locates,
            base_seconds=now,
            policy=(
                None if self.resilience is None else self.resilience.retry
            ),
        )
        record = make_record(
            start_seconds=now,
            size=len(batch),
            algorithm=schedule.algorithm,
            execution_seconds=result.total_seconds,
            queue_wait_seconds=sum(
                now - item.arrival_seconds for item in batch
            ),
            locate_seconds=result.locate_seconds - result.rewind_seconds,
            transfer_seconds=result.transfer_seconds,
            rewind_seconds=result.rewind_seconds,
            estimated_seconds=schedule.estimated_seconds,
            fault_seconds=result.fault_seconds,
            failed=result.failed_count,
        )
        self.batches.append(record)
        if self.resilience is not None:
            end = now + result.total_seconds
            if schedule_wall > self.resilience.schedule_wall_budget_seconds:
                self._enter_degraded(
                    f"scheduling took {schedule_wall:.3f} s of wall "
                    "clock, over budget",
                    end,
                )
            elif (
                result.total_seconds
                > self.resilience.execution_budget_seconds
            ):
                self._enter_degraded(
                    f"batch execution took {result.total_seconds:.1f} "
                    "simulated s, over budget",
                    end,
                )
        return BatchInFlight(
            record, batch_index, batch, schedule, result, drive_index, label
        )

    def _complete_batch(
        self, flight: BatchInFlight, requeue: Callable[[Any], None]
    ) -> None:
        """Second half: settle every request of a dispatched batch.

        Each request completes at batch start + the offset of its
        scheduled position (stamped at its read event, not at batch
        end); a failed request goes back through ``requeue`` (bounded)
        instead.
        """
        record, schedule, result = (
            flight.record, flight.schedule, flight.result
        )
        end = record.start_seconds + record.execution_seconds
        by_key: dict[tuple[int, int], list] = {}
        for item in flight.items:
            by_key.setdefault((item.segment, item.length), []).append(item)
        for position, request in enumerate(schedule):
            item = by_key[(request.segment, request.length)].pop(0)
            if result.success is None or result.success[position]:
                self._requeue_counts.pop(id(item), None)
                self._complete(
                    item,
                    record.start_seconds
                    + float(result.completion_seconds[position]),
                    position,
                    flight.drive,
                )
            else:
                self._handle_failure(item, position, end, requeue)
        if self.bus is not None:
            self.bus.publish(
                BatchCompleted(
                    seconds=end,
                    batch_index=flight.index,
                    algorithm=record.algorithm,
                    batch_size=record.size,
                    queue_wait_seconds=record.queue_wait_seconds,
                    locate_seconds=record.locate_seconds,
                    transfer_seconds=record.transfer_seconds,
                    rewind_seconds=record.rewind_seconds,
                    total_seconds=record.execution_seconds,
                    estimated_seconds=record.estimated_seconds,
                    fault_seconds=record.fault_seconds,
                    drive=flight.drive,
                )
            )
        for listener in self.batch_listeners:
            listener(
                flight.label, flight.drive, flight.items, schedule, result
            )

    def _complete(
        self,
        item: TimedRequest,
        completion_seconds: float,
        position: int,
        drive: int = 0,
    ) -> None:
        """Record one request's completion (and publish it)."""
        self.stats.record(item.arrival_seconds, completion_seconds)
        for listener in self.completion_listeners:
            listener(item, completion_seconds, drive)
        if self.bus is not None:
            self.bus.publish(
                RequestCompleted(
                    seconds=completion_seconds,
                    position=position,
                    segment=item.segment,
                    length=item.length,
                    arrival_seconds=item.arrival_seconds,
                    completion_seconds=completion_seconds,
                    drive=drive,
                )
            )

    def _handle_failure(
        self,
        item: TimedRequest,
        position: int,
        now: float,
        requeue: Callable[[Any], None],
    ) -> None:
        """Requeue a failed request, or surface it once the budget is
        spent."""
        count = self._requeue_counts.get(id(item), 0)
        if (
            self.resilience is not None
            and count < self.resilience.max_requeues
        ):
            self._requeue_counts[id(item)] = count + 1
            self.requeues += 1
            requeue(item)
            return
        self._requeue_counts.pop(id(item), None)
        self.failed.append(item)
        for listener in self.failure_listeners:
            listener(item)
        if self.bus is not None:
            self.bus.publish(
                RequestFailed(
                    seconds=now,
                    position=position,
                    segment=item.segment,
                    attempts=count + 1,
                    reason="requeue budget exhausted",
                )
            )


@dataclass
class TertiaryStorageSystem(BatchStep):
    """Single-cartridge online request service.

    Parameters
    ----------
    geometry:
        The mounted cartridge.
    scheduler:
        Batch scheduling algorithm (default: the paper's LOSS).
    policy:
        Batching policy.
    bus:
        Optional :class:`~repro.obs.bus.EventBus`; wires the queue,
        drive, executor, and this system's own batch/request events
        onto one stream.  ``None`` (the default) adds no overhead.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`.  Turns on
        the failure-hardened path: the executor retries faults in
        place, requests that still fail are requeued into the next
        batch up to ``max_requeues`` times (then surfaced on
        :attr:`failed`), and blowing a schedule/execution time budget
        drops the scheduler to the configured fallback.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; wraps the drive
        in a :class:`~repro.resilience.FaultInjector` (chaos testing).
        Implies a default ``resilience`` config if none was given —
        injected faults without a retry layer would crash the run.
    """

    geometry: TapeGeometry
    # Everything below is configuration, not data: keyword-only, per
    # the package-wide constructor convention (see docs/API.md).
    _: KW_ONLY
    scheduler: Scheduler = field(default_factory=LossScheduler)
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    bus: EventBus | None = None
    resilience: ResilienceConfig | None = None
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        self.model = LocateTimeModel(self.geometry)
        self.drive = SimulatedDrive(self.model, bus=self.bus)
        if self.fault_plan is not None and self.fault_plan.any_faults:
            self.drive = FaultInjector(
                self.drive, self.fault_plan, bus=self.bus
            )
            if self.resilience is None:
                self.resilience = ResilienceConfig()
        self.queue = BatchQueue(policy=self.policy, bus=self.bus)
        self._drive_free_at = 0.0
        self._open_batch_step()

    def run(self, requests: Iterable[TimedRequest]) -> ResponseStats:
        """Service a timed request stream to completion.

        Accepts any iterable of requests (materialized once); order
        does not matter.  Returns the response-time statistics (also
        kept on ``self.stats``).
        """
        pending = sorted(requests, key=lambda r: r.arrival_seconds)
        index = 0
        now = 0.0
        while index < len(pending) or len(self.queue):
            if self.bus is not None:
                self.bus.set_time(now)
            # Admit everything that has arrived by `now`.
            while (
                index < len(pending)
                and pending[index].arrival_seconds <= now
            ):
                self._admit(pending[index], now)
                index += 1

            drive_idle = now >= self._drive_free_at
            if self.queue.ready(now, drive_idle) and drive_idle:
                self._run_batch(now)
                now = self._drive_free_at
                continue

            # Advance time to the next interesting instant.
            horizons = []
            if index < len(pending):
                horizons.append(pending[index].arrival_seconds)
            if not drive_idle:
                horizons.append(self._drive_free_at)
            oldest = self.queue.oldest_arrival
            if oldest is not None:
                horizons.append(
                    self.policy.next_deadline_seconds(oldest)
                )
            if not horizons:
                break
            now = max(now, min(horizons))
        return self.stats

    def _admit(self, item: TimedRequest, now: float) -> None:
        """Route one arrived request (hook: a cache tier front-ends this)."""
        self.queue.push(item)

    def _run_batch(self, now: float) -> None:
        """Run one whole batch step at ``now`` (both halves, back to
        back: the drive is busy for the whole batch)."""
        flight = self._dispatch_batch(
            self.queue.flush(), self.model, self.drive, now
        )
        self._drive_free_at = now + flight.result.total_seconds
        self._complete_batch(flight, self.queue.push)
        if self.bus is not None:
            self.bus.set_time(self._drive_free_at)
