"""The event taxonomy of the observability layer.

Every layer of the system publishes typed events onto an
:class:`~repro.obs.bus.EventBus`: the batch queue (admit/dispatch), the
scheduler (schedule computed, with its model estimate), the executor
(per-request locate/read with *estimated vs actual* locate seconds —
the model-error signal of Figures 9–10), the system (request and batch
completions with per-phase durations), the staging cache
(hit/miss/admit/reject/evict), the robotic library (mount/unmount), and
the simulated drive (raw mechanism operations).

Events are small frozen dataclasses.  Each carries ``seconds`` — the
publisher's clock when the event happened (simulation time for
queue/system/cache events, drive busy-time for raw drive operations) —
and flattens losslessly to a JSON-safe record via :meth:`Event.to_record`;
:func:`event_from_record` reverses the mapping exactly, so a JSONL trace
round-trips to identical event objects.

This module also hosts :class:`DriveEvent`/:class:`EventKind`, the
simulated drive's own operation log, which this taxonomy generalizes
(they moved here from ``repro.drive.events``, which no longer exists;
``repro.drive`` still re-exports them).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import ClassVar


class EventKind(enum.Enum):
    """Categories of drive activity."""

    LOCATE = "locate"
    READ = "read"
    REWIND = "rewind"
    FULL_READ = "full_read"
    MOUNT = "mount"
    UNMOUNT = "unmount"


@dataclass(frozen=True, slots=True)
class DriveEvent:
    """One timed drive operation.

    Attributes
    ----------
    kind:
        What the drive did.
    start_seconds:
        Drive clock when the operation began.
    duration_seconds:
        How long it took.
    source, destination:
        Head position before and after the operation (absolute segment
        numbers; for reads the destination is the position just past the
        data read).
    """

    kind: EventKind
    start_seconds: float
    duration_seconds: float
    source: int
    destination: int

    @property
    def end_seconds(self) -> float:
        """Drive clock when the operation finished."""
        return self.start_seconds + self.duration_seconds


#: Registry of event types by name, for parsing traces.
EVENT_TYPES: dict[str, type[Event]] = {}


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for bus events.

    Attributes
    ----------
    seconds:
        The publisher's clock when the event happened.  System, queue,
        and cache events are stamped in simulation time; raw
        :class:`DriveOperation` events in drive busy-time.
    """

    #: Dotted taxonomy name (``layer.action``); set per subclass.
    name: ClassVar[str] = "event"

    seconds: float

    def __init_subclass__(cls, **kwargs) -> None:
        # No super() call: ``@dataclass(slots=True)`` rebuilds each
        # subclass, which breaks zero-argument super in this hook.  The
        # rebuild also fires this hook a second time for the same
        # logical class, so "same module + qualname" replaces its own
        # registration rather than being a duplicate.
        existing = EVENT_TYPES.get(cls.name)
        if existing is not None and (
            existing.__module__ != cls.__module__
            or existing.__qualname__ != cls.__qualname__
        ):
            raise ValueError(f"duplicate event name {cls.name!r}")
        EVENT_TYPES[cls.name] = cls

    def to_record(self) -> dict:
        """Flatten to a JSON-safe record (``event`` key + fields)."""
        record: dict = {"event": self.name}
        for spec in fields(self):
            record[spec.name] = getattr(self, spec.name)
        return record


def event_from_record(record: dict) -> Event:
    """Rebuild an event from a :meth:`Event.to_record` record."""
    payload = dict(record)
    try:
        name = payload.pop("event")
    except KeyError:
        raise ValueError("record has no 'event' key") from None
    try:
        cls = EVENT_TYPES[name]
    except KeyError:
        known = ", ".join(sorted(EVENT_TYPES))
        raise ValueError(
            f"unknown event {name!r}; known: {known}"
        ) from None
    return cls(**payload)


# -- queue layer -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QueueAdmitted(Event):
    """A request entered the batch accumulation queue."""

    name: ClassVar[str] = "queue.admit"

    segment: int
    length: int
    arrival_seconds: float
    queue_depth: int


@dataclass(frozen=True, slots=True)
class QueueDispatched(Event):
    """The queue released a batch to the scheduler."""

    name: ClassVar[str] = "queue.dispatch"

    batch_size: int
    oldest_arrival_seconds: float


# -- scheduling layer --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScheduleComputed(Event):
    """A scheduler ordered a batch (with its model estimate)."""

    name: ClassVar[str] = "schedule.computed"

    algorithm: str
    batch_size: int
    origin: int
    estimated_seconds: float | None


@dataclass(frozen=True, slots=True)
class RequestLocated(Event):
    """The drive positioned for one scheduled request.

    ``estimated_seconds`` is the model's prediction for this hop (from
    the scheduler's model), ``actual_seconds`` what the drive took —
    their gap is the per-hop model error the validation figures study.
    """

    name: ClassVar[str] = "request.locate"

    position: int
    source: int
    segment: int
    actual_seconds: float
    estimated_seconds: float | None


@dataclass(frozen=True, slots=True)
class RequestRead(Event):
    """The drive transferred one scheduled request's data."""

    name: ClassVar[str] = "request.read"

    position: int
    segment: int
    length: int
    actual_seconds: float


# -- system layer ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchStarted(Event):
    """A batch began executing on the drive."""

    name: ClassVar[str] = "batch.start"

    batch_index: int
    batch_size: int
    origin: int
    #: Drive bay executing the batch (0 in the single-drive system, so
    #: traces written before the multi-drive library still parse).
    drive: int = 0


@dataclass(frozen=True, slots=True)
class BatchCompleted(Event):
    """A batch finished; carries the per-phase time decomposition.

    The phases partition the execution exactly:
    ``locate_seconds + transfer_seconds + rewind_seconds +
    fault_seconds == total_seconds`` (to float round-off), and
    ``queue_wait_seconds`` is the summed time the batch's requests
    waited before execution began.  ``fault_seconds`` — fault penalties
    plus retry backoff — is zero on a fault-free run, so traces written
    before it existed still parse.
    """

    name: ClassVar[str] = "batch.complete"

    batch_index: int
    algorithm: str
    batch_size: int
    queue_wait_seconds: float
    locate_seconds: float
    transfer_seconds: float
    rewind_seconds: float
    total_seconds: float
    estimated_seconds: float | None
    fault_seconds: float = 0.0
    #: Drive bay that executed the batch (0 in the single-drive system).
    drive: int = 0


@dataclass(frozen=True, slots=True)
class RequestCompleted(Event):
    """One request's data was fully delivered.

    Published at the request's *read* event (or at arrival plus hit
    latency for a cache hit, with ``position = -1``), not at batch
    completion — so per-request response times are observable on the
    bus.
    """

    name: ClassVar[str] = "request.complete"

    position: int
    segment: int
    length: int
    arrival_seconds: float
    completion_seconds: float
    #: Drive bay that served the request (0 in the single-drive system).
    drive: int = 0

    @property
    def response_seconds(self) -> float:
        """Completion minus arrival."""
        return self.completion_seconds - self.arrival_seconds


# -- resilience layer --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FaultInjected(Event):
    """The fault injector raised a drive fault.

    ``kind`` is the taxonomy tag of the raised
    :class:`~repro.exceptions.DriveFault` subclass (``locate`` /
    ``read`` / ``reset``); ``penalty_seconds`` the mechanism time the
    failed attempt consumed (already on the drive clock).
    """

    name: ClassVar[str] = "fault.injected"

    kind: str
    segment: int
    position: int
    penalty_seconds: float


@dataclass(frozen=True, slots=True)
class RequestRetried(Event):
    """The executor caught a fault and is retrying the request in place.

    ``attempt`` is the attempt that just failed (1-based);
    ``backoff_seconds`` the deterministic-jitter delay charged before
    the next attempt.
    """

    name: ClassVar[str] = "request.retry"

    position: int
    segment: int
    attempt: int
    backoff_seconds: float
    kind: str


@dataclass(frozen=True, slots=True)
class RequestFailed(Event):
    """A request exhausted its retry or requeue budget.

    Published by the executor when in-place retries run out
    (``reason`` names the exhausted budget) and by the online system
    when a request's bounded requeues are spent.  ``attempts`` counts
    in-place attempts for the former, requeue rounds for the latter.
    """

    name: ClassVar[str] = "request.failed"

    position: int
    segment: int
    attempts: int
    reason: str


@dataclass(frozen=True, slots=True)
class DegradedMode(Event):
    """The online system dropped to its fallback scheduler.

    Tripped when computing a schedule (wall clock) or executing a batch
    (simulated seconds) exceeded the configured budget; subsequent
    batches use ``to_algorithm`` (SORT by default) instead of
    ``from_algorithm``.
    """

    name: ClassVar[str] = "system.degraded"

    batch_index: int
    reason: str
    from_algorithm: str
    to_algorithm: str


# -- cache layer -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CacheHit(Event):
    """A request was fully served from the staging cache."""

    name: ClassVar[str] = "cache.hit"

    segment: int
    length: int


@dataclass(frozen=True, slots=True)
class CacheMiss(Event):
    """A request missed the staging cache and went to tape."""

    name: ClassVar[str] = "cache.miss"

    segment: int
    length: int


@dataclass(frozen=True, slots=True)
class CacheAdmitted(Event):
    """A fetched segment was staged (demand fill or prefetch)."""

    name: ClassVar[str] = "cache.admit"

    segment: int
    prefetch: bool


@dataclass(frozen=True, slots=True)
class CacheRejected(Event):
    """Admission control turned a demand fill away."""

    name: ClassVar[str] = "cache.reject"

    segment: int


@dataclass(frozen=True, slots=True)
class CacheEvicted(Event):
    """The eviction policy dropped a resident segment."""

    name: ClassVar[str] = "cache.evict"

    segment: int


# -- library layer -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TapeMounted(Event):
    """The robot loaded a cartridge into the drive."""

    name: ClassVar[str] = "library.mount"

    label: str
    exchange_seconds: float
    #: Drive bay the cartridge was loaded into (0 for the single-drive
    #: library, so traces written before it existed still parse).
    drive: int = 0


@dataclass(frozen=True, slots=True)
class TapeUnmounted(Event):
    """The robot rewound, ejected, and shelved a cartridge."""

    name: ClassVar[str] = "library.unmount"

    label: str
    rewind_seconds: float
    #: Drive bay the cartridge was removed from.
    drive: int = 0


@dataclass(frozen=True, slots=True)
class MountWaitRecorded(Event):
    """A cartridge exchange completed; how long did the bay wait?

    Published by the multi-drive library at each completed exchange.
    ``wait_seconds`` spans from the moment the system decided to mount
    the cartridge to the moment the drive could use it — robot queueing
    plus the exchange itself — and ``robot_seconds`` is the arm
    occupancy of this job alone, so ``wait_seconds - robot_seconds`` is
    pure contention for the shared arm.
    """

    name: ClassVar[str] = "library.mount_wait"

    drive: int
    label: str
    wait_seconds: float
    robot_seconds: float
    #: Arm that performed the exchange (0 in a single-arm library, so
    #: traces written before the arm pool existed still parse).
    arm: int = 0


@dataclass(frozen=True, slots=True)
class ArmExchangeRecorded(Event):
    """One robot arm finished a cartridge exchange.

    Published by the multi-arm library at each completed exchange, next
    to :class:`MountWaitRecorded`: where the mount-wait event measures
    what the *bay* experienced, this one attributes the work to the
    *arm* that did it.  ``busy_seconds`` is this job's arm occupancy
    and ``queued`` the jobs still waiting on this arm afterwards, so
    summing ``busy_seconds`` per ``arm`` over a run and dividing by the
    makespan gives per-arm occupancy (see
    :func:`~repro.obs.metrics.bind_standard_metrics`).
    """

    name: ClassVar[str] = "library.arm.exchange"

    arm: int
    drive: int
    label: str
    busy_seconds: float
    queued: int


# -- repair layer ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DegradedRead(Event):
    """A striped read fell back to a surviving replica.

    Published by the striped-read coordinator when a sub-request
    exhausted the resilience layer's budgets on one cartridge and was
    re-issued against replica ``replica`` (the copy that actually
    served it).  A degraded read is a durability near-miss: the data
    survived, but only because redundancy was provisioned.
    """

    name: ClassVar[str] = "repair.degraded_read"

    label: str
    segment: int
    replica: int
    logical_segment: int


@dataclass(frozen=True, slots=True)
class RepairStarted(Event):
    """Background repair traffic was enqueued for a degraded unit.

    The coordinator re-reads the surviving copy of the whole stripe
    unit so the lost copy can be re-replicated; the read competes with
    user traffic for drives, arms, and cartridges — that contention is
    the cost the chaos sweep charts.
    """

    name: ClassVar[str] = "repair.start"

    label: str
    segment: int
    length: int
    replica: int


@dataclass(frozen=True, slots=True)
class RepairCompleted(Event):
    """A background repair read finished.

    ``wait_seconds`` spans from the moment the repair was enqueued to
    the completion of its re-read — the window during which the
    degraded unit had reduced redundancy.
    """

    name: ClassVar[str] = "repair.complete"

    label: str
    segment: int
    length: int
    replica: int
    wait_seconds: float


# -- serve layer -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ServeAdmitted(Event):
    """The gateway accepted a request into its tenant's fair queue."""

    name: ClassVar[str] = "serve.admit"

    tenant: str
    segment: int
    queue_depth: int


@dataclass(frozen=True, slots=True)
class ServeReleased(Event):
    """A queued request was released into the backend system.

    ``held_seconds`` is gateway dwell time — arrival to release — the
    latency the fairness layer itself added on top of the backend.
    """

    name: ClassVar[str] = "serve.release"

    tenant: str
    segment: int
    held_seconds: float
    backend_depth: int


@dataclass(frozen=True, slots=True)
class ServeShed(Event):
    """The gateway refused a request (typed, never silent).

    ``reason`` is the :class:`~repro.exceptions.AdmissionRejected`
    subclass tag: ``overload`` (admission-time cap) or ``deadline``
    (release-time expiry).
    """

    name: ClassVar[str] = "serve.shed"

    tenant: str
    reason: str
    segment: int
    arrival_seconds: float


@dataclass(frozen=True, slots=True)
class ServeCompleted(Event):
    """A gateway-admitted request finished in the backend.

    ``response_seconds`` counts from gateway arrival (queue dwell
    included), the number the per-tenant SLO is judged against.
    """

    name: ClassVar[str] = "serve.complete"

    tenant: str
    segment: int
    response_seconds: float


# -- experiment layer --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepStarted(Event):
    """A figure sweep began (``seconds`` is wall-clock 0 for the run).

    ``total_tasks`` counts the work units the sweep will complete —
    for the parallel per-locate engine, one per trial chunk.
    """

    name: ClassVar[str] = "experiment.start"

    label: str
    workers: int
    total_tasks: int


@dataclass(frozen=True, slots=True)
class SweepChunkCompleted(Event):
    """One chunk of trials finished (``seconds`` = wall-clock elapsed).

    Published from the coordinating process as worker results arrive,
    so subscribers see live progress regardless of how many processes
    the sweep fans out to.
    """

    name: ClassVar[str] = "experiment.chunk"

    label: str
    length: int
    chunk_index: int
    chunk_trials: int
    done_tasks: int
    total_tasks: int


@dataclass(frozen=True, slots=True)
class SweepCompleted(Event):
    """A figure sweep finished (``seconds`` = wall-clock elapsed)."""

    name: ClassVar[str] = "experiment.complete"

    label: str
    workers: int
    total_tasks: int


# -- drive layer -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DriveOperation(Event):
    """One raw drive mechanism operation (generalizes
    :class:`DriveEvent` onto the bus; ``seconds`` is the drive clock at
    the start of the operation and ``kind`` an :class:`EventKind`
    value)."""

    name: ClassVar[str] = "drive.op"

    kind: str
    duration_seconds: float
    source: int
    destination: int
