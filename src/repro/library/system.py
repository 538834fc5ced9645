"""The event-driven multi-drive tertiary storage system.

:class:`MultiDriveSystem` generalizes the paper's single-drive serving
loop (:class:`~repro.online.system.TertiaryStorageSystem`) to N drives
and M cartridges on the :class:`~repro.library.kernel.EventKernel`:
requests address named cartridges, accumulate in per-tape batch
queues, and idle drive bays pick tapes via a pluggable
:class:`~repro.library.policies.AssignmentPolicy` (which tape next) and
:class:`~repro.library.policies.ExchangePolicy` (when to give one up).
Cartridge exchanges go through an
:class:`~repro.library.robot.ArmPool` of ``arms`` robot arms routed by
an :class:`~repro.library.policies.ArmAssignmentPolicy`; each arm
charges the same rewind-to-BOT and exchange costs as the single-drive
:class:`~repro.library.cartridge.TapeLibrary`, and a 1-arm pool
serializes exchanges exactly like the original shared arm
(bit-identical, pinned by the arm-pool golden tests).

With ``aging=`` the library also models media wear
(:class:`~repro.library.aging.MediaAgingModel`): every completed mount
cycle of a cartridge drifts the *actual* drive behaviour away from the
pristine model the scheduler plans with and grows a bad-spot read-fault
rate, so old tapes produce exactly the estimated-vs-actual gap of the
paper's Fig. 8/9 sensitivity studies — plus real failures for the
resilience layer (and the striped-volume degraded reads above it) to
absorb.

Every bay runs the single-drive system's own batch step
(:class:`~repro.online.system.BatchStep`: the configured scheduling
algorithm, the executor, the resilience layer's retries and bounded
requeues, the degraded-mode trip) — its first half when a batch is
dispatched, its second when the batch's completion event fires — so a
1-drive, 1-cartridge system with the cartridge preloaded reproduces
the single-drive serving path bit-identically (the equivalence the
test suite pins).

With ``bus=`` the whole library publishes onto one stream: the obs
events of the single-drive path (queue, schedule, batch, request,
fault) now carry a ``drive`` field, mounts/unmounts carry the bay, and
each completed exchange additionally publishes
:class:`~repro.obs.events.MountWaitRecorded` so mount waits and robot
occupancy are first-class metrics (see
:func:`~repro.obs.metrics.bind_standard_metrics`).

The full :class:`~repro.resilience.ResilienceConfig` contract holds
here, budgets included: blowing the wall-clock scheduling budget or
the simulated execution budget on any bay trips the system-wide sticky
degraded mode (the schedulers are shared, so "this algorithm is too
slow" is a library-wide fact, not a per-bay one) and every later batch
on every bay uses the fallback algorithm.

The serving loop is also available in opened form for layers that
inject requests while the simulation runs (the ``repro.serve``
gateway): :meth:`MultiDriveSystem.begin` / :meth:`~MultiDriveSystem.submit`
/ :meth:`~MultiDriveSystem.finish` decompose :meth:`~MultiDriveSystem.run`,
and the ``completion_listeners`` / ``failure_listeners`` /
``batch_listeners`` hooks observe outcomes synchronously, in kernel
order, with the original request objects (identity preserved across
requeues).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from functools import partial

from repro.drive.simulated import SimulatedDrive
from repro.exceptions import LibraryError, UnknownTape
from repro.library import events as sim
from repro.library.aging import MediaAgingModel
from repro.library.cartridge import Cartridge, DEFAULT_EXCHANGE_SECONDS
from repro.library.drives import AVAILABLE_STATES, DriveBay, DriveState
from repro.library.kernel import EventKernel
from repro.library.policies import (
    ArmAssignmentPolicy,
    AssignmentPolicy,
    DrainBatchExchange,
    ExchangePolicy,
    TapeAffinityAssignment,
    TapeQueueView,
)
from repro.library.requests import LibraryRequest
from repro.library.robot import ArmPool, ExchangeJob
from repro.obs.bus import EventBus
from repro.obs.events import (
    ArmExchangeRecorded,
    MountWaitRecorded,
    TapeMounted,
    TapeUnmounted,
)
from repro.online.batch_queue import BatchPolicy, BatchQueue
from repro.online.metrics import ResponseStats
from repro.online.system import BatchInFlight, BatchRecord, BatchStep
from repro.resilience.injection import FaultInjector, FaultPlan
from repro.resilience.policy import ResilienceConfig
from repro.scheduling.base import Scheduler
from repro.scheduling.loss import LossScheduler


@dataclass(frozen=True)
class LibraryBatchRecord(BatchRecord):
    """A :class:`~repro.online.system.BatchRecord` plus its bay and tape."""

    drive: int = 0
    label: str = ""


def _derived_seed(seed: int, drive_index: int, mount_index: int) -> int:
    """Per-(drive, mount) fault-plan seed.

    The very first mount on bay 0 keeps the base seed unchanged, so a
    preloaded 1-drive system draws the exact fault stream of the
    single-drive path; later mounts get independent deterministic
    streams.
    """
    if drive_index == 0 and mount_index == 0:
        return seed
    return (
        seed
        ^ ((drive_index + 1) * 0x9E3779B97F4A7C15)
        ^ ((mount_index + 1) * 0xD6E8FEB86659FD93)
    ) & 0xFFFFFFFFFFFFFFFF


class MultiDriveSystem(BatchStep):
    """N drives, M cartridges, K robot arms, in simulated time.

    Parameters
    ----------
    cartridges:
        The shelf (labels must be unique).
    drives:
        Number of drive bays.
    arms:
        Number of robot arms in the pool (default 1 — the original
        single shared arm, bit-identical to it).
    arm_assignment:
        Which arm performs each exchange when ``arms > 1``
        (default: least-busy; see
        :class:`~repro.library.policies.ArmAssignmentPolicy`).
    scheduler:
        Per-batch scheduling algorithm (default: the paper's LOSS),
        shared by every bay.
    policy:
        Batching policy of each per-tape queue.
    assignment:
        Which waiting tape an idle bay mounts
        (default: tape affinity — longest-waiting tape first).
    exchange:
        When a bay releases a tape that still has queued requests
        (default: drain the mounted tape first).
    exchange_seconds:
        Robot time per cartridge movement.
    bus:
        Optional :class:`~repro.obs.bus.EventBus` instrumenting the
        whole library (see module docstring).
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`; enables
        in-place retries, bounded requeues, and the degraded-mode
        schedule/execution budgets (see module docstring).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; every mounted
        drive is wrapped in a
        :class:`~repro.resilience.FaultInjector` with a per-(bay,
        mount) derived seed.  Implies a default ``resilience`` config
        if none was given.
    aging:
        Optional :class:`~repro.library.aging.MediaAgingModel`; each
        cartridge's drive-side behaviour degrades with its completed
        mount cycles (locate drift plus growing bad-spot read faults)
        while the scheduler keeps planning with the pristine model.
        Implies a default ``resilience`` config if the model can
        inject faults and none was given.
    preload:
        Labels mounted (at no cost, position 0) into bays 0..k-1
        before time zero — the paper's "robot has just loaded a new
        tape" initial condition, and the hook that makes the 1-drive
        equivalence exact.
    """

    def __init__(
        self,
        cartridges: Sequence[Cartridge],
        *,  # configuration is keyword-only, per the package-wide
        # constructor convention (see docs/API.md).
        drives: int = 2,
        arms: int = 1,
        arm_assignment: ArmAssignmentPolicy | None = None,
        scheduler: Scheduler | None = None,
        policy: BatchPolicy | None = None,
        assignment: AssignmentPolicy | None = None,
        exchange: ExchangePolicy | None = None,
        exchange_seconds: float = DEFAULT_EXCHANGE_SECONDS,
        bus: EventBus | None = None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        aging: MediaAgingModel | None = None,
        preload: Sequence[str] | None = None,
    ) -> None:
        if drives < 1:
            raise LibraryError("drives must be >= 1")
        labels = [c.label for c in cartridges]
        if len(set(labels)) != len(labels):
            raise LibraryError("cartridge labels must be unique")
        if not labels:
            raise LibraryError("at least one cartridge is required")
        self._shelf: dict[str, Cartridge] = {
            c.label: c for c in cartridges
        }
        self.scheduler = (
            scheduler if scheduler is not None else LossScheduler()
        )
        self.policy = policy if policy is not None else BatchPolicy()
        self.assignment = (
            assignment if assignment is not None
            else TapeAffinityAssignment()
        )
        self.exchange = (
            exchange if exchange is not None else DrainBatchExchange()
        )
        self.bus = bus
        self.resilience = resilience
        self.fault_plan = fault_plan
        self.aging = aging
        if fault_plan is not None and fault_plan.any_faults:
            if self.resilience is None:
                self.resilience = ResilienceConfig()
        if aging is not None and aging.any_faults:
            if self.resilience is None:
                self.resilience = ResilienceConfig()

        self.kernel = EventKernel()
        self.robot = ArmPool(
            self.kernel,
            exchange_seconds,
            arms=arms,
            assignment=arm_assignment,
        )
        self.bays = [DriveBay(index) for index in range(drives)]
        #: Bays in an available state, kept by :meth:`_set_state` so a
        #: pump with every bay busy returns at once.
        self._available_bays = drives
        self._queues: dict[str, BatchQueue] = {
            label: BatchQueue(policy=self.policy, bus=bus)
            for label in sorted(self._shelf)
        }
        self.submitted = 0
        self._open_batch_step()
        self._claims: dict[str, int] = {}
        #: Labels whose in-progress mount came from an exchange-policy
        #: preemption: they dispatch the moment the mount completes.
        self._preempt_mounts: set[str] = set()
        self._pending_unload: dict[int, tuple[str, float]] = {}
        self._in_flight: dict[int, BatchInFlight] = {}
        self._requests: list[LibraryRequest] = []
        self._mount_count = 0
        #: Completed mount cycles per cartridge label (media wear).
        self._label_mounts: dict[str, int] = {}
        self._ran = False

        self.kernel.on(sim.RequestArrived, self._on_arrival)
        self.kernel.on(sim.MountStarted, self._on_mount_started)
        self.kernel.on(sim.MountCompleted, self._on_mount_completed)
        self.kernel.on(sim.BatchDispatched, self._on_batch_dispatched)
        self.kernel.on(sim.BatchCompleted, self._on_batch_completed)
        self.kernel.on(sim.QueueDeadline, self._on_deadline)

        preloaded: set[str] = set()
        for index, label in enumerate(preload or ()):
            if index >= drives:
                raise LibraryError(
                    f"cannot preload {len(preload)} cartridges into "
                    f"{drives} drives"
                )
            if label in preloaded:
                raise LibraryError(
                    f"cartridge {label!r} preloaded twice"
                )
            preloaded.add(label)
            bay = self.bays[index]
            bay.drive = self._build_drive(self.cartridge(label), index)
            bay.label = label
            self._set_state(bay, DriveState.IDLE)
            self._mount_count += 1

    # -- state -------------------------------------------------------------

    @property
    def clock_seconds(self) -> float:
        """The simulated clock (kernel time)."""
        return self.kernel.now_seconds

    @property
    def completed(self) -> int:
        """Requests serviced so far."""
        return self.stats.count

    @property
    def lost(self) -> int:
        """Requests neither completed nor surfaced as failed.

        Zero after a finished run — anything else is a scheduling bug,
        not a statistic.
        """
        return self.submitted - self.stats.count - len(self.failed)

    @property
    def exchanges(self) -> int:
        """Robot exchanges performed (preloads are free and uncounted)."""
        return self.robot.exchanges

    def labels(self) -> list[str]:
        """All cartridge labels, sorted."""
        return sorted(self._shelf)

    def cartridge(self, label: str) -> Cartridge:
        """Look up a shelved cartridge."""
        try:
            return self._shelf[label]
        except KeyError:
            raise UnknownTape(f"no cartridge labelled {label!r}") from None

    def queue_depth(self, label: str) -> int:
        """Queued (undispatched) requests for one tape."""
        try:
            return len(self._queues[label])
        except KeyError:
            raise UnknownTape(f"no cartridge labelled {label!r}") from None

    # -- the run ------------------------------------------------------------

    def run(self, requests: Iterable[LibraryRequest]) -> ResponseStats:
        """Service a timed request stream to completion.

        Accepts any iterable (materialized once); order does not
        matter.  Returns the response-time statistics (also kept on
        ``self.stats``).  A system instance runs once — the kernel's
        clock cannot rewind.

        Equivalent to :meth:`begin`, :meth:`submit` for each request
        (oldest first), then :meth:`finish` — the opened form a
        serving layer uses to inject requests while the kernel runs.
        """
        self.begin()
        items = sorted(requests, key=lambda r: r.arrival_seconds)
        for request in items:
            if request.label not in self._shelf:
                raise UnknownTape(
                    f"no cartridge labelled {request.label!r}"
                )
        for request in items:
            self.submit(request)
        return self.finish()

    def begin(self) -> None:
        """Open the system for :meth:`submit` (one-shot, like
        :meth:`run`)."""
        if self._ran:
            raise LibraryError(
                "this system already ran; build a fresh instance"
            )
        self._ran = True

    def submit(self, request: LibraryRequest) -> int:
        """Inject one request; returns its submission index.

        Legal between :meth:`begin` and :meth:`finish`, including from
        kernel handlers *while* :meth:`finish` runs (how the serve
        gateway releases admitted requests mid-simulation).  A request
        whose arrival time is already in the past enters its queue at
        the current kernel time; its response time still counts from
        the true arrival.
        """
        if not self._ran:
            raise LibraryError("call begin() before submit()")
        if request.label not in self._shelf:
            raise UnknownTape(
                f"no cartridge labelled {request.label!r}"
            )
        index = len(self._requests)
        self._requests.append(request)
        self.submitted += 1
        self.kernel.schedule(
            max(self.kernel.now_seconds, request.arrival_seconds),
            sim.RequestArrived(request_index=index),
        )
        return index

    def finish(self) -> ResponseStats:
        """Drain the kernel to quiescence and return the statistics."""
        if not self._ran:
            raise LibraryError("call begin() before finish()")
        self.kernel.run()
        # A policy with flush_when_idle=False and no deadline can
        # strand a final partial batch; drain it rather than lose it.
        while self._queued_total() > 0:
            if not self._pump(force=True):
                raise LibraryError(
                    "stranded requests with no dispatchable bay"
                )
            self.kernel.run()
        return self.stats

    def _queued_total(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def _set_time(self) -> None:
        if self.bus is not None:
            self.bus.set_time(self.kernel.now_seconds)

    # -- drive construction --------------------------------------------------

    def _build_drive(self, cartridge: Cartridge, drive_index: int):
        cycles = self._label_mounts.get(cartridge.label, 0)
        self._label_mounts[cartridge.label] = cycles + 1
        model = cartridge.model
        if self.aging is not None:
            # The drive gets the aged (actual) behaviour; the
            # scheduler keeps planning with the pristine
            # ``cartridge.model`` — the Fig. 8/9 estimated-vs-actual
            # gap, driven by wear.  Zero completed cycles returns the
            # base model unwrapped.
            model = self.aging.aged_model(
                model, cartridge.label, cycles
            )
        drive = SimulatedDrive(
            model, initial_position=0, bus=self.bus
        )
        plan = self._effective_fault_plan(drive_index, cycles)
        if plan is not None:
            return FaultInjector(drive, plan, bus=self.bus)
        return drive

    def _effective_fault_plan(
        self, drive_index: int, cycles: int
    ) -> FaultPlan | None:
        """The injected-fault plan for one mount: the configured plan
        (per-(bay, mount) derived seed) plus the mounted cartridge's
        accumulated bad-spot read-fault rate, or None when neither
        injects anything."""
        aged_read = 0.0
        if self.aging is not None and cycles > 0:
            aged_read = self.aging.read_fault_probability(cycles)
        if self.fault_plan is not None and self.fault_plan.any_faults:
            plan = replace(
                self.fault_plan,
                seed=_derived_seed(
                    self.fault_plan.seed, drive_index, self._mount_count
                ),
            )
            if aged_read > 0.0:
                plan = replace(
                    plan,
                    read_fault_probability=min(
                        1.0,
                        plan.read_fault_probability + aged_read,
                    ),
                )
            return plan
        if aged_read > 0.0:
            assert self.aging is not None
            return FaultPlan(
                read_fault_probability=aged_read,
                seed=_derived_seed(
                    self.aging.seed, drive_index, self._mount_count
                ),
            )
        return None

    # -- dispatch pump -------------------------------------------------------

    def _candidate_views(self) -> list[TapeQueueView]:
        """Tapes a bay could mount now: queued work, unclaimed, not
        mounted elsewhere."""
        mounted = {
            bay.label for bay in self.bays if bay.label is not None
        }
        views = []
        for label in sorted(self._queues):
            queue = self._queues[label]
            if not len(queue):
                continue
            if label in self._claims or label in mounted:
                continue
            oldest = queue.oldest_arrival
            views.append(
                TapeQueueView(
                    label=label,
                    depth=len(queue),
                    oldest_arrival_seconds=(
                        0.0 if oldest is None else oldest
                    ),
                )
            )
        return views

    def _pump(self, force: bool = False) -> bool:
        """Give every available bay a dispatch or a mount if one is due.

        Returns True when any bay was put to work.  ``force`` bypasses
        the batching policy's readiness test (end-of-run drain).
        """
        if not self._available_bays:
            return False
        progressed = False
        now = self.kernel.now_seconds
        for bay in self.bays:
            if not bay.available:
                continue
            action = self._choose_action(bay, now, force)
            if action is None:
                continue
            kind, label = action
            if kind == "dispatch":
                self._set_state(bay, DriveState.EXECUTING)
                self.kernel.schedule(
                    now,
                    sim.BatchDispatched(drive=bay.index, label=label),
                )
            else:
                self._request_mount(
                    bay, label, now,
                    dispatch_on_mount=(kind == "preempt"),
                )
            progressed = True
        return progressed

    def _set_state(self, bay: DriveBay, state: DriveState) -> None:
        """Move ``bay`` to ``state``, keeping the available-bay count."""
        self._available_bays += (state in AVAILABLE_STATES) - bay.available
        bay.state = state

    def _choose_action(
        self, bay: DriveBay, now: float, force: bool
    ) -> tuple[str, str] | None:
        candidates = self._candidate_views()
        mounted = bay.label
        if mounted is not None:
            queue = self._queues[mounted]
            if len(queue):
                if force or queue.ready(now, drive_idle=True):
                    return ("dispatch", mounted)
                oldest = queue.oldest_arrival
                mounted_view = TapeQueueView(
                    label=mounted,
                    depth=len(queue),
                    oldest_arrival_seconds=(
                        0.0 if oldest is None else oldest
                    ),
                )
                if not candidates or not self.exchange.should_release(
                    mounted_view, candidates, now
                ):
                    return None
                # A preemption must make progress: the tape mounted in
                # place of this one dispatches as soon as it loads,
                # whatever the batching policy says, or two non-ready
                # tapes would swap a bay back and forth forever.
                choice = self.assignment.choose(mounted, candidates, now)
                if choice is None or choice == mounted:
                    return None
                return ("preempt", choice)
            choice = self.assignment.choose(mounted, candidates, now)
            if choice is None or choice == mounted:
                return None
            return ("mount", choice)
        choice = self.assignment.choose(None, candidates, now)
        if choice is None:
            return None
        return ("mount", choice)

    def _request_mount(
        self,
        bay: DriveBay,
        label: str,
        now: float,
        dispatch_on_mount: bool = False,
    ) -> None:
        self._claims[label] = bay.index
        if dispatch_on_mount:
            self._preempt_mounts.add(label)
        unload_label = bay.label
        rewind_seconds = 0.0
        if bay.drive is not None and unload_label is not None:
            # Deterministic: the bay does nothing else between this
            # request and the exchange, so rewinding the (discarded)
            # simulator now fixes the unload time.
            rewind_seconds = bay.drive.rewind()
            self._pending_unload[bay.index] = (
                unload_label, rewind_seconds
            )
        self._set_state(bay, DriveState.MOUNTING)
        bay.label = None
        bay.drive = None
        self.robot.submit(
            ExchangeJob(
                drive=bay.index,
                label=label,
                requested_seconds=now,
                unload_label=unload_label,
                rewind_seconds=rewind_seconds,
            )
        )

    # -- kernel event handlers -----------------------------------------------

    def _on_arrival(self, event: sim.RequestArrived) -> None:
        self._set_time()
        request = self._requests[event.request_index]
        queue = self._queues[request.label]
        # The request object itself goes through the queue (it quacks
        # like a TimedRequest), so completions and failures hand the
        # original object — label, identity, and any subclass fields
        # intact — back to the listeners.
        queue.push(request)
        self._schedule_deadline(
            request.label, request.arrival_seconds
        )
        self._pump()

    def _schedule_deadline(
        self, label: str, arrival_seconds: float
    ) -> None:
        deadline = self.policy.next_deadline_seconds(arrival_seconds)
        if math.isinf(deadline):
            return
        self.kernel.schedule(
            max(self.kernel.now_seconds, deadline),
            sim.QueueDeadline(label=label),
        )

    def _on_deadline(self, event: sim.QueueDeadline) -> None:
        self._set_time()
        self._pump()

    def _on_mount_started(self, event: sim.MountStarted) -> None:
        self._set_time()
        unload = self._pending_unload.pop(event.drive, None)
        if unload is not None and self.bus is not None:
            old_label, rewind_seconds = unload
            self.bus.publish(
                TapeUnmounted(
                    seconds=self.kernel.now_seconds
                    + rewind_seconds
                    + self.robot.exchange_seconds,
                    label=old_label,
                    rewind_seconds=rewind_seconds,
                    drive=event.drive,
                )
            )

    def _on_mount_completed(self, event: sim.MountCompleted) -> None:
        self._set_time()
        now = self.kernel.now_seconds
        bay = self.bays[event.drive]
        bay.drive = self._build_drive(
            self.cartridge(event.label), event.drive
        )
        bay.label = event.label
        self._set_state(bay, DriveState.IDLE)
        bay.mounts += 1
        self._mount_count += 1
        self._claims.pop(event.label, None)
        if self.bus is not None:
            self.bus.publish(
                TapeMounted(
                    seconds=now,
                    label=event.label,
                    exchange_seconds=self.robot.exchange_seconds,
                    drive=event.drive,
                )
            )
            self.bus.publish(
                MountWaitRecorded(
                    seconds=now,
                    drive=event.drive,
                    label=event.label,
                    wait_seconds=now - event.requested_seconds,
                    robot_seconds=event.robot_seconds,
                    arm=event.arm,
                )
            )
            self.bus.publish(
                ArmExchangeRecorded(
                    seconds=now,
                    arm=event.arm,
                    drive=event.drive,
                    label=event.label,
                    busy_seconds=event.robot_seconds,
                    queued=self.robot.arms[event.arm].queued,
                )
            )
        if (
            event.label in self._preempt_mounts
            and len(self._queues[event.label])
        ):
            self._preempt_mounts.discard(event.label)
            self._set_state(bay, DriveState.EXECUTING)
            self.kernel.schedule(
                now,
                sim.BatchDispatched(
                    drive=event.drive, label=event.label
                ),
            )
            return
        self._preempt_mounts.discard(event.label)
        self._pump()

    def _on_batch_dispatched(self, event: sim.BatchDispatched) -> None:
        self._set_time()
        now = self.kernel.now_seconds
        bay = self.bays[event.drive]
        batch = self._queues[event.label].flush()
        if not batch:  # pragma: no cover - queues only grow pre-flush
            self._set_state(bay, DriveState.IDLE)
            self._pump()
            return
        flight = self._dispatch_batch(
            batch,
            self.cartridge(event.label).model,
            bay.require_drive(),
            now,
            drive_index=event.drive,
            label=event.label,
            make_record=partial(
                LibraryBatchRecord, drive=event.drive, label=event.label
            ),
        )
        bay.busy_seconds += flight.result.total_seconds
        self._in_flight[flight.index] = flight
        self.kernel.schedule(
            now + flight.result.total_seconds,
            sim.BatchCompleted(
                drive=event.drive,
                label=event.label,
                batch_index=flight.index,
            ),
        )

    def _on_batch_completed(self, event: sim.BatchCompleted) -> None:
        self._set_time()
        self._complete_batch(
            self._in_flight.pop(event.batch_index),
            partial(self._requeue, event.label),
        )
        bay = self.bays[event.drive]
        self._set_state(bay, DriveState.IDLE)
        bay.batches += 1
        self._pump()

    def _requeue(self, label: str, item: LibraryRequest) -> None:
        """Put a failed request back on its tape's queue."""
        self._queues[label].push(item)
        self._schedule_deadline(label, item.arrival_seconds)
