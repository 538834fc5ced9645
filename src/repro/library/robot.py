"""The robot arms that exchange cartridges.

The library's structural bottleneck: every cartridge exchange must be
carried out by an arm, and arms are scarce.  :class:`RobotArm` is one
FIFO exchange server; :class:`ArmPool` fans exchange jobs out over K of
them through a pluggable arm-assignment policy (see
:mod:`repro.library.policies`).  A 1-arm pool is bit-identical to the
original shared-arm library: one arm, one FIFO queue, the same event
sequence at the same instants.

Each job charges the same costs as the single-drive
:class:`~repro.library.cartridge.TapeLibrary` (rewind-to-BOT plus an
exchange to shelve the outgoing cartridge, one exchange to load the
incoming one), and while an arm works on one bay every other exchange
queued on *that arm* waits — other arms keep working.  An arm schedules
:class:`~repro.library.events.MountStarted` /
:class:`~repro.library.events.MountCompleted` /
:class:`~repro.library.events.RobotIdle` kernel events; the system
layer reacts to them (building the drive, publishing observability
events, re-pumping dispatch).

The rewind is charged to the arm's occupancy as well: the bay is
unusable while its outgoing cartridge rewinds, and modelling the arm as
occupied for the whole unload-load sequence matches the serial
accounting of ``TapeLibrary.mount``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.exceptions import LibraryError
from repro.library.events import MountCompleted, MountStarted, RobotIdle
from repro.library.kernel import EventKernel
from repro.library.policies import (
    ArmAssignmentPolicy,
    ArmView,
    LeastBusyArms,
)


@dataclass(frozen=True)
class ExchangeJob:
    """One requested cartridge exchange.

    Attributes
    ----------
    drive:
        Target bay index.
    label:
        Cartridge to load.
    requested_seconds:
        Simulated time the exchange was requested (mount-wait time is
        measured from here).
    unload_label:
        Cartridge currently in the bay that must be shelved first
        (None for an empty bay).
    rewind_seconds:
        Rewind-to-BOT time of the outgoing cartridge (0 for an empty
        bay); fixed at request time, since the bay does nothing else
        between the request and the exchange.
    """

    drive: int
    label: str
    requested_seconds: float
    unload_label: str | None = None
    rewind_seconds: float = 0.0


class RobotArm:
    """FIFO cartridge-exchange server on the simulation kernel.

    Attributes
    ----------
    index:
        Stable arm number (0-based); stamped onto the kernel events the
        arm schedules and onto the ``library.arm.*`` obs events the
        system publishes for it.
    exchange_seconds:
        Robot time per cartridge movement (one to shelve, one to load).
    busy_seconds:
        Total simulated time the arm has been occupied.
    exchanges:
        Jobs completed or in progress.
    """

    def __init__(
        self,
        kernel: EventKernel,
        exchange_seconds: float,
        index: int = 0,
    ) -> None:
        self._kernel = kernel
        self.index = int(index)
        self.exchange_seconds = float(exchange_seconds)
        self._queue: deque[ExchangeJob] = deque()
        self._busy = False
        self.busy_seconds = 0.0
        self.exchanges = 0
        kernel.on(RobotIdle, self._handle_idle)

    @property
    def busy(self) -> bool:
        """Is the arm currently working a job?"""
        return self._busy

    @property
    def queued(self) -> int:
        """Jobs waiting behind the current one."""
        return len(self._queue)

    def job_seconds(self, job: ExchangeJob) -> float:
        """Total arm occupancy for one job (unload, if any, plus load)."""
        duration = self.exchange_seconds
        if job.unload_label is not None:
            duration += job.rewind_seconds + self.exchange_seconds
        return duration

    def submit(self, job: ExchangeJob) -> None:
        """Queue an exchange; starts immediately if the arm is free."""
        self._queue.append(job)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        job = self._queue.popleft()
        self._busy = True
        self.exchanges += 1
        start = self._kernel.now_seconds
        duration = self.job_seconds(job)
        self.busy_seconds += duration
        self._kernel.schedule(
            start,
            MountStarted(
                drive=job.drive, label=job.label, arm=self.index
            ),
        )
        self._kernel.schedule(
            start + duration,
            MountCompleted(
                drive=job.drive,
                label=job.label,
                requested_seconds=job.requested_seconds,
                robot_seconds=duration,
                arm=self.index,
            ),
        )
        self._kernel.schedule(
            start + duration, RobotIdle(arm=self.index)
        )

    def _handle_idle(self, event: RobotIdle) -> None:
        if event.arm != self.index:
            return
        self._busy = False
        self._start_next()


class ArmPool:
    """K robot arms behind one submission surface.

    Exchange jobs submitted to the pool are handed to an arm chosen by
    the pluggable :class:`~repro.library.policies.ArmAssignmentPolicy`
    (least-busy by default); each arm then services its own queue FIFO.
    With ``arms=1`` every policy degenerates to "the one arm", so the
    pool is bit-identical to the original single shared
    :class:`RobotArm` — the equivalence the arm-pool test suite pins.

    The pool quacks like one big arm for aggregate accounting
    (``busy_seconds`` / ``exchanges`` / ``queued`` sum over the arms),
    so code written against the single-arm library keeps reading the
    same totals.
    """

    def __init__(
        self,
        kernel: EventKernel,
        exchange_seconds: float,
        arms: int = 1,
        assignment: ArmAssignmentPolicy | None = None,
    ) -> None:
        if arms < 1:
            raise LibraryError("arms must be >= 1")
        self.exchange_seconds = float(exchange_seconds)
        if not math.isfinite(self.exchange_seconds) or (
            self.exchange_seconds < 0
        ):
            raise LibraryError("exchange_seconds must be finite and >= 0")
        self.assignment = (
            assignment if assignment is not None else LeastBusyArms()
        )
        self.arms = [
            RobotArm(kernel, exchange_seconds, index=index)
            for index in range(arms)
        ]

    def __len__(self) -> int:
        return len(self.arms)

    @property
    def busy_seconds(self) -> float:
        """Total simulated time any arm has been occupied (summed)."""
        return sum(arm.busy_seconds for arm in self.arms)

    @property
    def exchanges(self) -> int:
        """Jobs completed or in progress across all arms."""
        return sum(arm.exchanges for arm in self.arms)

    @property
    def queued(self) -> int:
        """Jobs waiting across all arms."""
        return sum(arm.queued for arm in self.arms)

    @property
    def busy(self) -> bool:
        """Is any arm currently working a job?"""
        return any(arm.busy for arm in self.arms)

    def views(self) -> list[ArmView]:
        """Policy-visible snapshots of every arm, in index order."""
        return [
            ArmView(
                index=arm.index,
                busy=arm.busy,
                queued=arm.queued,
                busy_seconds=arm.busy_seconds,
            )
            for arm in self.arms
        ]

    def submit(self, job: ExchangeJob) -> RobotArm:
        """Assign an exchange to an arm; returns the chosen arm."""
        if len(self.arms) == 1:
            chosen = self.arms[0]
        else:
            index = self.assignment.choose(job.drive, self.views())
            if not 0 <= index < len(self.arms):
                raise LibraryError(
                    f"arm policy {self.assignment.name!r} chose arm "
                    f"{index}, but the pool has {len(self.arms)} arms"
                )
            chosen = self.arms[index]
        chosen.submit(job)
        return chosen

    def occupancies(self, makespan_seconds: float) -> list[float]:
        """Per-arm occupancy over a run of ``makespan_seconds``."""
        if makespan_seconds <= 0:
            return [0.0 for _ in self.arms]
        return [
            arm.busy_seconds / makespan_seconds for arm in self.arms
        ]
