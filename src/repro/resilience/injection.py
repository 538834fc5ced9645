"""Deterministic fault injection at the drive boundary.

This module is the simulator's one fault model: a locate that
hard-fails, a read whose data is bad, a firmware reset that loses the
head position.  A :class:`FaultInjector` wraps any drive and raises
them as typed :class:`~repro.exceptions.DriveFault` exceptions at the
rates of a :class:`FaultPlan`, charging realistic mechanism time for
each failed attempt; a :class:`~repro.resilience.policy.RetryPolicy`
above it turns a fault into a retry that costs time, never
correctness.

Faults are *transient and deterministic*: each primitive operation
consumes one draw from a counted hash stream, so the same run replays
identically, while a retried operation sees a fresh draw and eventually
succeeds — exactly the behavior the retry layer above is built for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import DriveReset, LocateFault, ReadFault
from repro.obs.events import FaultInjected

#: Mechanism time a hard locate failure wastes before reporting: one
#: backed-up re-approach, 0.5 sections at scan + read speed
#: (0.5 × (10.0 + 15.5) s/section) — the attempt that *still* missed.
DEFAULT_LOCATE_PENALTY_SECONDS = 12.75

#: Firmware reset time before the mechanism accepts commands again
#: (the rewind back to BOT is charged separately, at rewind speed).
DEFAULT_RESET_PENALTY_SECONDS = 30.0


@dataclass(frozen=True)
class FaultPlan:
    """Per-operation fault rates and their time penalties.

    Attributes
    ----------
    locate_fault_probability:
        Chance a locate hard-fails (head stays put, penalty charged).
    read_fault_probability:
        Chance a read returns bad data (head stays at the segment, the
        wasted transfer time is charged).
    reset_probability:
        Chance any locate triggers a drive reset (penalty plus a real
        rewind; the head ends at segment 0).
    locate_penalty_seconds, reset_penalty_seconds:
        Mechanism time charged per fault of that kind.
    read_penalty_seconds:
        Time a failed read wastes; ``None`` charges the transfer time
        of the attempted read itself.
    seed:
        Seed of the deterministic draw stream.
    """

    locate_fault_probability: float = 0.0
    read_fault_probability: float = 0.0
    reset_probability: float = 0.0
    locate_penalty_seconds: float = DEFAULT_LOCATE_PENALTY_SECONDS
    read_penalty_seconds: float | None = None
    reset_penalty_seconds: float = DEFAULT_RESET_PENALTY_SECONDS
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "locate_fault_probability",
            "read_fault_probability",
            "reset_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.locate_fault_probability + self.reset_probability > 1.0:
            raise ValueError(
                "locate_fault_probability + reset_probability must "
                "not exceed 1"
            )
        for name in ("locate_penalty_seconds", "reset_penalty_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if (
            self.read_penalty_seconds is not None
            and self.read_penalty_seconds < 0
        ):
            raise ValueError("read_penalty_seconds must be >= 0")

    @property
    def any_faults(self) -> bool:
        """Does this plan ever inject anything?"""
        return (
            self.locate_fault_probability > 0.0
            or self.read_fault_probability > 0.0
            or self.reset_probability > 0.0
        )


def _unit_draw(seed: int, counter: int) -> float:
    """Deterministic value in [0, 1) from (seed, draw counter)."""
    mix = (
        (seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15
        ^ (counter & 0xFFFFFFFFFFFFFFFF) * 0xD6E8FEB86659FD93
    ) & 0xFFFFFFFFFFFFFFFF
    mix ^= mix >> 33
    mix = (mix * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    mix ^= mix >> 33
    return mix / float(2**64)


class FaultInjector:
    """Drive wrapper that deterministically raises hard faults.

    Exposes the same operational surface as
    :class:`~repro.drive.simulated.SimulatedDrive` (``locate`` /
    ``read`` / ``rewind`` / ``position`` / ``clock_seconds`` / ...), so
    the executor and online system accept it interchangeably.  Penalty
    and backoff time accumulate in the injector's own clock on top of
    the wrapped drive's, so ``clock_seconds`` stays the single source
    of elapsed mechanism time.

    Parameters
    ----------
    drive:
        The drive to wrap (typically a
        :class:`~repro.drive.simulated.SimulatedDrive`).
    plan:
        Fault rates and penalties.
    bus:
        Optional :class:`~repro.obs.bus.EventBus`; every injected fault
        publishes a :class:`~repro.obs.events.FaultInjected` event.
    """

    def __init__(self, drive, plan: FaultPlan, bus=None) -> None:
        self.inner = drive
        self.plan = plan
        self.bus = bus
        self._extra_seconds = 0.0
        self._draws = 0
        #: Injected fault counts by taxonomy tag.
        self.fault_counts: dict[str, int] = {
            "locate": 0, "read": 0, "reset": 0,
        }

    # -- state ---------------------------------------------------------------

    @property
    def position(self) -> int:
        """Head position of the wrapped drive."""
        return self.inner.position

    @property
    def clock_seconds(self) -> float:
        """Wrapped drive clock plus injected penalty/backoff time."""
        return self.inner.clock_seconds + self._extra_seconds

    @property
    def geometry(self):
        """Geometry of the wrapped drive."""
        return self.inner.geometry

    @property
    def model(self):
        """Locate-time model of the wrapped drive."""
        return self.inner.model

    @property
    def faults_injected(self) -> int:
        """Total faults raised so far."""
        return sum(self.fault_counts.values())

    def wait(self, seconds: float) -> None:
        """Let simulated time pass (retry backoff) without moving."""
        if seconds < 0:
            raise ValueError("wait must be >= 0 seconds")
        self._extra_seconds += seconds

    # -- fault machinery -----------------------------------------------------

    def _draw(self) -> float:
        unit = _unit_draw(self.plan.seed, self._draws)
        self._draws += 1
        return unit

    def _inject(self, kind: str, segment: int, penalty: float) -> None:
        self.fault_counts[kind] += 1
        self._extra_seconds += penalty
        if self.bus is not None:
            self.bus.publish(
                FaultInjected(
                    seconds=self.clock_seconds,
                    kind=kind,
                    segment=segment,
                    position=self.inner.position,
                    penalty_seconds=penalty,
                )
            )

    # -- operations ----------------------------------------------------------

    def locate(self, segment: int) -> float:
        """Position the head, or raise a locate fault / drive reset."""
        self.geometry.check_segment(segment)
        unit = self._draw()
        if unit < self.plan.reset_probability:
            position = self.inner.position
            self._inject("reset", segment, self.plan.reset_penalty_seconds)
            self.inner.rewind()
            raise DriveReset(
                "drive reset during locate",
                segment=segment,
                position=position,
                penalty_seconds=self.plan.reset_penalty_seconds,
            )
        if unit < (
            self.plan.reset_probability
            + self.plan.locate_fault_probability
        ):
            penalty = self.plan.locate_penalty_seconds
            self._inject("locate", segment, penalty)
            raise LocateFault(
                "locate hard failure",
                segment=segment,
                position=self.inner.position,
                penalty_seconds=penalty,
            )
        return self.inner.locate(segment)

    def read(self, count: int = 1) -> float:
        """Transfer segments, or raise a read fault (head stays put)."""
        if self._draw() < self.plan.read_fault_probability:
            penalty = self.plan.read_penalty_seconds
            if penalty is None:
                transfer = getattr(
                    self.model, "segment_transfer_seconds", None
                )
                penalty = count * transfer if transfer is not None else 0.0
            segment = self.inner.position
            self._inject("read", segment, penalty)
            raise ReadFault(
                "read error",
                segment=segment,
                position=segment,
                penalty_seconds=penalty,
            )
        return self.inner.read(count)

    def rewind(self) -> float:
        """Rewind to BOT (never faulted: it is the recovery primitive)."""
        return self.inner.rewind()

    def read_entire_tape(self) -> float:
        """Full-tape scan (not fault-injected; see docs/RESILIENCE.md)."""
        return self.inner.read_entire_tape()

    def service(self, segment: int, length: int = 1) -> float:
        """Locate then read, through the injected primitives."""
        return self.locate(segment) + self.read(length)

    def locate_times_from_here(self, segments):
        """Vectorized what-if of the wrapped drive."""
        return self.inner.locate_times_from_here(segments)
