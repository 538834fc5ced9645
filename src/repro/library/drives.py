"""Drive bays: the per-drive state the multi-drive system tracks.

A :class:`DriveBay` is one physical drive slot in the library: which
cartridge (if any) it holds, the :class:`~repro.drive.simulated
.SimulatedDrive` simulating that cartridge's mechanism, and what the
bay is currently doing.  The bay is plain state — the
:class:`~repro.library.system.MultiDriveSystem` drives all transitions
through kernel events, so everything here stays trivially inspectable
in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import LibraryError


class DriveState(enum.Enum):
    """What a drive bay is doing right now."""

    #: No cartridge loaded, nothing on the way.
    EMPTY = "empty"
    #: Cartridge loaded, drive waiting for work.
    IDLE = "idle"
    #: The robot is exchanging cartridges into this bay.
    MOUNTING = "mounting"
    #: The drive is executing a dispatched batch.
    EXECUTING = "executing"


#: States in which a bay can accept a dispatch or a mount.
AVAILABLE_STATES = frozenset((DriveState.EMPTY, DriveState.IDLE))


@dataclass
class DriveBay:
    """One drive slot of the library.

    Attributes
    ----------
    index:
        Stable bay number (0-based); doubles as the ``drive`` field on
        published observability events.
    state:
        Current :class:`DriveState`.
    label:
        Label of the mounted cartridge (None while EMPTY/MOUNTING).
    drive:
        Mechanism simulator for the mounted cartridge — a fresh
        :class:`~repro.drive.simulated.SimulatedDrive` per mount
        (position 0: the robot just loaded it), possibly wrapped in a
        :class:`~repro.resilience.FaultInjector`.
    busy_seconds:
        Accumulated simulated time this bay spent executing batches
        (feeds per-drive utilization).
    mounts:
        Completed cartridge exchanges into this bay.
    batches:
        Batches executed by this bay.
    """

    index: int
    state: DriveState = DriveState.EMPTY
    label: str | None = None
    drive: object | None = None
    busy_seconds: float = field(default=0.0)
    mounts: int = 0
    batches: int = 0

    @property
    def idle_with_tape(self) -> bool:
        """Mounted and ready for a dispatch."""
        return self.state is DriveState.IDLE and self.label is not None

    @property
    def available(self) -> bool:
        """Can this bay accept a dispatch or a mount right now?"""
        return self.state in AVAILABLE_STATES

    def require_drive(self):
        """The mechanism simulator (raises while nothing is mounted)."""
        if self.drive is None:
            raise LibraryError(f"bay {self.index} has no cartridge")
        return self.drive
