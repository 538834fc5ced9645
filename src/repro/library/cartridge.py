"""Cartridges and the single-drive robotic library.

The paper's second experiment scenario "applies to a robotic tape
changer that has just loaded a new tape, so the tape head is at the
beginning of the tape", and footnote 5 notes that single-reel cartridge
technologies (DLT, IBM 3590) must rewind before ejecting.  The library
model captures exactly those mechanics: a mount costs an exchange time,
an unmount costs rewind-to-BOT plus the exchange, and a freshly mounted
cartridge always starts at segment 0.

:class:`TapeLibrary` is the original single-drive library (one robot,
one drive, mounts serviced synchronously on the caller's clock); the
event-driven multi-drive generalization lives in
:class:`~repro.library.system.MultiDriveSystem`, which charges the same
per-exchange costs through a shared robot arm in simulated time.

(These classes moved here from ``repro.online.library``, which no
longer exists; ``repro.online`` still re-exports them.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.drive.simulated import SimulatedDrive
from repro.exceptions import LibraryError, UnknownTape
from repro.geometry.tape import TapeGeometry
from repro.model.locate import LocateTimeModel
from repro.obs.bus import EventBus
from repro.obs.events import TapeMounted, TapeUnmounted

#: Typical robotic cartridge-exchange time (pick, move, load), seconds.
DEFAULT_EXCHANGE_SECONDS = 30.0


@dataclass
class Cartridge:
    """One shelved cartridge: geometry plus its calibrated model.

    ``model`` may be omitted; :meth:`__post_init__` then calibrates a
    :class:`~repro.model.locate.LocateTimeModel` from the geometry, so
    after construction it is never ``None``.
    """

    label: str
    geometry: TapeGeometry
    model: LocateTimeModel | None = None

    def __post_init__(self) -> None:
        if self.model is None:
            self.model = LocateTimeModel(self.geometry)


class TapeLibrary:
    """A single-drive robotic library.

    Tracks which cartridge is mounted, the drive simulator for it, and
    the accumulated robot/drive time.  (The paper studies a single
    drive; the multi-drive generalization is
    :class:`~repro.library.system.MultiDriveSystem`.)
    """

    def __init__(
        self,
        cartridges: list[Cartridge],
        exchange_seconds: float = DEFAULT_EXCHANGE_SECONDS,
        bus: EventBus | None = None,
    ) -> None:
        labels = [c.label for c in cartridges]
        if len(set(labels)) != len(labels):
            raise LibraryError("cartridge labels must be unique")
        self._shelf = {c.label: c for c in cartridges}
        self.exchange_seconds = float(exchange_seconds)
        if not math.isfinite(self.exchange_seconds) or (
            self.exchange_seconds < 0
        ):
            raise LibraryError("exchange_seconds must be finite and >= 0")
        #: Optional :class:`~repro.obs.bus.EventBus`; mounts/unmounts
        #: publish ``library.mount`` / ``library.unmount`` events, and
        #: the drive of the mounted cartridge joins the same stream.
        self.bus = bus
        self._mounted: str | None = None
        self._drive: SimulatedDrive | None = None
        self._clock = 0.0

    # -- state ------------------------------------------------------------

    @property
    def clock_seconds(self) -> float:
        """Total robot + drive time accumulated by this library."""
        drive_time = (
            self._drive.clock_seconds if self._drive is not None else 0.0
        )
        return self._clock + drive_time

    @property
    def mounted_label(self) -> str | None:
        """Label of the mounted cartridge, if any."""
        return self._mounted

    @property
    def drive(self) -> SimulatedDrive:
        """The drive holding the mounted cartridge."""
        if self._drive is None:
            raise LibraryError("no cartridge mounted")
        return self._drive

    def cartridge(self, label: str) -> Cartridge:
        """Look up a shelved cartridge."""
        try:
            return self._shelf[label]
        except KeyError:
            raise UnknownTape(f"no cartridge labelled {label!r}") from None

    def labels(self) -> list[str]:
        """All cartridge labels, sorted."""
        return sorted(self._shelf)

    # -- robotics -----------------------------------------------------------

    def mount(self, label: str) -> float:
        """Mount a cartridge (unmounting the current one first).

        Returns the robot + rewind seconds spent.  Mounting the already
        mounted cartridge is free.
        """
        if self._mounted == label:
            return 0.0
        spent = 0.0
        if self._mounted is not None:
            spent += self.unmount()
        cartridge = self.cartridge(label)
        self._clock += self.exchange_seconds
        spent += self.exchange_seconds
        self._drive = SimulatedDrive(
            cartridge.model, initial_position=0, bus=self.bus
        )
        self._mounted = label
        if self.bus is not None:
            self.bus.publish(
                TapeMounted(
                    seconds=self.clock_seconds,
                    label=label,
                    exchange_seconds=self.exchange_seconds,
                )
            )
        return spent

    def unmount(self) -> float:
        """Rewind (DLT must rewind to eject) and shelve the cartridge."""
        if self._mounted is None or self._drive is None:
            raise LibraryError("no cartridge mounted")
        label = self._mounted
        rewind_spent = self._drive.rewind()
        self._clock += self._drive.clock_seconds + self.exchange_seconds
        self._drive = None
        self._mounted = None
        if self.bus is not None:
            self.bus.publish(
                TapeUnmounted(
                    seconds=self.clock_seconds,
                    label=label,
                    rewind_seconds=rewind_spent,
                )
            )
        return rewind_spent + self.exchange_seconds
