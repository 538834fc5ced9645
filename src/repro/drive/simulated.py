"""The simulated DLT4000 drive.

A :class:`SimulatedDrive` executes the primitive operations of the paper
— ``locate``, ``read``, ``rewind``, and the READ-algorithm's full-tape
scan — against a locate-time model, accumulating elapsed mechanism time
and (optionally) publishing each operation as a ``drive.op`` bus event.
The model it is given determines whose "reality" it simulates:

* with a plain :class:`~repro.model.LocateTimeModel` it is the paper's
  *model-driven simulation* (Section 5);
* with the ground-truth deviations of
  :func:`repro.drive.physical.ground_truth_drive` it stands in for the
  physical drive used in the validation measurements (Section 6).
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    REPOSITION_SECONDS,
    SEGMENT_TRANSFER_SECONDS,
)
from repro.exceptions import DriveError
from repro.model.rewind import rewind_time
from repro.obs.events import DriveOperation, EventKind

#: Per-track-turnaround cost charged during a full-tape sequential read.
TRACK_TURNAROUND_SECONDS = REPOSITION_SECONDS


class SimulatedDrive:
    """Single-cartridge tape drive simulator.

    Parameters
    ----------
    model:
        Locate-time model (or perturbation wrapper) for the mounted
        cartridge; its geometry is the cartridge geometry.
    initial_position:
        Head position when the simulation starts (0 = freshly loaded).
    bus:
        Optional :class:`~repro.obs.bus.EventBus`; every primitive
        operation is published as a
        :class:`~repro.obs.events.DriveOperation` (stamped with the
        drive clock at the operation's start).  ``None`` (the default)
        publishes nothing and costs nothing.
    """

    def __init__(
        self,
        model,
        initial_position: int = 0,
        wear_meter=None,
        bus=None,
    ) -> None:
        self.model = model
        self.model.geometry.check_segment(initial_position)
        self._position = int(initial_position)
        self._clock = 0.0
        #: Optional :class:`repro.drive.wear.WearMeter` accumulating
        #: head travel across all operations.
        self.wear_meter = wear_meter
        #: Optional :class:`repro.obs.bus.EventBus` receiving one
        #: ``drive.op`` event per primitive operation.
        self.bus = bus

    # -- state ---------------------------------------------------------------

    @property
    def geometry(self):
        """Geometry of the mounted cartridge."""
        return self.model.geometry

    @property
    def position(self) -> int:
        """Current head position (absolute segment number)."""
        return self._position

    @property
    def clock_seconds(self) -> float:
        """Accumulated busy time."""
        return self._clock

    def _record(
        self, kind: EventKind, duration: float, source: int, destination: int
    ) -> None:
        if self.bus is not None:
            self.bus.publish(
                DriveOperation(
                    seconds=self._clock,
                    kind=kind.value,
                    duration_seconds=duration,
                    source=source,
                    destination=destination,
                )
            )
        self._clock += duration

    def _transfer_seconds(self) -> float:
        """Per-segment transfer time of the mounted drive profile."""
        return getattr(
            self.model, "segment_transfer_seconds",
            SEGMENT_TRANSFER_SECONDS,
        )

    def _rewind_seconds(self, segment: int) -> float:
        """Rewind time at the mounted drive profile's scan speed."""
        if hasattr(self.model, "rewind_seconds"):
            return float(self.model.rewind_seconds(segment))
        return float(rewind_time(self.geometry, segment))

    # -- operations ------------------------------------------------------------

    def locate(self, segment: int) -> float:
        """Position the head to read ``segment``."""
        self.geometry.check_segment(segment)
        duration = self.model.locate_time(self._position, segment)
        if self.wear_meter is not None:
            self.wear_meter.add_travel(
                float(
                    self.model.travel_sections(
                        self._position, np.asarray([segment])
                    )[0]
                )
            )
        self._record(EventKind.LOCATE, duration, self._position, segment)
        self._position = int(segment)
        return duration

    def read(self, count: int = 1) -> float:
        """Transfer ``count`` segments, leaving the head just past them.

        The head parks at the following segment (clamped at the last
        segment of the tape, where the mechanism stops at end of data).
        """
        if count < 1:
            raise DriveError(f"read count must be >= 1, got {count}")
        end = self._position + count
        if end > self.geometry.total_segments:
            raise DriveError(
                f"read of {count} segments at {self._position} runs past "
                f"end of data ({self.geometry.total_segments} segments)"
            )
        duration = count * self._transfer_seconds()
        destination = min(end, self.geometry.total_segments - 1)
        if self.wear_meter is not None:
            self.wear_meter.add_travel(
                abs(
                    float(self.geometry.phys_of(destination))
                    - float(self.geometry.phys_of(self._position))
                )
            )
        self._record(EventKind.READ, duration, self._position, destination)
        self._position = destination
        return duration

    def rewind(self) -> float:
        """Rewind to the beginning of the tape."""
        duration = float(self._rewind_seconds(self._position))
        if self.wear_meter is not None:
            self.wear_meter.add_travel(
                float(self.geometry.phys_of(self._position))
            )
        self._record(EventKind.REWIND, duration, self._position, 0)
        self._position = 0
        return duration

    def read_entire_tape(self) -> float:
        """The READ algorithm's primitive: sequential scan plus rewind.

        Reads every segment from BOT to the end of data (rewinding first
        if necessary), turning around at each track end, then rewinds.
        Typical DLT4000 time: just under four hours.
        """
        total = 0.0
        if self._position != 0:
            total += self.rewind()
        geo = self.geometry
        read_seconds = geo.total_segments * self._transfer_seconds()
        turnaround = (geo.num_tracks - 1) * TRACK_TURNAROUND_SECONDS
        duration = read_seconds + turnaround
        last = geo.total_segments - 1
        if self.wear_meter is not None:
            # One end-to-end traversal per track.
            from repro.geometry.tape import TAPE_PHYS_LENGTH

            self.wear_meter.add_travel(geo.num_tracks * TAPE_PHYS_LENGTH)
        self._record(EventKind.FULL_READ, duration, 0, last)
        self._position = last
        total += duration
        total += self.rewind()
        return total

    # -- bulk helper -------------------------------------------------------------

    def service(self, segment: int, length: int = 1) -> float:
        """Locate to ``segment`` and read ``length`` segments."""
        return self.locate(segment) + self.read(length)

    def locate_times_from_here(self, segments) -> np.ndarray:
        """Vectorized what-if: locate times from the current position
        (does not move the head)."""
        return self.model.locate_times(
            self._position, np.asarray(segments, dtype=np.int64)
        )
