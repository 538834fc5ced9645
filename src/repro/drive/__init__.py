"""Simulated DLT4000 drives.

Public surface::

    from repro.drive import (
        SimulatedDrive, TapeDrive, EventKind,
        ground_truth_drive, ground_truth_model,
    )
"""

from repro.drive.interface import TapeDrive
from repro.drive.physical import ground_truth_drive, ground_truth_model
from repro.drive.simulated import SimulatedDrive, TRACK_TURNAROUND_SECONDS
from repro.drive.wear import (
    DLT_RATED_PASSES,
    EXABYTE_RATED_PASSES,
    WearMeter,
)
from repro.obs.events import EventKind

__all__ = [
    "DLT_RATED_PASSES",
    "EXABYTE_RATED_PASSES",
    "EventKind",
    "SimulatedDrive",
    "TRACK_TURNAROUND_SECONDS",
    "TapeDrive",
    "WearMeter",
    "ground_truth_drive",
    "ground_truth_model",
]
