"""Ground-truth drive: the stand-in for the physical DLT4000.

The paper's validation (Section 6) compares *estimated* schedule
execution times (from the locate-time model) with *measured* times on
the real drive.  We have no real drive, so the measured side is played
by a :class:`~repro.drive.simulated.SimulatedDrive` whose locate times
deviate from the idealized model the way the paper reports the real
mechanism deviates:

* short locates near the physical track ends take slightly longer than
  the model predicts (the model "is less accurate" there — the stated
  reason estimate error grows with schedule length in Figure 8);
* every locate carries a small deterministic per-pair wobble, standing
  in for mechanical variation between the model's piecewise-linear fits
  and reality.

The deviations are deterministic, so repeated measurements of one
schedule agree — like re-running the same tape.
"""

from __future__ import annotations

from repro.drive.simulated import SimulatedDrive
from repro.geometry.tape import TapeGeometry
from repro.model.locate import LocateTimeModel
from repro.model.perturb import ShortLocateDeviation


def ground_truth_model(
    geometry: TapeGeometry,
    seed: int = 0,
    short_seconds: float = 30.0,
    bias_seconds: float = 0.45,
    noise_seconds: float = 0.35,
) -> ShortLocateDeviation:
    """The "real mechanism" locate-time function for a cartridge."""
    return ShortLocateDeviation(
        LocateTimeModel(geometry),
        short_seconds=short_seconds,
        bias_seconds=bias_seconds,
        noise_seconds=noise_seconds,
        seed=seed,
    )


def ground_truth_drive(
    geometry: TapeGeometry,
    seed: int = 0,
    initial_position: int = 0,
    **deviation_kwargs,
) -> SimulatedDrive:
    """A drive whose measured times deviate from the idealized model.

    Use this wherever the paper uses the physical DLT4000: executing
    schedules for the validation and sensitivity experiments.
    """
    return SimulatedDrive(
        ground_truth_model(geometry, seed=seed, **deviation_kwargs),
        initial_position=initial_position,
    )
