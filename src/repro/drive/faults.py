"""Fault injection for the simulated drive.

Real tape mechanisms occasionally miss a position and retry: the servo
overshoots, the block header fails its checksum, the drive backs up and
re-approaches.  The paper's measurements average over such retries; the
simulator exposes them explicitly so robustness tests can check that

* schedules still complete (retries change time, never correctness);
* the scheduling advantage survives a retry-prone mechanism;
* estimate error grows gracefully with the fault rate.

A :class:`FaultyModel` wraps any locate-time model: each locate fails
independently with probability ``retry_probability``, costing one extra
approach (back up ``backup_sections`` at scan speed and read in again).
Faults are drawn from a deterministic per-pair hash, so a schedule
executes identically every time — like a drive with a specific worn
spot, not a coin flipped per run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.perturb import MASK64, ModelWrapper

#: How far the mechanism backs up before the second approach.
DEFAULT_BACKUP_SECTIONS = 0.5


def _as_position_array(values, name: str) -> np.ndarray:
    """Validate segment positions and return them as uint64.

    A bare ``asarray(..., dtype=np.uint64)`` silently wraps negative
    values to huge positives and truncates fractional positions, so
    out-of-range input would produce an arbitrary (but plausible) fault
    mask instead of an error.  Reject negatives and non-finite values;
    round fractional positions to the nearest segment explicitly.
    """
    array = np.asarray(values)
    if array.dtype.kind == "f":
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} must be finite")
        array = np.rint(array)
    elif array.dtype.kind not in "iu":
        raise ValueError(
            f"{name} must be numeric segment positions, got dtype "
            f"{array.dtype}"
        )
    if np.any(array < 0):
        raise ValueError(f"{name} must be >= 0")
    return array.astype(np.uint64)


def _as_position(value, name: str) -> int:
    """Scalar :func:`_as_position_array`: the same checks, one position."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        value = round(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    return int(value)


class FaultyModel(ModelWrapper):
    """Locate-time model with deterministic positioning retries."""

    def __init__(
        self,
        base,
        retry_probability: float = 0.01,
        backup_sections: float = DEFAULT_BACKUP_SECTIONS,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= retry_probability <= 1.0:
            raise ValueError("retry_probability must be in [0, 1]")
        if backup_sections < 0:
            raise ValueError("backup_sections must be >= 0")
        super().__init__(base)
        self.retry_probability = float(retry_probability)
        self.backup_sections = float(backup_sections)
        self.seed = int(seed)
        self._salt = (self.seed * 0x2545F491 + 0x9E3779B9) & MASK64

    def _fault_mask(self, sources, destinations) -> np.ndarray:
        """Deterministic Bernoulli(retry_probability) per (src, dst)."""
        mix = (
            _as_position_array(sources, "sources")
            * np.uint64(0x9E3779B97F4A7C15)
            ^ _as_position_array(destinations, "destinations")
            * np.uint64(0xD6E8FEB86659FD93)
            ^ np.uint64(self._salt)
        )
        mix ^= mix >> np.uint64(33)
        mix *= np.uint64(0xC2B2AE3D27D4EB4F)
        mix ^= mix >> np.uint64(29)
        unit = mix.astype(np.float64) / float(2**64)
        return unit < self.retry_probability

    def _fault_one(self, source, destination) -> bool:
        """Scalar :meth:`_fault_mask` on Python ints masked to 64 bits."""
        mix = (
            _as_position(source, "sources") * 0x9E3779B97F4A7C15
            ^ _as_position(destination, "destinations") * 0xD6E8FEB86659FD93
            ^ self._salt
        ) & MASK64
        mix ^= mix >> 33
        mix = (mix * 0xC2B2AE3D27D4EB4F) & MASK64
        mix ^= mix >> 29
        unit = float(mix) / float(2**64)
        return unit < self.retry_probability

    def retry_penalty_seconds(self) -> float:
        """Extra time one retry costs."""
        scan = getattr(
            self.base, "scan_seconds_per_section", 10.0
        )
        read = getattr(
            self.base, "read_seconds_per_section", 15.5
        )
        return self.backup_sections * (scan + read)

    def _transform(self, sources, destinations, times) -> np.ndarray:
        faults = self._fault_mask(
            np.broadcast_to(sources, np.shape(times)),
            np.broadcast_to(destinations, np.shape(times)),
        )
        return times + np.where(
            faults, self.retry_penalty_seconds(), 0.0
        )

    def _transform_one(
        self, source: int, destination: int, time: float
    ) -> float:
        fault = self._fault_one(source, destination)
        return time + (self.retry_penalty_seconds() if fault else 0.0)
