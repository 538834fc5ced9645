"""Perturbation wrappers around a locate-time model.

These implement the error models of the paper's Sections 6 and 7:

* :class:`EvenOddPerturbation` — the Section 7 sensitivity error: given
  an error amount ``E``, the perturbed model returns
  ``locate_time(S, D) + E`` when ``D`` is even and
  ``locate_time(S, D) - E`` when ``D`` is odd.
* :class:`ShortLocateDeviation` — the Section 6 validation gap: the
  region of the model covering short locates near the physical track
  ends is the least accurate, so the ground-truth drive adds a small
  bias plus deterministic per-pair noise to short locates.  Schedules
  with many requests are dominated by exactly those locates, which is
  why the estimate error grows with schedule length in Figure 8.

All wrappers expose the same interface as
:class:`~repro.model.locate.LocateTimeModel` (``geometry``,
``locate_time``, ``locate_times``, ``pairwise_times``, ``oracle``), so
schedulers and drives accept them interchangeably.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.locate import LocateTimeModel

#: Keeps the scalar hashes in the 64-bit arithmetic of the uint64 ones.
MASK64 = 0xFFFFFFFFFFFFFFFF


class ModelWrapper:
    """Base class: delegates to a wrapped model, transforms its output."""

    def __init__(self, base: LocateTimeModel) -> None:
        self.base = base

    @property
    def geometry(self):
        """Geometry of the wrapped model."""
        return self.base.geometry

    def _transform(self, sources, destinations, times) -> np.ndarray:
        raise NotImplementedError

    def _transform_one(
        self, source: int, destination: int, time: float
    ) -> float:
        """Scalar :meth:`_transform` for one pair, bit-identical to it."""
        raise NotImplementedError

    def locate_time(self, source: int, destination: int) -> float:
        """Scalar locate time, bit-identical to
        ``float(self.locate_times(source, [destination])[0])``."""
        return self._transform_one(
            source, destination, self.base.locate_time(source, destination)
        )

    def locate_times(self, source: int, destinations) -> np.ndarray:
        destinations = np.asarray(destinations, dtype=np.int64)
        times = self.base.locate_times(source, destinations)
        return self._transform(
            np.asarray(source, dtype=np.int64), destinations, times
        )

    def times(self, sources, destinations) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        base_times = self.base.times(sources, destinations)
        return self._transform(sources, destinations, base_times)

    def pairwise_times(self, sources, destinations) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64).reshape(-1, 1)
        destinations = np.asarray(destinations, dtype=np.int64).reshape(1, -1)
        times = self.base.pairwise_times(sources, destinations)
        return self._transform(sources, destinations, times)

    def travel_sections(self, source: int, destinations) -> np.ndarray:
        """Physical head travel (perturbations do not move the head)."""
        return self.base.travel_sections(source, destinations)

    @property
    def segment_transfer_seconds(self) -> float:
        """Transfer time per segment of the wrapped model."""
        return self.base.segment_transfer_seconds

    def rewind_seconds(self, segment) -> np.ndarray:
        """Rewind time of the wrapped model (perturbations target
        locates only)."""
        return self.base.rewind_seconds(segment)

    def oracle(self):
        """Calibration-oracle adapter (see :meth:`LocateTimeModel.oracle`)."""

        def measure(source: int, destinations: np.ndarray) -> np.ndarray:
            return self.locate_times(source, destinations)

        return measure


class EvenOddPerturbation(ModelWrapper):
    """The Section 7 error model: ``+E`` to even destinations, ``-E`` to odd.

    Over any complete schedule every requested segment is a destination
    exactly once, so the *total* perturbation is the same constant for
    every ordering — which is why the paper finds OPT completely immune
    to this error even at ``E = 10`` while the greedy LOSS is led astray
    edge by edge.

    Times are floored at zero (a locate cannot take negative time).
    ``error_seconds`` must be finite: the scalar and vector floors
    disagree on NaN (``max(0.0, nan)`` is ``0.0``, ``np.maximum`` NaN).
    """

    def __init__(self, base: LocateTimeModel, error_seconds: float) -> None:
        super().__init__(base)
        self.error_seconds = float(error_seconds)
        if not math.isfinite(self.error_seconds):
            raise ValueError("error_seconds must be finite")

    def _transform(self, sources, destinations, times) -> np.ndarray:
        offset = np.where(
            destinations % 2 == 0, self.error_seconds, -self.error_seconds
        )
        return np.maximum(0.0, times + offset)

    def _transform_one(
        self, source: int, destination: int, time: float
    ) -> float:
        offset = (
            self.error_seconds if destination % 2 == 0
            else -self.error_seconds
        )
        return max(0.0, time + offset)


class ShortLocateDeviation(ModelWrapper):
    """Ground-truth deviation concentrated on short locates.

    Parameters
    ----------
    base:
        The idealized model (the "true key points" model).
    short_seconds:
        Locates faster than this are considered "near the track ends",
        where the paper reports the model is least accurate.
    bias_seconds:
        Systematic extra time the real mechanism spends on short
        locates (settle time the model does not capture).
    noise_seconds:
        Amplitude of deterministic per-pair noise (uniform in
        ``[-noise, +noise]``), applied to *all* locates.  Deterministic
        so that repeated executions of a schedule measure identically,
        like re-running a tape.  Must be >= 0.

    The three times must be finite (see :class:`EvenOddPerturbation`).
    """

    def __init__(
        self,
        base: LocateTimeModel,
        short_seconds: float = 30.0,
        bias_seconds: float = 0.45,
        noise_seconds: float = 0.35,
        seed: int = 0,
    ) -> None:
        super().__init__(base)
        self.short_seconds = float(short_seconds)
        self.bias_seconds = float(bias_seconds)
        self.noise_seconds = float(noise_seconds)
        for name in ("short_seconds", "bias_seconds", "noise_seconds"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.noise_seconds < 0:
            raise ValueError("noise_seconds must be >= 0")
        self.seed = int(seed)
        self._salt = (self.seed * 0x165667B1 + 0x27D4EB2F) & MASK64

    def _pair_noise(self, sources, destinations) -> np.ndarray:
        """Deterministic pseudo-random value in [-1, 1] per (src, dst)."""
        mix = (
            sources.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ destinations.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            ^ np.uint64(self._salt)
        )
        mix ^= mix >> np.uint64(33)
        mix *= np.uint64(0xFF51AFD7ED558CCD)
        mix ^= mix >> np.uint64(33)
        unit = mix.astype(np.float64) / float(2**64)
        return 2.0 * unit - 1.0

    def _pair_noise_one(self, source: int, destination: int) -> float:
        """Scalar :meth:`_pair_noise` on Python ints masked to 64 bits."""
        mix = (
            source * 0x9E3779B97F4A7C15
            ^ destination * 0xC2B2AE3D27D4EB4F
            ^ self._salt
        ) & MASK64
        mix ^= mix >> 33
        mix = (mix * 0xFF51AFD7ED558CCD) & MASK64
        mix ^= mix >> 33
        unit = float(mix) / float(2**64)
        return 2.0 * unit - 1.0

    def _transform(self, sources, destinations, times) -> np.ndarray:
        noise = self.noise_seconds * self._pair_noise(
            np.broadcast_to(sources, np.shape(times)),
            np.broadcast_to(destinations, np.shape(times)),
        )
        bias = np.where(times < self.short_seconds, self.bias_seconds, 0.0)
        return np.maximum(0.0, times + bias + noise)

    def _transform_one(
        self, source: int, destination: int, time: float
    ) -> float:
        noise = self.noise_seconds * self._pair_noise_one(source, destination)
        bias = self.bias_seconds if time < self.short_seconds else 0.0
        return max(0.0, time + bias + noise)
