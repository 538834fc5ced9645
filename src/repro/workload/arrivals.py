"""Request arrival processes for the online batching system.

The paper's scenario is a storage system that aggregates random
requests into batches and schedules each batch (Section 5: "a tape is
scheduled repeatedly, executing retrievals in batches").  These
processes generate timed request streams for that simulation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.constants import DEFAULT_TOTAL_SEGMENTS
from repro.workload.zipf import ZipfWorkload


@dataclass(frozen=True)
class TimedRequest:
    """One request with its arrival time."""

    arrival_seconds: float
    segment: int
    length: int = 1


@dataclass
class PoissonArrivals:
    """Poisson request arrivals with uniform segment targets.

    Parameters
    ----------
    rate_per_hour:
        Mean arrival rate.  For context: an unscheduled DLT4000 services
        ~50 random I/Os per hour, a well-scheduled one several hundred.
    total_segments:
        Segment range of the target cartridge.
    seed:
        Generator seed.
    """

    rate_per_hour: float
    total_segments: int = DEFAULT_TOTAL_SEGMENTS
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.rate_per_hour < math.inf:
            raise ValueError("rate_per_hour must be positive and finite")
        self._rng = np.random.default_rng(self.seed)

    def stream(self, horizon_seconds: float) -> Iterator[TimedRequest]:
        """Yield requests with arrival times below ``horizon_seconds``."""
        rate_per_second = self.rate_per_hour / 3600.0
        clock = 0.0
        while True:
            clock += float(self._rng.exponential(1.0 / rate_per_second))
            if clock >= horizon_seconds:
                return
            yield TimedRequest(
                arrival_seconds=clock,
                segment=int(self._rng.integers(0, self.total_segments)),
            )

    def batch(self, horizon_seconds: float) -> list[TimedRequest]:
        """Materialized :meth:`stream` over a finite horizon."""
        _check_horizon(horizon_seconds)
        return list(self.stream(horizon_seconds))


@dataclass
class ZipfArrivals:
    """Poisson arrival times with Zipf-skewed segment targets.

    The arrival process of :class:`PoissonArrivals` composed with the
    skewed segment draws of
    :class:`~repro.workload.zipf.ZipfWorkload` — the workload a disk
    staging cache in front of the tape cares about, since only repeated
    (skewed) accesses can hit.  Draws are *with* replacement: temporal
    locality is the point.
    """

    rate_per_hour: float
    workload: ZipfWorkload
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.rate_per_hour < math.inf:
            raise ValueError("rate_per_hour must be positive and finite")
        self._rng = np.random.default_rng(self.seed)

    def stream(self, horizon_seconds: float) -> Iterator[TimedRequest]:
        """Yield requests with arrival times below ``horizon_seconds``."""
        rate_per_second = self.rate_per_hour / 3600.0
        clock = 0.0
        while True:
            clock += float(self._rng.exponential(1.0 / rate_per_second))
            if clock >= horizon_seconds:
                return
            segment = int(
                self.workload.sample_batch(1, distinct=False)[0]
            )
            yield TimedRequest(arrival_seconds=clock, segment=segment)

    def batch(self, horizon_seconds: float) -> list[TimedRequest]:
        """Materialized :meth:`stream` over a finite horizon."""
        _check_horizon(horizon_seconds)
        return list(self.stream(horizon_seconds))


def _check_horizon(horizon_seconds: float) -> None:
    """Reject a horizon that is negative or not finite.

    ``stream(inf)`` is a legitimate endless generator, and NaN never
    ends it either; materializing either would never return.
    """
    if not 0 <= horizon_seconds < math.inf:
        raise ValueError(
            "horizon_seconds must be finite and >= 0, "
            f"got {horizon_seconds!r}"
        )
