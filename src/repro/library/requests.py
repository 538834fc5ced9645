"""Timed requests addressed to named cartridges.

The single-drive system serves :class:`~repro.workload.TimedRequest`
streams against the one mounted tape; a multi-drive library needs each
request to say *which* cartridge holds its data.  A
:class:`LibraryRequest` is a timed request plus that cartridge label,
and :func:`poisson_library_stream` generates the multi-tape analogue of
:class:`~repro.workload.PoissonArrivals`: Poisson arrivals whose
targets are uniform over (cartridge, segment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.constants import DEFAULT_TOTAL_SEGMENTS
from repro.workload.arrivals import TimedRequest


@dataclass(frozen=True)
class LibraryRequest:
    """One request with its arrival time and target cartridge."""

    arrival_seconds: float
    label: str
    segment: int
    length: int = 1

    def timed(self) -> TimedRequest:
        """The per-tape view (drops the label) for a batch queue."""
        return TimedRequest(
            arrival_seconds=self.arrival_seconds,
            segment=self.segment,
            length=self.length,
        )


def poisson_library_stream(
    labels: Sequence[str],
    rate_per_hour: float,
    total_segments: int = DEFAULT_TOTAL_SEGMENTS,
    seed: int = 0,
    horizon_seconds: float = 3600.0,
) -> list[LibraryRequest]:
    """Poisson arrivals targeting uniform (cartridge, segment) pairs.

    ``rate_per_hour`` is the *aggregate* library arrival rate; each
    request picks its cartridge uniformly from ``labels``, so the
    per-tape rate is ``rate_per_hour / len(labels)``.
    """
    if not labels:
        raise ValueError("labels must be non-empty")
    if not 0 < rate_per_hour < math.inf:
        raise ValueError("rate_per_hour must be positive and finite")
    if not 0 < horizon_seconds < math.inf:
        raise ValueError("horizon_seconds must be positive and finite")
    rng = np.random.default_rng(seed)
    rate_per_second = rate_per_hour / 3600.0
    clock = 0.0
    requests: list[LibraryRequest] = []
    while True:
        clock += float(rng.exponential(1.0 / rate_per_second))
        if clock >= horizon_seconds:
            return requests
        requests.append(
            LibraryRequest(
                arrival_seconds=clock,
                label=labels[int(rng.integers(0, len(labels)))],
                segment=int(rng.integers(0, total_segments)),
            )
        )
