"""Skewed (Zipf) workloads — an extension beyond the paper.

The paper evaluates uniformly random batches and notes its LOSS
recommendation holds "for up to 1536 *uniformly randomly distributed*
requests".  Real database workloads skew; this generator produces
Zipf-distributed batches over a seeded random placement of hot data, so
the ablation benchmarks can check how the schedulers' ranking shifts
when requests cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import DEFAULT_TOTAL_SEGMENTS


@dataclass
class ZipfWorkload:
    """Zipf-over-ranks batches mapped onto a placed hot set.

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``r**-alpha`` over ``universe`` distinct hot segments.  Two
    placements of the hot set are supported:

    ``scattered``
        every hot segment lands at an independent uniform position —
        a hot set of unrelated objects;
    ``clustered``
        the hot set consists of contiguous runs of ``run_length``
        segments at random positions — a hot relation whose blocks are
        laid out sequentially on tape.  Clustered skew is what lets
        the schedulers exploit read-ahead within sections.
    """

    total_segments: int = DEFAULT_TOTAL_SEGMENTS
    alpha: float = 1.1
    universe: int = 10_000
    seed: int = 0
    placement: str = "scattered"
    run_length: int = 64
    _rng: np.random.Generator = field(init=False, repr=False)
    _placement: np.ndarray = field(init=False, repr=False)
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            # A NaN alpha makes the CDF all NaN: every draw is the same
            # segment, and sample_batch never collects a distinct batch.
            raise ValueError("alpha must be positive and finite")
        if not 0 < self.universe <= self.total_segments:
            raise ValueError("universe must be in (0, total_segments]")
        if self.placement not in ("scattered", "clustered"):
            raise ValueError(
                f"unknown placement {self.placement!r}"
            )
        if self.run_length < 1:
            raise ValueError("run_length must be >= 1")
        self._rng = np.random.default_rng(self.seed)
        self._placement = self._place_hot_set()
        weights = np.arange(1, self.universe + 1, dtype=np.float64) ** (
            -self.alpha
        )
        self._cdf = np.cumsum(weights / weights.sum())

    def _place_hot_set(self) -> np.ndarray:
        if self.placement == "scattered":
            return self._rng.choice(
                self.total_segments, size=self.universe, replace=False
            ).astype(np.int64)
        # Clustered: contiguous runs at random (non-overlapping by
        # construction: starts drawn on a run_length grid).
        runs = -(-self.universe // self.run_length)
        grid = self.total_segments // self.run_length
        if runs > grid:
            raise ValueError(
                "universe too large for clustered placement"
            )
        starts = (
            self._rng.choice(grid, size=runs, replace=False).astype(
                np.int64
            )
            * self.run_length
        )
        segments = (
            starts[:, None] + np.arange(self.run_length, dtype=np.int64)
        ).reshape(-1)[: self.universe]
        # Interleave runs into the rank order so the hottest ranks are
        # spread over several runs (a hot relation is hot as a whole).
        return self._rng.permutation(segments)

    def sample_batch(self, size: int, distinct: bool = True) -> np.ndarray:
        """``size`` Zipf-skewed segment numbers."""
        if distinct and size > self.universe:
            raise ValueError(
                f"cannot draw {size} distinct segments from a universe "
                f"of {self.universe}"
            )
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < size:
            rank = int(
                np.searchsorted(self._cdf, self._rng.random())
            )
            segment = int(self._placement[min(rank, self.universe - 1)])
            if distinct:
                if segment in seen:
                    continue
                seen.add(segment)
            chosen.append(segment)
        return np.asarray(chosen, dtype=np.int64)
