"""Experiment configuration: the paper's grids and trial counts.

The paper's simulation (Figure 3) sweeps schedule lengths over a fixed
grid and runs enormous trial counts (100,000 per point for lengths up
to 192) to pin down means on 1995 hardware.  We keep the grid and offer
three trial scales:

* ``quick`` — seconds per figure; standard errors stay well below the
  gaps between algorithms (the default for tests and benches);
* ``full`` — minutes per figure; tighter confidence intervals;
* ``paper`` — the literal published trial table (hours; offered for
  completeness).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError

#: The paper's schedule-length grid (Figure 3 pseudocode).
PAPER_SCHEDULE_LENGTHS: tuple[int, ...] = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64, 96, 128,
    192, 256, 384, 512, 768, 1024, 1536, 2048,
)

#: The paper's per-length trial counts.
_PAPER_LARGE_TRIALS = {
    256: 25_000,
    384: 12_000,
    512: 7_000,
    768: 3_000,
    1024: 1_600,
    1536: 800,
    2048: 400,
}

#: The paper's OPT trial counts (OPT is exponential for them).
PAPER_OPT_TRIALS = {10: 10_000, 12: 100}

#: Largest batch OPT is asked to schedule (the paper stops at 12).
OPT_MAX_LENGTH = 12


def paper_trials(length: int) -> int:
    """The paper's trial count for one schedule length."""
    return _PAPER_LARGE_TRIALS.get(length, 100_000)


def quick_trials(length: int) -> int:
    """Reduced trial counts that preserve every published ordering."""
    if length <= 12:
        return 150
    if length <= 64:
        return 60
    if length <= 256:
        return 20
    if length <= 768:
        return 8
    return 4


def full_trials(length: int) -> int:
    """Intermediate scale."""
    return min(paper_trials(length), 20 * quick_trials(length))


_SCALES = {
    "quick": quick_trials,
    "full": full_trials,
    "paper": paper_trials,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the simulation experiments.

    Attributes
    ----------
    tape_seed:
        Seed of the synthetic cartridge ("the characterized tape").
    workload_seed:
        ``srand48`` seed; the paper repeats each series with 5 seeds.
    lengths:
        Schedule-length grid.
    scale:
        Trial-count scale: ``quick``, ``full``, or ``paper``.
    max_length:
        Truncate the grid (benches use small prefixes); at least 1.
    """

    tape_seed: int = 1
    workload_seed: int = 0
    lengths: tuple[int, ...] = PAPER_SCHEDULE_LENGTHS
    scale: str = "quick"
    max_length: int | None = None

    def __post_init__(self) -> None:
        if self.scale not in _SCALES:
            raise ExperimentError(
                f"unknown scale {self.scale!r}; pick from "
                f"{sorted(_SCALES)}"
            )
        if self.max_length is not None and self.max_length < 1:
            # An empty grid would report a table with no rows.
            raise ExperimentError(
                f"max_length must be >= 1, got {self.max_length}"
            )
        if self.tape_seed < 0:
            raise ExperimentError(
                f"tape_seed must be >= 0, got {self.tape_seed}"
            )

    @property
    def effective_lengths(self) -> tuple[int, ...]:
        """The grid after ``max_length`` truncation."""
        if self.max_length is None:
            return self.lengths
        return tuple(n for n in self.lengths if n <= self.max_length)

    def trials(self, length: int) -> int:
        """Trial count for one schedule length at this scale."""
        return _SCALES[self.scale](length)

    def opt_trials(self, length: int) -> int:
        """Trial count for OPT at one schedule length.

        OPT is the expensive scheduler; like the paper (10,000 trials
        at length 10, 100 at 12, against 100,000 elsewhere) its trial
        budget shrinks with length.
        """
        base = self.trials(length)
        if self.scale == "paper":
            return min(base, PAPER_OPT_TRIALS.get(length, base))
        if length > 10:
            return min(base, 10)
        if length > 6:
            return min(base, 60)
        return base
