"""The model-driven simulation loop of Figure 3.

For each schedule length ``N`` on the grid, the runner draws ``1 + N``
distinct uniform segments with ``lrand48`` (the first being the initial
head position, or 0 for the beginning-of-tape scenario), schedules the
batch with every algorithm under test, estimates each schedule's
execution time with the locate-time model, and accumulates mean and
standard deviation of the total time and the time per locate — exactly
the paper's experiment, with configurable trial counts.

Every trial draws from its own derived seed stream, and the sweep runs
on :func:`repro.experiments.parallel.execute_plan`, which fans trials
out over ``workers`` processes with bit-identical statistics for every
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import SEGMENT_TRANSFER_SECONDS
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import SweepSpec, chunk_plan, execute_plan
from repro.experiments.result import TabularResult
from repro.experiments.stats import RunningStats

#: Algorithms plotted in Figures 4 and 5.
DEFAULT_ALGORITHMS: tuple[str, ...] = (
    "FIFO", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS", "OPT", "READ",
)


@dataclass
class SeriesPoint:
    """Accumulated results for one (algorithm, schedule length) cell."""

    algorithm: str
    length: int
    total: RunningStats = field(default_factory=RunningStats)
    cpu: RunningStats = field(default_factory=RunningStats)

    @property
    def per_locate_mean(self) -> float:
        """Mean execution seconds per request — the Figures 4/5 metric."""
        return self.total.mean / self.length

    @property
    def per_locate_std(self) -> float:
        """Standard deviation of the *per-request mean* of a trial.

        This is ``std(total) / length`` — the spread of the
        batch-averaged time across trials — **not** the standard
        deviation of individual locate times within a batch.  Because a
        trial's per-request mean averages ``length`` (correlated)
        locates, this shrinks as schedules grow even when single-locate
        variability does not.  With fewer than two trials it is 0.0
        (see :attr:`RunningStats.variance`).
        """
        return self.total.std / self.length

    @property
    def locate_only_mean(self) -> float:
        """Mean positioning-only seconds (transfers removed).

        Computed as ``mean(total) - length * SEGMENT_TRANSFER_SECONDS``
        and clamped at 0.0: with no accumulated trials (``mean == 0``)
        or at scales where the fixed transfer estimate exceeds the
        simulated total, the subtraction would go negative, which has
        no physical meaning — the clamp makes the degenerate cells read
        as "no positioning cost" instead.
        """
        return max(
            0.0, self.total.mean - self.length * SEGMENT_TRANSFER_SECONDS
        )


@dataclass
class PerLocateResult(TabularResult):
    """Output of :func:`run_per_locate`: the Figure 4/5 data."""

    origin_at_start: bool
    algorithms: tuple[str, ...]
    lengths: tuple[int, ...]
    points: dict[tuple[str, int], SeriesPoint]

    def point(self, algorithm: str, length: int) -> SeriesPoint:
        """One cell of the figure."""
        return self.points[(algorithm, length)]

    def headers(self) -> list[str]:
        """Columns of :meth:`rows`: length, then one per algorithm."""
        return ["length", *self.algorithms]

    def to_dict(self) -> list[dict]:
        """One record per populated cell, with the full statistics
        (richer than the printed table, which keeps only the means)."""
        records = []
        for (algorithm, length), point in sorted(self.points.items()):
            if point.total.count == 0:
                continue
            records.append(
                {
                    "algorithm": algorithm,
                    "length": length,
                    "trials": point.total.count,
                    "mean_total_seconds": point.total.mean,
                    "std_total_seconds": point.total.std,
                    "seconds_per_locate": point.per_locate_mean,
                    "cpu_seconds": (
                        point.cpu.mean if point.cpu.count else None
                    ),
                }
            )
        return records

    def rows(self) -> list[list]:
        """Figure-style rows: length column then one column per
        algorithm (mean seconds per locate; '-' where not run)."""
        rows = []
        for length in self.lengths:
            row: list = [length]
            for algorithm in self.algorithms:
                cell = self.points.get((algorithm, length))
                row.append(
                    None if cell is None or cell.total.count == 0
                    else cell.per_locate_mean
                )
            rows.append(row)
        return rows


def run_per_locate(
    config: ExperimentConfig,
    origin_at_start: bool,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    measure_cpu: bool = False,
    workers: int | None = 1,
    bus=None,
) -> PerLocateResult:
    """Run the Figure 4 (random start) / Figure 5 (BOT start) sweep.

    Parameters
    ----------
    config:
        Grid, seeds, and trial scale.
    origin_at_start:
        False for Figure 4 (random initial position), True for
        Figure 5 (head at beginning of tape, the fresh-mount scenario).
    algorithms:
        Registered scheduler names.  OPT is automatically restricted to
        the paper's range (N <= 12).
    measure_cpu:
        Also record scheduling CPU time per call (the Figure 6 data).
    workers:
        Process count for the sweep engine (``None``/``0`` = all
        CPUs).  Any value yields bit-identical statistics.
    bus:
        Optional :class:`~repro.obs.bus.EventBus` receiving
        ``experiment.*`` progress events.
    """
    spec = SweepSpec(
        tape_seed=config.tape_seed,
        workload_seed=config.workload_seed,
        origin_at_start=origin_at_start,
        algorithms=tuple(algorithms),
        measure_cpu=measure_cpu,
    )
    lengths = config.effective_lengths
    tasks = chunk_plan(config, lengths)
    partials = execute_plan(
        spec,
        tasks,
        workers=workers,
        bus=bus,
        label="figure5" if origin_at_start else "figure4",
    )

    points: dict[tuple[str, int], SeriesPoint] = {
        (name, length): SeriesPoint(name, length)
        for length in lengths
        for name in algorithms
    }
    for task, partial in zip(tasks, partials):
        for name in algorithms:
            total, cpu = partial[name]
            point = points[(name, task.length)]
            point.total.merge(total)
            point.cpu.merge(cpu)
    return PerLocateResult(
        origin_at_start=origin_at_start,
        algorithms=tuple(algorithms),
        lengths=lengths,
        points=points,
    )
