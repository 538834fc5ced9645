"""Shared machinery for the validation experiments (Figures 8 and 9).

Both figures compare *estimated* schedule execution time (computed from
a locate-time model) against *measured* execution (on the ground-truth
drive standing in for the physical DLT4000), for LOSS schedules of
increasing size, a few trials per size.  They differ only in which
model the scheduler/estimator is given:

* Figure 8 — the cartridge's own calibrated model (errors stay under a
  few percent, growing with schedule density);
* Figure 9 — the *wrong cartridge's* model (tape B's key points on
  tape A), which the paper calls "disastrous" (~20 % typical error).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.drive.physical import ground_truth_drive
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ChunkTask, execute_plan
from repro.experiments.result import TabularResult
from repro.experiments.stats import RunningStats
from repro.geometry.tape import TapeGeometry
from repro.scheduling.executor import execute_schedule
from repro.scheduling.loss import LossScheduler
from repro.workload.seed_stream import trial_workload

#: Schedule sizes used for the validation runs (Figure 8's x axis).
VALIDATION_LENGTHS: tuple[int, ...] = (
    8, 16, 32, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
)

#: Trials per size (the paper uses 4).
VALIDATION_TRIALS = 4


@dataclass
class ValidationPoint:
    """Estimate-vs-measurement errors at one schedule size."""

    length: int
    percent_error: RunningStats

    @property
    def mean(self) -> float:
        """Mean percent error, (estimate - measurement) / measurement."""
        return self.percent_error.mean


@dataclass
class ValidationResult(TabularResult):
    """Per-size percent errors."""

    label: str
    points: list[ValidationPoint]

    def headers(self) -> list[str]:
        """Columns of :meth:`rows`."""
        return ["length", "mean_percent_error", "std_percent_error"]

    def rows(self) -> list[list]:
        """Table rows: N, mean %, std %."""
        return [
            [p.length, p.mean, p.percent_error.std]
            for p in self.points
        ]

    def to_dict(self) -> list[dict]:
        """One record per size, carrying the run's label and trials."""
        return [
            {
                "label": self.label,
                "length": point.length,
                "trials": point.percent_error.count,
                "mean_percent_error": point.mean,
                "std_percent_error": point.percent_error.std,
            }
            for point in self.points
        ]


def _measure_chunk(spec: tuple, task: ChunkTask) -> ValidationPoint:
    """One grid point: all ``task.trials`` trials of ``task.length``.

    ``spec`` is ``(schedule_model, true_geometry, workload_seed,
    drive_seed)``.  Each trial's batch comes from its own derived
    stream (namespace ``"validation"``), so grid points are independent
    work units for :func:`~repro.experiments.parallel.execute_plan`.
    """
    schedule_model, true_geometry, workload_seed, drive_seed = spec
    length = task.length
    scheduler = LossScheduler()
    stats = RunningStats()
    for trial in range(task.trial_start, task.trial_stop):
        workload = trial_workload(
            true_geometry.total_segments,
            workload_seed,
            length,
            trial,
            namespace="validation",
        )
        origin, batch = workload.sample_batch_with_origin(
            length, origin_at_start=False
        )
        schedule = scheduler.schedule(schedule_model, origin, batch)
        estimate = schedule.estimated_seconds
        drive = ground_truth_drive(
            true_geometry, seed=drive_seed, initial_position=origin
        )
        measured = execute_schedule(drive, schedule).total_seconds
        stats.add(100.0 * (estimate - measured) / measured)
    return ValidationPoint(length=length, percent_error=stats)


def run_validation(
    schedule_model,
    true_geometry: TapeGeometry,
    config: ExperimentConfig | None = None,
    lengths: tuple[int, ...] = VALIDATION_LENGTHS,
    trials: int = VALIDATION_TRIALS,
    label: str = "validation",
    drive_seed: int = 0,
    workers: int | None = 1,
) -> ValidationResult:
    """Estimate-vs-measurement comparison for LOSS schedules.

    Parameters
    ----------
    schedule_model:
        The model given to the scheduler *and* the estimator (the
        paper's "estimated" side).  For Figure 8 this is the true
        cartridge's model; for Figure 9 it is the wrong cartridge's.
    true_geometry:
        The cartridge actually in the drive; measurements run on its
        ground-truth drive.
    workers:
        Process count (``None``/``0`` = all CPUs).  Each length is one
        work unit of :func:`~repro.experiments.parallel.execute_plan`,
        so the result is bit-identical for every worker count.
    """
    config = config or ExperimentConfig()
    lengths = tuple(
        n for n in lengths
        if config.max_length is None or n <= config.max_length
    )
    tasks = [
        ChunkTask(
            length=length,
            chunk_index=0,
            trial_start=0,
            trial_stop=trials,
            opt_budget=0,
        )
        for length in lengths
    ]
    points = execute_plan(
        (schedule_model, true_geometry, config.workload_seed, drive_seed),
        tasks,
        chunk_fn=_measure_chunk,
        workers=workers,
    )
    return ValidationResult(label=label, points=points)
