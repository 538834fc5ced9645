"""Experiment drivers: one module per figure/table of the paper.

Each module exposes ``run(config) -> result``, ``report(result)`` and a
``main()`` that does both; the CLI (``python -m repro``) and the
benchmark suite are thin wrappers over these.
"""

from repro.experiments import (
    cache_sim,
    chaos,
    drive_generations,
    figure1,
    figure4,
    figure5,
    figure6,
    figure7,
    figure7_empirical,
    figure8,
    figure9,
    figure10,
    library_sim,
    optimality,
    section3_stats,
    seed_stability,
    serve_sim,
    summary_table,
    trace_run,
)
from repro.experiments.config import (
    ExperimentConfig,
    OPT_MAX_LENGTH,
    PAPER_SCHEDULE_LENGTHS,
    full_trials,
    paper_trials,
    quick_trials,
)
from repro.experiments.ascii_plot import (
    render_per_locate_result,
    render_series,
)
from repro.experiments.parallel import (
    DEFAULT_CHUNK_TRIALS,
    ChunkTask,
    SweepSpec,
    chunk_plan,
    resolve_workers,
)
from repro.experiments.report import format_table, print_table
from repro.experiments.result import TabularResult
from repro.experiments.runner import (
    DEFAULT_ALGORITHMS,
    PerLocateResult,
    SeriesPoint,
    run_per_locate,
)
from repro.experiments.stats import RunningStats
from repro.experiments.validation import (
    VALIDATION_LENGTHS,
    ValidationResult,
    run_validation,
)

__all__ = [
    "ChunkTask",
    "DEFAULT_ALGORITHMS",
    "DEFAULT_CHUNK_TRIALS",
    "ExperimentConfig",
    "OPT_MAX_LENGTH",
    "PAPER_SCHEDULE_LENGTHS",
    "PerLocateResult",
    "RunningStats",
    "SeriesPoint",
    "SweepSpec",
    "TabularResult",
    "VALIDATION_LENGTHS",
    "ValidationResult",
    "cache_sim",
    "chaos",
    "chunk_plan",
    "drive_generations",
    "figure1",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure7_empirical",
    "figure8",
    "figure9",
    "figure10",
    "format_table",
    "full_trials",
    "library_sim",
    "optimality",
    "paper_trials",
    "print_table",
    "quick_trials",
    "render_per_locate_result",
    "render_series",
    "resolve_workers",
    "run_per_locate",
    "run_validation",
    "section3_stats",
    "seed_stability",
    "serve_sim",
    "summary_table",
    "trace_run",
]
