"""The Section 8 "results in a nutshell" table.

Published operating points (random I/Os per hour on the DLT4000):

=========================  ======
unscheduled (FIFO)             50
OPT, batches of 10             93
LOSS, batches of 96           124
LOSS, batches of 1024         285
READ, batch of 1536           391
=========================  ======

plus the absolute saving: 192 random I/Os take 3.87 hours unscheduled
and 1.37 hours under LOSS.  This driver recomputes every row from the
simulation and prints it beside the published number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.rates import PaperSummaryTargets, ios_per_hour
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import print_table
from repro.experiments.result import TabularResult
from repro.experiments.runner import run_per_locate


@dataclass(frozen=True)
class SummaryResult(TabularResult):
    """Measured operating points beside the published ones."""

    fifo_rate: float
    opt_rate_at_10: float
    loss_rate_at_96: float
    loss_rate_at_1024: float
    read_rate_at_1536: float
    fifo_hours_192: float
    loss_hours_192: float
    targets: PaperSummaryTargets

    def headers(self) -> list[str]:
        """Columns of :meth:`rows`."""
        return ["metric", "ours", "paper"]

    def rows(self) -> list[list]:
        """Side-by-side rows (ours vs paper)."""
        t = self.targets
        return [
            ["FIFO I/Os per hour", self.fifo_rate, t.fifo_rate],
            ["OPT @ 10 I/Os per hour", self.opt_rate_at_10,
             t.opt_rate_at_10],
            ["LOSS @ 96 I/Os per hour", self.loss_rate_at_96,
             t.loss_rate_at_96],
            ["LOSS @ 1024 I/Os per hour", self.loss_rate_at_1024,
             t.loss_rate_at_1024],
            ["READ @ 1536 I/Os per hour", self.read_rate_at_1536,
             t.read_rate_at_1536],
            ["192 I/Os unscheduled (hours)", self.fifo_hours_192,
             t.fifo_hours_192],
            ["192 I/Os under LOSS (hours)", self.loss_hours_192,
             t.loss_hours_192],
        ]


def run(config: ExperimentConfig | None = None) -> SummaryResult:
    """Recompute the Section 8 operating points.

    The table reads five fixed schedule lengths, so the sweep runs all
    of them whatever ``config.max_length`` says.
    """
    config = config or ExperimentConfig()
    lengths = (10, 96, 192, 1024, 1536)
    sweep_config = ExperimentConfig(
        tape_seed=config.tape_seed,
        workload_seed=config.workload_seed,
        lengths=lengths,
        scale=config.scale,
    )
    result = run_per_locate(
        sweep_config,
        origin_at_start=False,
        algorithms=("FIFO", "OPT", "LOSS", "READ"),
    )

    def rate(algorithm: str, length: int) -> float:
        point = result.point(algorithm, length)
        return ios_per_hour(point.total.mean, length)

    def hours(algorithm: str, length: int) -> float:
        return result.point(algorithm, length).total.mean / 3600.0

    return SummaryResult(
        fifo_rate=rate("FIFO", 192),
        opt_rate_at_10=rate("OPT", 10),
        loss_rate_at_96=rate("LOSS", 96),
        loss_rate_at_1024=rate("LOSS", 1024),
        read_rate_at_1536=rate("READ", 1536),
        fifo_hours_192=hours("FIFO", 192),
        loss_hours_192=hours("LOSS", 192),
        targets=PaperSummaryTargets(),
    )


def report(result: SummaryResult) -> None:
    """Print the side-by-side table."""
    print_table(
        ["operating point", "measured", "paper"],
        result.rows(),
        title="Section 8 summary: retrieval rates, measured vs published",
    )


def main(config: ExperimentConfig | None = None) -> SummaryResult:
    """Run and report."""
    result = run(config)
    report(result)
    return result
