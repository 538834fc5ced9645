"""Figure 10 — sensitivity of LOSS to locate-model errors.

The Section 7 error model: given an error amount ``E``, the perturbed
model returns ``locate_time(S, D) + E`` for even destinations and
``- E`` for odd ones.  LOSS schedules are generated with the perturbed
model; the *increase* in true execution time over the unperturbed
schedule measures how badly the error misleads the greedy algorithm.

Published findings this reproduces:

* E <= 2 s has little effect; E = 10 s degrades schedules by 1–2 %;
* the effect is small below ~4 locates (requests far apart) and above
  ~700 (schedules become section-to-section sequential);
* OPT is completely immune: the even/odd error adds the same constant
  to every complete schedule, so the optimal order never changes
  (exactly zero increase, which this driver also checks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig, OPT_MAX_LENGTH
from repro.experiments.parallel import (
    DEFAULT_CHUNK_TRIALS,
    ChunkTask,
    execute_plan,
)
from repro.experiments.report import print_table
from repro.experiments.result import TabularResult
from repro.experiments.stats import RunningStats
from repro.geometry.generator import generate_tape
from repro.model.locate import LocateTimeModel
from repro.model.perturb import EvenOddPerturbation
from repro.scheduling.estimator import estimate_schedule_seconds
from repro.scheduling.loss import LossScheduler
from repro.scheduling.opt import OptScheduler
from repro.workload.seed_stream import trial_workload

#: The paper's error amounts (seconds).
ERROR_AMOUNTS: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 10.0)


@dataclass
class Figure10Result(TabularResult):
    """Mean % execution-time increase per (E, schedule length)."""

    lengths: tuple[int, ...]
    errors: tuple[float, ...]
    increase: dict[tuple[float, int], RunningStats]
    opt_increase: dict[tuple[float, int], RunningStats]

    def headers(self) -> list[str]:
        """Columns of :meth:`rows`: N, then one per error amount."""
        return ["length", *(f"loss_E{e:g}_percent" for e in self.errors)]

    def rows(self) -> list[list]:
        """LOSS table rows: N then one column per E."""
        rows = []
        for length in self.lengths:
            row: list = [length]
            for error in self.errors:
                stats = self.increase.get((error, length))
                row.append(None if stats is None else stats.mean)
            rows.append(row)
        return rows

    def opt_rows(self) -> list[list]:
        """OPT table rows (should be all zeros)."""
        rows = []
        for length in self.lengths:
            if length > OPT_MAX_LENGTH:
                continue
            row: list = [length]
            for error in self.errors:
                stats = self.opt_increase.get((error, length))
                row.append(None if stats is None else stats.mean)
            rows.append(row)
        return rows


@dataclass(frozen=True)
class _PerturbSpec:
    """Worker-rebuildable substrate description for the sweep."""

    tape_seed: int
    workload_seed: int
    errors: tuple[float, ...]


#: Per-process substrate cache, keyed by the spec.
_SUBSTRATE_CACHE: dict = {}


def _substrate(spec: _PerturbSpec):
    """Build (or fetch) tape model, schedulers, perturbed models."""
    hit = _SUBSTRATE_CACHE.get(spec)
    if hit is None:
        tape = generate_tape(seed=spec.tape_seed)
        model = LocateTimeModel(tape)
        hit = (
            tape.total_segments,
            model,
            LossScheduler(),
            OptScheduler(),
            {error: EvenOddPerturbation(model, error)
             for error in spec.errors},
        )
        _SUBSTRATE_CACHE.clear()
        _SUBSTRATE_CACHE[spec] = hit
    return hit


def _run_chunk(
    spec: _PerturbSpec, task
) -> dict[float, tuple[RunningStats, RunningStats]]:
    """One chunk of perturbation trials; per-error (LOSS, OPT) partials."""
    total_segments, model, loss, opt, perturbed = _substrate(spec)
    partial = {
        error: (RunningStats(), RunningStats()) for error in spec.errors
    }
    for trial in range(task.trial_start, task.trial_stop):
        workload = trial_workload(
            total_segments,
            spec.workload_seed,
            task.length,
            trial,
            namespace="figure10",
        )
        # Starting position at the beginning of tape, per the paper.
        _, batch = workload.sample_batch_with_origin(
            task.length, origin_at_start=True
        )
        clean_seconds = loss.schedule(model, 0, batch).estimated_seconds
        if task.length <= OPT_MAX_LENGTH:
            opt_clean = opt.schedule(model, 0, batch).estimated_seconds
        for error in spec.errors:
            loss_stats, opt_stats = partial[error]
            noisy_schedule = loss.schedule(perturbed[error], 0, batch)
            true_seconds = estimate_schedule_seconds(
                model, noisy_schedule
            )
            loss_stats.add(
                100.0 * (true_seconds - clean_seconds) / clean_seconds
            )
            if task.length <= OPT_MAX_LENGTH:
                opt_noisy = opt.schedule(perturbed[error], 0, batch)
                opt_true = estimate_schedule_seconds(model, opt_noisy)
                opt_stats.add(
                    100.0 * (opt_true - opt_clean) / opt_clean
                )
    return partial


def run(
    config: ExperimentConfig | None = None,
    workers: int | None = 1,
    bus=None,
) -> Figure10Result:
    """Sweep the error amounts over the schedule-length grid.

    The trials are chunked and distributed by
    :func:`repro.experiments.parallel.execute_plan`, bit-identical for
    every ``workers`` value.
    """
    config = config or ExperimentConfig()
    spec = _PerturbSpec(
        tape_seed=config.tape_seed,
        workload_seed=config.workload_seed,
        errors=ERROR_AMOUNTS,
    )
    lengths = config.effective_lengths
    tasks = []
    for length in lengths:
        trials = max(2, config.trials(length) // 2)
        for chunk_index, start in enumerate(
            range(0, trials, DEFAULT_CHUNK_TRIALS)
        ):
            tasks.append(
                ChunkTask(
                    length=length,
                    chunk_index=chunk_index,
                    trial_start=start,
                    trial_stop=min(start + DEFAULT_CHUNK_TRIALS, trials),
                    opt_budget=trials,
                )
            )
    partials = execute_plan(
        spec,
        tasks,
        chunk_fn=_run_chunk,
        warm_fn=_substrate,
        workers=workers,
        bus=bus,
        label="figure10",
    )
    increase: dict[tuple[float, int], RunningStats] = {}
    opt_increase: dict[tuple[float, int], RunningStats] = {}
    for task, partial in zip(tasks, partials):
        for error in ERROR_AMOUNTS:
            loss_stats, opt_stats = partial[error]
            increase.setdefault(
                (error, task.length), RunningStats()
            ).merge(loss_stats)
            if task.length <= OPT_MAX_LENGTH:
                opt_increase.setdefault(
                    (error, task.length), RunningStats()
                ).merge(opt_stats)
    return Figure10Result(
        lengths=lengths,
        errors=ERROR_AMOUNTS,
        increase=increase,
        opt_increase=opt_increase,
    )


def report(result: Figure10Result) -> None:
    """Print the LOSS degradation table and the OPT immunity check."""
    headers = ["N"] + [f"LOSS-{e:g}" for e in result.errors]
    print_table(
        headers,
        result.rows(),
        precision=3,
        title=(
            "Figure 10: % execution-time increase, LOSS with perturbed "
            "locate model (paper: E<=2 negligible, E=10 ~1-2%)"
        ),
    )
    opt_headers = ["N"] + [f"OPT-{e:g}" for e in result.errors]
    print_table(
        opt_headers,
        result.opt_rows(),
        precision=3,
        title="Section 7 check: OPT under the same perturbation (all ~0)",
    )


def main(
    config: ExperimentConfig | None = None,
    workers: int | None = 1,
) -> Figure10Result:
    """Run and report."""
    result = run(config, workers=workers)
    report(result)
    return result
