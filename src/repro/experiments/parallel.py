"""The one sweep engine behind every experiment loop.

Every figure sweep is embarrassingly parallel across trials — the paper
runs up to 100,000 independent trials per grid point.  This engine runs
them serially or fans them out across a process pool while keeping the
statistics **bit-identical for every worker count**:

* every trial draws its batch from a derived seed stream
  (:func:`repro.workload.seed_stream.trial_workload`), so a trial's
  inputs depend only on ``(workload_seed, length, trial)``, never on
  which worker runs it or in what order;
* trials are grouped into fixed-size chunks whose boundaries do **not**
  depend on the worker count; each chunk folds its samples into partial
  :class:`~repro.experiments.stats.RunningStats` accumulators in trial
  order;
* partial accumulators are merged with
  :meth:`~repro.experiments.stats.RunningStats.merge` in ascending
  ``(grid position, chunk index)`` order — the same reduction tree
  regardless of how many workers computed the chunks.

Under this scheme ``workers=1`` and ``workers=N`` run the identical
sequence of floating-point operations per cell, so means, standard
deviations, and counts match cell-for-cell, bit-for-bit (the
determinism tests assert exact equality).

:func:`execute_plan` is the only fan-out in the experiments package:
Figures 4–7 run :func:`run_chunk` through
:func:`repro.experiments.runner.run_per_locate`, and Figure 10, the
Figure 8/9 validation runs and the cache-sim capacity sweep pass their
own chunk functions.

Workers memoize the generated tape, its
:class:`~repro.model.locate.LocateTimeModel`, and the scheduler
instances, so each process pays substrate construction once per sweep,
not once per chunk.  On platforms with ``fork`` the parent pre-warms
the cache before spawning, so workers inherit the built substrate for
free.

Progress is published on a :class:`~repro.obs.bus.EventBus` (the
``experiment.*`` taxonomy) from the coordinating process as chunk
results arrive.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig, OPT_MAX_LENGTH
from repro.experiments.stats import RunningStats
from repro.geometry.generator import generate_tape
from repro.model.locate import LocateTimeModel
from repro.obs.bus import EventBus
from repro.obs.events import (
    SweepChunkCompleted,
    SweepCompleted,
    SweepStarted,
)
from repro.scheduling.base import get_scheduler
from repro.scheduling.request import as_requests
from repro.workload.seed_stream import trial_workload

#: Trials per chunk.  Fixed — never derived from the worker count —
#: because the chunk boundaries define the merge tree and the merge
#: tree defines the bits of the result.
DEFAULT_CHUNK_TRIALS = 25


@dataclass(frozen=True)
class SweepSpec:
    """Everything a worker needs to rebuild one sweep's substrate."""

    tape_seed: int
    workload_seed: int
    origin_at_start: bool
    algorithms: tuple[str, ...]
    measure_cpu: bool = False
    namespace: str = "per-locate"


@dataclass(frozen=True)
class ChunkTask:
    """One unit of work: trials ``[trial_start, trial_stop)`` of one
    schedule length, with the length's OPT trial budget."""

    length: int
    chunk_index: int
    trial_start: int
    trial_stop: int
    opt_budget: int

    @property
    def trials(self) -> int:
        """Trials in this chunk."""
        return self.trial_stop - self.trial_start


#: Per-process substrate cache: ``(tape_seed, algorithms) ->
#: (total_segments, model, schedulers)``.
_SUBSTRATE_CACHE: dict = {}


def _substrate(spec: SweepSpec):
    """Build (or fetch the memoized) tape model and schedulers."""
    key = (spec.tape_seed, spec.algorithms)
    hit = _SUBSTRATE_CACHE.get(key)
    if hit is None:
        tape = generate_tape(seed=spec.tape_seed)
        hit = (
            tape.total_segments,
            LocateTimeModel(tape),
            {name: get_scheduler(name) for name in spec.algorithms},
        )
        # One sweep at a time per worker: drop stale substrates so a
        # long-lived pool doesn't accumulate tapes.
        _SUBSTRATE_CACHE.clear()
        _SUBSTRATE_CACHE[key] = hit
    return hit


def run_chunk(
    spec: SweepSpec, task: ChunkTask
) -> dict[str, tuple[RunningStats, RunningStats]]:
    """Execute one chunk; returns per-algorithm (total, cpu) partials.

    Pure with respect to the sweep definition: the returned statistics
    depend only on ``(spec, task)``, which is what lets chunks run on
    any worker in any order.
    """
    total_segments, model, schedulers = _substrate(spec)
    partial = {
        name: (RunningStats(), RunningStats())
        for name in spec.algorithms
    }
    for trial in range(task.trial_start, task.trial_stop):
        workload = trial_workload(
            total_segments,
            spec.workload_seed,
            task.length,
            trial,
            spec.namespace,
        )
        origin, segments = workload.sample_batch_with_origin(
            task.length, spec.origin_at_start
        )
        batch = as_requests(segments)
        for name in spec.algorithms:
            if name.startswith("OPT") and (
                task.length > OPT_MAX_LENGTH or trial >= task.opt_budget
            ):
                continue
            total, cpu = partial[name]
            started = time.perf_counter() if spec.measure_cpu else 0.0
            schedule = schedulers[name].schedule(model, origin, batch)
            if spec.measure_cpu:
                cpu.add(time.perf_counter() - started)
            total.add(schedule.estimated_seconds)
    return partial


def chunk_plan(
    config: ExperimentConfig,
    lengths: tuple[int, ...],
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
) -> list[ChunkTask]:
    """The sweep's work units, in canonical (merge) order."""
    if chunk_trials < 1:
        raise ExperimentError("chunk_trials must be >= 1")
    tasks = []
    for length in lengths:
        trials = config.trials(length)
        opt_budget = min(trials, config.opt_trials(length))
        for chunk_index, start in enumerate(
            range(0, trials, chunk_trials)
        ):
            tasks.append(
                ChunkTask(
                    length=length,
                    chunk_index=chunk_index,
                    trial_start=start,
                    trial_stop=min(start + chunk_trials, trials),
                    opt_budget=opt_budget,
                )
            )
    return tasks


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker count (``None``/``0`` = all CPUs)."""
    if workers is None or workers == 0:
        return multiprocessing.cpu_count()
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    return workers


def _pool_context():
    """Prefer ``fork`` so workers inherit the pre-warmed substrate."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def execute_plan(
    spec,
    tasks: list,
    chunk_fn=None,
    warm_fn=None,
    workers: int | None = 1,
    bus: EventBus | None = None,
    label: str = "sweep",
) -> list:
    """Run every chunk and return partials in plan (merge) order.

    Generic fan-out/ordered-collect: ``chunk_fn(spec, task)`` must be a
    picklable top-level callable whose result depends only on its
    arguments (:func:`run_chunk` by default); ``warm_fn(spec)``, when
    given, pre-builds per-process state — invoked in the parent before
    forking (workers inherit it) and implicitly by ``chunk_fn`` in each
    worker otherwise.  Tasks are opaque to the engine except for
    progress events, which need :class:`ChunkTask` fields when a
    ``bus`` is given.

    With ``workers == 1`` the chunks run in-process; otherwise they are
    distributed over a process pool.  Either way the returned list is
    ordered like ``tasks``, so downstream reduction is identical.
    """
    if chunk_fn is None:
        chunk_fn = run_chunk
        warm_fn = _substrate
    workers = resolve_workers(workers)
    started = time.perf_counter()
    if bus is not None:
        bus.publish(
            SweepStarted(
                seconds=0.0,
                label=label,
                workers=workers,
                total_tasks=len(tasks),
            )
        )

    partials: list = [None] * len(tasks)

    def _progress(index: int) -> None:
        if bus is None:
            return
        done = sum(1 for p in partials if p is not None)
        task = tasks[index]
        bus.publish(
            SweepChunkCompleted(
                seconds=time.perf_counter() - started,
                label=label,
                length=task.length,
                chunk_index=task.chunk_index,
                chunk_trials=task.trials,
                done_tasks=done,
                total_tasks=len(tasks),
            )
        )

    if workers == 1 or len(tasks) <= 1:
        # Warm the in-process cache once, then run chunks in order.
        if warm_fn is not None:
            warm_fn(spec)
        for index, task in enumerate(tasks):
            partials[index] = chunk_fn(spec, task)
            _progress(index)
    else:
        # Pre-warm before forking so children inherit the substrate.
        context = _pool_context()
        if warm_fn is not None and context.get_start_method() == "fork":
            warm_fn(spec)
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)), mp_context=context
        ) as pool:
            pending = {
                pool.submit(chunk_fn, spec, task): index
                for index, task in enumerate(tasks)
            }
            while pending:
                finished, _ = wait(
                    pending, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index = pending.pop(future)
                    partials[index] = future.result()
                    _progress(index)

    if bus is not None:
        bus.publish(
            SweepCompleted(
                seconds=time.perf_counter() - started,
                label=label,
                workers=workers,
                total_tasks=len(tasks),
            )
        )
    return partials

