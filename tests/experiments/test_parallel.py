"""The parallel experiment engine: determinism, planning, progress.

The engine's contract is that the worker count is *not part of the
experiment definition*: ``workers=1`` and ``workers=N`` must produce
cell-for-cell bit-identical statistics.  These tests assert exact
``==`` on means, standard deviations, and counts — no tolerances.
"""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    RunningStats,
    cache_sim,
    figure8,
    figure9,
    figure10,
    run_per_locate,
)
from repro.experiments.parallel import (
    ChunkTask,
    SweepSpec,
    chunk_plan,
    execute_plan,
    resolve_workers,
    run_chunk,
)
from repro.geometry.generator import generate_tape
from repro.model.locate import LocateTimeModel
from repro.obs import EventBus, SweepChunkCompleted
from repro.scheduling.base import get_scheduler
from repro.workload.random_uniform import UniformWorkload


def _assert_cells_identical(first, second):
    assert set(first.points) == set(second.points)
    for key in first.points:
        a, b = first.points[key], second.points[key]
        assert a.total.count == b.total.count, key
        assert a.total.mean == b.total.mean, key
        assert a.total.std == b.total.std, key


class TestWorkerInvariance:
    """run_per_locate(workers=1) == run_per_locate(workers=4)."""

    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(lengths=(2, 4, 8), scale="quick")

    def test_per_locate_cell_for_cell(self, config):
        serial = run_per_locate(
            config, origin_at_start=False,
            algorithms=("FIFO", "LOSS", "OPT"), workers=1,
        )
        parallel = run_per_locate(
            config, origin_at_start=False,
            algorithms=("FIFO", "LOSS", "OPT"), workers=4,
        )
        _assert_cells_identical(serial, parallel)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_worker_count_identical(self, config, workers):
        base = run_per_locate(
            config, origin_at_start=True, algorithms=("LOSS",),
            workers=1,
        )
        other = run_per_locate(
            config, origin_at_start=True, algorithms=("LOSS",),
            workers=workers,
        )
        _assert_cells_identical(base, other)

    def test_figure10_worker_invariant(self):
        config = ExperimentConfig(lengths=(4, 8), scale="quick")
        serial = figure10.run(config, workers=1)
        parallel = figure10.run(config, workers=2)
        assert set(serial.increase) == set(parallel.increase)
        for key in serial.increase:
            a, b = serial.increase[key], parallel.increase[key]
            assert (a.count, a.mean, a.std) == (b.count, b.mean, b.std)
        for key in serial.opt_increase:
            a = serial.opt_increase[key]
            b = parallel.opt_increase[key]
            assert (a.count, a.mean, a.std) == (b.count, b.mean, b.std)

    @pytest.mark.parametrize(
        "run", [figure8.run, figure9.run], ids=["figure8", "figure9"]
    )
    def test_validation_worker_invariant(self, run):
        config = ExperimentConfig(scale="quick", max_length=32)
        serial = run(config, workers=1)
        parallel = run(config, workers=2)
        assert [p.length for p in serial.points] == [
            p.length for p in parallel.points
        ]
        for a, b in zip(serial.points, parallel.points):
            assert a.percent_error.count == b.percent_error.count
            assert a.percent_error.mean == b.percent_error.mean
            assert a.percent_error.std == b.percent_error.std

    def test_cache_sim_worker_invariant(self):
        kwargs = dict(
            capacities=(40, 200),
            horizon_hours=0.5,
            hot_set=400,
        )
        config = ExperimentConfig(scale="quick")
        serial = cache_sim.run(config, workers=1, **kwargs)
        parallel = cache_sim.run(config, workers=2, **kwargs)
        assert serial.points == parallel.points
        assert serial.baseline_mean_seconds == parallel.baseline_mean_seconds


class TestSeedModes:
    def test_legacy_differs_from_per_trial_but_agrees_statistically(self):
        length = 8
        config = ExperimentConfig(lengths=(length,), scale="quick")
        per_trial = run_per_locate(
            config, origin_at_start=False, algorithms=("FIFO",),
        ).point("FIFO", length)
        # Reference: every trial drawn from one sequential lrand48
        # stream, the pre-seed-stream way of running the sweep.
        tape = generate_tape(seed=config.tape_seed)
        model = LocateTimeModel(tape)
        fifo = get_scheduler("FIFO")
        workload = UniformWorkload(
            total_segments=tape.total_segments, seed=config.workload_seed
        )
        sequential = RunningStats()
        for _ in range(config.trials(length)):
            origin, batch = workload.sample_batch_with_origin(
                length, False
            )
            sequential.add(
                fifo.schedule(model, origin, batch).estimated_seconds
            )
        # Different streams -> different bits...
        assert per_trial.total.mean != sequential.mean
        # ...same distribution: FIFO's per-locate mean is the
        # random-to-random expectation (~72.4 s) either way.
        assert per_trial.per_locate_mean == pytest.approx(
            sequential.mean / length, rel=0.10
        )


class TestChunkPlan:
    def test_boundaries_cover_trials_exactly(self):
        config = ExperimentConfig(lengths=(2, 16, 96), scale="quick")
        tasks = chunk_plan(config, config.effective_lengths, 25)
        for length in config.effective_lengths:
            own = [t for t in tasks if t.length == length]
            assert own[0].trial_start == 0
            assert own[-1].trial_stop == config.trials(length)
            for prev, cur in zip(own, own[1:]):
                assert prev.trial_stop == cur.trial_start
                assert cur.chunk_index == prev.chunk_index + 1

    def test_plan_is_worker_independent(self):
        # The merge tree is defined entirely by config + chunk size —
        # nothing about workers enters the plan.
        config = ExperimentConfig(lengths=(4, 8), scale="quick")
        assert chunk_plan(config, (4, 8)) == chunk_plan(config, (4, 8))

    def test_opt_budget_recorded(self):
        config = ExperimentConfig(lengths=(2, 12), scale="quick")
        tasks = chunk_plan(config, (2, 12), 25)
        by_length = {t.length: t.opt_budget for t in tasks}
        assert by_length[2] == config.opt_trials(2)
        assert by_length[12] == config.opt_trials(12)

    def test_invalid_chunk_size(self):
        config = ExperimentConfig(lengths=(2,), scale="quick")
        with pytest.raises(ExperimentError):
            chunk_plan(config, (2,), 0)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ExperimentError):
            resolve_workers(-1)


class TestRunChunk:
    """The chunk function is pure in (spec, task)."""

    def test_same_inputs_same_outputs(self):
        spec = SweepSpec(
            tape_seed=1, workload_seed=0, origin_at_start=False,
            algorithms=("LOSS",),
        )
        task = ChunkTask(
            length=4, chunk_index=0, trial_start=0, trial_stop=10,
            opt_budget=10,
        )
        first = run_chunk(spec, task)["LOSS"][0]
        second = run_chunk(spec, task)["LOSS"][0]
        assert (first.count, first.mean, first.std) == (
            second.count, second.mean, second.std,
        )

    def test_disjoint_chunks_draw_disjoint_streams(self):
        spec = SweepSpec(
            tape_seed=1, workload_seed=0, origin_at_start=False,
            algorithms=("FIFO",),
        )
        first = run_chunk(
            spec,
            ChunkTask(length=4, chunk_index=0, trial_start=0,
                      trial_stop=5, opt_budget=0),
        )["FIFO"][0]
        second = run_chunk(
            spec,
            ChunkTask(length=4, chunk_index=1, trial_start=5,
                      trial_stop=10, opt_budget=0),
        )["FIFO"][0]
        assert first.count == second.count == 5
        assert first.mean != second.mean


class TestProgressEvents:
    def test_bus_sees_start_chunks_complete(self):
        bus = EventBus()
        events = bus.collect()
        config = ExperimentConfig(lengths=(2,), scale="quick")
        run_per_locate(
            config, origin_at_start=False, algorithms=("FIFO",),
            workers=1, bus=bus,
        )
        names = [event.name for event in events]
        assert names[0] == "experiment.start"
        assert names[-1] == "experiment.complete"
        chunks = [
            e for e in events if isinstance(e, SweepChunkCompleted)
        ]
        assert len(chunks) == names.count("experiment.chunk")
        assert chunks, "expected at least one chunk event"
        # Serial execution reports monotone progress over all tasks.
        done = [e.done_tasks for e in chunks]
        assert done == sorted(done)
        assert done[-1] == chunks[-1].total_tasks
        assert sum(e.chunk_trials for e in chunks) == config.trials(2)

    def test_parallel_run_reports_every_chunk(self):
        bus = EventBus()
        chunks = bus.collect("experiment.chunk")
        config = ExperimentConfig(lengths=(2, 4), scale="quick")
        run_per_locate(
            config, origin_at_start=False, algorithms=("FIFO",),
            workers=2, bus=bus,
        )
        total = {e.total_tasks for e in chunks}
        assert len(chunks) == total.pop()


class TestExecutePlanGeneric:
    def test_results_in_plan_order(self):
        spec = SweepSpec(
            tape_seed=1, workload_seed=0, origin_at_start=False,
            algorithms=("FIFO",),
        )
        config = ExperimentConfig(lengths=(2, 4), scale="quick")
        tasks = chunk_plan(config, (2, 4), 50)
        partials = execute_plan(spec, tasks, workers=1)
        assert len(partials) == len(tasks)
        for task, partial in zip(tasks, partials):
            expected = min(
                task.trials,
                max(0, task.opt_budget - task.trial_start),
            )
            del expected  # FIFO ignores the OPT budget
            assert partial["FIFO"][0].count == task.trials
