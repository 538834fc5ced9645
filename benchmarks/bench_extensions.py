"""Extension benchmarks — what the paper's ideas buy beyond Figure 4.

Measures what Or-opt refinement buys on top of LOSS, how few probes
the probing calibration needs, and how much head wear scheduling
saves over FIFO.
"""

import numpy as np
import pytest

from repro.geometry import generate_tape
from repro.model import LocateTimeModel
from repro.scheduling import ImprovedLossScheduler, LossScheduler
from repro.workload import UniformWorkload

BATCH = 384

#: Entry-point seed for the wear-comparison batch sample.
WEAR_SAMPLE_SEED = 3


@pytest.fixture(scope="module")
def setup():
    tape = generate_tape(seed=1)
    model = LocateTimeModel(tape)
    workload = UniformWorkload(
        total_segments=tape.total_segments, seed=23
    )
    origin, batch = workload.sample_batch_with_origin(BATCH, False)
    return model, origin, batch.tolist()


def test_oropt_refinement_gain(benchmark, setup):
    model, origin, batch = setup
    # Use a smaller batch: Or-opt works on raw requests.
    small = batch[:96]
    improved = benchmark.pedantic(
        ImprovedLossScheduler().schedule,
        args=(model, origin, small),
        rounds=1,
        iterations=1,
    )
    base = LossScheduler().schedule(model, origin, small)
    gain = 1.0 - improved.estimated_seconds / base.estimated_seconds
    assert gain >= -1e-9
    benchmark.extra_info["gain_pct"] = round(100 * gain, 2)


def test_probing_calibration_speedup(benchmark):
    from repro.geometry.probing import probing_calibrate

    tape = generate_tape(seed=1)
    model = LocateTimeModel(tape)
    result = benchmark.pedantic(
        probing_calibrate,
        args=(model.oracle(), tape.total_segments, tape.num_tracks),
        rounds=1,
        iterations=1,
    )
    dense_probes = 2 * tape.total_segments
    assert result.probes < dense_probes / 20
    assert result.max_observable_error(tape.all_key_points()) == 0
    benchmark.extra_info["probes"] = result.probes
    benchmark.extra_info["dense_probes"] = dense_probes


def test_wear_savings_of_scheduling(benchmark):
    from repro.drive import SimulatedDrive, WearMeter
    from repro.scheduling import FifoScheduler, execute_schedule

    tape = generate_tape(seed=1)
    model = LocateTimeModel(tape)
    rng = np.random.default_rng(WEAR_SAMPLE_SEED)
    batch = rng.choice(tape.total_segments, 96, replace=False).tolist()

    def run_both():
        fifo_meter = WearMeter()
        execute_schedule(
            SimulatedDrive(model, wear_meter=fifo_meter),
            FifoScheduler().schedule(model, 0, batch),
        )
        loss_meter = WearMeter()
        execute_schedule(
            SimulatedDrive(model, wear_meter=loss_meter),
            LossScheduler().schedule(model, 0, batch),
        )
        return fifo_meter, loss_meter

    fifo_meter, loss_meter = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert loss_meter.passes < 0.6 * fifo_meter.passes
    benchmark.extra_info["fifo_passes"] = round(fifo_meter.passes, 1)
    benchmark.extra_info["loss_passes"] = round(loss_meter.passes, 1)
