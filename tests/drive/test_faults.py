"""Scheduling under injected drive faults."""

from repro.drive import SimulatedDrive
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy
from repro.scheduling import (
    FifoScheduler,
    LossScheduler,
    execute_schedule,
)


class TestRobustnessUnderFaults:
    def test_schedules_complete_and_loss_still_wins(self, full_model,
                                                    rng):
        batch = rng.choice(
            full_model.geometry.total_segments, 48, replace=False
        ).tolist()

        def run(schedule):
            drive = FaultInjector(
                SimulatedDrive(full_model),
                FaultPlan(locate_fault_probability=0.05, seed=4),
            )
            result = execute_schedule(
                drive, schedule, policy=RetryPolicy(seed=4)
            )
            assert result.all_succeeded
            return result.total_seconds

        loss_time = run(LossScheduler().schedule(full_model, 0, batch))
        fifo_time = run(FifoScheduler().schedule(full_model, 0, batch))
        assert loss_time < 0.7 * fifo_time
