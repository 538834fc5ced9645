"""Fault injection."""

import numpy as np
import pytest

from repro.drive import FaultyModel, SimulatedDrive
from repro.scheduling import (
    FifoScheduler,
    LossScheduler,
    execute_schedule,
)


class TestFaultyModel:
    def test_validation(self, tiny_model):
        with pytest.raises(ValueError):
            FaultyModel(tiny_model, retry_probability=1.5)
        with pytest.raises(ValueError):
            FaultyModel(tiny_model, backup_sections=-1.0)

    def test_zero_rate_is_transparent(self, tiny_model, rng):
        faulty = FaultyModel(tiny_model, retry_probability=0.0)
        destinations = rng.integers(0, 100, 50)
        np.testing.assert_array_equal(
            faulty.locate_times(0, destinations),
            tiny_model.locate_times(0, destinations),
        )

    def test_faults_only_add_time(self, tiny_model, rng):
        faulty = FaultyModel(tiny_model, retry_probability=0.3, seed=1)
        destinations = rng.integers(0, 100, 200)
        base = tiny_model.locate_times(0, destinations)
        measured = faulty.locate_times(0, destinations)
        assert (measured >= base).all()
        assert (measured > base).any()

    def test_fault_rate_approximately_respected(self, full_model, rng):
        faulty = FaultyModel(full_model, retry_probability=0.05, seed=2)
        sources = rng.integers(0, full_model.geometry.total_segments,
                               20_000)
        destinations = rng.integers(
            0, full_model.geometry.total_segments, 20_000
        )
        base = full_model.times(sources, destinations)
        measured = faulty.times(sources, destinations)
        rate = float((measured > base).mean())
        assert 0.03 < rate < 0.07

    def test_deterministic_per_pair(self, tiny_model, rng):
        faulty = FaultyModel(tiny_model, retry_probability=0.2, seed=3)
        destinations = rng.integers(0, 100, 100)
        first = faulty.locate_times(7, destinations)
        second = faulty.locate_times(7, destinations)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("seed", [-2, -5, 2**40])
    def test_seeds_outside_uint64_locate(self, tiny_model, seed):
        # Regression: the hash salt was built as np.uint64 of the raw
        # seed product, which overflowed at the first locate.
        faulty = FaultyModel(tiny_model, retry_probability=0.3, seed=seed)
        destinations = np.arange(60, 120)
        vector = faulty.locate_times(5, destinations)
        scalars = [faulty.locate_time(5, int(d)) for d in destinations]
        np.testing.assert_array_equal(vector, scalars)
        assert (vector > tiny_model.locate_times(5, destinations)).any()

    def test_retry_penalty_positive(self, tiny_model):
        faulty = FaultyModel(tiny_model, backup_sections=0.5)
        assert faulty.retry_penalty_seconds() == pytest.approx(
            0.5 * (10.0 + 15.5)
        )


class TestFaultMaskValidation:
    """Regression: ``asarray(..., dtype=uint64)`` used to wrap negative
    positions to huge positives and truncate fractional ones, yielding a
    plausible-looking but arbitrary fault mask instead of an error."""

    def test_negative_source_raises(self, tiny_model):
        faulty = FaultyModel(tiny_model, retry_probability=0.2, seed=1)
        with pytest.raises(ValueError, match="sources must be >= 0"):
            faulty._fault_mask([-1], [5])

    def test_negative_destination_raises(self, tiny_model):
        faulty = FaultyModel(tiny_model, retry_probability=0.2, seed=1)
        with pytest.raises(ValueError, match="destinations must be >= 0"):
            faulty._fault_mask([3], np.array([-7]))

    def test_non_finite_raises(self, tiny_model):
        faulty = FaultyModel(tiny_model, retry_probability=0.2, seed=1)
        with pytest.raises(ValueError, match="finite"):
            faulty._fault_mask([np.nan], [5])
        with pytest.raises(ValueError, match="finite"):
            faulty._fault_mask([1.0], [np.inf])

    def test_non_numeric_raises(self, tiny_model):
        faulty = FaultyModel(tiny_model, retry_probability=0.2, seed=1)
        with pytest.raises(ValueError, match="numeric"):
            faulty._fault_mask(["3"], [5])

    def test_fractional_positions_round_not_truncate(self, tiny_model):
        faulty = FaultyModel(tiny_model, retry_probability=0.3, seed=2)
        exact = faulty._fault_mask([7, 12], [40, 41])
        # 6.6 must hash as segment 7, not truncate to 6.
        rounded = faulty._fault_mask([6.6, 12.4], [39.9, 41.2])
        np.testing.assert_array_equal(exact, rounded)

    def test_float_positions_match_int_positions(self, tiny_model):
        faulty = FaultyModel(tiny_model, retry_probability=0.3, seed=2)
        np.testing.assert_array_equal(
            faulty._fault_mask([1.0, 2.0, 3.0], [9.0, 8.0, 7.0]),
            faulty._fault_mask([1, 2, 3], [9, 8, 7]),
        )

    def test_scalar_locate_rejects_negative_positions(self, tiny_model):
        faulty = FaultyModel(tiny_model, retry_probability=0.2, seed=1)
        with pytest.raises(ValueError, match="sources must be >= 0"):
            faulty.locate_time(-1, 5)
        with pytest.raises(ValueError, match="destinations must be >= 0"):
            faulty.locate_time(3, -7)

    def test_locate_times_still_accept_float_destinations(
        self, tiny_model
    ):
        faulty = FaultyModel(tiny_model, retry_probability=0.3, seed=2)
        np.testing.assert_array_equal(
            faulty.locate_times(0, np.array([5.0, 9.0])),
            faulty.locate_times(0, np.array([5, 9])),
        )


class TestRobustnessUnderFaults:
    def test_schedules_complete_and_loss_still_wins(self, full_model,
                                                    rng):
        faulty = FaultyModel(full_model, retry_probability=0.05, seed=4)
        batch = rng.choice(
            full_model.geometry.total_segments, 48, replace=False
        ).tolist()

        loss_schedule = LossScheduler().schedule(full_model, 0, batch)
        fifo_schedule = FifoScheduler().schedule(full_model, 0, batch)

        loss_time = execute_schedule(
            SimulatedDrive(faulty), loss_schedule
        ).total_seconds
        fifo_time = execute_schedule(
            SimulatedDrive(faulty), fifo_schedule
        ).total_seconds
        assert loss_time < 0.7 * fifo_time

    def test_estimate_error_scales_with_fault_rate(self, full_model,
                                                   rng):
        batch = rng.choice(
            full_model.geometry.total_segments, 64, replace=False
        ).tolist()
        schedule = LossScheduler().schedule(full_model, 0, batch)
        errors = []
        for probability in (0.01, 0.10):
            faulty = FaultyModel(
                full_model, retry_probability=probability, seed=5
            )
            measured = execute_schedule(
                SimulatedDrive(faulty), schedule
            ).total_seconds
            errors.append(
                abs(schedule.estimated_seconds - measured) / measured
            )
        assert errors[0] < errors[1]
        assert errors[1] < 0.25
