"""Schedule-time estimation, and its agreement with execution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import SEGMENT_TRANSFER_SECONDS
from repro.drive import SimulatedDrive
from repro.geometry import tiny_tape
from repro.model import (
    EvenOddPerturbation,
    LocateTimeModel,
    ShortLocateDeviation,
)
from repro.model.distance_matrix import out_positions
from repro.scheduling import (
    FifoScheduler,
    Request,
    Schedule,
    estimate_locate_seconds,
    estimate_schedule_seconds,
    execute_schedule,
    full_read_seconds,
    get_scheduler,
    locate_sequence_times,
)
from repro.scheduling.request import request_lengths


class TestLocateSequence:
    def test_per_request_times(self, tiny_model):
        schedule = Schedule(
            requests=(Request(40), Request(10)), origin=0,
            algorithm="TEST",
        )
        times = locate_sequence_times(tiny_model, schedule)
        assert times.shape == (2,)
        assert times[0] == pytest.approx(tiny_model.locate_time(0, 40))
        assert times[1] == pytest.approx(tiny_model.locate_time(41, 10))

    def test_multi_segment_out_positions(self, tiny_model):
        schedule = Schedule(
            requests=(Request(10, length=5), Request(40)),
            origin=0,
            algorithm="TEST",
        )
        times = locate_sequence_times(tiny_model, schedule)
        assert times[1] == pytest.approx(tiny_model.locate_time(15, 40))


class TestEstimate:
    def test_transfers_included_by_default(self, tiny_model):
        schedule = Schedule(
            requests=(Request(5, length=10),), origin=0, algorithm="TEST"
        )
        with_transfer = estimate_schedule_seconds(tiny_model, schedule)
        without = estimate_schedule_seconds(
            tiny_model, schedule, include_transfers=False
        )
        assert with_transfer - without == pytest.approx(
            10 * SEGMENT_TRANSFER_SECONDS
        )

    def test_locate_only(self, tiny_model):
        schedule = Schedule(
            requests=(Request(5), Request(70)), origin=0, algorithm="TEST"
        )
        assert estimate_locate_seconds(
            tiny_model, schedule
        ) == pytest.approx(
            estimate_schedule_seconds(
                tiny_model, schedule, include_transfers=False
            )
        )

    def test_whole_tape_constant(self, tiny_model, tiny):
        schedule = Schedule(
            requests=(Request(5),), origin=0, algorithm="READ",
            whole_tape=True,
        )
        assert estimate_schedule_seconds(
            tiny_model, schedule
        ) == pytest.approx(full_read_seconds(tiny))


class TestAgreementWithExecution:
    @pytest.mark.parametrize(
        "name", ["FIFO", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS", "READ"]
    )
    def test_estimate_equals_measurement_same_model(
        self, full_model, rng, name
    ):
        # When the drive runs the very model the estimator used, the
        # two must agree to numerical precision: the validation
        # experiments rely on this (all Figure 8 error comes from the
        # *deviation* between models, never from the bookkeeping).
        batch = rng.choice(
            full_model.geometry.total_segments, 24, replace=False
        ).tolist()
        origin = int(rng.integers(0, full_model.geometry.total_segments))
        schedule = get_scheduler(name).schedule(full_model, origin, batch)
        drive = SimulatedDrive(full_model, initial_position=origin)
        result = execute_schedule(drive, schedule)
        assert result.total_seconds == pytest.approx(
            schedule.estimated_seconds, rel=1e-9
        )

    def test_estimator_is_model_agnostic(self, tiny, tiny_model):
        # Estimating with a different model than the scheduler used is
        # the wrong-key-points scenario; it must not raise.
        from repro.model import EvenOddPerturbation

        schedule = FifoScheduler().schedule(tiny_model, 0, [9, 2])
        other = EvenOddPerturbation(tiny_model, 4.0)
        assert estimate_schedule_seconds(other, schedule) > 0


# -- the one-pass estimate against the estimator it replaced ------------------

_BASE = LocateTimeModel(tiny_tape(seed=5))
_ORACLE_MODELS = (
    _BASE,
    EvenOddPerturbation(_BASE, 4.0),
    ShortLocateDeviation(_BASE, seed=3),
)


def reference_estimate(model, schedule, include_transfers=True):
    """``estimate_schedule_seconds`` for a non-READ plan, as it was:
    out positions by ``out_positions`` and ``concatenate``, lengths
    built twice, transfers from the int64 sum."""
    segments = schedule.segments()
    lengths = request_lengths(schedule.requests)
    total = model.geometry.total_segments
    sources = np.concatenate(
        (
            np.asarray([schedule.origin], dtype=np.int64),
            out_positions(segments[:-1], lengths[:-1], total),
        )
    )
    locates = float(model.times(sources, segments).sum())
    if not include_transfers:
        return locates
    transfer = float(request_lengths(schedule.requests).sum()) * (
        model.segment_transfer_seconds
    )
    return locates + transfer


@st.composite
def oracle_cases(draw):
    """(model, schedule): 1..40 requests, some ending on the last
    segment, where the out position is clamped."""
    model = draw(st.sampled_from(_ORACLE_MODELS))
    total = model.geometry.total_segments
    requests = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()) and draw(st.booleans()):
            length = draw(st.integers(1, 3))
            requests.append(Request(total - length, length))
        else:
            segment = draw(st.integers(0, total - 1))
            length = draw(st.integers(1, min(3, total - segment)))
            requests.append(Request(segment, length))
    origin = draw(st.integers(0, total - 1))
    return model, Schedule(
        requests=tuple(requests), origin=origin, algorithm="TEST"
    )


class TestOnePassEstimate:
    @given(oracle_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, case, include_transfers):
        model, schedule = case
        assert estimate_schedule_seconds(
            model, schedule, include_transfers=include_transfers
        ) == reference_estimate(model, schedule, include_transfers)

    @pytest.mark.parametrize("model", _ORACLE_MODELS)
    @pytest.mark.parametrize("length", [1, 3])
    def test_one_request_at_the_end_of_tape(self, model, length):
        total = model.geometry.total_segments
        for request in (Request(total - length, length), Request(7, length)):
            schedule = Schedule(
                requests=(request,), origin=total // 2, algorithm="TEST"
            )
            for include_transfers in (True, False):
                assert estimate_schedule_seconds(
                    model, schedule, include_transfers
                ) == reference_estimate(model, schedule, include_transfers)

    @pytest.mark.parametrize("model", _ORACLE_MODELS)
    def test_clamped_out_position_feeds_the_next_locate(self, model):
        total = model.geometry.total_segments
        schedule = Schedule(
            requests=(Request(total - 2, 2), Request(0)),
            origin=0,
            algorithm="TEST",
        )
        times = locate_sequence_times(model, schedule)
        assert times[1] == model.locate_time(total - 1, 0)
        assert estimate_schedule_seconds(
            model, schedule
        ) == reference_estimate(model, schedule)
