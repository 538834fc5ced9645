"""Schedule value type."""

import numpy as np

from repro.scheduling import Request, Schedule


def make(requests, **kwargs):
    defaults = dict(origin=0, algorithm="TEST")
    defaults.update(kwargs)
    return Schedule(requests=tuple(requests), **defaults)


class TestSchedule:
    def test_iteration_and_len(self):
        schedule = make([Request(3), Request(1)])
        assert len(schedule) == 2
        assert [r.segment for r in schedule] == [3, 1]

    def test_segments_array(self):
        schedule = make([Request(3), Request(1)])
        np.testing.assert_array_equal(schedule.segments(), [3, 1])
        # Cached: same object on second call.
        assert schedule.segments() is schedule.segments()

    def test_permutation_check(self):
        schedule = make([Request(3), Request(1)])
        assert schedule.is_permutation_of([Request(1), Request(3)])
        assert not schedule.is_permutation_of([Request(1)])
        assert not schedule.is_permutation_of(
            [Request(1), Request(3), Request(3)]
        )

    def test_permutation_check_by_identity(self):
        batch = [Request(3), Request(1), Request(3, length=2)]
        schedule = make(reversed(batch))
        assert schedule.is_permutation_of(batch)
        # One of the batch's objects dropped, another taken twice.
        twice = make([batch[0], batch[0], batch[1]])
        assert not twice.is_permutation_of(batch)
        # An extra object in place of one of the batch's.
        extra = make([batch[0], batch[1], Request(7)])
        assert not extra.is_permutation_of(batch)
        # Equal values in other objects still count.
        assert make(
            [Request(1), Request(3, length=2), Request(3)]
        ).is_permutation_of(batch)
        # The same object listed twice on both sides.
        shared = Request(5)
        assert make([shared, shared]).is_permutation_of([shared, shared])
        assert not make([shared, shared]).is_permutation_of(
            [shared, Request(6)]
        )

    def test_permutation_check_same_length(self):
        schedule = make([Request(1), Request(3), Request(3)])
        # One request duplicated, another dropped.
        assert not schedule.is_permutation_of(
            [Request(1), Request(1), Request(3)]
        )
        # Same segment, different length.
        swapped = make([Request(5, length=2), Request(9, length=1)])
        assert not swapped.is_permutation_of(
            [Request(5, length=1), Request(9, length=2)]
        )
        assert swapped.is_permutation_of(
            [Request(9, length=1), Request(5, length=2)]
        )

    def test_with_estimate(self):
        schedule = make([Request(3)])
        updated = schedule.with_estimate(42.0)
        assert updated.estimated_seconds == 42.0
        assert schedule.estimated_seconds is None
        assert updated.requests == schedule.requests
        assert updated.whole_tape == schedule.whole_tape
