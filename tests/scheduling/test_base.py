"""Scheduler base machinery: validation, registry, estimates."""

import pytest

from repro.exceptions import (
    EmptyBatchError,
    SchedulingError,
    SegmentOutOfRange,
)
from repro.scheduling import (
    Request,
    Scheduler,
    get_scheduler,
    scheduler_names,
)


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        names = scheduler_names()
        for required in (
            "READ", "FIFO", "OPT", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS",
        ):
            assert required in names
        # Exactly what some experiment reaches: the paper's eight, the
        # figure-6 and optimality-frontier schedulers, AUTO and the two
        # SLTF audit variants.  A new name must earn its place here.
        assert names == sorted([
            "READ", "FIFO", "OPT", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS",
            "OPT-brute", "LOSS+oropt",
            "LTSP-exact", "LTSP-repair", "LTSP-sweep", "LTSP-greedy",
            "AUTO", "SLTF-naive", "SLTF-coalesce",
        ])

    def test_unknown_name(self):
        with pytest.raises(SchedulingError):
            get_scheduler("NOPE")

    def test_factories_return_fresh_instances(self):
        assert get_scheduler("LOSS") is not get_scheduler("LOSS")


class TestValidation:
    def test_empty_batch_rejected(self, tiny_model):
        with pytest.raises(EmptyBatchError):
            get_scheduler("FIFO").schedule(tiny_model, 0, [])

    def test_origin_validated(self, tiny_model, tiny):
        with pytest.raises(SegmentOutOfRange):
            get_scheduler("FIFO").schedule(
                tiny_model, tiny.total_segments, [1]
            )

    def test_request_segments_validated(self, tiny_model, tiny):
        with pytest.raises(SegmentOutOfRange):
            get_scheduler("FIFO").schedule(
                tiny_model, 0, [tiny.total_segments]
            )

    def test_overrunning_request_rejected(self, tiny_model, tiny):
        request = Request(tiny.total_segments - 1, length=5)
        with pytest.raises(SchedulingError):
            get_scheduler("FIFO").schedule(tiny_model, 0, [request])

    def test_first_offender_reported(self, tiny_model, tiny):
        total = tiny.total_segments
        batch = [Request(3), Request(total + 7), Request(total)]
        with pytest.raises(SegmentOutOfRange) as info:
            get_scheduler("FIFO").schedule(tiny_model, 0, batch)
        assert info.value.segment == total + 7
        # An overrun ahead of an off-tape start is reported first.
        batch = [Request(total - 2, length=4), Request(total + 7)]
        with pytest.raises(SchedulingError, match="past end of data"):
            get_scheduler("FIFO").schedule(tiny_model, 0, batch)


class TestContract:
    def test_estimate_filled_in(self, tiny_model):
        schedule = get_scheduler("SORT").schedule(tiny_model, 0, [9, 3])
        assert schedule.estimated_seconds is not None
        assert schedule.estimated_seconds > 0

    def test_non_permutation_caught(self, tiny_model):
        class Broken(Scheduler):
            name = "BROKEN"

            def _order(self, model, origin, requests):
                return requests[:-1]

        with pytest.raises(SchedulingError):
            Broken().schedule(tiny_model, 0, [1, 2, 3])

    @pytest.mark.parametrize(
        "batch, returned",
        [
            # Same length: one request duplicated, another dropped.
            (
                [Request(1), Request(2), Request(3)],
                [Request(1), Request(2), Request(2)],
            ),
            # Same segments and same lengths, paired differently.
            (
                [Request(5, length=1), Request(9, length=2)],
                [Request(5, length=2), Request(9, length=1)],
            ),
        ],
    )
    def test_same_length_non_permutation_caught(
        self, tiny_model, batch, returned
    ):
        class Broken(Scheduler):
            name = "BROKEN"

            def _order(self, model, origin, requests):
                return returned

        with pytest.raises(SchedulingError, match="non-permutation"):
            Broken().schedule(tiny_model, 0, batch)

    def test_accepts_plain_integers(self, tiny_model):
        schedule = get_scheduler("FIFO").schedule(tiny_model, 0, [5, 2])
        assert [r.segment for r in schedule] == [5, 2]
