"""Striped tape arrays."""

import pytest

from repro.exceptions import (
    EmptyBatchError,
    LibraryError,
    SegmentOutOfRange,
)
from repro.geometry import tiny_tape
from repro.online import Cartridge, StripeMapping, StripedTapeArray


@pytest.fixture()
def array():
    return StripedTapeArray(
        [Cartridge(f"vol{i}", tiny_tape(seed=i)) for i in range(3)],
        stripe_unit=4,
    )


class TestStripeMapping:
    def test_round_robin(self):
        mapping = StripeMapping(drives=3, stripe_unit=2,
                                units_per_drive=10)
        # Unit 0 -> drive 0, unit 1 -> drive 1, unit 2 -> drive 2,
        # unit 3 -> drive 0 again.
        assert mapping.locate(0) == (0, 0)
        assert mapping.locate(1) == (0, 1)
        assert mapping.locate(2) == (1, 0)
        assert mapping.locate(4) == (2, 0)
        assert mapping.locate(6) == (0, 2)

    def test_bijective(self):
        mapping = StripeMapping(drives=4, stripe_unit=3,
                                units_per_drive=7)
        seen = set()
        for logical in range(mapping.logical_total):
            drive, physical = mapping.locate(logical)
            assert mapping.logical_of(drive, physical) == logical
            seen.add((drive, physical))
        assert len(seen) == mapping.logical_total

    def test_out_of_range(self):
        mapping = StripeMapping(drives=2, stripe_unit=1,
                                units_per_drive=5)
        with pytest.raises(SegmentOutOfRange):
            mapping.locate(mapping.logical_total)


class TestStripedTapeArray:
    def test_validation(self, array):
        with pytest.raises(LibraryError):
            StripedTapeArray([])
        with pytest.raises(LibraryError):
            StripedTapeArray(
                [Cartridge("v", tiny_tape(seed=1))], stripe_unit=0
            )
        with pytest.raises(LibraryError):
            StripedTapeArray(
                [Cartridge("v", tiny_tape(seed=i)) for i in range(2)]
            )
        with pytest.raises(EmptyBatchError):
            array.service_batch([])

    def test_logical_capacity(self, array):
        smallest = min(
            c.geometry.total_segments for c in array.cartridges
        )
        assert array.logical_total == 3 * (smallest // 4) * 4

    def test_split_covers_batch(self, array, rng):
        batch = rng.choice(array.logical_total, 60, replace=False)
        split = array.split_batch(batch)
        assert sum(len(part) for part in split) == 60
        # Roughly balanced across drives under uniform load.
        for part in split:
            assert 8 <= len(part) <= 35

    def test_service_batch(self, array, rng):
        batch = rng.choice(array.logical_total, 45, replace=False)
        result = array.service_batch(batch)
        assert result.makespan_seconds == max(result.drive_seconds)
        assert sum(result.drive_requests) == 45
        assert 0.0 < result.parallel_efficiency <= 1.0

    def test_parallelism_beats_single_drive(self, rng):
        # The same workload on a 1-drive "array" vs a 3-drive array.
        tapes = [tiny_tape(seed=i, tracks=6) for i in range(3)]
        single = StripedTapeArray(
            [Cartridge("solo", tapes[0])], stripe_unit=1
        )
        triple = StripedTapeArray(
            [Cartridge(f"v{i}", tape) for i, tape in enumerate(tapes)],
            stripe_unit=1,
        )
        size = 45
        batch = rng.choice(single.logical_total, size, replace=False)
        solo_time = single.service_batch(batch).makespan_seconds

        batch3 = rng.choice(triple.logical_total, size, replace=False)
        triple_time = triple.service_batch(batch3).makespan_seconds
        # Better than single, worse than perfect 3x (smaller per-drive
        # batches schedule worse -- the Figure 4 effect).
        assert triple_time < solo_time
        assert triple_time > solo_time / 3.5

    def test_sequential_batches_carry_head_positions(self, array, rng):
        first = rng.choice(array.logical_total, 30, replace=False)
        second = rng.choice(array.logical_total, 30, replace=False)
        array.service_batch(first)
        result = array.service_batch(second)
        assert result.makespan_seconds > 0

    def test_empty_drive_sub_batch(self, array):
        # A batch confined to one drive's stripe units leaves the other
        # drives idle: their drive_seconds entry is exactly 0.0 and the
        # makespan is the busy drive's time.
        drive0_only = [
            logical
            for logical in range(0, 12 * array.mapping.stripe_unit)
            if array.mapping.locate(logical)[0] == 0
        ]
        result = array.service_batch(drive0_only)
        assert result.drive_requests[0] == len(drive0_only)
        assert result.drive_requests[1:] == (0, 0)
        assert result.drive_seconds[1:] == (0.0, 0.0)
        assert result.makespan_seconds == result.drive_seconds[0]
        # One busy drive out of three.
        assert result.parallel_efficiency == pytest.approx(1 / 3)

    def test_custom_scheduler(self, rng):
        from repro.scheduling.base import get_scheduler

        tapes = [tiny_tape(seed=i) for i in range(2)]
        batch_for = lambda a: rng.choice(  # noqa: E731
            a.logical_total, 24, replace=False
        )
        fifo = StripedTapeArray(
            [Cartridge(f"v{i}", t) for i, t in enumerate(tapes)],
            scheduler=get_scheduler("FIFO"),
        )
        loss = StripedTapeArray(
            [Cartridge(f"v{i}", t) for i, t in enumerate(tapes)],
        )
        batch = batch_for(fifo)
        fifo_time = fifo.service_batch(batch).makespan_seconds
        loss_time = loss.service_batch(batch).makespan_seconds
        # The injected scheduler is actually used: unscheduled FIFO
        # order is slower than the default LOSS on the same batch.
        assert loss_time < fifo_time
