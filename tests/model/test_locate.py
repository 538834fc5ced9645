"""Core locate-time model behaviour."""

import numpy as np
import pytest

from repro.constants import (
    READ_SECONDS_PER_SECTION,
    REPOSITION_SECONDS,
)
from repro.model import LocateTimeModel


class TestBasics:
    def test_self_locate_is_free(self, tiny_model, tiny):
        for segment in (0, 17, tiny.total_segments - 1):
            assert tiny_model.locate_time(segment, segment) == 0.0

    def test_nonnegative_everywhere(self, tiny_model, tiny, rng):
        sources = rng.integers(0, tiny.total_segments, 200)
        destinations = rng.integers(0, tiny.total_segments, 200)
        times = tiny_model.times(sources, destinations)
        assert (times >= 0.0).all()

    def test_next_segment_is_cheap(self, tiny_model, tiny):
        # Reading straight ahead to the next segment costs a fraction
        # of a second (pure read-through), not a reposition.
        layout = tiny.track_layout(0).section_layout(4)
        segment = layout.first_segment + 2
        assert tiny_model.locate_time(segment, segment + 1) < 2.0

    def test_scalar_matches_vector(self, tiny_model, tiny, rng):
        source = 5
        destinations = rng.integers(0, tiny.total_segments, 64)
        vector = tiny_model.locate_times(source, destinations)
        scalars = [
            tiny_model.locate_time(source, int(d)) for d in destinations
        ]
        # Exact: the scalar kernel is a bit-identical twin of the array one.
        np.testing.assert_array_equal(vector, scalars)

    def test_pairwise_matches_elementwise(self, tiny_model, tiny, rng):
        sources = rng.integers(0, tiny.total_segments, 12)
        destinations = rng.integers(0, tiny.total_segments, 9)
        matrix = tiny_model.pairwise_times(sources, destinations)
        assert matrix.shape == (12, 9)
        for i, source in enumerate(sources):
            for j, destination in enumerate(destinations):
                assert matrix[i, j] == pytest.approx(
                    tiny_model.locate_time(int(source), int(destination))
                )

    def test_oracle_adapter(self, tiny_model):
        oracle = tiny_model.oracle()
        destinations = np.asarray([1, 2, 3])
        np.testing.assert_array_equal(
            oracle(0, destinations),
            tiny_model.locate_times(0, destinations),
        )


class TestReadThrough:
    def test_case1_is_linear_in_distance(self, full_model, full_tape):
        # Within the read-ahead window the time is physical distance at
        # read speed, with no constant.
        layout = full_tape.track_layout(2).section_layout(5)
        base = layout.first_segment
        distances = np.asarray([1, 10, 100, 500])
        times = full_model.locate_times(base, base + distances)
        per_segment = READ_SECONDS_PER_SECTION / layout.size
        np.testing.assert_allclose(
            times, distances * per_segment, rtol=0.2
        )

    def test_case1_asymmetry(self, full_model, full_tape):
        # Reading ahead is cheap; going back even one segment needs a
        # reposition-and-scan.
        layout = full_tape.track_layout(2).section_layout(5)
        segment = layout.first_segment + 10
        forward = full_model.locate_time(segment, segment + 1)
        backward = full_model.locate_time(segment + 1, segment)
        assert forward < 1.0
        assert backward > REPOSITION_SECONDS


class TestAsymmetry:
    def test_locate_is_asymmetric(self, full_model, rng):
        # The paper: locate(x, y) typically differs from locate(y, x)
        # by tens of seconds.
        total = full_model.geometry.total_segments
        sources = rng.integers(0, total, 500)
        destinations = rng.integers(0, total, 500)
        forward = full_model.times(sources, destinations)
        backward = full_model.times(destinations, sources)
        gap = np.abs(forward - backward)
        assert float(np.median(gap)) > 5.0


class TestStructure:
    def test_sawtooth_within_reverse_track_from_bot(
        self, full_model, full_tape
    ):
        # From BOT, destinations within one reverse-track section get
        # *more* expensive with segment number (read-in grows), then
        # drop ~25 s at the boundary.
        # Sample ordinal sections 2..4 of the reverse track (the first
        # two sections share a scan target, so their boundary is
        # smooth by design).
        layout = full_tape.track_layout(1)
        segments = np.arange(
            layout.first_segment + 1500, layout.first_segment + 3300
        )
        curve = full_model.locate_times(0, segments)
        diffs = np.diff(curve)
        assert (diffs > 0).sum() > 0.9 * diffs.size
        assert diffs.min() < -20.0

    def test_dips_are_one_segment_past_peaks(self, full_model, full_tape):
        # "Each dip is exactly one segment beyond a peak: the drop from
        # peak to dip is abrupt."
        curve = full_model.locate_times(
            0, np.arange(0, full_tape.total_segments // 8)
        )
        diffs = np.diff(curve)
        dips = np.flatnonzero(diffs < -2.5) + 1
        assert dips.size > 0
        for dip in dips[:20]:
            peak = dip - 1
            # The peak is a local maximum.
            assert curve[peak] > curve[peak - 1]
            assert curve[peak] > curve[dip]

    def test_custom_overheads_respected(self, tiny):
        slow = LocateTimeModel(
            tiny, reposition_seconds=50.0, reversal_seconds=0.0
        )
        fast = LocateTimeModel(
            tiny, reposition_seconds=0.0, reversal_seconds=0.0
        )
        # Any non-read-through locate differs by exactly the reposition.
        source, destination = 0, tiny.total_segments - 1
        assert slow.locate_time(source, destination) == pytest.approx(
            fast.locate_time(source, destination) + 50.0
        )
