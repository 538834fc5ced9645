"""TapeGeometry's section tables against a per-segment reference.

:func:`reference_arrays` is the construction the geometry used before it
kept only per-section tables: one array per segment field, filled track
by track.  Every accessor must return the same values with the same
dtypes on every segment, with ``phys`` equal bit for bit, and a full
cartridge must hold only a small fraction of those arrays' bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import SECTIONS_PER_TRACK
from repro.geometry import TrackDirection, generate_tape
from repro.model import LocateTimeModel


def reference_arrays(tape) -> dict[str, np.ndarray]:
    """Per-segment ``phys``, ``soi``, ``offset`` and ``track`` arrays."""
    total = tape.total_segments
    seg_phys = np.empty(total, dtype=np.float64)
    seg_soi = np.empty(total, dtype=np.int8)
    seg_offset = np.empty(total, dtype=np.int32)
    seg_track = np.empty(total, dtype=np.int32)
    for layout in tape.tracks:
        lo = layout.first_segment
        hi = layout.last_segment + 1
        sizes = layout.section_sizes.astype(np.int64)
        bounds = layout.phys_boundaries
        lengths = np.diff(bounds)
        sec_phys = np.repeat(
            np.arange(SECTIONS_PER_TRACK, dtype=np.int64), sizes
        )
        section_starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        offsets = (
            np.arange(layout.size, dtype=np.int64)
            - np.repeat(section_starts, sizes)
        )
        phys = (
            bounds[sec_phys]
            + (offsets + 0.5) * (lengths[sec_phys] / sizes[sec_phys])
        )
        if layout.direction is TrackDirection.FORWARD:
            seg_phys[lo:hi] = phys
            seg_soi[lo:hi] = sec_phys
            seg_offset[lo:hi] = offsets
        else:
            seg_phys[lo:hi] = phys[::-1]
            seg_soi[lo:hi] = (SECTIONS_PER_TRACK - 1 - sec_phys)[::-1]
            seg_offset[lo:hi] = offsets[::-1]
        seg_track[lo:hi] = layout.track
    track_dir = np.array(
        [int(t.direction) for t in tape.tracks], dtype=np.int8
    )
    kp_phys = np.array([t.key_point_phys() for t in tape.tracks])
    target_index = np.maximum(0, np.arange(SECTIONS_PER_TRACK) - 1)
    direction = track_dir[seg_track]
    return {
        "phys": seg_phys,
        "soi": seg_soi,
        "offset": seg_offset,
        "track": seg_track,
        "direction": direction,
        "section": np.where(
            direction > 0, seg_soi, SECTIONS_PER_TRACK - 1 - seg_soi
        ).astype(np.int8),
        "global": seg_track.astype(np.int64) * SECTIONS_PER_TRACK + seg_soi,
        "target": kp_phys[:, target_index][seg_track, seg_soi],
    }


def reference_times(tape, ref, sources, destinations) -> np.ndarray:
    """The locate model's ``_times`` over the reference arrays."""
    model = LocateTimeModel(tape)
    src_phys, dst_phys = ref["phys"][sources], ref["phys"][destinations]
    read_through = (
        (ref["track"][sources] == ref["track"][destinations])
        & (destinations >= sources)
        & (ref["soi"][destinations] - ref["soi"][sources] <= 2)
    )
    target = ref["target"][destinations]
    scan_dist = np.abs(target - src_phys)
    reversal = (scan_dist > 1e-12) & (
        np.sign(target - src_phys)
        != ref["direction"][destinations].astype(np.float64)
    )
    scan_time = (
        model.reposition_seconds
        + scan_dist * model.scan_seconds_per_section
        + np.abs(dst_phys - target) * model.read_seconds_per_section
        + np.where(reversal, model.reversal_seconds, 0.0)
    )
    return np.where(
        read_through,
        np.abs(dst_phys - src_phys) * model.read_seconds_per_section,
        scan_time,
    )


@pytest.fixture(scope="module", params=["tiny", 1, 9])
def tape_and_reference(request, tiny, full_tape):
    if request.param == "tiny":
        tape = tiny
    elif request.param == 1:
        tape = full_tape
    else:
        tape = generate_tape(seed=request.param)
    return tape, reference_arrays(tape)


def assert_same(actual, expected):
    actual = np.asarray(actual)
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


class TestAccessorsMatchReference:
    def test_array_accessors(self, tape_and_reference):
        tape, ref = tape_and_reference
        segments = np.arange(tape.total_segments, dtype=np.int64)
        assert_same(tape.track_of(segments), ref["track"])
        assert_same(tape.ordinal_section_of(segments), ref["soi"])
        assert_same(tape.section_of(segments), ref["section"])
        assert_same(tape.direction_of(segments), ref["direction"])
        assert_same(tape.global_section_of(segments), ref["global"])
        assert_same(tape.scan_target_phys(segments), ref["target"])
        phys = tape.phys_of(segments)
        assert phys.dtype == np.float64
        # Bitwise, not just numerically equal.
        assert_same(phys.view(np.int64), ref["phys"].view(np.int64))

    def test_scalar_accessors(self, tape_and_reference):
        tape, ref = tape_and_reference
        step = max(1, tape.total_segments // 3000)
        for segment in range(0, tape.total_segments, step):
            track, phys, soi = tape.segment_fields(segment)
            assert type(track) is int and type(soi) is int
            assert type(phys) is float
            assert track == ref["track"][segment]
            assert soi == ref["soi"][segment]
            assert phys.hex() == float(ref["phys"][segment]).hex()
            assert tape.global_section(segment) == ref["global"][segment]
            target, direction = tape.scan_fields(track, soi)
            assert target == ref["target"][segment]
            assert direction == ref["direction"][segment]
            coord = tape.coordinate_of(segment)
            assert coord.track == ref["track"][segment]
            assert coord.section == ref["section"][segment]
            assert coord.offset == ref["offset"][segment]
            assert float(tape.phys_of(segment)) == phys

    def test_every_coordinate_of_the_tiny_tape(self, tiny):
        ref = reference_arrays(tiny)
        for segment in range(tiny.total_segments):
            coord = tiny.coordinate_of(segment)
            assert coord.offset == ref["offset"][segment]

    def test_locate_times(self, tape_and_reference, rng):
        tape, ref = tape_and_reference
        model = LocateTimeModel(tape)
        total = tape.total_segments
        # Random pairs, plus pairs around key points, where cases change.
        kp = tape.all_key_points().ravel()
        near = np.clip(np.concatenate((kp - 1, kp, kp + 1)), 0, total - 1)
        sources = np.concatenate((rng.integers(0, total, 4000), near))
        destinations = np.concatenate(
            (rng.integers(0, total, 4000), rng.permutation(near))
        )
        expected = reference_times(tape, ref, sources, destinations)
        actual = model.times(sources, destinations)
        assert_same(actual.view(np.int64), expected.view(np.int64))
        for source, destination, seconds in zip(
            sources[:500].tolist(), destinations[:500].tolist(), expected
        ):
            assert model.locate_time(source, destination) == seconds


class TestOutOfRange:
    @pytest.mark.parametrize(
        "accessor",
        [
            "track_of",
            "phys_of",
            "ordinal_section_of",
            "section_of",
            "direction_of",
            "global_section_of",
            "scan_target_phys",
            "segment_fields",
            "global_section",
            "section_index",
        ],
    )
    def test_past_the_end_raises_index_error(self, tiny, accessor):
        lookup = getattr(tiny, accessor)
        with pytest.raises(IndexError):
            lookup(tiny.total_segments)
        if accessor not in ("segment_fields", "global_section"):
            with pytest.raises(IndexError):
                lookup(np.asarray([0, tiny.total_segments]))

    def test_locate_past_the_end_raises_index_error(self, tiny_model, tiny):
        with pytest.raises(IndexError):
            tiny_model.locate_times(0, [tiny.total_segments])
        with pytest.raises(IndexError):
            tiny_model.locate_time(0, tiny.total_segments)


class TestSectionTable:
    def test_columns_are_contiguous_and_read_only(self, tiny):
        table = tiny.sections
        assert len(table) == tiny.num_tracks * SECTIONS_PER_TRACK
        for name, column in vars(table).items():
            assert column.shape == (len(table),), name
            assert column.flags.c_contiguous, name
            assert not column.flags.writeable, name

    def test_gid_gap_separates_tracks(self, tiny):
        gid = tiny.sections.gid.astype(np.int64)
        track = tiny.sections.track
        gaps = np.diff(gid)[np.diff(track) != 0]
        assert (gaps > 2).all()

    def test_section_index_dtype(self, full_tape):
        assert full_tape.section_index(
            np.arange(3)
        ).dtype == np.uint16


def test_full_tape_holds_under_two_megabytes(full_tape):
    """A full cartridge's geometry keeps no per-segment float tables."""

    def array_bytes(obj) -> int:
        total = 0
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif hasattr(value, "__dataclass_fields__"):
                total += array_bytes(value)
        return total

    assert full_tape.total_segments == 622_058
    assert array_bytes(full_tape) < 2_000_000
