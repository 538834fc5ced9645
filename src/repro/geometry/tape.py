"""Whole-tape geometry: fast mappings between segment numbers, physical
coordinates, and key points.

A :class:`TapeGeometry` is an immutable description of how segments are
laid out on one serpentine cartridge.  It is the single source of truth
consumed by the locate-time model (:mod:`repro.model`), the schedulers
(:mod:`repro.scheduling`), and the drive simulator (:mod:`repro.drive`).

Everything the locate model asks of a segment is a property of its
section, plus, for the physical position, the segment's offset within
it.  The class therefore keeps one :class:`SectionTable` row per section
(64 tracks x 14 sections on a full cartridge) and a single 2-byte
section index per segment; every lookup is that index followed by a
gather from the table, so the locate model still evaluates millions of
``(source, destination)`` pairs with vectorized array arithmetic while a
full cartridge holds about 1.3 MB of arrays.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.constants import SECTIONS_PER_TRACK
from repro.exceptions import GeometryError, SegmentOutOfRange
from repro.geometry.coordinates import SegmentCoordinate, TrackDirection
from repro.geometry.section import SectionLayout
from repro.geometry.track import TrackLayout

#: Physical length of the tape in section units.
TAPE_PHYS_LENGTH = float(SECTIONS_PER_TRACK)

#: Stride of :attr:`SectionTable.gid` per track.  Larger than the 14
#: sections of a track, so two sections on different tracks are always
#: more than two ids apart and one subtraction tests "same track, at
#: most two sections ahead".
GID_TRACK_STRIDE = 16


@dataclass(frozen=True, eq=False)
class SectionTable:
    """Per-section columns of a tape, one row per section.

    Row ``k = track * 14 + ordinal_section`` is the ``k``-th section in
    segment order.  Every column is a contiguous, read-only array.

    Attributes
    ----------
    first:
        Lowest segment number in the section (a key point).
    size:
        Segments in the section.
    track, ordinal, physical, direction:
        Track number, segment-order section index (0..13), physical
        section number (0 closest to BOT) and track direction sign.
    base:
        Physical position of the section's near (BOT-side) boundary.
    pivot, slope:
        Physical position of segment ``s`` is
        ``base + (s - pivot) * slope``.  On a forward track ``pivot`` is
        ``first - 0.5`` and ``slope`` the section's width per segment;
        on a reverse track ``pivot`` is ``last + 0.5`` and ``slope`` the
        negated width.  ``s - pivot`` is then ``+-(offset + 0.5)``
        exactly, so the product equals ``(offset + 0.5) * width`` bit
        for bit.
    target:
        Physical position the drive scans to before reading a segment
        of the section: the key point two before it in segment order,
        or the track start for the first two sections.
    gid:
        ``track * GID_TRACK_STRIDE + ordinal``.
    """

    first: np.ndarray
    size: np.ndarray
    track: np.ndarray
    ordinal: np.ndarray
    physical: np.ndarray
    direction: np.ndarray
    base: np.ndarray
    pivot: np.ndarray
    slope: np.ndarray
    target: np.ndarray
    gid: np.ndarray

    def __len__(self) -> int:
        return len(self.first)


class TapeGeometry:
    """Immutable layout of one serpentine tape.

    Holds the per-track layouts, a :class:`SectionTable` and, per
    segment, only the index of its section (``uint16``).

    Parameters
    ----------
    tracks:
        Track layouts in track-number order.  Tracks must tile the
        segment space contiguously starting at 0.
    label:
        Human-readable cartridge name (used in logs and reports).
    """

    def __init__(self, tracks: Sequence[TrackLayout], label: str = "tape"):
        if not tracks:
            raise GeometryError("a tape needs at least one track")
        self.label = label
        self._tracks = tuple(tracks)
        self._validate_contiguity()
        self._build_tables()

    # -- construction -----------------------------------------------------

    def _validate_contiguity(self) -> None:
        expected_first = 0
        for layout in self._tracks:
            if layout.first_segment != expected_first:
                raise GeometryError(
                    f"track {layout.track} starts at segment "
                    f"{layout.first_segment}, expected {expected_first}"
                )
            expected_first = layout.last_segment + 1
        for number, layout in enumerate(self._tracks):
            if layout.track != number:
                raise GeometryError(
                    f"track layouts out of order: position {number} holds "
                    f"track {layout.track}"
                )

    def _build_tables(self) -> None:
        num_tracks = len(self._tracks)
        per_track = SECTIONS_PER_TRACK
        sizes = np.array(
            [t.section_sizes for t in self._tracks], dtype=np.int64
        )
        bounds = np.array(
            [t.phys_boundaries for t in self._tracks], dtype=np.float64
        )
        widths = np.diff(bounds, axis=1) / sizes
        track_sizes = sizes.sum(axis=1)
        self._track_first = np.concatenate(([0], np.cumsum(track_sizes)))
        self._total = int(self._track_first[-1])

        direction = np.array(
            [int(t.direction) for t in self._tracks], dtype=np.int8
        )
        forward = (direction > 0)[:, None]
        ordinal = np.arange(per_track)
        # Physical section of each (track, ordinal section) pair.
        physical = np.where(forward, ordinal, per_track - 1 - ordinal)
        rows = np.arange(num_tracks)[:, None]
        size = sizes[rows, physical]
        first = self._track_first[:-1, None] + np.concatenate(
            (np.zeros((num_tracks, 1), dtype=np.int64),
             np.cumsum(size[:, :-1], axis=1)),
            axis=1,
        )
        width = widths[rows, physical]
        pivot = np.where(forward, first - 0.5, first + size - 0.5)
        kp_phys = np.where(forward, bounds[:, :-1], bounds[:, :0:-1])
        # Scan target for a destination with ordinal section ``i`` is the
        # key point two before it in segment order, i.e. key point
        # ``max(0, i - 1)`` (key point 0 is the beginning of the track,
        # which also covers the paper's cases 4 and 7).
        target = kp_phys[:, np.maximum(0, ordinal - 1)]

        def column(values, dtype) -> np.ndarray:
            array = np.ascontiguousarray(
                np.broadcast_to(values, (num_tracks, per_track)).ravel(),
                dtype=dtype,
            )
            array.setflags(write=False)
            return array

        self._sections = SectionTable(
            first=column(first, np.int64),
            size=column(size, np.int64),
            track=column(rows, np.int32),
            ordinal=column(ordinal, np.int8),
            physical=column(physical, np.int8),
            direction=column(direction[:, None], np.int8),
            base=column(bounds[rows, physical], np.float64),
            pivot=column(pivot, np.float64),
            slope=column(np.where(forward, width, -width), np.float64),
            target=column(target, np.float64),
            gid=column(rows * GID_TRACK_STRIDE + ordinal, np.int32),
        )
        index_dtype = (
            np.uint16 if num_tracks * per_track <= 1 << 16 else np.uint32
        )
        self._seg_section = np.repeat(
            np.arange(num_tracks * per_track, dtype=index_dtype),
            self._sections.size,
        )
        self._seg_section.setflags(write=False)
        self._kp_segments = self._sections.first.reshape(
            num_tracks, per_track
        )
        self._kp_phys = kp_phys
        # Python-list copies of the columns the scalar lookups read: a
        # list index is several times cheaper than ``ndarray.item``.
        table = self._sections
        self._segment_rows = (
            table.track.tolist(),
            table.ordinal.tolist(),
            table.base.tolist(),
            table.pivot.tolist(),
            table.slope.tolist(),
        )
        self._scan_rows = (table.target.tolist(), table.direction.tolist())

    # -- basic properties --------------------------------------------------

    @property
    def total_segments(self) -> int:
        """Number of segments on the tape."""
        return self._total

    @property
    def num_tracks(self) -> int:
        """Number of tracks on the tape."""
        return len(self._tracks)

    @property
    def tracks(self) -> tuple[TrackLayout, ...]:
        """The per-track layouts."""
        return self._tracks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TapeGeometry(label={self.label!r}, "
            f"tracks={self.num_tracks}, segments={self._total})"
        )

    # -- validation ---------------------------------------------------------

    def check_segment(self, segment: int) -> None:
        """Raise :class:`SegmentOutOfRange` unless ``segment`` is on tape."""
        if not 0 <= segment < self._total:
            raise SegmentOutOfRange(segment, self._total)

    def check_segments(self, segments: np.ndarray) -> None:
        """Vectorized range check for an array of segment numbers."""
        segments = np.asarray(segments)
        if segments.size == 0:
            return
        bad = (segments < 0) | (segments >= self._total)
        if bad.any():
            offender = int(segments[bad][0])
            raise SegmentOutOfRange(offender, self._total)

    # -- sections ------------------------------------------------------------

    @property
    def sections(self) -> SectionTable:
        """The per-section columns, one row per section in segment order."""
        return self._sections

    def section_index(self, segment):
        """Row(s) of :attr:`sections` holding ``segment`` (int or array).

        Raises :class:`IndexError` for a segment past the end of the tape.
        """
        return self._seg_section[segment]

    # -- per-segment lookups (scalar or vectorized) --------------------------

    def track_of(self, segment):
        """Track number(s) of ``segment`` (int or array)."""
        return self._sections.track[self._seg_section[segment]]

    def phys_of(self, segment):
        """Physical position(s) in section units, in ``[0, 14]``."""
        table = self._sections
        section = self._seg_section[segment].astype(np.intp)
        return table.base[section] + (segment - table.pivot[section]) * (
            table.slope[section]
        )

    def ordinal_section_of(self, segment):
        """Segment-order section index(es) within the track, 0..13."""
        return self._sections.ordinal[self._seg_section[segment]]

    def section_of(self, segment):
        """Physical section number(s), 0 closest to BOT."""
        return self._sections.physical[self._seg_section[segment]]

    def direction_of(self, segment):
        """Track direction sign(s): +1 forward, -1 reverse."""
        return self._sections.direction[self._seg_section[segment]]

    def global_section_of(self, segment):
        """Global section id(s): ``track * 14 + ordinal_section``.

        Consecutive ids within a track follow segment order, so two
        segments share an id iff they lie in the same physical section.
        The id is the segment's row of :attr:`sections`.
        """
        return self._seg_section[segment].astype(np.int64)

    def scan_target_phys(self, segment):
        """Physical position the drive scans to before reading ``segment``.

        This is the key point two before the destination in segment
        order; for destinations in the first two ordinal sections it is
        the beginning of the track (the paper's cases 4 and 7).
        """
        return self._sections.target[self._seg_section[segment]]

    # -- single-segment lookups as Python scalars ----------------------------

    def segment_fields(self, segment: int) -> tuple[int, float, int]:
        """``(track, physical position, ordinal section)`` of one segment.

        The same values as :meth:`track_of`, :meth:`phys_of` and
        :meth:`ordinal_section_of`, as Python scalars, for the
        locate model's single-pair kernel.
        """
        segment = operator.index(segment)
        section = self._seg_section.item(segment)
        track, ordinal, base, pivot, slope = self._segment_rows
        return (
            track[section],
            base[section] + (segment - pivot[section]) * slope[section],
            ordinal[section],
        )

    def global_section(self, segment: int) -> int:
        """:meth:`global_section_of` of one segment, as a Python int."""
        return self._seg_section.item(segment)

    def scan_fields(
        self, track: int, ordinal_section: int
    ) -> tuple[float, int]:
        """``(scan target physical position, track direction)`` for a
        destination in ``ordinal_section`` of ``track``, as Python
        scalars (see :meth:`scan_target_phys` and :meth:`direction_of`).
        """
        section = track * SECTIONS_PER_TRACK + ordinal_section
        target, direction = self._scan_rows
        return target[section], direction[section]

    # -- coordinates ---------------------------------------------------------

    def coordinate_of(self, segment: int) -> SegmentCoordinate:
        """Full physical coordinate of one segment."""
        self.check_segment(segment)
        table = self._sections
        section = self._seg_section.item(segment)
        first = table.first.item(section)
        if table.direction.item(section) > 0:
            offset = segment - first
        else:
            offset = first + table.size.item(section) - 1 - segment
        return SegmentCoordinate(
            track=table.track.item(section),
            section=table.physical.item(section),
            offset=int(offset),
        )

    def segment_at(self, track: int, section: int, offset: int) -> int:
        """Absolute segment number at coordinate ``(track, section, offset)``."""
        if not 0 <= track < self.num_tracks:
            raise GeometryError(f"track {track} out of range")
        if not 0 <= section < SECTIONS_PER_TRACK:
            raise GeometryError(f"section {section} out of range")
        layout = self._tracks[track].section_layout(section)
        if not 0 <= offset < layout.size:
            raise GeometryError(
                f"offset {offset} out of range for section "
                f"({track}, {section}) of size {layout.size}"
            )
        if TrackDirection.of_track(track) is TrackDirection.FORWARD:
            return layout.first_segment + offset
        return layout.first_segment + (layout.size - 1 - offset)

    # -- sections and key points ---------------------------------------------

    def track_layout(self, track: int) -> TrackLayout:
        """Layout record of one track."""
        return self._tracks[track]

    def section_layout(self, track: int, section: int) -> SectionLayout:
        """Layout record of one physical section."""
        return self._tracks[track].section_layout(section)

    def iter_sections(self) -> Iterator[SectionLayout]:
        """Iterate over every section on the tape, track-major."""
        for layout in self._tracks:
            for section in range(SECTIONS_PER_TRACK):
                yield layout.section_layout(section)

    def key_points(self, track: int) -> np.ndarray:
        """Absolute segment numbers of the track's 14 key points
        (track start followed by the 13 dips), in segment order."""
        return self._kp_segments[track].copy()

    def all_key_points(self) -> np.ndarray:
        """Key-point segment numbers for every track, shape ``(T, 14)``."""
        return self._kp_segments.copy()

    def key_point_phys(self, track: int) -> np.ndarray:
        """Physical positions of the track's key points, segment order."""
        return self._kp_phys[track].copy()

    def track_first_segments(self) -> np.ndarray:
        """First absolute segment of each track plus the total, ``(T+1,)``."""
        return self._track_first.copy()
