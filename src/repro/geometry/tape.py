"""Whole-tape geometry: fast mappings between segment numbers, physical
coordinates, and key points.

A :class:`TapeGeometry` is an immutable description of how segments are
laid out on one serpentine cartridge.  It is the single source of truth
consumed by the locate-time model (:mod:`repro.model`), the schedulers
(:mod:`repro.scheduling`), and the drive simulator (:mod:`repro.drive`).

The class precomputes per-segment numpy arrays (track, physical position,
ordinal section) so that the locate-time model can be evaluated over
millions of ``(source, destination)`` pairs with vectorized array
arithmetic — the simulation studies of the paper evaluate the model tens
of millions of times.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.constants import SECTIONS_PER_TRACK
from repro.exceptions import GeometryError, SegmentOutOfRange
from repro.geometry.coordinates import SegmentCoordinate, TrackDirection
from repro.geometry.section import SectionLayout
from repro.geometry.track import TrackLayout

#: Physical length of the tape in section units.
TAPE_PHYS_LENGTH = float(SECTIONS_PER_TRACK)


class TapeGeometry:
    """Immutable layout of one serpentine tape.

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
        self._build_arrays()

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

    def _build_arrays(self) -> None:
        num_tracks = len(self._tracks)
        track_sizes = np.array([t.size for t in self._tracks], dtype=np.int64)
        self._track_first = np.concatenate(
            ([0], np.cumsum(track_sizes))
        )
        self._total = int(self._track_first[-1])
        self._track_dir = np.array(
            [int(t.direction) for t in self._tracks], dtype=np.int8
        )

        seg_phys = np.empty(self._total, dtype=np.float64)
        seg_soi = np.empty(self._total, dtype=np.int8)
        seg_offset = np.empty(self._total, dtype=np.int32)
        seg_track = np.empty(self._total, dtype=np.int32)

        kp_phys = np.empty((num_tracks, SECTIONS_PER_TRACK), dtype=np.float64)
        kp_segments = np.empty(
            (num_tracks, SECTIONS_PER_TRACK), dtype=np.int64
        )

        for layout in self._tracks:
            lo = int(self._track_first[layout.track])
            hi = int(self._track_first[layout.track + 1])
            sizes = layout.section_sizes.astype(np.int64)
            bounds = layout.phys_boundaries
            lengths = np.diff(bounds)

            # Physical-order arrays for the whole track.
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
                seg_soi[lo:hi] = (
                    SECTIONS_PER_TRACK - 1 - sec_phys
                )[::-1]
                seg_offset[lo:hi] = offsets[::-1]
            seg_track[lo:hi] = layout.track

            kp_phys[layout.track] = layout.key_point_phys()
            kp_segments[layout.track] = layout.key_point_segments()

        self._seg_phys = seg_phys
        self._seg_soi = seg_soi
        self._seg_offset = seg_offset
        self._seg_track = seg_track
        self._kp_phys = kp_phys
        self._kp_segments = kp_segments
        # Scan target for a destination with ordinal section ``i`` is the
        # key point two before it in segment order, i.e. key point
        # ``max(0, i - 1)`` (key point 0 is the beginning of the track,
        # which also covers the paper's cases 4 and 7).
        target_index = np.maximum(
            0, np.arange(SECTIONS_PER_TRACK) - 1
        )
        self._scan_target_phys = kp_phys[:, target_index]

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

    # -- per-segment lookups (scalar or vectorized) --------------------------

    def track_of(self, segment):
        """Track number(s) of ``segment`` (int or array)."""
        return self._seg_track[segment]

    def phys_of(self, segment):
        """Physical position(s) in section units, in ``[0, 14]``."""
        return self._seg_phys[segment]

    def ordinal_section_of(self, segment):
        """Segment-order section index(es) within the track, 0..13."""
        return self._seg_soi[segment]

    def section_of(self, segment):
        """Physical section number(s), 0 closest to BOT."""
        track = self._seg_track[segment]
        soi = self._seg_soi[segment]
        forward = self._track_dir[track] > 0
        return np.where(forward, soi, SECTIONS_PER_TRACK - 1 - soi)

    def direction_of(self, segment):
        """Track direction sign(s): +1 forward, -1 reverse."""
        return self._track_dir[self._seg_track[segment]]

    def global_section_of(self, segment):
        """Global section id(s): ``track * 14 + ordinal_section``.

        Consecutive ids within a track follow segment order, so two
        segments share an id iff they lie in the same physical section.
        """
        return (
            self._seg_track[segment].astype(np.int64) * SECTIONS_PER_TRACK
            + self._seg_soi[segment]
        )

    def scan_target_phys(self, segment):
        """Physical position the drive scans to before reading ``segment``.

        This is the key point two before the destination in segment
        order; for destinations in the first two ordinal sections it is
        the beginning of the track (the paper's cases 4 and 7).
        """
        track = self._seg_track[segment]
        soi = self._seg_soi[segment]
        return self._scan_target_phys[track, soi]

    # -- single-segment lookups as Python scalars ----------------------------

    def segment_fields(self, segment: int) -> tuple[int, float, int]:
        """``(track, physical position, ordinal section)`` of one segment.

        The same values as :meth:`track_of`, :meth:`phys_of` and
        :meth:`ordinal_section_of`, as Python scalars, for the
        locate model's single-pair kernel.
        """
        return (
            self._seg_track.item(segment),
            self._seg_phys.item(segment),
            self._seg_soi.item(segment),
        )

    def global_section(self, segment: int) -> int:
        """:meth:`global_section_of` of one segment, as a Python int."""
        return (
            self._seg_track.item(segment) * SECTIONS_PER_TRACK
            + self._seg_soi.item(segment)
        )

    def scan_fields(
        self, track: int, ordinal_section: int
    ) -> tuple[float, int]:
        """``(scan target physical position, track direction)`` for a
        destination in ``ordinal_section`` of ``track``, as Python
        scalars (see :meth:`scan_target_phys` and :meth:`direction_of`).
        """
        return (
            self._scan_target_phys.item(track, ordinal_section),
            self._track_dir.item(track),
        )

    # -- coordinates ---------------------------------------------------------

    def coordinate_of(self, segment: int) -> SegmentCoordinate:
        """Full physical coordinate of one segment."""
        self.check_segment(segment)
        track = int(self._seg_track[segment])
        soi = int(self._seg_soi[segment])
        direction = TrackDirection.of_track(track)
        if direction is TrackDirection.FORWARD:
            section = soi
        else:
            section = SECTIONS_PER_TRACK - 1 - soi
        return SegmentCoordinate(
            track=track,
            section=section,
            offset=int(self._seg_offset[segment]),
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
