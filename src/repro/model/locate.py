"""The DLT4000 locate-time model.

This is a reconstruction of the model of Hillyer & Silberschatz [HS96],
as described intuitively in Section 3 of the SIGMOD '96 paper.  The
model has two transport speeds:

* **read** — 15.5 seconds per section, used for I/O transfers and
  short-distance motion;
* **scan** — 10 seconds per section, used for rewind and long motions.

and seven cases, all of which reduce to one of two behaviours:

1. *Read-through* (the paper's case 1): the destination is in the same
   track, at or ahead of the source, within the same section or the
   following two — the drive simply keeps reading forward.  Time is the
   physical distance at read speed.

2. *Scan-and-read* (cases 2–7): the drive repositions, scans (forward or
   backward) to the **key point two before the destination** in segment
   order — which is the beginning of the track when the destination lies
   in the first two ordinal sections (cases 4 and 7) — and then reads
   forward to the destination.  Time is a fixed repositioning overhead,
   plus the scan distance at scan speed, plus the read-in distance at
   read speed, plus a reversal penalty when the scan direction opposes
   the track's read direction.

The case distinctions the paper spells out (same/co-directional/
anti-directional track, forwards/backwards) all fall out of the segment
geometry: given the scan target, the scan direction and distances are
determined.  :mod:`repro.model.cases` implements the explicit 7-way
classifier for testing and exposition.

The published behavioural anchors this model reproduces (asserted in
``tests/model/test_anchors.py``):

========================================  =================
maximum locate time                       ~180 s
mean locate, BOT -> random                ~96.5 s
mean locate, random -> random             ~72.4 s
adjacent-section drop, forward tracks     ~5 s
adjacent-section drop, reverse tracks     ~25 s
dips per track                            13, one segment past each peak
========================================  =================
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    READ_SECONDS_PER_SECTION,
    REPOSITION_SECONDS,
    REVERSAL_SECONDS,
    SCAN_SECONDS_PER_SECTION,
)
from repro.geometry.tape import TapeGeometry


class LocateTimeModel:
    """Locate-time model parameterized by one tape's geometry.

    Parameters
    ----------
    geometry:
        The cartridge's :class:`~repro.geometry.TapeGeometry` — in
        practice, the key points measured by calibration
        (:mod:`repro.geometry.calibration`).
    reposition_seconds, reversal_seconds:
        Overhead constants; defaults are the calibrated package-level
        values.
    """

    def __init__(
        self,
        geometry: TapeGeometry,
        reposition_seconds: float = REPOSITION_SECONDS,
        reversal_seconds: float = REVERSAL_SECONDS,
        read_seconds_per_section: float = READ_SECONDS_PER_SECTION,
        scan_seconds_per_section: float = SCAN_SECONDS_PER_SECTION,
        segment_transfer_seconds: float | None = None,
    ) -> None:
        self.geometry = geometry
        self.reposition_seconds = float(reposition_seconds)
        self.reversal_seconds = float(reversal_seconds)
        self.read_seconds_per_section = float(read_seconds_per_section)
        self.scan_seconds_per_section = float(scan_seconds_per_section)
        if segment_transfer_seconds is None:
            # Transfer time per segment is tied to the read transport
            # speed: a nominal section passes in one read-section time.
            from repro.constants import SEGMENT_TRANSFER_SECONDS

            segment_transfer_seconds = SEGMENT_TRANSFER_SECONDS * (
                read_seconds_per_section / READ_SECONDS_PER_SECTION
            )
        self.segment_transfer_seconds = float(segment_transfer_seconds)

    # -- public API ---------------------------------------------------------

    def locate_time(self, source: int, destination: int) -> float:
        """Seconds to position the head from ``source`` to ``destination``.

        Both arguments are absolute segment numbers; the head is assumed
        to be parked at the start of ``source``, and ends positioned to
        read ``destination``.

        A pure-Python twin of :meth:`_times` for one pair, bit-identical
        to ``float(self.locate_times(source, [destination])[0])``: the
        drive prices every executed locate here, and a 1-element array
        round trip costs an order of magnitude more than the arithmetic.
        """
        geo = self.geometry
        src_track, src_phys, src_soi = geo.segment_fields(source)
        dst_track, dst_phys, dst_soi = geo.segment_fields(destination)
        if (
            src_track == dst_track
            and destination >= source
            and dst_soi - src_soi <= 2
        ):
            return abs(dst_phys - src_phys) * self.read_seconds_per_section
        target, read_dir = geo.scan_fields(dst_track, dst_soi)
        scan_dist = abs(target - src_phys)
        reversal = scan_dist > 1e-12 and (target > src_phys) != (read_dir > 0)
        return (
            self.reposition_seconds
            + scan_dist * self.scan_seconds_per_section
            + abs(dst_phys - target) * self.read_seconds_per_section
            + (self.reversal_seconds if reversal else 0.0)
        )

    def locate_times(self, source: int, destinations) -> np.ndarray:
        """Vectorized :meth:`locate_time` for one source, many destinations."""
        destinations = np.asarray(destinations, dtype=np.int64)
        sources = np.asarray(source, dtype=np.int64)
        return self._times(sources, destinations)

    def times(self, sources, destinations) -> np.ndarray:
        """Elementwise locate times for paired source/destination arrays.

        ``sources[k] -> destinations[k]`` for each ``k``; used by the
        schedule estimator to cost a whole schedule in one vectorized
        call.
        """
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        return self._times(sources, destinations)

    def pairwise_times(self, sources, destinations) -> np.ndarray:
        """Locate-time matrix: entry ``[i, j]`` is source ``i`` to dest ``j``.

        Uses broadcasting; for ``n`` sources and ``m`` destinations the
        peak memory is a few ``n x m`` float arrays.  Callers with very
        large problems should chunk over source rows.
        """
        sources = np.asarray(sources, dtype=np.int64).reshape(-1, 1)
        destinations = np.asarray(destinations, dtype=np.int64).reshape(1, -1)
        return self._times(sources, destinations)

    def travel_sections(self, source: int, destinations) -> np.ndarray:
        """Physical head travel of each locate, in section units.

        For read-through locates this is the physical distance; for
        scan-and-read locates it is scan distance plus read-in distance
        (the head overshoots to the key point).  Feeds the wear
        accounting of :mod:`repro.drive.wear` — tape lifetime is rated
        in head passes (the paper's Section 2: 500,000 passes for DLT).
        """
        src_phys, dst_phys, read_through, target, _ = self._resolve(
            np.asarray(source, dtype=np.int64),
            np.asarray(destinations, dtype=np.int64),
        )
        direct = np.abs(dst_phys - src_phys)
        via_target = np.abs(target - src_phys) + np.abs(dst_phys - target)
        return np.where(read_through, direct, via_target)

    def rewind_seconds(self, segment) -> np.ndarray:
        """Rewind-to-BOT time from ``segment`` at this model's speeds."""
        from repro.constants import REWIND_OVERHEAD_SECONDS

        phys = self.geometry.phys_of(np.asarray(segment, dtype=np.int64))
        return (
            REWIND_OVERHEAD_SECONDS
            + phys * self.scan_seconds_per_section
        )

    def oracle(self):
        """Adapter with the :data:`~repro.geometry.calibration.LocateOracle`
        signature, for the calibration procedure."""

        def measure(source: int, destinations: np.ndarray) -> np.ndarray:
            return self.locate_times(source, destinations)

        return measure

    # -- core ----------------------------------------------------------------

    def _resolve(self, sources, destinations):
        """Per-pair geometry of a locate, from one section lookup per end.

        Returns ``(src_phys, dst_phys, read_through, target, dst)``:
        both physical positions, the case-1 mask, the scan target of
        each destination and the destinations' section rows.
        """
        geo = self.geometry
        table = geo.sections
        # One intp conversion per end: numpy gathers with a uint16 index
        # convert it on every call.
        src = geo.section_index(sources).astype(np.intp)
        dst = geo.section_index(destinations).astype(np.intp)
        base, pivot, slope, gid = (
            table.base, table.pivot, table.slope, table.gid
        )
        src_phys = base[src] + (sources - pivot[src]) * slope[src]
        dst_phys = base[dst] + (destinations - pivot[dst]) * slope[dst]
        # Case 1: same track, destination at/ahead within the read-ahead
        # window of two following sections -> read straight through.
        # Sections of different tracks are more than two ids apart.
        read_through = (destinations >= sources) & (gid[dst] - gid[src] <= 2)
        return src_phys, dst_phys, read_through, table.target[dst], dst

    def _times(self, sources, destinations) -> np.ndarray:
        """Broadcasted locate-time computation.

        ``sources`` and ``destinations`` are int64 arrays (any mutually
        broadcastable shapes).
        """
        src_phys, dst_phys, read_through, target, dst = self._resolve(
            sources, destinations
        )
        read_through_time = (
            np.abs(dst_phys - src_phys) * self.read_seconds_per_section
        )

        # Cases 2-7: scan to the key point two before the destination,
        # then read forward to it; the scan reverses when it runs
        # against the destination track's read direction.
        ahead = target - src_phys
        scan_dist = np.abs(ahead)
        read_dist = np.abs(dst_phys - target)
        reversal = ahead * self.geometry.sections.direction[dst] < -1e-12
        scan_time = (
            self.reposition_seconds
            + scan_dist * self.scan_seconds_per_section
            + read_dist * self.read_seconds_per_section
            + np.where(reversal, self.reversal_seconds, 0.0)
        )

        return np.where(read_through, read_through_time, scan_time)
