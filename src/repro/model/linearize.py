"""Linearized locate-cost adapter: the LTSP view of a serpentine tape.

The linear tape scheduling literature (Cardonha & Villa Real 2018;
Honoré, Simon & Suter 2021; Cardonha & Cire 2021) models a tape as a
one-dimensional track where moving the head between two longitudinal
positions costs time proportional to the distance.  The serpentine
DLT4000 model of the source paper is *almost* that: every scan-and-read
locate is dominated by the longitudinal scan distance at scan speed,
and the physical coordinate of a segment (``TapeGeometry.phys_of``) is
continuous across track turnarounds.  :class:`LinearizedModel` keeps
exactly that linear term and drops everything else:

* no repositioning overhead, no reversal penalty, no read-in leg —
  ``locate(S, D) = scan_seconds_per_section * |phys(D) - phys(S)|``;
* tracks collapse onto one longitudinal axis: two segments at the same
  physical position on different tracks are zero distance apart.

Under this cost the scheduling problem becomes the Linear Tape
Scheduling Problem, for which :mod:`repro.scheduling.ltsp` has an exact
polynomial solver — the scalable ground-truth oracle the exponential
Held–Karp OPT cannot provide past ~16 requests.  The dropped terms are
the *linearization caveats* documented in ``docs/OPTIMALITY.md``: orders
that are optimal here are merely near-optimal under the true piecewise
model, which is why :class:`~repro.scheduling.ltsp.LtspRepairScheduler`
re-polishes the linear-exact order with the Or-opt local search.

The adapter exposes the same duck-typed surface as
:class:`~repro.model.locate.LocateTimeModel` (``geometry``,
``locate_time``, ``locate_times``, ``times``, ``pairwise_times``,
``travel_sections``, ``rewind_seconds``, ``segment_transfer_seconds``),
so every scheduler and the distance-matrix builder accept it unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    SCAN_SECONDS_PER_SECTION,
    SEGMENT_TRANSFER_SECONDS,
)


class LinearizedModel:
    """Linear locate costs derived from a piecewise model's geometry.

    Parameters
    ----------
    base:
        The piecewise model being linearized (a
        :class:`~repro.model.locate.LocateTimeModel` or any wrapper
        exposing ``geometry``).  Only its geometry, scan speed, and
        transfer time are consulted.
    seconds_per_section:
        Cost of one section of longitudinal head travel.  Defaults to
        the base model's scan speed (the DLT4000's 10 s/section).
    """

    def __init__(
        self, base, *, seconds_per_section: float | None = None
    ) -> None:
        self.base = base
        self.geometry = base.geometry
        if seconds_per_section is None:
            seconds_per_section = getattr(
                base, "scan_seconds_per_section", SCAN_SECONDS_PER_SECTION
            )
        self.seconds_per_section = float(seconds_per_section)
        self.segment_transfer_seconds = float(
            getattr(
                base, "segment_transfer_seconds", SEGMENT_TRANSFER_SECONDS
            )
        )

    # -- the linear coordinate ---------------------------------------------

    def linear_position(self, segment) -> np.ndarray:
        """Longitudinal coordinate(s) of ``segment``, in section units."""
        return self.geometry.phys_of(np.asarray(segment, dtype=np.int64))

    # -- LocateTimeModel surface -------------------------------------------

    def locate_time(self, source: int, destination: int) -> float:
        """Linear locate seconds from ``source`` to ``destination``.

        Scalar twin of :meth:`_times`, bit-identical to
        ``float(self.locate_times(source, [destination])[0])``.
        """
        geo = self.geometry
        distance = abs(
            geo.segment_fields(destination)[1] - geo.segment_fields(source)[1]
        )
        return distance * self.seconds_per_section

    def locate_times(self, source: int, destinations) -> np.ndarray:
        """Vectorized :meth:`locate_time`: one source, many destinations."""
        return self._times(
            np.asarray(source, dtype=np.int64),
            np.asarray(destinations, dtype=np.int64),
        )

    def times(self, sources, destinations) -> np.ndarray:
        """Elementwise linear locate times for paired arrays."""
        return self._times(
            np.asarray(sources, dtype=np.int64),
            np.asarray(destinations, dtype=np.int64),
        )

    def pairwise_times(self, sources, destinations) -> np.ndarray:
        """Linear locate-time matrix: ``[i, j]`` is source i to dest j."""
        return self._times(
            np.asarray(sources, dtype=np.int64).reshape(-1, 1),
            np.asarray(destinations, dtype=np.int64).reshape(1, -1),
        )

    def travel_sections(self, source: int, destinations) -> np.ndarray:
        """Physical travel equals linear distance under this model."""
        geo = self.geometry
        src_phys = geo.phys_of(np.asarray(source, dtype=np.int64))
        dst_phys = geo.phys_of(np.asarray(destinations, dtype=np.int64))
        return np.abs(dst_phys - src_phys)

    def rewind_seconds(self, segment) -> np.ndarray:
        """Rewind-to-BOT at the linear speed (no overhead term)."""
        phys = self.geometry.phys_of(np.asarray(segment, dtype=np.int64))
        return phys * self.seconds_per_section

    def oracle(self):
        """Calibration-oracle adapter, mirroring the piecewise model."""

        def measure(source: int, destinations: np.ndarray) -> np.ndarray:
            return self.locate_times(source, destinations)

        return measure

    # -- core ----------------------------------------------------------------

    def _times(self, sources, destinations) -> np.ndarray:
        geo = self.geometry
        distance = np.abs(geo.phys_of(destinations) - geo.phys_of(sources))
        return distance * self.seconds_per_section

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinearizedModel(seconds_per_section="
            f"{self.seconds_per_section!r})"
        )
