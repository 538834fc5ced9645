"""WEAVE: a predefined relative ordering of sections.

WEAVE approximates SLTF without any ``locate_time()`` evaluation: from
the section containing the last scheduled request it considers the
other sections of the tape in a fixed pattern that visits nearby
sections before far-away ones, and schedules the entire first
considered section that still holds requests.

The pattern (Section 4 of the paper) is expressed with three track
classes relative to the current track ``T`` — ``T`` itself, the
co-directional tracks ``CT`` and the anti-directional tracks ``AT`` —
and the helpers ``fwd``/``rev`` (move n sections in/against the current
track's direction of travel) and ``flip`` (swap the section pairs at
the physical ends of the tape, ``0<->1`` and ``12<->13``).  Entries that
fall off the tape or repeat are skipped.

The published pattern does not quite cover every (class, section)
combination (e.g. the same physical section in a co-directional track
when the head sits in section 0), so after the pattern is exhausted any
leftover sections are visited in order of physical distance — still
without locate-time evaluations.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.constants import SECTIONS_PER_TRACK
from repro.scheduling.base import Scheduler, register
from repro.scheduling.request import Request

#: Track classes relative to the current track.
SAME, CO, ANTI = "T", "CT", "AT"

_FLIP = {0: 1, 1: 0, 12: 13, 13: 12}


def flip(section: int) -> int:
    """The paper's flip(): swap the section pairs at the tape ends."""
    return _FLIP.get(section, section)


def weave_pattern(
    section: int, direction: int
) -> Iterator[tuple[str, int]]:
    """Yield (track class, physical section) in weave order.

    Parameters
    ----------
    section:
        Physical section of the current head position.
    direction:
        Direction of the current track (+1 forward, -1 reverse);
        ``fwd``/``rev`` move with/against it.
    """

    def fwd(n: int) -> int:
        return section + n * direction

    def rev(n: int) -> int:
        return section - n * direction

    seen: set[tuple[str, int]] = set()

    def emit(track_class: str, sec: int):
        if 0 <= sec < SECTIONS_PER_TRACK:
            key = (track_class, sec)
            if key not in seen:
                seen.add(key)
                yield key

    prefix = [
        (SAME, section),
        (SAME, fwd(1)),
        (SAME, fwd(2)),
        (CO, fwd(2)),
        (ANTI, rev(1)),
        (CO, fwd(1)),
        (ANTI, rev(2)),
    ]
    for track_class, sec in prefix:
        yield from emit(track_class, sec)
    for i in range(SECTIONS_PER_TRACK):
        for track_class, sec in (
            (ANTI, flip(fwd(i)) if 0 <= fwd(i) < SECTIONS_PER_TRACK else -1),
            (SAME, fwd(i + 3)),
            (CO, fwd(i + 3)),
            (SAME, flip(rev(i)) if 0 <= rev(i) < SECTIONS_PER_TRACK else -1),
            (CO, flip(rev(i)) if 0 <= rev(i) < SECTIONS_PER_TRACK else -1),
            (ANTI, rev(i + 3)),
        ):
            yield from emit(track_class, sec)


#: Every weave pattern, keyed by ``(physical section, direction)``: the
#: pattern depends on nothing else, so the 28 of them are walked once.
_PATTERNS: dict[tuple[int, int], tuple[tuple[str, int], ...]] = {
    (section, direction): tuple(weave_pattern(section, direction))
    for section in range(SECTIONS_PER_TRACK)
    for direction in (1, -1)
}


@register
class WeaveScheduler(Scheduler):
    """Approximate SLTF through the fixed weave pattern."""

    name = "WEAVE"

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        geo = model.geometry
        ordered = sorted(requests, key=lambda r: (r.segment, r.length))
        segments = np.fromiter(
            (r.segment for r in ordered), dtype=np.int64, count=len(ordered)
        )
        tracks = geo.track_of(segments)
        sections = np.asarray(geo.section_of(segments))

        buckets: dict[tuple[int, int], list[Request]] = {}
        tracks_at_section: dict[int, set[int]] = {}
        for request, track, section in zip(
            ordered, tracks.tolist(), sections.tolist()
        ):
            key = (int(track), int(section))
            buckets.setdefault(key, []).append(request)
            tracks_at_section.setdefault(int(section), set()).add(int(track))

        current_track = int(geo.track_of(origin))
        current_section = int(geo.section_of(origin))

        schedule: list[Request] = []
        while buckets:
            chosen = self._next_section(
                tracks_at_section, current_track, current_section
            )
            schedule.extend(buckets.pop(chosen))
            track, section = chosen
            tracks_at_section[section].discard(track)
            if not tracks_at_section[section]:
                del tracks_at_section[section]
            current_track, current_section = chosen
        return schedule

    def _next_section(
        self,
        tracks_at_section: dict[int, set[int]],
        current_track: int,
        current_section: int,
    ) -> tuple[int, int]:
        """First weave-pattern section holding requests, else nearest."""
        direction = 1 if current_track % 2 == 0 else -1
        for track_class, section in _PATTERNS[current_section, direction]:
            tracks = tracks_at_section.get(section)
            if not tracks:
                continue
            track = self._pick_track(tracks, track_class, current_track)
            if track is not None:
                return (track, section)
        # Fallback for pattern coverage gaps: physically nearest section.
        section = min(
            tracks_at_section,
            key=lambda sec: abs(sec - current_section),
        )
        return (min(tracks_at_section[section]), section)

    @staticmethod
    def _pick_track(
        tracks: set[int], track_class: str, current_track: int
    ) -> int | None:
        """Lowest track of ``track_class`` among a section's non-empty
        tracks, or None."""
        if track_class == SAME:
            return current_track if current_track in tracks else None
        parity = current_track % 2
        if track_class == CO:
            candidates = [
                track for track in tracks
                if track % 2 == parity and track != current_track
            ]
        else:
            candidates = [track for track in tracks if track % 2 != parity]
        return min(candidates) if candidates else None
