"""SLTF: shortest locate time first.

The greedy analogue of the disk SSTF algorithm: from the current head
position, go to the request with the minimum locate time, repeat.

The paper uses two facts about the locate model to collapse the naive
O(n²) greedy to O(n log n + k²) where ``k`` is the number of non-empty
sections:

1. reading ahead within a section is faster than any locate that leaves
   the section, so once a section is entered all its requests are
   consumed in increasing segment order;
2. the nearest request inside another section is always that section's
   lowest-numbered request, so only one candidate per non-empty section
   needs a locate-time evaluation.

Fact 1 is not always true of this model.  A destination in the first
two ordinal sections of a track is reached by a scan to the track start
(cases 4 and 7), which can beat reading ahead through most of a
section: on tape seed 1, reading ahead from segment 330607 to 331149
costs 12.03 s, but locating to 389010 (ordinal section 0 of another
track) costs 10.93 s.  The fast path reads ahead regardless, and it
also keeps an entered section's requests in segment order when an
overlapping multi-segment request has already carried the head past
the start of the next one.  So :class:`SltfScheduler` is the paper's
section-at-a-time algorithm, not the literal greedy: the two agree on
small batches (every schedule of the paper sweep at N <= 64, tape seed
1) but not on dense ones (19 of the 56 schedules at N >= 128 differ).
Both divergences are pinned in ``tests/scheduling/test_sltf_ties.py``.

The fast path prices every jump from one locate table, built at the
first jump that has a choice to make: a row for the origin and for each
non-empty section's exit (the out position of its last request), a
column for each section's first request.  Only the exit of a section
that was partly read ahead has no row; a jump from there makes its own
vector call.

Three variants are provided (the ablation benchmark compares their
cost):

* :class:`SltfScheduler` — the section fast path (the paper's
  recommended form; registered as ``SLTF``);
* :class:`SltfNaiveScheduler` — the literal O(n²) greedy;
* :class:`SltfCoalesceScheduler` — greedy over distance-coalesced
  groups (threshold ``T``, default 1410 segments = two sections).

Tie-breaking is pinned, not incidental: both greedy variants scan
candidates in ascending ``(segment, length)`` order and take the
*first* minimum (``argmin``), so equal locate times resolve to the
lowest ``(segment, length)`` in both (regression-tested in
``tests/scheduling/test_sltf_ties.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.constants import DEFAULT_COALESCE_THRESHOLD
from repro.scheduling.base import Scheduler, register
from repro.scheduling.coalesce import (
    Group,
    coalesce_by_threshold,
    expand_groups,
)
from repro.scheduling.request import Request, request_segments


#: Source rows per vectorized call when building SLTF's exit table.
_EXIT_TABLE_CHUNK = 32


def _out_position(model, request: Request) -> int:
    """Head position after consuming a request.

    Scalar arithmetic on the greedy hot path: the same clamp as
    :func:`repro.model.distance_matrix.out_positions` without paying
    for two array allocations and a vectorized call per request
    (bit-identical; pinned by the tie-break regression suite).
    """
    return min(
        request.segment + request.length,
        model.geometry.total_segments - 1,
    )


def _exit_table(
    model, sources: list[int], firsts: np.ndarray
) -> tuple[np.ndarray, dict[int, int]]:
    """Locate times from each source position to each section's first
    segment, and the row of each distinct source.

    A position listed twice maps to its first row (the rows are equal).
    Rows are evaluated :data:`_EXIT_TABLE_CHUNK` at a time.
    """
    matrix = np.empty((len(sources), firsts.size), dtype=np.float64)
    for start in range(0, len(sources), _EXIT_TABLE_CHUNK):
        stop = start + _EXIT_TABLE_CHUNK
        matrix[start:stop] = model.pairwise_times(
            sources[start:stop], firsts
        )
    row_of: dict[int, int] = {}
    for row, source in enumerate(sources):
        row_of.setdefault(source, row)
    return matrix, row_of


@register
class SltfScheduler(Scheduler):
    """Shortest locate time first via the per-section fast path."""

    name = "SLTF"

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        geo = model.geometry
        ordered = sorted(requests, key=lambda r: (r.segment, r.length))
        section_ids = geo.global_section_of(request_segments(ordered))

        # Section id -> list of requests, ascending (lists stay sorted).
        buckets: dict[int, list[Request]] = {}
        for request, sid in zip(ordered, section_ids.tolist()):
            buckets.setdefault(sid, []).append(request)

        # Fact 2's candidates: each non-empty section's first request,
        # in ascending section id.  Read-ahead only takes requests at
        # or past the head, so a section keeps its first request until
        # it empties; the table never changes, only ``closed`` does.
        sids = sorted(buckets)
        slot = {sid: k for k, sid in enumerate(sids)}
        firsts = np.fromiter(
            (buckets[sid][0].segment for sid in sids),
            dtype=np.int64,
            count=len(sids),
        )
        # 0.0 while a section holds requests, +inf once it is empty:
        # adding it to a row of locate times keeps the live entries
        # exact and rules the empty sections out of the argmin.
        closed = np.zeros(len(sids), dtype=np.float64)

        # One locate table prices every jump from a known position: row
        # 0 from the origin, row 1 + k from section k's exit (the out
        # position of its last request).  Built at the first jump with a
        # choice to make; a jump from anywhere else -- the exit of a
        # section that was partly read ahead -- is priced on its own.
        sources = [origin] + [
            _out_position(model, buckets[sid][-1]) for sid in sids
        ]
        matrix = None
        row_of: dict[int, int] = {}

        schedule: list[Request] = []
        position = origin
        while buckets:
            here = geo.global_section(position)
            bucket = buckets.get(here)
            if bucket is not None:
                ahead = [r for r in bucket if r.segment >= position]
                if ahead:
                    # Fact 1, assumed: read ahead through the section.
                    schedule.extend(ahead)
                    remaining = [r for r in bucket if r.segment < position]
                    if remaining:
                        buckets[here] = remaining
                    else:
                        del buckets[here]
                        closed[slot[here]] = np.inf
                    position = _out_position(model, ahead[-1])
                    continue
            if len(buckets) == 1:
                # The last live section needs no pricing.
                taken = buckets.popitem()[1]
                schedule.extend(taken)
                break
            if matrix is None:
                matrix, row_of = _exit_table(model, sources, firsts)
            row = row_of.get(position)
            if row is None:
                live = np.flatnonzero(closed == 0.0)
                times = model.locate_times(position, firsts[live])
                chosen = int(live[int(np.argmin(times))])
            else:
                chosen = int((matrix[row] + closed).argmin())
            closed[chosen] = np.inf
            taken = buckets.pop(sids[chosen])
            schedule.extend(taken)
            position = _out_position(model, taken[-1])
        return schedule


@register
class SltfNaiveScheduler(Scheduler):
    """The literal O(n²) greedy, kept as a cross-check and ablation."""

    name = "SLTF-naive"

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        remaining = sorted(requests, key=lambda r: (r.segment, r.length))
        schedule: list[Request] = []
        position = origin
        while remaining:
            segments = np.fromiter(
                (r.segment for r in remaining),
                dtype=np.int64,
                count=len(remaining),
            )
            times = model.locate_times(position, segments)
            index = int(np.argmin(times))
            chosen = remaining.pop(index)
            schedule.append(chosen)
            position = _out_position(model, chosen)
        return schedule


@register
class SltfCoalesceScheduler(Scheduler):
    """Greedy over distance-coalesced groups (the paper's threshold T)."""

    name = "SLTF-coalesce"

    def __init__(
        self, threshold: int = DEFAULT_COALESCE_THRESHOLD
    ) -> None:
        self.threshold = int(threshold)

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        groups = coalesce_by_threshold(requests, self.threshold)
        remaining: list[Group] = list(groups)
        out_order: list[Group] = []
        position = origin
        total = model.geometry.total_segments
        while remaining:
            firsts = np.fromiter(
                (g.first_segment for g in remaining),
                dtype=np.int64,
                count=len(remaining),
            )
            times = model.locate_times(position, firsts)
            index = int(np.argmin(times))
            chosen = remaining.pop(index)
            out_order.append(chosen)
            position = min(chosen.out_segment, total - 1)
        return expand_groups(out_order)
