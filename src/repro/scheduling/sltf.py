"""SLTF: shortest locate time first.

The greedy analogue of the disk SSTF algorithm: from the current head
position, go to the request with the minimum locate time, repeat.

The paper observes two facts about the locate model that collapse the
naive O(n²) greedy to O(n log n + k²) where ``k`` is the number of
non-empty sections:

1. reading ahead within a section is faster than any locate that leaves
   the section, so once a section is entered all its requests are
   consumed in increasing segment order;
2. the nearest request inside another section is always that section's
   lowest-numbered request, so only one candidate per non-empty section
   needs a locate-time evaluation.

Three variants are provided (the ablation benchmark compares their
cost):

* :class:`SltfScheduler` — the section fast path (the paper's
  recommended form; registered as ``SLTF``);
* :class:`SltfNaiveScheduler` — the literal O(n²) greedy;
* :class:`SltfCoalesceScheduler` — greedy over distance-coalesced
  groups (threshold ``T``, default 1410 segments = two sections).

Tie-breaking is pinned, not incidental: both greedy variants scan
candidates in ascending ``(segment, length)`` order and take the
*first* minimum (``np.argmin``), so equal locate times resolve to the
lowest ``(segment, length)`` in both — the fast path and the naive
greedy therefore produce identical schedules, ties included
(regression-tested in ``tests/scheduling/test_sltf_ties.py``).
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
        # it empties; the table never changes, only ``alive`` does.
        sids = sorted(buckets)
        slot = {sid: k for k, sid in enumerate(sids)}
        firsts = np.fromiter(
            (buckets[sid][0].segment for sid in sids),
            dtype=np.int64,
            count=len(sids),
        )
        alive = np.ones(len(sids), dtype=bool)

        schedule: list[Request] = []
        position = origin
        while buckets:
            here = geo.global_section(position)
            bucket = buckets.get(here)
            if bucket is not None:
                ahead = [r for r in bucket if r.segment >= position]
                if ahead:
                    # Fact 1: read ahead through the current section.
                    schedule.extend(ahead)
                    remaining = [r for r in bucket if r.segment < position]
                    if remaining:
                        buckets[here] = remaining
                    else:
                        del buckets[here]
                        alive[slot[here]] = False
                    position = _out_position(model, ahead[-1])
                    continue
            live = np.flatnonzero(alive)
            times = model.locate_times(position, firsts[live])
            chosen = int(live[int(np.argmin(times))])
            alive[chosen] = False
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
