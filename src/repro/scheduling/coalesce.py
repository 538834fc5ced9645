"""Coalescing nearby requests into representatives.

Section 4 of the paper (under SLTF) introduces two coalescing rules that
shrink the problem the quadratic algorithms (SLTF, LOSS) work on:

* **by section** — requests in the same section always travel together,
  because reading ahead within a section is faster than any locate out
  of it (:class:`~repro.scheduling.sltf.SltfScheduler` buckets its
  candidates by ``global_section_of`` itself);
* **by distance threshold** — sort the requested segments; a segment
  within ``T`` of its predecessor joins the predecessor's group.  The
  paper finds ``T = 1410`` (two sections) works well and the schedule
  quality is not very sensitive to it.

A group is always consumed in increasing segment order (read-ahead), so
for scheduling purposes it behaves like a single request from its first
segment (the *in* city) to just past its last segment (the *out* city).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.constants import DEFAULT_COALESCE_THRESHOLD
from repro.scheduling.request import Request


@dataclass(frozen=True)
class Group:
    """A coalesced run of requests, kept in increasing segment order."""

    requests: tuple[Request, ...]

    @property
    def first_segment(self) -> int:
        """Segment the head must locate to (the *in* city)."""
        return self.requests[0].segment

    @property
    def out_segment(self) -> int:
        """Head position after consuming the group (the *out* city)."""
        return self.requests[-1].end_segment

    def __len__(self) -> int:
        return len(self.requests)


def _sorted_requests(requests: Sequence[Request]) -> list[Request]:
    return sorted(requests, key=lambda r: (r.segment, r.length))


def coalesce_by_threshold(
    requests: Sequence[Request],
    threshold: int = DEFAULT_COALESCE_THRESHOLD,
) -> list[Group]:
    """Coalesce requests whose segment gap is below ``threshold``.

    Follows the paper's rule: after sorting, segment ``s_i`` joins the
    current group when ``s_i - s_{i-1} < T``; otherwise it starts the
    next representative.
    """
    ordered = _sorted_requests(requests)
    groups: list[Group] = []
    current: list[Request] = []
    for request in ordered:
        if current and request.segment - current[-1].segment < threshold:
            current.append(request)
        else:
            if current:
                groups.append(Group(tuple(current)))
            current = [request]
    if current:
        groups.append(Group(tuple(current)))
    return groups


def expand_groups(groups: Sequence[Group]) -> list[Request]:
    """Flatten an ordered sequence of groups back into requests."""
    out: list[Request] = []
    for group in groups:
        out.extend(group.requests)
    return out
