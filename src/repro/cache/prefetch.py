"""Opportunistic prefetch: stage what the head passes over anyway.

When a scheduled batch executes, the coalescing structure of the
schedule (Section 4 of the paper, :mod:`repro.scheduling.coalesce`)
means the head frequently *reads through* short gaps between grouped
requests rather than repositioning: every segment inside a coalesced
group's span streams past the head at read speed.  A staging tier that
buffers the pass-through gets those segments for free — no extra
mechanism time, no extra tape wear — which is the cheapest possible
prefetch a tertiary store can do.

This module computes the passed-over segments of a batch (reusing the
paper's distance-threshold coalescing rule);
:func:`repro.cache.system.stage_batch` offers them to the cache after
each batch.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.constants import DEFAULT_COALESCE_THRESHOLD
from repro.scheduling.coalesce import coalesce_by_threshold
from repro.scheduling.request import Request

#: Default cap on segments prefetched per executed batch.  A coalesced
#: group may span up to the coalescing threshold (~1410 segments) per
#: gap; the cap keeps one pathological batch from churning the cache.
DEFAULT_MAX_PREFETCH_PER_BATCH = 512


def prefetch_candidates(
    requests: Sequence[Request],
    threshold: int = DEFAULT_COALESCE_THRESHOLD,
    limit: int | None = DEFAULT_MAX_PREFETCH_PER_BATCH,
) -> list[int]:
    """Segments a batch's execution passes over without requesting.

    Coalesces the batch with the paper's distance-threshold rule and
    returns, per group, the segments inside the group's span that no
    request covers — exactly the data that streams past the head while
    it reads through the gaps.  Groups with no interior gap contribute
    nothing.  ``limit`` caps the result (``None`` = unlimited); gaps
    are emitted in tape order, narrowest-gap groups first, because a
    narrow gap is the strongest read-through signal.
    """
    if not requests:
        return []
    groups = coalesce_by_threshold(requests, threshold)
    gapped: list[tuple[int, list[int]]] = []
    for group in groups:
        if len(group) < 2:
            continue
        covered: set[int] = set()
        for request in group.requests:
            covered.update(range(request.segment, request.end_segment))
        gap = [
            segment
            for segment in range(group.first_segment, group.out_segment)
            if segment not in covered
        ]
        if gap:
            gapped.append((len(gap), gap))
    gapped.sort(key=lambda item: item[0])
    out: list[int] = []
    for _, gap in gapped:
        out.extend(gap)
        if limit is not None and len(out) >= limit:
            return out[:limit]
    return out
