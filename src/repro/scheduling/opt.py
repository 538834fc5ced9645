"""OPT: exact optimal scheduling.

Scheduling a batch is an asymmetric traveling-salesman *path* problem
with a fixed start (the head position ``I``) and a free end (Section 4
of the paper).  The paper brute-forces all permutations, which is
practical to about 12 requests (936 CPU-seconds on 1995 hardware).  We
implement

* :func:`held_karp_path` — the exact Held–Karp dynamic program,
  O(2ⁿ·n²), filled one popcount layer at a time in numpy, which
  handles the paper's whole OPT range in milliseconds and remains
  exact; and
* :func:`brute_force_path` — literal permutation enumeration, kept as a
  cross-check for the DP (used by the test suite, n ≤ 9).

Both operate on the same distance matrix LOSS uses.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

import numpy as np

from repro.exceptions import BatchTooLarge
from repro.model.distance_matrix import schedule_distance_matrix
from repro.scheduling.base import Scheduler, register
from repro.scheduling.request import Request, request_lengths

#: Above this many requests the 2ⁿ table stops being a good idea.
DEFAULT_OPT_LIMIT = 16


def held_karp_path(distance: np.ndarray) -> list[int]:
    """Exact minimum path from row 0 through all columns.

    Parameters
    ----------
    distance:
        ``(n + 1, n)`` matrix: row 0 is the start node, row ``i + 1`` is
        "after request ``i``", column ``j`` is "to request ``j``".

    Returns
    -------
    Visit order as a list of request indices ``0..n-1``.

    ``cost[mask, k]`` is the cheapest path from the start through the
    requests in ``mask`` ending at ``k``; ``parent[mask, k]`` is the
    request before ``k`` on it (the first one on ties), -1 for a
    single-request path or when no finite path exists.  The table is
    filled one popcount layer at a time, every (mask, end) pair of a
    layer in one numpy step.  The order ends at the first request of
    minimal total cost.
    """
    n = distance.shape[1]
    if n == 0:
        return []
    if n == 1:
        return [0]
    distance = np.asarray(distance, dtype=np.float64)
    # inner_to[k, j]: from request j to request k.
    inner_to = distance[1:, :].T
    cost = np.full((1 << n, n), np.inf)
    parent = np.full((1 << n, n), -1, dtype=np.intp)
    ends = np.arange(n)
    cost[1 << ends, ends] = distance[0]
    for masks, last, prevs, pairs in _layers(n):
        candidates = cost[prevs]
        candidates += inner_to[last]
        best = candidates.argmin(axis=1)
        reached = candidates[pairs, best]
        cost[masks, last] = reached
        parent[masks, last] = np.where(reached < np.inf, best, -1)

    mask = (1 << n) - 1
    order = [int(cost[mask].argmin())]
    while (prev := int(parent[mask, order[-1]])) != -1:
        mask ^= 1 << order[-1]
        order.append(prev)
    return order[::-1]


@functools.lru_cache(maxsize=None)
def _layers(n: int) -> list[tuple[np.ndarray, ...]]:
    """Held–Karp index tables for ``n`` requests, one per popcount.

    Each layer of popcount 2..n lists every (mask, last) pair with
    ``last`` in ``mask`` as ``(masks, last, prevs, pairs)``: ``prevs``
    is ``mask`` without ``last`` and ``pairs`` is ``arange`` over the
    layer, for picking each pair's row of a gathered table.  The cached
    arrays are read-only.
    """
    every = np.arange(1 << n)
    popcount = np.zeros(1 << n, dtype=np.intp)
    for bit in range(n):
        popcount += (every >> bit) & 1
    layers = []
    for size in range(2, n + 1):
        members = every[popcount == size]
        bits = (members[:, None] >> np.arange(n)) & 1
        pair_mask, last = np.nonzero(bits)
        masks = members[pair_mask]
        layer = (masks, last, masks ^ (1 << last), np.arange(len(masks)))
        for table in layer:
            table.setflags(write=False)
        layers.append(layer)
    return layers


def brute_force_path(distance: np.ndarray) -> list[int]:
    """Permutation enumeration (the paper's OPT implementation)."""
    n = distance.shape[1]
    best_cost = np.inf
    best_order: tuple[int, ...] = tuple(range(n))
    for perm in itertools.permutations(range(n)):
        cost = distance[0, perm[0]]
        for a, b in zip(perm, perm[1:]):
            cost += distance[a + 1, b]
            if cost >= best_cost:
                break
        else:
            if cost < best_cost:
                best_cost = cost
                best_order = perm
    return list(best_order)


@register
class OptScheduler(Scheduler):
    """Exact optimal order via Held–Karp."""

    name = "OPT"

    def __init__(self, limit: int = DEFAULT_OPT_LIMIT) -> None:
        self.limit = int(limit)

    def _solve(self, distance: np.ndarray) -> list[int]:
        return held_karp_path(distance)

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        if len(requests) > self.limit:
            raise BatchTooLarge(len(requests), self.limit, self.name)
        segments = np.fromiter(
            (r.segment for r in requests),
            dtype=np.int64,
            count=len(requests),
        )
        distance = schedule_distance_matrix(
            model, origin, segments, lengths=request_lengths(requests)
        )
        order = self._solve(distance)
        return [requests[i] for i in order]


@register
class BruteForceOptScheduler(OptScheduler):
    """OPT by literal permutation enumeration (cross-check, n <= 9)."""

    name = "OPT-brute"

    def __init__(self, limit: int = 9) -> None:
        super().__init__(limit=limit)

    def _solve(self, distance: np.ndarray) -> list[int]:
        return brute_force_path(distance)
