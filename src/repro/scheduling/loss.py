"""LOSS: the greedy asymmetric-TSP heuristic of Lawler et al. [LLKS85].

SLTF is "too greedy": taking the closest request now can force a very
long locate later.  LOSS repairs this: at each step it considers, for
every city, the gap between its shortest and second-shortest remaining
out-edge (its *out-loss*) and in-edge (*in-loss*); it then commits the
shortest edge at the city whose loss is largest — the city that stands
to lose the most if its short edge is not used.

Cities are the distance-coalesced request groups (threshold ``T``,
default 1410 segments); the initial head position is a city with only
out-edges.  Edges are committed under Hamiltonian-path constraints: one
out-edge and one in-edge per city, and no cycles (enforced by closing
off the tail-to-head edge of every merged path fragment).

This is the paper's recommended algorithm for batches of 11 to ~1536
uniformly random requests.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.constants import DEFAULT_COALESCE_THRESHOLD
from repro.exceptions import SchedulingError
from repro.model.distance_matrix import schedule_distance_matrix
from repro.scheduling.base import Scheduler, register
from repro.scheduling.coalesce import (
    Group,
    coalesce_by_threshold,
    expand_groups,
)
from repro.scheduling.request import Request


def loss_path(distance: np.ndarray) -> list[int]:
    """Greedy max-loss Hamiltonian path on an asymmetric matrix.

    Parameters
    ----------
    distance:
        Square ``(m, m)`` matrix; node 0 is the fixed start.  Entry
        ``[i, j]`` is the cost of travelling ``i -> j``; forbidden edges
        (the diagonal, edges into node 0) must already be ``+inf``.

    Returns
    -------
    list of node indices (excluding node 0) in visit order.
    """
    fragments = loss_path_fragments(distance)
    if len(fragments) != 1 or fragments[0][0] != 0:
        raise SchedulingError("LOSS failed to build a full path")
    return fragments[0][1:]


def loss_path_fragments(distance: np.ndarray) -> list[list[int]]:
    """Max-loss edge selection, returning the path fragments built.

    Runs the same greedy loop as :func:`loss_path` but stops when no
    feasible edge remains instead of raising: on a *complete* matrix
    that is after ``m - 1`` edges (one fragment — the full path), on a
    matrix with missing (+inf) edges possibly earlier.

    Fragments are returned head-first; the fragment starting with node
    0 (if any edges were added at all) comes first.
    """
    m = distance.shape[0]
    if distance.shape != (m, m):
        raise SchedulingError("distance matrix must be square")
    if m == 1:
        return [[0]]
    work = distance.astype(np.float64, copy=True)
    np.fill_diagonal(work, np.inf)
    work[:, 0] = np.inf

    successor = np.full(m, -1, dtype=np.int64)
    predecessor = np.full(m, -1, dtype=np.int64)
    # Path-fragment bookkeeping: every node starts as a singleton
    # fragment; head/tail are tracked at the fragment representative.
    parent = np.arange(m, dtype=np.int64)
    head = np.arange(m, dtype=np.int64)
    tail = np.arange(m, dtype=np.int64)

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for _ in range(m - 1):
        edge = _select_edge(work)
        if edge is None:
            break
        u, v = edge
        successor[u] = v
        predecessor[v] = u
        work[u, :] = np.inf
        work[:, v] = np.inf
        root_u, root_v = find(u), find(v)
        parent[root_v] = root_u
        new_head, new_tail = head[root_u], tail[root_v]
        head[root_u], tail[root_u] = new_head, new_tail
        # Forbid closing the fragment into a cycle.
        work[new_tail, new_head] = np.inf

    fragments: list[list[int]] = []
    for node in range(m):
        if predecessor[node] != -1:
            continue
        fragment = [node]
        cursor = int(successor[node])
        while cursor != -1:
            fragment.append(cursor)
            cursor = int(successor[cursor])
        fragments.append(fragment)
    fragments.sort(key=lambda fragment: fragment[0] != 0)
    return fragments


def _select_edge(work: np.ndarray) -> tuple[int, int] | None:
    """Pick the next edge by the max-loss rule; None when exhausted."""
    with np.errstate(invalid="ignore"):
        row_two = np.partition(work, 1, axis=1)[:, :2]
        col_two = np.partition(work, 1, axis=0)[:2, :]
        out_loss = row_two[:, 1] - row_two[:, 0]
        in_loss = col_two[1, :] - col_two[0, :]
    out_loss = _sanitize_loss(out_loss, row_two[:, 0], row_two[:, 1])
    in_loss = _sanitize_loss(in_loss, col_two[0, :], col_two[1, :])

    loss = np.maximum(out_loss, in_loss)
    city = int(np.argmax(loss))
    if loss[city] == -np.inf:
        return None
    if out_loss[city] >= in_loss[city]:
        u = city
        v = int(np.argmin(work[city, :]))
    else:
        v = city
        u = int(np.argmin(work[:, city]))
    return u, v


def _sanitize_loss(
    loss: np.ndarray, best: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Resolve the inf arithmetic of exhausted/forced cities.

    A city with no remaining candidate edge cannot be selected
    (loss -inf); a city with exactly one candidate is forced
    (loss +inf).
    """
    loss = loss.copy()
    no_candidate = ~np.isfinite(best)
    forced = np.isfinite(best) & ~np.isfinite(second)
    loss[no_candidate] = -np.inf
    loss[forced] = np.inf
    return loss


@register
class LossScheduler(Scheduler):
    """Max-loss greedy path over coalesced request groups."""

    name = "LOSS"

    def __init__(
        self, threshold: int | None = DEFAULT_COALESCE_THRESHOLD
    ) -> None:
        #: Coalescing distance; ``None`` runs LOSS on raw requests.
        self.threshold = threshold

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        if self.threshold is None:
            groups = [
                Group((r,))
                for r in sorted(requests, key=lambda r: (r.segment, r.length))
            ]
        else:
            groups = coalesce_by_threshold(requests, self.threshold)
        if len(groups) == 1:
            return expand_groups(groups)

        total = model.geometry.total_segments
        in_segments = np.fromiter(
            (g.first_segment for g in groups),
            dtype=np.int64,
            count=len(groups),
        )
        lengths = np.fromiter(
            (min(g.out_segment, total - 1) - g.first_segment for g in groups),
            dtype=np.int64,
            count=len(groups),
        )
        rect = schedule_distance_matrix(
            model, origin, in_segments, lengths=np.maximum(lengths, 1)
        )
        m = len(groups) + 1
        square = np.full((m, m), np.inf, dtype=np.float64)
        square[:, 1:] = rect
        order = loss_path(square)
        return expand_groups([groups[i - 1] for i in order])

