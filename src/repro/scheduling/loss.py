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

import math
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

_INF = math.inf


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

    Each step takes the city with the largest loss (first index on
    ties), preferring its out-side when ``out-loss >= in-loss``, and
    commits that side's shortest edge (first index on ties).  A city
    with no candidate edge left has loss -inf; one with a single
    candidate is forced (loss +inf).

    The kernel is incremental.  For every row and column it keeps the
    index of its shortest live entry, the index of the shortest entry
    once that one is set aside (ties count: ``[1, 1, 5]`` has two 1s),
    and the loss they give.  A commit removes row ``u``, column ``v``
    and the tail -> head entry, so it rescans only the lines whose
    shortest or second entry was among those.  A NaN entry raises
    :class:`SchedulingError`.

    Fragments are returned head-first; the fragment starting with node
    0 (if any edges were added at all) comes first.
    """
    m = distance.shape[0]
    if distance.shape != (m, m):
        raise SchedulingError("distance matrix must be square")
    if m == 1:
        return [[0]]
    work = distance.astype(np.float64, copy=True)
    if np.isnan(work).any():
        raise SchedulingError("distance matrix contains NaN")
    np.fill_diagonal(work, np.inf)
    work[:, 0] = np.inf
    rows = work.tolist()
    cols = work.T.tolist()
    # Removed rows and columns stay in the lists; scans read only the
    # cross indices still live.
    live_rows = list(range(m))
    live_cols = list(range(m))
    out_best, out_second, out_loss = _line_stats(work)
    in_best, in_second, in_loss = _line_stats(work.T)
    loss = [max(pair) for pair in zip(out_loss, in_loss)]

    successor = [-1] * m
    predecessor = [-1] * m
    # Path-fragment bookkeeping: every node starts as a singleton
    # fragment; head/tail are tracked at the fragment representative.
    parent = list(range(m))
    head = list(range(m))
    tail = list(range(m))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for _ in range(m - 1):
        top = max(loss)
        if top == -_INF:
            break
        city = loss.index(top)
        if out_loss[city] >= in_loss[city]:
            u, v = city, out_best[city]
        else:
            u, v = in_best[city], city
        successor[u] = v
        predecessor[v] = u
        root_u, root_v = find(u), find(v)
        parent[root_v] = root_u
        new_head, new_tail = head[root_u], tail[root_v]
        head[root_u], tail[root_u] = new_head, new_tail

        # Row u and column v are done; index -1 keeps _lines_at from
        # ever reporting them as stale.
        out_best[u] = out_second[u] = -1
        out_loss[u] = -_INF
        in_best[v] = in_second[v] = -1
        in_loss[v] = -_INF
        live_rows.remove(u)
        live_cols.remove(v)
        stale_rows = _lines_at(out_best, out_second, v)
        stale_cols = _lines_at(in_best, in_second, u)
        # Forbid closing the fragment into a cycle.
        rows[new_tail][new_head] = cols[new_head][new_tail] = _INF
        if new_head in (out_best[new_tail], out_second[new_tail]):
            stale_rows.add(new_tail)
        if new_tail in (in_best[new_head], in_second[new_head]):
            stale_cols.add(new_head)
        for i in sorted(stale_rows):
            out_best[i], out_second[i], out_loss[i] = _rescan(
                rows[i], live_cols
            )
            loss[i] = max(out_loss[i], in_loss[i])
        for j in sorted(stale_cols):
            in_best[j], in_second[j], in_loss[j] = _rescan(
                cols[j], live_rows
            )
            loss[j] = max(out_loss[j], in_loss[j])
        loss[u] = max(out_loss[u], in_loss[u])
        loss[v] = max(out_loss[v], in_loss[v])

    fragments: list[list[int]] = []
    for node in range(m):
        if predecessor[node] != -1:
            continue
        fragment = [node]
        cursor = successor[node]
        while cursor != -1:
            fragment.append(cursor)
            cursor = successor[cursor]
        fragments.append(fragment)
    fragments.sort(key=lambda fragment: fragment[0] != 0)
    return fragments


def _line_stats(
    matrix: np.ndarray,
) -> tuple[list[int], list[int], list[float]]:
    """Shortest index, second index and loss of every row of ``matrix``.

    The vectorized twin of :func:`_rescan` over all columns.
    """
    index = np.arange(matrix.shape[0])
    best = matrix.argmin(axis=1)
    low = matrix[index, best]
    rest = matrix.copy()
    rest[index, best] = np.inf
    second = rest.argmin(axis=1)
    next_low = rest[index, second]
    with np.errstate(invalid="ignore"):
        loss = next_low - low
    loss[~np.isfinite(next_low)] = np.inf
    loss[~np.isfinite(low)] = -np.inf
    return best.tolist(), second.tolist(), loss.tolist()


def _rescan(line: list[float], live: list[int]) -> tuple[int, int, float]:
    """``(shortest index, second index, loss)`` of a line's live entries.

    The loss is the gap between the two entries: -inf when the line has
    no finite entry left, +inf when it has exactly one.
    """
    values = [line[k] for k in live]
    if not values:
        return -1, -1, -_INF
    low = min(values)
    first = values.index(low)
    values[first] = _INF
    next_low = min(values)
    following = values.index(next_low)
    if not math.isfinite(low):
        loss = -_INF
    elif not math.isfinite(next_low):
        loss = _INF
    else:
        loss = next_low - low
    return live[first], live[following], loss


def _lines_at(best: list[int], second: list[int], index: int) -> set[int]:
    """Lines whose shortest or second entry is at cross ``index``."""
    found: set[int] = set()
    for column in (best, second):
        line = -1
        for _ in range(column.count(index)):
            line = column.index(index, line + 1)
            found.add(line)
    return found


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

