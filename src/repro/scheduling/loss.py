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

    The kernel is incremental.  Every row and every column is a *line*
    with its finite entries sorted once in (value, index) order.  A
    commit only ever raises entries to +inf — row ``u``, column ``v``
    and the tail -> head entry of the merged fragment — so a line's
    shortest and second-shortest live entries are the first two of its
    order still live, found by moving a per-line pointer forward.  Each
    line is watched by the crossing lines holding those two entries;
    a commit updates only the lines watching row ``u``, column ``v`` or
    the banned entry.  A NaN entry raises :class:`SchedulingError`.

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
    # Lines 0..m-1 are the rows (out-edges of city i), lines m..2m-1
    # the columns (in-edges of city j).  A row's entries are indexed by
    # column and a column's by row; the crossing line of entry x of
    # row i is line m + x, of column j it is line x.
    stacked = np.concatenate((work, work.T))
    values = stacked.tolist()
    ranked = np.argsort(stacked, axis=1, kind="stable")
    finite = np.isfinite(stacked).sum(axis=1).tolist()
    orders = [
        order[:count] for order, count in zip(ranked.tolist(), finite)
    ]
    low, next_low = np.take_along_axis(stacked, ranked[:, :2], axis=1).T
    with np.errstate(invalid="ignore"):
        line_loss = next_low - low
    line_loss[~np.isfinite(next_low)] = np.inf
    line_loss[~np.isfinite(low)] = -np.inf
    line_loss = line_loss.tolist()
    # Positions in each order of the shortest and second live entry;
    # len(order) when there is none.
    best_pos = [0] * (2 * m)
    second_pos = [1] * (2 * m)
    alive = [True] * (2 * m)
    # watchers[x]: the lines whose shortest or second entry crosses x.
    watchers: list[set[int]] = [set() for _ in range(2 * m)]
    for line, order in enumerate(orders):
        base = m if line < m else 0
        for x in order[:2]:
            watchers[base + x].add(line)
    loss = [
        out if out >= in_ else in_
        for out, in_ in zip(line_loss[:m], line_loss[m:])
    ]

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
        if line_loss[city] >= line_loss[m + city]:
            u, v = city, orders[city][best_pos[city]]
        else:
            u, v = orders[m + city][best_pos[m + city]], city
        successor[u] = v
        predecessor[v] = u
        root_u, root_v = find(u), find(v)
        parent[root_v] = root_u
        new_head, new_tail = head[root_u], tail[root_v]
        head[root_u], tail[root_u] = new_head, new_tail

        # Row u and column v are done: they stop watching, and the
        # lines watching them go stale.
        for line, base in ((u, m), (m + v, 0)):
            alive[line] = False
            line_loss[line] = -_INF
            order = orders[line]
            for position in (best_pos[line], second_pos[line]):
                if position < len(order):
                    watchers[base + order[position]].discard(line)
        stale = watchers[u] | watchers[m + v]
        # Forbid closing the fragment into a cycle.
        values[new_tail][new_head] = values[m + new_head][new_tail] = _INF
        banned = ((new_tail, m + new_head), (m + new_head, new_tail))
        for line, cross in banned:
            if line in watchers[cross]:
                watchers[cross].discard(line)
                stale.add(line)
        for line in stale:
            order = orders[line]
            row = values[line]
            base = m if line < m else 0
            best = _advance(order, best_pos[line], row, alive, base)
            second = _advance(
                order, max(best + 1, second_pos[line]), row, alive, base
            )
            best_pos[line], second_pos[line] = best, second
            if second < len(order):
                low, next_low = order[best], order[second]
                line_loss[line] = row[next_low] - row[low]
                watchers[base + low].add(line)
                watchers[base + next_low].add(line)
            elif best < len(order):
                line_loss[line] = _INF
                watchers[base + order[best]].add(line)
            else:
                line_loss[line] = -_INF
            node = line - m if line >= m else line
            out, in_ = line_loss[node], line_loss[m + node]
            loss[node] = out if out >= in_ else in_
        for node in (u, v):
            out, in_ = line_loss[node], line_loss[m + node]
            loss[node] = out if out >= in_ else in_

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


def _advance(
    order: list[int], start: int, row: list[float], alive: list[bool],
    base: int,
) -> int:
    """Position of the first live finite entry of ``order`` from ``start``.

    ``len(order)`` when none is left.  Entry ``x`` is live while its
    crossing line ``base + x`` is and ``row[x]`` has not been banned.
    """
    for position in range(start, len(order)):
        x = order[position]
        if alive[base + x] and row[x] != _INF:
            return position
    return len(order)


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

