"""Or-opt local improvement of schedules.

The paper leaves better-than-greedy scheduling as future work
("Evaluating a more sophisticated algorithm, such as that in [CDT95],
remains as future work").  This module provides the classic cheap step
in that direction: **Or-opt** relocation, which repeatedly moves one
request to a better position in the schedule.  Unlike 2-opt it never
reverses a subpath, so it remains correct under the strongly asymmetric
locate times of serpentine tape.

Relocating request ``i`` between requests ``j`` and ``j + 1`` changes
exactly five locate edges, so each candidate move is evaluated in O(1)
from the distance matrix and a full improvement sweep costs O(n²) —
the same order as LOSS itself.  Sweeps repeat until no move helps (or
a round limit is hit).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.model.distance_matrix import schedule_distance_matrix
from repro.scheduling.base import Scheduler, register
from repro.scheduling.loss import LossScheduler
from repro.scheduling.request import (
    Request,
    request_lengths,
    request_segments,
)
from repro.scheduling.schedule import Schedule

#: Safety cap on improvement sweeps.
DEFAULT_MAX_ROUNDS = 8


def or_opt_order(
    distance: np.ndarray,
    order: list[int],
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[int]:
    """Improve a visit order by single-city relocations.

    Parameters
    ----------
    distance:
        The ``(n + 1, n)`` schedule distance matrix (row 0 = origin,
        row ``i + 1`` = after request ``i``).
    order:
        Initial visit order (a permutation of ``range(n)``).
    max_rounds:
        Maximum full improvement sweeps.

    Returns
    -------
    The improved order (possibly the input, if already locally
    optimal).
    """
    n = len(order)
    if n <= 2:
        return list(order)
    current = list(order)
    # Python floats run the same IEEE double arithmetic as numpy's
    # scalars, at a fraction of the per-element cost.
    rows = distance.tolist()

    for _ in range(max_rounds):
        improved = False
        for position in range(n):
            city = current[position]
            # Cost of removing `city` from its position.
            before = current[position - 1] + 1 if position > 0 else 0
            after = current[position + 1] if position + 1 < n else None
            removed = rows[before][city]
            if after is not None:
                removed += rows[city + 1][after]
                bridged = rows[before][after]
            else:
                bridged = 0.0
            gain = removed - bridged
            if not math.isfinite(gain):
                continue

            # Cost of inserting between every other adjacent pair.
            rest = [c for c in current if c != city]
            froms = [0] + [c + 1 for c in rest]
            leaving = rows[city + 1]
            # Only strictly improving moves (ties would oscillate).
            best_delta = 1e-9
            best_slot = None
            for slot, source in enumerate(froms):
                if slot == position:
                    continue
                entering = rows[source]
                if slot < len(rest):
                    to = rest[slot]
                    added = entering[city] + leaving[to] - entering[to]
                else:
                    added = entering[city]
                delta = gain - added
                if delta > best_delta:
                    best_delta = delta
                    best_slot = slot
            if best_slot is not None:
                rest.insert(best_slot, city)
                current = rest
                improved = True
        if not improved:
            break
    return current


def improve_schedule(
    model,
    schedule: Schedule,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> Schedule:
    """Or-opt a finished schedule; returns a new (never worse) one."""
    if schedule.whole_tape or len(schedule) <= 2:
        return schedule
    requests = list(schedule.requests)
    segments = request_segments(requests)
    lengths = request_lengths(requests)
    distance = schedule_distance_matrix(
        model, schedule.origin, segments, lengths=lengths
    )
    order = or_opt_order(
        distance, list(range(len(requests))), max_rounds=max_rounds
    )
    improved = Schedule(
        requests=tuple(requests[i] for i in order),
        origin=schedule.origin,
        algorithm=f"{schedule.algorithm}+oropt",
        whole_tape=False,
    )
    from repro.scheduling.estimator import estimate_schedule_seconds

    estimate = estimate_schedule_seconds(model, improved)
    if (
        schedule.estimated_seconds is not None
        and estimate > schedule.estimated_seconds + 1e-9
    ):
        # Never return a worse schedule than we were given.
        return schedule
    return improved.with_estimate(estimate)


@register
class ImprovedLossScheduler(Scheduler):
    """LOSS followed by Or-opt refinement."""

    name = "LOSS+oropt"

    def __init__(self, max_rounds: int = DEFAULT_MAX_ROUNDS) -> None:
        self.max_rounds = int(max_rounds)
        self._base = LossScheduler()

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        base = self._base.schedule(model, origin, requests)
        improved = improve_schedule(
            model, base, max_rounds=self.max_rounds
        )
        return improved.requests
