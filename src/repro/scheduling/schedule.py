"""Schedule result type."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.scheduling.request import Request, request_segments

#: ``(segment, length)`` of a request: its equality and order key.
_KEY = attrgetter("segment", "length")


@dataclass(frozen=True)
class Schedule:
    """An ordered retrieval plan for one batch of requests.

    Attributes
    ----------
    requests:
        The batch, in execution order.
    origin:
        Head position ``I`` the schedule assumes at start.
    algorithm:
        Name of the producing scheduler (for reports).
    estimated_seconds:
        Model-estimated execution time (locates plus transfers), filled
        in by the scheduler.
    whole_tape:
        True for the READ algorithm: the plan is "read the entire tape
        and rewind", and the request order is informational only (sorted
        by segment, the order data streams by).
    """

    requests: tuple[Request, ...]
    origin: int
    algorithm: str
    estimated_seconds: float | None = None
    whole_tape: bool = False
    _segments_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def segments(self) -> np.ndarray:
        """First-segment numbers in execution order."""
        if "segments" not in self._segments_cache:
            self._segments_cache["segments"] = request_segments(
                self.requests
            )
        return self._segments_cache["segments"]

    def is_permutation_of(self, requests: Sequence[Request]) -> bool:
        """True if this schedule contains exactly the given requests.

        A scheduler reorders the batch's own objects, so the common case
        is settled in O(n) by identity: both hold the same n distinct
        objects.  Otherwise it compares ``(segment, length)`` tuples,
        which is what :class:`Request` equality and order are defined
        over; sorting tuples skips the dataclass's Python-level
        ``__lt__``.
        """
        count = len(self.requests)
        if count != len(requests):
            return False
        mine = set(map(id, self.requests))
        if len(mine) == count and mine == set(map(id, requests)):
            return True
        return sorted(map(_KEY, self.requests)) == sorted(
            map(_KEY, requests)
        )

    def with_estimate(self, seconds: float) -> "Schedule":
        """Copy of the schedule with ``estimated_seconds`` filled in."""
        return Schedule(
            requests=self.requests,
            origin=self.origin,
            algorithm=self.algorithm,
            estimated_seconds=seconds,
            whole_tape=self.whole_tape,
        )
