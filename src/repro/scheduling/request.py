"""Request types for batch scheduling."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.exceptions import EmptyBatchError


@dataclass(frozen=True, slots=True, order=True)
class Request:
    """One random-read request.

    Attributes
    ----------
    segment:
        Absolute segment number of the first segment to read.
    length:
        Number of consecutive segments to transfer.  The paper's
        analysis assumes single-segment reads and notes the extension to
        multi-segment reads is trivial; the extension is implemented
        throughout this package.
    """

    segment: int
    length: int = 1

    def __post_init__(self) -> None:
        if self.segment < 0:
            raise ValueError(f"segment must be >= 0, got {self.segment}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")

    @property
    def end_segment(self) -> int:
        """Segment number just past the data read (head parking spot)."""
        return self.segment + self.length


def as_requests(items: Iterable[int | Request]) -> tuple[Request, ...]:
    """Normalize a mixed iterable of segments/requests into requests.

    Accepts any iterable (generators included) and materializes it at
    most once; a tuple that already contains only :class:`Request`
    objects is returned as-is.
    """
    if isinstance(items, tuple) and all(
        map(isinstance, items, repeat(Request))
    ):
        return items
    return tuple(
        item if isinstance(item, Request) else Request(int(item))
        for item in items
    )


def request_segments(requests: Sequence[Request]) -> np.ndarray:
    """First-segment numbers of a request sequence, as an int64 array."""
    return np.fromiter(
        (r.segment for r in requests), dtype=np.int64, count=len(requests)
    )


def request_lengths(requests: Sequence[Request]) -> np.ndarray:
    """Read lengths of a request sequence, as an int64 array."""
    return np.fromiter(
        (r.length for r in requests), dtype=np.int64, count=len(requests)
    )


def check_batch(requests: Sequence[Request]) -> None:
    """Reject empty batches (schedulers need at least one request)."""
    if not requests:
        raise EmptyBatchError("request batch is empty")
