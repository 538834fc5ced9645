"""Scheduler base class and registry."""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable, Sequence
from operator import add, attrgetter

from repro.exceptions import SchedulingError
from repro.geometry.tape import TapeGeometry
from repro.scheduling.estimator import estimate_schedule_seconds
from repro.scheduling.request import Request, as_requests, check_batch
from repro.scheduling.schedule import Schedule


class Scheduler(abc.ABC):
    """Base class for the paper's eight scheduling algorithms.

    A scheduler is a stateless policy object: :meth:`schedule` takes the
    locate-time model of the mounted cartridge, the initial head
    position ``I``, and the request batch ``R``, and returns an ordered
    :class:`~repro.scheduling.schedule.Schedule` ``S`` containing
    exactly the same requests.
    """

    #: Registry name; subclasses set this.
    name: str = "abstract"

    def schedule(
        self, model, origin: int, requests: Iterable[int | Request]
    ) -> Schedule:
        """Order a request batch.

        Parameters
        ----------
        model:
            Locate-time model of the mounted cartridge (possibly
            perturbed — the scheduler only ever sees the model).
        origin:
            Initial head position ``I`` (absolute segment number).
        requests:
            The batch ``R``: segment numbers or :class:`Request` objects.
        """
        batch = as_requests(requests)
        check_batch(batch)
        model.geometry.check_segment(origin)
        _check_bounds(model.geometry, batch)
        ordered = self._order(model, origin, batch)
        schedule = Schedule(
            requests=tuple(ordered),
            origin=origin,
            algorithm=self.name,
            whole_tape=self._whole_tape(),
        )
        if not schedule.is_permutation_of(batch):
            raise SchedulingError(
                f"{self.name} returned a non-permutation of the batch"
            )
        return schedule.with_estimate(
            estimate_schedule_seconds(model, schedule)
        )

    @abc.abstractmethod
    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        """Produce the execution order (subclass hook)."""

    def _whole_tape(self) -> bool:
        """Overridden by READ, which streams the whole tape."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


_SEGMENT = attrgetter("segment")
_LENGTH = attrgetter("length")


def _check_bounds(
    geometry: TapeGeometry, batch: tuple[Request, ...]
) -> None:
    """Reject a request that starts or reads past the end of the tape.

    A :class:`Request` has ``segment >= 0`` and ``length >= 1``, so the
    batch is on tape iff its largest end segment is; that is one C-level
    pass.  Only a failing batch walks its requests, to raise for the
    first offender in batch order.
    """
    total = geometry.total_segments
    if max(map(add, map(_SEGMENT, batch), map(_LENGTH, batch))) <= total:
        return
    for request in batch:
        geometry.check_segment(request.segment)
        if request.end_segment > total:
            raise SchedulingError(
                f"request {request} reads past end of data"
            )


#: Global registry of scheduler factories, keyed by algorithm name.
_REGISTRY: dict[str, Callable[[], Scheduler]] = {}


def register(factory: Callable[[], Scheduler]) -> Callable[[], Scheduler]:
    """Register a scheduler factory under its instance's ``name``."""
    instance = factory()
    _REGISTRY[instance.name] = factory
    return factory


def get_scheduler(name: str) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SchedulingError(
            f"unknown scheduler {name!r}; known: {known}"
        ) from None
    return factory()


def scheduler_names() -> list[str]:
    """Names of all registered schedulers, sorted."""
    return sorted(_REGISTRY)
