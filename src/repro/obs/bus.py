"""The process-wide event bus.

A deliberately small synchronous pub/sub hub: publishers call
:meth:`EventBus.publish`, subscribers receive events in publish order,
in subscription order, on the publisher's stack.  There are no threads,
no queues, and no dependencies — determinism is the point, since the
simulations this instruments are themselves deterministic.

Every instrumented constructor takes ``bus=None``; the ``None`` default
keeps the hot paths at a single ``is not None`` test, so an
uninstrumented run pays nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.obs.events import EVENT_TYPES, Event

#: A subscriber: any callable taking the published event.
Handler = Callable[[Event], None]


def _kind_names(kinds) -> frozenset[str] | None:
    """Normalize a kind filter to a set of event names (None = all)."""
    if kinds is None:
        return None
    if isinstance(kinds, (str, type)):
        kinds = (kinds,)
    names = set()
    for kind in kinds:
        if isinstance(kind, str):
            if kind not in EVENT_TYPES:
                raise ValueError(
                    f"unknown event kind {kind!r}; known: "
                    + ", ".join(sorted(EVENT_TYPES))
                )
            names.add(kind)
        elif isinstance(kind, type) and issubclass(kind, Event):
            names.add(kind.name)
        else:
            raise TypeError(
                f"kind filter entries must be event names or Event "
                f"subclasses, got {kind!r}"
            )
    return frozenset(names)


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`.

    Detach with :meth:`close` (or :meth:`EventBus.unsubscribe`); usable
    as a context manager.
    """

    __slots__ = ("bus", "handler", "kinds", "active")

    def __init__(
        self,
        bus: EventBus,
        handler: Handler,
        kinds: frozenset[str] | None,
    ) -> None:
        self.bus = bus
        self.handler = handler
        self.kinds = kinds
        self.active = True

    def wants(self, event: Event) -> bool:
        """Does this subscription's filter accept the event?"""
        return self.kinds is None or event.name in self.kinds

    def close(self) -> None:
        """Stop receiving events."""
        self.bus.unsubscribe(self)

    def __enter__(self) -> Subscription:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EventBus:
    """Synchronous, ordered pub/sub hub for :class:`Event` objects.

    Attributes
    ----------
    now:
        The simulation clock, advanced by whoever drives the simulation
        (e.g. :class:`~repro.online.system.TertiaryStorageSystem`).
        Publishers without their own clock — the staging cache — stamp
        events with it.
    events_published:
        Total events seen, delivered or not.
    """

    __slots__ = ("_subscriptions", "now", "events_published")

    def __init__(self) -> None:
        self._subscriptions: list[Subscription] = []
        self.now: float = 0.0
        self.events_published: int = 0

    # -- time -----------------------------------------------------------------

    def set_time(self, seconds: float) -> None:
        """Advance the bus clock (monotone; earlier stamps are kept)."""
        if seconds > self.now:
            self.now = seconds

    # -- subscription ---------------------------------------------------------

    def subscribe(
        self,
        handler: Handler,
        kinds: str | type[Event] | Iterable[str | type[Event]] | None = None,
    ) -> Subscription:
        """Register a handler; returns a detachable subscription.

        Parameters
        ----------
        handler:
            Called with each matching event, synchronously, in publish
            order.
        kinds:
            Restrict delivery to these event types (names like
            ``"cache.hit"`` or :class:`Event` subclasses).  ``None``
            delivers everything.
        """
        subscription = Subscription(self, handler, _kind_names(kinds))
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription (idempotent)."""
        if subscription.active:
            subscription.active = False
            try:
                self._subscriptions.remove(subscription)
            except ValueError:  # pragma: no cover - defensive
                pass

    def collect(
        self,
        kinds: str | type[Event] | Iterable[str | type[Event]] | None = None,
    ) -> list[Event]:
        """Subscribe a list that accumulates matching events.

        Convenience for tests and ad-hoc inspection::

            events = bus.collect("cache.hit")
            ... run ...
            assert len(events) == expected_hits
        """
        events: list[Event] = []
        self.subscribe(events.append, kinds)
        return events

    @property
    def subscriber_count(self) -> int:
        """Active subscriptions."""
        return len(self._subscriptions)

    # -- publication ----------------------------------------------------------

    def publish(self, event: Event) -> None:
        """Deliver one event to every matching subscriber, in order.

        Delivery iterates a snapshot of the subscriptions taken when the
        publish starts, so a subscriber added by a handler first sees
        the *next* event.  A subscription closed by a handler is skipped
        at once: if it comes later in the snapshot, it misses the
        current event too.
        """
        self.events_published += 1
        for subscription in tuple(self._subscriptions):
            if subscription.active and subscription.wants(event):
                subscription.handler(event)
