"""The event bus: ordering, filtering, subscription lifecycle."""

import pytest

from repro.obs import EventBus, Subscription
from repro.obs.events import CacheHit, CacheMiss, QueueAdmitted


def hit(seconds=0.0, segment=1):
    return CacheHit(seconds=seconds, segment=segment, length=1)


def miss(seconds=0.0, segment=1):
    return CacheMiss(seconds=seconds, segment=segment, length=1)


class TestDelivery:
    def test_publish_order_preserved(self):
        bus = EventBus()
        seen = bus.collect()
        events = [hit(segment=i) for i in range(10)]
        for event in events:
            bus.publish(event)
        assert seen == events

    def test_subscription_order_preserved(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.publish(hit())
        assert order == ["first", "second"]

    def test_synchronous_on_publisher_stack(self):
        bus = EventBus()
        delivered = []
        bus.subscribe(delivered.append)
        event = hit()
        bus.publish(event)
        # Already delivered by the time publish returns.
        assert delivered == [event]

    def test_events_published_counts_unmatched(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, kinds="cache.hit")
        bus.publish(miss())
        bus.publish(hit())
        assert bus.events_published == 2


class TestFiltering:
    def test_filter_by_name(self):
        bus = EventBus()
        hits = bus.collect("cache.hit")
        bus.publish(hit())
        bus.publish(miss())
        assert [e.name for e in hits] == ["cache.hit"]

    def test_filter_by_class(self):
        bus = EventBus()
        hits = bus.collect(CacheHit)
        bus.publish(hit())
        bus.publish(miss())
        assert len(hits) == 1 and isinstance(hits[0], CacheHit)

    def test_filter_by_iterable_of_both(self):
        bus = EventBus()
        seen = bus.collect(["cache.hit", CacheMiss])
        bus.publish(hit())
        bus.publish(miss())
        bus.publish(QueueAdmitted(seconds=0.0, segment=1, length=1,
                                  arrival_seconds=0.0, queue_depth=1))
        assert [e.name for e in seen] == ["cache.hit", "cache.miss"]

    def test_none_delivers_everything(self):
        bus = EventBus()
        seen = bus.collect()
        bus.publish(hit())
        bus.publish(miss())
        assert len(seen) == 2

    def test_bad_filter_entry_rejected(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(lambda e: None, kinds=[42])

    def test_unknown_kind_name_rejected(self):
        # A misspelt name would otherwise match nothing, silently.
        bus = EventBus()
        with pytest.raises(ValueError, match="'queue.admitt'"):
            bus.collect("queue.admitt")
        with pytest.raises(ValueError, match="'cache.hits'"):
            bus.subscribe(lambda e: None, kinds=["cache.hit", "cache.hits"])
        assert bus.subscriber_count == 0


class TestLifecycle:
    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        bus.publish(hit())
        sub.close()
        bus.publish(hit())
        assert len(seen) == 1

    def test_unsubscribe_idempotent(self):
        bus = EventBus()
        sub = bus.subscribe(lambda e: None)
        sub.close()
        sub.close()
        bus.unsubscribe(sub)
        assert bus.subscriber_count == 0

    def test_context_manager_detaches(self):
        bus = EventBus()
        seen = []
        with bus.subscribe(seen.append) as sub:
            assert isinstance(sub, Subscription)
            bus.publish(hit())
        bus.publish(hit())
        assert len(seen) == 1

    def test_handler_mutation_takes_effect_next_publish(self):
        bus = EventBus()
        late = []

        def add_late(event):
            bus.subscribe(late.append)

        bus.subscribe(add_late)
        bus.publish(hit())
        assert late == []  # snapshot: not delivered the current event
        second = hit(segment=2)
        bus.publish(second)
        assert late == [second]

    def test_unsubscribe_by_handler_skips_the_current_event(self):
        bus = EventBus()
        later = []

        def close_later(event):
            subscription.close()

        bus.subscribe(close_later)
        subscription = bus.subscribe(later.append)
        bus.publish(hit())
        assert later == []  # closed before its turn in the snapshot
        bus.publish(hit(segment=2))
        assert later == []
        assert bus.subscriber_count == 1

    def test_handler_exceptions_propagate(self):
        bus = EventBus()

        def boom(event):
            raise RuntimeError("telemetry bug")

        bus.subscribe(boom)
        with pytest.raises(RuntimeError):
            bus.publish(hit())


class TestClock:
    def test_set_time_monotone(self):
        bus = EventBus()
        bus.set_time(10.0)
        bus.set_time(5.0)
        assert bus.now == 10.0
        bus.set_time(12.5)
        assert bus.now == 12.5
