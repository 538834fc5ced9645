"""Event taxonomy: registry and record round-trip."""

import warnings

import pytest

from repro.obs import EVENT_TYPES, event_from_record, events
from repro.obs.events import (
    BatchCompleted,
    CacheHit,
    QueueAdmitted,
    RequestCompleted,
    RequestLocated,
)

EXPECTED_NAMES = {
    "queue.admit",
    "queue.dispatch",
    "schedule.computed",
    "batch.start",
    "batch.complete",
    "request.locate",
    "request.read",
    "request.complete",
    "cache.hit",
    "cache.miss",
    "cache.admit",
    "cache.reject",
    "cache.evict",
    "library.mount",
    "library.unmount",
    "library.mount_wait",
    "drive.op",
    "fault.injected",
    "request.retry",
    "request.failed",
    "system.degraded",
}


class TestRegistry:
    def test_taxonomy_registered(self):
        assert EXPECTED_NAMES <= set(EVENT_TYPES)

    def test_names_are_dotted(self):
        for name in EXPECTED_NAMES:
            layer, action = name.split(".")
            assert layer and action

    def test_registry_maps_name_to_class(self):
        assert EVENT_TYPES["cache.hit"] is CacheHit
        assert EVENT_TYPES["queue.admit"] is QueueAdmitted

    def test_duplicate_name_rejected(self):
        from dataclasses import dataclass
        from typing import ClassVar

        from repro.obs.events import Event

        with pytest.raises(ValueError, match="duplicate"):

            @dataclass(frozen=True, slots=True)
            class Impostor(Event):
                name: ClassVar[str] = "cache.hit"


class TestRecords:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_round_trip_every_type(self, name):
        cls = EVENT_TYPES[name]
        from dataclasses import fields

        kwargs = {}
        for spec in fields(cls):
            if spec.type in ("float", "float | None"):
                kwargs[spec.name] = 1.5
            elif spec.type == "int":
                kwargs[spec.name] = 7
            elif spec.type == "bool":
                kwargs[spec.name] = True
            else:
                kwargs[spec.name] = "x"
        event = cls(**kwargs)
        record = event.to_record()
        assert record["event"] == name
        assert event_from_record(record) == event

    def test_optional_none_round_trips(self):
        event = RequestLocated(
            seconds=3.0, position=0, source=0, segment=5,
            actual_seconds=2.0, estimated_seconds=None,
        )
        assert event_from_record(event.to_record()) == event

    def test_record_is_flat_and_json_safe(self):
        import json

        event = BatchCompleted(
            seconds=9.0, batch_index=0, algorithm="LOSS", batch_size=3,
            queue_wait_seconds=1.0, locate_seconds=4.0,
            transfer_seconds=2.0, rewind_seconds=0.0, total_seconds=6.0,
            estimated_seconds=6.1,
        )
        round_tripped = json.loads(json.dumps(event.to_record()))
        assert event_from_record(round_tripped) == event

    def test_unknown_event_name_raises(self):
        with pytest.raises(ValueError, match="unknown event"):
            event_from_record({"event": "no.such", "seconds": 0.0})

    def test_missing_event_key_raises(self):
        with pytest.raises(ValueError, match="no 'event' key"):
            event_from_record({"seconds": 0.0})


class TestDerivedProperties:
    def test_response_seconds(self):
        event = RequestCompleted(
            seconds=12.0, position=2, segment=9, length=1,
            arrival_seconds=2.0, completion_seconds=12.0,
        )
        assert event.response_seconds == 10.0

    def test_events_are_frozen(self):
        event = CacheHit(seconds=0.0, segment=1, length=1)
        with pytest.raises(AttributeError):
            event.segment = 2


class TestDeprecationShim:
    """The ``repro.drive.events`` shim is gone; the package re-export stays."""

    def test_package_reexport_stays_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.drive import EventKind
        assert EventKind is events.EventKind
