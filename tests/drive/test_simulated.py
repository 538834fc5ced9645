"""SimulatedDrive: operation accounting and the event log."""

import pytest

from repro.constants import SEGMENT_TRANSFER_SECONDS
from repro.drive import DriveEvent, EventKind, SimulatedDrive
from repro.exceptions import DriveError, SegmentOutOfRange
from repro.library import MediaAgingModel
from repro.model import LocateTimeModel, ModelWrapper, rewind_time
from repro.resilience import FaultInjector, FaultPlan


@pytest.fixture()
def drive(tiny_model):
    return SimulatedDrive(tiny_model, record_events=True)


class TestLocate:
    def test_matches_model(self, drive, tiny_model):
        expected = tiny_model.locate_time(0, 123)
        assert drive.locate(123) == pytest.approx(expected)
        assert drive.position == 123
        assert drive.clock_seconds == pytest.approx(expected)

    def test_sequential_locates_accumulate(self, drive, tiny_model):
        first = tiny_model.locate_time(0, 50)
        second = tiny_model.locate_time(50, 10)
        drive.locate(50)
        drive.locate(10)
        assert drive.clock_seconds == pytest.approx(first + second)

    def test_rejects_bad_segment(self, drive, tiny):
        with pytest.raises(SegmentOutOfRange):
            drive.locate(tiny.total_segments)


def _refuse_array_kernels(monkeypatch):
    """Make every array kernel of the model stack raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("array kernel on the per-locate path")

    monkeypatch.setattr(LocateTimeModel, "_times", refuse)
    wrappers = [ModelWrapper]
    while wrappers:
        cls = wrappers.pop()
        wrappers.extend(cls.__subclasses__())
        if "_transform" in vars(cls):
            monkeypatch.setattr(cls, "_transform", refuse)


class TestScalarHotPath:
    """Executed locates price one pair with the scalar kernel; the
    1-element array path must not come back on the drive."""

    def test_simulated_drive_locate(self, tiny_model, monkeypatch):
        drive = SimulatedDrive(tiny_model, initial_position=40)
        expected = float(tiny_model.locate_times(40, [123])[0])
        _refuse_array_kernels(monkeypatch)
        assert drive.locate(123) == expected

    def test_fault_injector_over_aged_drive(self, tiny_model, monkeypatch):
        aged = MediaAgingModel().aged_model(tiny_model, "tape-7", cycles=12)
        drive = FaultInjector(
            SimulatedDrive(aged, initial_position=300), FaultPlan()
        )
        expected = float(aged.locate_times(300, [17])[0])
        _refuse_array_kernels(monkeypatch)
        assert drive.locate(17) == expected


class TestRead:
    def test_advances_position(self, drive):
        drive.locate(10)
        seconds = drive.read(4)
        assert seconds == pytest.approx(4 * SEGMENT_TRANSFER_SECONDS)
        assert drive.position == 14

    def test_clamps_at_end_of_data(self, tiny_model, tiny):
        drive = SimulatedDrive(
            tiny_model, initial_position=tiny.total_segments - 1
        )
        drive.read(1)
        assert drive.position == tiny.total_segments - 1

    def test_rejects_overrun(self, tiny_model, tiny):
        drive = SimulatedDrive(
            tiny_model, initial_position=tiny.total_segments - 2
        )
        with pytest.raises(DriveError):
            drive.read(5)

    def test_rejects_nonpositive_count(self, drive):
        with pytest.raises(DriveError):
            drive.read(0)


class TestRewind:
    def test_returns_to_bot(self, drive, tiny):
        drive.locate(tiny.total_segments // 2)
        expected = float(rewind_time(tiny, tiny.total_segments // 2))
        assert drive.rewind() == pytest.approx(expected)
        assert drive.position == 0


class TestFullRead:
    def test_rewinds_first_if_needed(self, tiny_model, tiny):
        parked = SimulatedDrive(tiny_model, initial_position=100)
        fresh = SimulatedDrive(tiny_model)
        assert parked.read_entire_tape() > fresh.read_entire_tape()

    def test_ends_at_bot(self, drive):
        drive.read_entire_tape()
        assert drive.position == 0


class TestEvents:
    def test_log_records_operations(self, drive):
        drive.locate(30)
        drive.read(2)
        drive.rewind()
        kinds = [event.kind for event in drive.events]
        assert kinds == [EventKind.LOCATE, EventKind.READ, EventKind.REWIND]

    def test_events_are_contiguous(self, drive):
        drive.service(40, 3)
        drive.locate(7)
        events = drive.events
        for earlier, later in zip(events, events[1:]):
            assert later.start_seconds == pytest.approx(
                earlier.end_seconds
            )

    def test_event_dataclass(self):
        event = DriveEvent(EventKind.LOCATE, 1.0, 2.5, 0, 9)
        assert event.end_seconds == pytest.approx(3.5)

    def test_disabled_log_is_empty(self, tiny_model):
        drive = SimulatedDrive(tiny_model, record_events=False)
        drive.locate(5)
        assert drive.events == []


class TestHelpers:
    def test_service_combines_locate_and_read(self, drive, tiny_model):
        expected = tiny_model.locate_time(0, 25) + SEGMENT_TRANSFER_SECONDS
        assert drive.service(25) == pytest.approx(expected)
        assert drive.position == 26

    def test_what_if_does_not_move_head(self, drive):
        times = drive.locate_times_from_here([5, 10, 15])
        assert times.shape == (3,)
        assert drive.position == 0
        assert drive.clock_seconds == 0.0

    def test_initial_position_validated(self, tiny_model, tiny):
        with pytest.raises(SegmentOutOfRange):
            SimulatedDrive(tiny_model, initial_position=tiny.total_segments)
