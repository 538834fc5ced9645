"""Deterministic fault injection at the drive boundary."""

import pytest

from repro.drive import SimulatedDrive
from repro.exceptions import DriveReset, LocateFault, ReadFault
from repro.obs import EventBus
from repro.resilience import FaultInjector, FaultPlan


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"locate_fault_probability": -0.1},
            {"locate_fault_probability": 1.1},
            {"read_fault_probability": 2.0},
            {"reset_probability": -1.0},
            {"locate_fault_probability": 0.7, "reset_probability": 0.5},
            {"locate_penalty_seconds": -1.0},
            {"reset_penalty_seconds": -1.0},
            {"read_penalty_seconds": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_any_faults(self):
        assert not FaultPlan().any_faults
        assert FaultPlan(locate_fault_probability=0.1).any_faults
        assert FaultPlan(read_fault_probability=0.1).any_faults
        assert FaultPlan(reset_probability=0.1).any_faults


class TestTransparency:
    def test_zero_rates_change_nothing(self, tiny_model):
        plain = SimulatedDrive(tiny_model)
        wrapped = FaultInjector(SimulatedDrive(tiny_model), FaultPlan())
        for segment in (5, 120, 3, 77):
            assert wrapped.locate(segment) == plain.locate(segment)
            assert wrapped.read() == plain.read()
        assert wrapped.position == plain.position
        assert wrapped.clock_seconds == plain.clock_seconds
        assert wrapped.rewind() == plain.rewind()
        assert wrapped.faults_injected == 0

    def test_proxied_state(self, tiny_model, tiny):
        wrapped = FaultInjector(SimulatedDrive(tiny_model), FaultPlan())
        assert wrapped.geometry is tiny
        assert wrapped.model is tiny_model

    def test_service_composes_locate_and_read(self, tiny_model):
        wrapped = FaultInjector(SimulatedDrive(tiny_model), FaultPlan())
        plain = SimulatedDrive(tiny_model)
        assert wrapped.service(42, 2) == plain.locate(42) + plain.read(2)


class TestInjection:
    def _faulting(self, model, **kwargs):
        return FaultInjector(
            SimulatedDrive(model), FaultPlan(**kwargs)
        )

    def _first_locate_fault(self, injector, segments):
        for segment in segments:
            try:
                injector.locate(segment)
            except LocateFault as fault:
                return segment, fault
        pytest.fail("no locate fault injected over the sweep")

    def test_locate_fault_carries_context_and_charges_time(
        self, tiny_model
    ):
        injector = self._faulting(
            tiny_model, locate_fault_probability=0.3, seed=5
        )
        before_position = None
        for segment in range(0, 200, 7):
            before_clock = injector.clock_seconds
            before_position = injector.position
            try:
                injector.locate(segment)
            except LocateFault as fault:
                assert fault.segment == segment
                assert fault.position == before_position
                assert fault.penalty_seconds > 0
                assert injector.clock_seconds == pytest.approx(
                    before_clock + fault.penalty_seconds
                )
                # Head did not move.
                assert injector.position == before_position
                assert injector.fault_counts["locate"] >= 1
                return
        pytest.fail("no locate fault injected over the sweep")

    def test_read_fault_keeps_head_and_charges_transfer(
        self, tiny_model
    ):
        injector = self._faulting(
            tiny_model, read_fault_probability=0.5, seed=3
        )
        injector.locate(10)
        for _ in range(50):
            before_clock = injector.clock_seconds
            position = injector.position
            try:
                injector.read()
            except ReadFault as fault:
                assert fault.segment == position
                assert fault.penalty_seconds == pytest.approx(
                    tiny_model.segment_transfer_seconds
                )
                assert injector.position == position
                assert injector.clock_seconds == pytest.approx(
                    before_clock + fault.penalty_seconds
                )
                return
        pytest.fail("no read fault injected over the sweep")

    def test_reset_rewinds_to_bot(self, tiny_model):
        injector = self._faulting(
            tiny_model, reset_probability=0.4, seed=7
        )
        injector.inner.locate(150)
        for segment in range(0, 300, 11):
            try:
                injector.locate(segment)
            except DriveReset as fault:
                assert injector.position == 0
                assert fault.penalty_seconds == pytest.approx(30.0)
                assert injector.fault_counts["reset"] >= 1
                return
        pytest.fail("no reset injected over the sweep")

    def test_runs_replay_identically(self, tiny_model):
        def trace(seed):
            injector = self._faulting(
                tiny_model,
                locate_fault_probability=0.2,
                read_fault_probability=0.1,
                seed=seed,
            )
            outcomes = []
            for segment in range(0, 150, 5):
                try:
                    injector.locate(segment)
                    injector.read()
                    outcomes.append("ok")
                except LocateFault:
                    outcomes.append("locate")
                except ReadFault:
                    outcomes.append("read")
            return outcomes, injector.clock_seconds

        assert trace(9) == trace(9)
        assert trace(9) != trace(10)

    def test_retry_sees_a_fresh_draw(self, tiny_model):
        injector = self._faulting(
            tiny_model, locate_fault_probability=0.3, seed=5
        )
        segment, _ = self._first_locate_fault(
            injector, range(0, 200, 7)
        )
        # The fault is transient: enough immediate retries of the same
        # locate eventually succeed (each consumes a fresh draw).
        for _ in range(64):
            try:
                injector.locate(segment)
                break
            except LocateFault:
                continue
        assert injector.position == segment

    def test_faults_publish_events(self, tiny_model):
        bus = EventBus()
        collected = bus.collect("fault.injected")
        injector = FaultInjector(
            SimulatedDrive(tiny_model),
            FaultPlan(locate_fault_probability=0.3, seed=5),
            bus=bus,
        )
        for segment in range(0, 200, 7):
            try:
                injector.locate(segment)
            except LocateFault:
                pass
        assert len(collected) == injector.faults_injected > 0
        event = collected[0]
        assert event.kind == "locate"
        assert event.penalty_seconds > 0

    def test_wait_advances_only_the_clock(self, tiny_model):
        injector = self._faulting(tiny_model)
        clock = injector.clock_seconds
        injector.wait(4.5)
        assert injector.clock_seconds == pytest.approx(clock + 4.5)
        assert injector.inner.clock_seconds == pytest.approx(clock)
        with pytest.raises(ValueError):
            injector.wait(-1.0)

    def test_out_of_range_segment_still_checked(self, tiny_model, tiny):
        injector = self._faulting(
            tiny_model, locate_fault_probability=0.5
        )
        with pytest.raises(Exception):
            injector.locate(tiny.total_segments + 10)
