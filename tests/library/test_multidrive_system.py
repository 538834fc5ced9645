"""The event-driven multi-drive system."""

import pytest

from repro.exceptions import LibraryError, UnknownTape
from repro.geometry import tiny_tape
from repro.library import (
    Cartridge,
    LeastLoadedAssignment,
    LibraryRequest,
    MultiDriveSystem,
    PreemptOnDeadlineExchange,
)
from repro.library.drives import DriveState
from repro.library.system import _derived_seed
from repro.obs.bus import EventBus
from repro.obs.metrics import bind_standard_metrics
from repro.online import BatchPolicy
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy


def shelf(count=3):
    return [
        Cartridge(f"tape-{index}", tiny_tape(seed=index + 1))
        for index in range(count)
    ]


def burst(labels, per_tape=4, spacing_seconds=10.0, segments=(5, 42, 99, 150)):
    """A deterministic arrival burst over the given tapes."""
    requests = []
    for tape_index, label in enumerate(labels):
        for k in range(per_tape):
            requests.append(
                LibraryRequest(
                    arrival_seconds=spacing_seconds * (
                        k * len(labels) + tape_index
                    ),
                    label=label,
                    segment=segments[k % len(segments)],
                )
            )
    return requests


class TestConstruction:
    def test_requires_a_drive(self):
        with pytest.raises(LibraryError, match="drives"):
            MultiDriveSystem(shelf(1), drives=0)

    def test_requires_a_cartridge(self):
        with pytest.raises(LibraryError, match="cartridge"):
            MultiDriveSystem([], drives=1)

    def test_duplicate_labels_rejected(self):
        tapes = [
            Cartridge("x", tiny_tape(seed=1)),
            Cartridge("x", tiny_tape(seed=2)),
        ]
        with pytest.raises(LibraryError, match="unique"):
            MultiDriveSystem(tapes, drives=1)

    def test_preload_cannot_exceed_the_bays(self):
        with pytest.raises(LibraryError, match="preload"):
            MultiDriveSystem(
                shelf(3), drives=2,
                preload=["tape-0", "tape-1", "tape-2"],
            )

    def test_preload_rejects_duplicates(self):
        with pytest.raises(LibraryError, match="twice"):
            MultiDriveSystem(
                shelf(2), drives=2, preload=["tape-0", "tape-0"]
            )

    def test_preload_is_free_and_ready(self):
        system = MultiDriveSystem(
            shelf(2), drives=2, preload=["tape-1"]
        )
        assert system.bays[0].label == "tape-1"
        assert system.bays[0].state is DriveState.IDLE
        assert system.bays[1].state is DriveState.EMPTY
        assert system.exchanges == 0
        assert system.clock_seconds == 0.0

    def test_fault_plan_implies_resilience(self):
        system = MultiDriveSystem(
            shelf(1), drives=1,
            fault_plan=FaultPlan(locate_fault_probability=0.1),
        )
        assert system.resilience is not None


class TestLookups:
    def test_labels_sorted(self):
        system = MultiDriveSystem(shelf(3), drives=1)
        assert system.labels() == ["tape-0", "tape-1", "tape-2"]

    def test_unknown_cartridge(self):
        system = MultiDriveSystem(shelf(1), drives=1)
        with pytest.raises(UnknownTape):
            system.cartridge("nope")
        with pytest.raises(UnknownTape):
            system.queue_depth("nope")

    def test_unknown_request_label_rejected_up_front(self):
        system = MultiDriveSystem(shelf(1), drives=1)
        with pytest.raises(UnknownTape, match="ghost"):
            system.run([LibraryRequest(0.0, "ghost", 1)])

    def test_run_is_once_only(self):
        system = MultiDriveSystem(shelf(1), drives=1)
        system.run([LibraryRequest(0.0, "tape-0", 5)])
        with pytest.raises(LibraryError, match="already ran"):
            system.run([LibraryRequest(0.0, "tape-0", 5)])


class TestServing:
    def test_serves_every_request(self):
        system = MultiDriveSystem(shelf(3), drives=2)
        requests = burst(system.labels())
        stats = system.run(requests)
        assert stats.count == len(requests)
        assert system.completed == len(requests)
        assert system.lost == 0
        assert not system.failed
        assert system.clock_seconds > 0.0

    def test_bay_accounting_reconciles(self):
        system = MultiDriveSystem(shelf(3), drives=2)
        system.run(burst(system.labels()))
        assert sum(bay.batches for bay in system.bays) == len(
            system.batches
        )
        assert sum(bay.mounts for bay in system.bays) == (
            system.exchanges
        )
        total_busy = sum(bay.busy_seconds for bay in system.bays)
        assert total_busy == pytest.approx(
            sum(r.execution_seconds for r in system.batches)
        )
        for bay in system.bays:
            assert bay.state in (DriveState.IDLE, DriveState.EMPTY)

    @pytest.mark.parametrize("preempt", [False, True])
    def test_available_bay_count_tracks_every_transition(self, preempt):
        system = MultiDriveSystem(
            shelf(3),
            drives=2,
            preload=["tape-1"],
            exchange=(
                PreemptOnDeadlineExchange(preempt_wait_seconds=30.0)
                if preempt else None
            ),
            policy=BatchPolicy(max_batch=2, flush_when_idle=False),
        )

        def counted() -> int:
            return sum(bay.available for bay in system.bays)

        assert system._available_bays == counted() == 2
        pump = system._pump
        seen = []

        def checked_pump(force=False):
            seen.append((system._available_bays, counted()))
            return pump(force)

        system._pump = checked_pump
        system.run(burst(system.labels(), per_tape=6, spacing_seconds=3.0))
        assert system.lost == 0
        assert seen and all(kept == actual for kept, actual in seen)
        # Some pumps found every bay busy.
        assert any(kept == 0 for kept, _ in seen)
        assert system._available_bays == counted() == 2

    def test_batch_records_carry_bay_and_tape(self):
        system = MultiDriveSystem(shelf(2), drives=2)
        system.run(burst(system.labels(), per_tape=3))
        assert system.batches
        for record in system.batches:
            assert 0 <= record.drive < 2
            assert record.label in ("tape-0", "tape-1")
            assert record.size > 0

    def test_every_tape_gets_mounted(self):
        system = MultiDriveSystem(shelf(3), drives=2)
        system.run(burst(system.labels()))
        served = {record.label for record in system.batches}
        assert served == set(system.labels())

    def test_a_tape_is_never_mounted_twice_at_once(self):
        bus = EventBus()
        mounts = bus.collect("library.mount")
        unmounts = bus.collect("library.unmount")
        system = MultiDriveSystem(shelf(2), drives=2, bus=bus)
        system.run(burst(system.labels(), per_tape=6))
        timeline = sorted(
            [(e.seconds, 1, e.label) for e in mounts]
            + [(e.seconds, -1, e.label) for e in unmounts]
        )
        mounted = set()
        for _, delta, label in timeline:
            if delta > 0:
                assert label not in mounted
                mounted.add(label)
            else:
                mounted.discard(label)

    def test_more_drives_do_not_slow_the_library(self):
        requests = burst(
            [f"tape-{i}" for i in range(4)], per_tape=4
        )
        tapes = shelf(4)
        single = MultiDriveSystem(tapes, drives=1)
        quad = MultiDriveSystem(tapes, drives=4)
        slow = single.run(list(requests))
        fast = quad.run(list(requests))
        assert fast.mean_seconds < slow.mean_seconds
        assert quad.clock_seconds < single.clock_seconds


class TestRobotContention:
    def test_simultaneous_mounts_serialize_on_the_arm(self):
        bus = EventBus()
        waits = bus.collect("library.mount_wait")
        system = MultiDriveSystem(
            shelf(4), drives=4, exchange_seconds=30.0, bus=bus
        )
        # Four tapes all want a bay at t=0; one arm serves them FIFO.
        system.run(
            [
                LibraryRequest(0.0, label, 5)
                for label in system.labels()
            ]
        )
        assert sorted(e.wait_seconds for e in waits) == [
            pytest.approx(30.0 * (k + 1)) for k in range(4)
        ]
        # Each individual job occupied the arm for one exchange.
        for event in waits:
            assert event.robot_seconds == pytest.approx(30.0)
        assert system.lost == 0


class TestPolicies:
    def test_least_loaded_mounts_the_deepest_queue_first(self):
        bus = EventBus()
        mounts = bus.collect("library.mount")
        system = MultiDriveSystem(
            shelf(3),
            drives=1,
            assignment=LeastLoadedAssignment(),
            preload=["tape-2"],
            bus=bus,
        )
        # While the bay executes tape-2's batch, tape-0 (first, but
        # shallow) and tape-1 (deeper) accumulate; the exchange choice
        # happens at batch completion, when both queues are visible.
        system.run(
            [
                LibraryRequest(0.0, "tape-2", 150),
                LibraryRequest(0.1, "tape-0", 5),
                LibraryRequest(0.2, "tape-1", 5),
                LibraryRequest(0.3, "tape-1", 42),
                LibraryRequest(0.4, "tape-1", 99),
            ]
        )
        # Preloads don't publish: the first mount event is the robot's
        # first exchange, and least-loaded takes the deeper tape-1
        # even though tape-0's request is older.
        assert mounts[0].label == "tape-1"
        assert system.lost == 0

    def test_drain_keeps_the_mounted_tape(self):
        system = MultiDriveSystem(
            shelf(2),
            drives=1,
            policy=BatchPolicy(max_batch=4, flush_when_idle=False),
            preload=["tape-0"],
        )
        system.run(
            [
                LibraryRequest(0.0, "tape-0", 5),
                LibraryRequest(0.0, "tape-1", 5),
                LibraryRequest(1000.0, "tape-1", 42),
            ]
        )
        # The bay never gives up tape-0 while it has queued work: one
        # exchange total (tape-1, after tape-0 drains).
        assert system.exchanges == 1
        assert system.lost == 0

    def test_preempt_releases_a_starved_tape(self):
        bus = EventBus()
        mounts = bus.collect("library.mount")
        system = MultiDriveSystem(
            shelf(2),
            drives=1,
            exchange=PreemptOnDeadlineExchange(
                preempt_wait_seconds=900.0
            ),
            policy=BatchPolicy(max_batch=4, flush_when_idle=False),
            preload=["tape-0"],
            bus=bus,
        )
        system.run(
            [
                LibraryRequest(0.0, "tape-0", 5),
                LibraryRequest(0.0, "tape-1", 5),
                LibraryRequest(1000.0, "tape-1", 42),
            ]
        )
        # At t=1000 tape-1's oldest request has waited past 900s, so
        # the bay abandons tape-0 (still holding a queued request) and
        # mounts tape-1; tape-0 is re-mounted during the final drain.
        assert [event.label for event in mounts][:1] == ["tape-1"]
        assert system.exchanges == 2
        assert system.lost == 0


class TestDeadlines:
    def test_max_wait_triggers_the_dispatch(self):
        system = MultiDriveSystem(
            shelf(1),
            drives=1,
            policy=BatchPolicy(
                max_batch=96,
                max_wait_seconds=100.0,
                flush_when_idle=False,
            ),
            preload=["tape-0"],
        )
        system.run(
            [
                LibraryRequest(0.0, "tape-0", 5),
                LibraryRequest(1.0, "tape-0", 42),
            ]
        )
        assert len(system.batches) == 1
        # The batch went out at the oldest request's deadline, not at
        # the end-of-run drain.
        assert system.batches[0].start_seconds == pytest.approx(100.0)
        assert system.lost == 0


class TestResilience:
    def test_faulty_run_still_serves_everything(self):
        system = MultiDriveSystem(
            shelf(2),
            drives=2,
            fault_plan=FaultPlan(locate_fault_probability=0.2, seed=9),
        )
        requests = burst(system.labels())
        stats = system.run(requests)
        assert stats.count == len(requests)
        assert system.lost == 0
        assert not system.failed

    def test_exhausted_requeues_surface_as_failed(self):
        bus = EventBus()
        failures = bus.collect("request.failed")
        system = MultiDriveSystem(
            shelf(1),
            drives=1,
            preload=["tape-0"],
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), max_requeues=0
            ),
            fault_plan=FaultPlan(read_fault_probability=1.0),
            bus=bus,
        )
        requests = [
            LibraryRequest(0.0, "tape-0", 5),
            LibraryRequest(0.0, "tape-0", 42),
        ]
        stats = system.run(requests)
        assert stats.count == 0
        assert len(system.failed) == len(requests)
        assert system.lost == 0
        # The executor publishes per-attempt failures too; the
        # system-level ones are the requeue-budget exhaustions.
        requeue_failures = [
            e for e in failures if "requeue" in e.reason
        ]
        assert len(requeue_failures) == len(requests)

    def test_requeues_are_counted(self):
        system = MultiDriveSystem(
            shelf(1),
            drives=1,
            preload=["tape-0"],
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), max_requeues=2
            ),
            fault_plan=FaultPlan(read_fault_probability=1.0),
        )
        system.run([LibraryRequest(0.0, "tape-0", 5)])
        assert system.requeues == 2
        assert len(system.failed) == 1
        assert system.lost == 0


class TestObservability:
    def test_standard_metrics_cover_the_library(self):
        bus = EventBus()
        registry = bind_standard_metrics(bus)
        system = MultiDriveSystem(shelf(2), drives=2, bus=bus)
        requests = burst(system.labels())
        system.run(requests)
        snapshot = registry.as_dict()
        assert snapshot["library.mount_wait_seconds"]["count"] == (
            system.exchanges
        )
        assert snapshot["robot.busy_seconds"] == pytest.approx(
            system.robot.busy_seconds
        )
        assert (
            registry.histogram("request.response_seconds").count
            == len(requests)
        )
        per_drive = sum(
            snapshot[f"drive.{bay.index}.busy_seconds"]
            for bay in system.bays
        )
        assert per_drive == pytest.approx(
            sum(bay.busy_seconds for bay in system.bays)
        )

    def test_mount_wait_decomposes_into_robot_time(self):
        bus = EventBus()
        waits = bus.collect("library.mount_wait")
        system = MultiDriveSystem(shelf(3), drives=2, bus=bus)
        system.run(burst(system.labels()))
        assert len(waits) == system.exchanges
        for event in waits:
            # Wait covers at least the arm's own handling time; the
            # surplus is queueing behind other exchanges.
            assert (
                event.wait_seconds >= event.robot_seconds - 1e-9
            )


class TestDerivedSeeds:
    def test_first_mount_on_bay_zero_keeps_the_seed(self):
        assert _derived_seed(1234, 0, 0) == 1234

    def test_other_mounts_get_distinct_streams(self):
        seeds = {
            _derived_seed(1234, drive, mount)
            for drive in range(3)
            for mount in range(3)
        }
        assert len(seeds) == 9
        for seed in seeds:
            assert 0 <= seed < 2**64
