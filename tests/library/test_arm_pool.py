"""The arm pool: golden bit-identity at K=1, invariants at K>1.

The refactor from one shared :class:`RobotArm` to an
:class:`ArmPool` claims a 1-arm pool is **bit-identical** to the seed
library — same response samples, same batch boundaries, same failure
set, same robot accounting, at the same instants.  The golden fixture
(``golden/arm_pool.json``) was captured from the pre-refactor seed and
is replayed here against the pool; the Hypothesis property widens the
same claim across workloads and arm policies (with one arm, every
policy must degenerate to "the one arm").

Multi-arm runs cannot be pinned to the seed — they are the point of
the refactor — so they are checked against invariants instead: no
request is ever lost, exchange and busy-time accounting sums over the
arms, and occupancies stay within [0, 1].
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import LibraryError
from repro.geometry import tiny_tape
from repro.library import (
    ArmPool,
    ArmView,
    Cartridge,
    DedicatedBayArms,
    LeastBusyArms,
    LibraryRequest,
    MultiDriveSystem,
    RoundRobinArms,
    arm_policy_names,
    get_arm_policy,
)
from repro.library.kernel import EventKernel
from repro.library.policies import get_assignment_policy, get_exchange_policy
from repro.library.robot import ExchangeJob
from repro.online import BatchPolicy
from repro.resilience import FaultPlan
from repro.scheduling import get_scheduler

GOLDEN_PATH = Path(__file__).parent / "golden" / "arm_pool.json"

GOLDEN_CASES = [
    dict(drives=1, algorithm="LOSS", assignment="affinity",
         exchange="drain", fault=False, seed=3),
    dict(drives=2, algorithm="LOSS", assignment="affinity",
         exchange="drain", fault=False, seed=5),
    dict(drives=4, algorithm="LOSS", assignment="affinity",
         exchange="drain", fault=False, seed=7),
    dict(drives=4, algorithm="SLTF", assignment="least-loaded",
         exchange="drain", fault=False, seed=9),
    dict(drives=2, algorithm="SCAN", assignment="affinity",
         exchange="preempt", fault=False, seed=13),
    dict(drives=4, algorithm="LOSS", assignment="affinity",
         exchange="drain", fault=True, seed=17),
    dict(drives=2, algorithm="FIFO", assignment="least-loaded",
         exchange="preempt", fault=True, seed=19),
]


def workload(seed, count, horizon_seconds, labels, total_segments):
    """The golden capture's request stream (arrival-sorted, uniform)."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, horizon_seconds, size=count))
    segments = rng.integers(0, total_segments, size=count)
    picks = rng.integers(0, len(labels), size=count)
    return [
        LibraryRequest(
            arrival_seconds=float(arrivals[k]),
            label=labels[int(picks[k])],
            segment=int(segments[k]),
        )
        for k in range(count)
    ]


def run_case(drives, algorithm, assignment, exchange, fault, seed,
             arms=1, arm_policy=None):
    """One golden-capture scenario through the current system."""
    tapes = [Cartridge(f"t{i}", tiny_tape(seed=i + 1)) for i in range(5)]
    labels = [c.label for c in tapes]
    total = min(c.geometry.total_segments for c in tapes)
    requests = workload(seed, 40, 4000.0, labels, total)
    plan = (
        FaultPlan(locate_fault_probability=0.25, seed=11) if fault else None
    )
    system = MultiDriveSystem(
        tapes,
        drives=drives,
        arms=arms,
        arm_assignment=arm_policy,
        scheduler=get_scheduler(algorithm),
        policy=BatchPolicy(max_batch=8),
        assignment=get_assignment_policy(assignment),
        exchange=get_exchange_policy(exchange),
        fault_plan=plan,
    )
    stats = system.run(requests)
    return system, stats, requests


def record(system, stats):
    """The golden fixture's observable surface for one run."""
    return {
        "samples": list(stats.samples),
        "batch_sizes": [r.size for r in system.batches],
        "batch_starts": [r.start_seconds for r in system.batches],
        "batch_drives": [r.drive for r in system.batches],
        "failed_segments": sorted(r.segment for r in system.failed),
        "exchanges": system.exchanges,
        "robot_busy_seconds": system.robot.busy_seconds,
        "makespan_seconds": system.clock_seconds,
        "lost": system.lost,
    }


def case_key(case):
    return (
        f"d{case['drives']}-{case['algorithm']}-{case['assignment']}-"
        f"{case['exchange']}-{'fault' if case['fault'] else 'clean'}-"
        f"s{case['seed']}"
    )


class TestGoldenBitIdentity:
    def test_one_arm_matches_the_seed_fixture(self, regen_golden):
        records = {
            case_key(case): record(*run_case(**case)[:2])
            for case in GOLDEN_CASES
        }
        if regen_golden:
            GOLDEN_PATH.write_text(json.dumps(records, indent=1))
            pytest.skip("regenerated golden/arm_pool.json")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert set(records) == set(golden)
        for key in golden:
            # Exact equality on floats: the pre-refactor seed and the
            # 1-arm pool must produce the same event sequence at the
            # same instants, not merely close statistics.
            assert records[key] == golden[key], key


class TestOneArmPolicyIndifference:
    @given(
        workload_seed=st.integers(min_value=0, max_value=40),
        policy_name=st.sampled_from(sorted(arm_policy_names())),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_policy_degenerates_with_one_arm(
        self, workload_seed, policy_name
    ):
        base_system, base_stats, _ = run_case(
            drives=2, algorithm="LOSS", assignment="affinity",
            exchange="drain", fault=False, seed=workload_seed,
        )
        system, stats, _ = run_case(
            drives=2, algorithm="LOSS", assignment="affinity",
            exchange="drain", fault=False, seed=workload_seed,
            arms=1, arm_policy=get_arm_policy(policy_name),
        )
        assert stats.samples == base_stats.samples
        assert system.exchanges == base_system.exchanges
        assert system.robot.busy_seconds == base_system.robot.busy_seconds


class TestMultiArmInvariants:
    @given(
        workload_seed=st.integers(min_value=0, max_value=30),
        arms=st.integers(min_value=2, max_value=4),
        policy_name=st.sampled_from(sorted(arm_policy_names())),
    )
    @settings(max_examples=15, deadline=None)
    def test_no_request_is_lost_and_accounting_sums(
        self, workload_seed, arms, policy_name
    ):
        system, stats, requests = run_case(
            drives=4, algorithm="LOSS", assignment="affinity",
            exchange="drain", fault=False, seed=workload_seed,
            arms=arms, arm_policy=get_arm_policy(policy_name),
        )
        assert system.lost == 0
        assert stats.count + len(system.failed) == len(requests)
        pool = system.robot
        assert len(pool) == arms
        assert pool.exchanges == sum(a.exchanges for a in pool.arms)
        assert pool.busy_seconds == pytest.approx(
            sum(a.busy_seconds for a in pool.arms)
        )
        for occupancy in pool.occupancies(system.clock_seconds):
            assert 0.0 <= occupancy <= 1.0

    def test_two_arms_never_serve_slower_on_the_golden_cases(self):
        for case in GOLDEN_CASES[:3]:
            _, one_arm, _ = run_case(**case)
            _, two_arms, _ = run_case(**case, arms=2)
            if one_arm.count and two_arms.count:
                assert (
                    two_arms.mean_seconds
                    <= one_arm.mean_seconds + 1e-9
                ), case_key(case)


class TestArmPoolUnit:
    def test_rejects_zero_arms(self):
        with pytest.raises(LibraryError):
            ArmPool(EventKernel(), exchange_seconds=30.0, arms=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    def test_rejects_bad_exchange_seconds(self, bad):
        with pytest.raises(LibraryError, match="exchange_seconds"):
            ArmPool(EventKernel(), exchange_seconds=bad)
        with pytest.raises(LibraryError, match="exchange_seconds"):
            MultiDriveSystem(
                [Cartridge("t0", tiny_tape(seed=1))], exchange_seconds=bad
            )

    def test_rejects_out_of_range_policy_choice(self):
        class Bad:
            name = "bad"

            def choose(self, drive, arms):
                return len(arms)

        pool = ArmPool(
            EventKernel(), exchange_seconds=30.0, arms=2, assignment=Bad()
        )
        with pytest.raises(LibraryError):
            pool.submit(
                ExchangeJob(drive=0, label="t0", requested_seconds=0.0)
            )

    def test_least_busy_prefers_idle_then_low_busy_time(self):
        views = [
            ArmView(index=0, busy=True, queued=2, busy_seconds=10.0),
            ArmView(index=1, busy=False, queued=0, busy_seconds=50.0),
            ArmView(index=2, busy=False, queued=0, busy_seconds=5.0),
        ]
        assert LeastBusyArms().choose(0, views) == 2

    def test_round_robin_cycles(self):
        views = [
            ArmView(index=i, busy=False, queued=0, busy_seconds=0.0)
            for i in range(3)
        ]
        policy = RoundRobinArms()
        picks = [policy.choose(0, views) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_dedicated_partitions_by_bay(self):
        views = [
            ArmView(index=i, busy=False, queued=0, busy_seconds=0.0)
            for i in range(2)
        ]
        policy = DedicatedBayArms()
        assert [policy.choose(d, views) for d in range(4)] == [0, 1, 0, 1]

    def test_pool_spreads_jobs_across_arms(self):
        kernel = EventKernel()
        pool = ArmPool(kernel, exchange_seconds=30.0, arms=2)
        chosen = [
            pool.submit(
                ExchangeJob(
                    drive=d, label=f"t{d}", requested_seconds=0.0
                )
            ).index
            for d in range(2)
        ]
        assert chosen == [0, 1]  # second job lands on the idle arm
        kernel.run()
        assert pool.exchanges == 2
        # Both arms worked in parallel: the pool's summed busy time is
        # twice the makespan.
        assert kernel.now_seconds == pytest.approx(30.0)
        assert pool.busy_seconds == pytest.approx(60.0)
        assert pool.occupancies(30.0) == [
            pytest.approx(1.0),
            pytest.approx(1.0),
        ]
