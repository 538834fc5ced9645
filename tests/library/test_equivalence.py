"""Single-drive equivalence: the kernel reproduces the paper's loop.

A 1-drive, 1-cartridge :class:`~repro.library.MultiDriveSystem` with
the cartridge preloaded must be **bit-identical** to the single-drive
:class:`~repro.online.TertiaryStorageSystem` on the same workload —
same response-time samples, same batch boundaries, same failure set.
This is the contract that lets the multi-drive kernel claim it
*generalizes* the paper's serving loop rather than approximating it.
Both loops run the same batch step
(:class:`~repro.online.system.BatchStep`), so with a bus attached they
also publish the same events, and the two staging-cache tiers over
them serve the same hits.

The comparison is exact (``==`` on floats): both paths are
deterministic, so any divergence is an ordering or accounting bug in
the event kernel, not noise.  A fixed workload is additionally frozen
as a golden JSON fixture (regenerate with ``--regen-golden`` after an
intentional change).
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CachedLibrarySystem,
    CachedTertiaryStorageSystem,
    SegmentCache,
)
from repro.geometry import tiny_tape
from repro.library import Cartridge, LibraryRequest, MultiDriveSystem
from repro.obs import EventBus
from repro.online import BatchPolicy, TertiaryStorageSystem
from repro.resilience import FaultPlan
from repro.scheduling import get_scheduler
from repro.workload.arrivals import TimedRequest

GOLDEN_PATH = Path(__file__).parent / "golden" / "equivalence.json"

LABEL = "only"


def workload(seed, count, horizon_seconds, total_segments, hot_set=None):
    """A deterministic request stream (arrival-sorted, uniform targets;
    with ``hot_set``, targets repeat within that many segments)."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, horizon_seconds, size=count))
    if hot_set is None:
        segments = rng.integers(0, total_segments, size=count)
    else:
        hot = rng.choice(total_segments, size=hot_set, replace=False)
        segments = hot[rng.integers(0, hot_set, size=count)]
    return [
        LibraryRequest(
            arrival_seconds=float(arrivals[k]),
            label=LABEL,
            segment=int(segments[k]),
        )
        for k in range(count)
    ]


def run_both(requests, geometry, algorithm="LOSS", policy=None,
             fault_plan=None, buses=(None, None), cache_segments=None):
    """Run the same workload through both serving paths.

    ``buses`` instruments the single-drive and the library path;
    ``cache_segments`` puts a staging cache of that many segments in
    front of each (the single-drive tier and the library tier).
    """
    policy = policy or BatchPolicy(max_batch=16)
    single_bus, multi_bus = buses
    common = dict(policy=policy, fault_plan=fault_plan)
    multi = MultiDriveSystem(
        [Cartridge(LABEL, geometry)],
        drives=1,
        scheduler=get_scheduler(algorithm),
        bus=multi_bus,
        preload=[LABEL],
        **common,
    )
    if cache_segments is None:
        single = TertiaryStorageSystem(
            geometry=geometry,
            scheduler=get_scheduler(algorithm),
            bus=single_bus,
            **common,
        )
    else:
        single = CachedTertiaryStorageSystem(
            geometry=geometry,
            scheduler=get_scheduler(algorithm),
            bus=single_bus,
            cache=SegmentCache(cache_segments),
            **common,
        )
        multi = CachedLibrarySystem(
            system=multi, cache=SegmentCache(cache_segments)
        )
    single_stats = single.run(
        [request.timed() for request in requests]
    )
    multi_stats = multi.run(requests)
    return single, single_stats, multi, multi_stats


class TestSingleDriveEquivalence:
    @given(workload_seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=12, deadline=None)
    def test_samples_are_bit_identical(self, workload_seed):
        geometry = tiny_tape(seed=3)
        requests = workload(
            workload_seed, count=30, horizon_seconds=2000.0,
            total_segments=geometry.total_segments,
        )
        _, single_stats, multi, multi_stats = run_both(
            requests, geometry
        )
        assert multi_stats.samples == single_stats.samples
        assert multi.exchanges == 0
        assert multi.lost == 0

    @pytest.mark.parametrize("algorithm", ["FIFO", "SLTF", "SCAN", "LOSS"])
    def test_holds_for_every_scheduler(self, algorithm):
        geometry = tiny_tape(seed=5)
        requests = workload(
            7, count=24, horizon_seconds=1500.0,
            total_segments=geometry.total_segments,
        )
        single, single_stats, multi, multi_stats = run_both(
            requests, geometry, algorithm=algorithm
        )
        assert multi_stats.samples == single_stats.samples
        assert [r.size for r in multi.batches] == [
            r.size for r in single.batches
        ]
        assert [r.start_seconds for r in multi.batches] == [
            r.start_seconds for r in single.batches
        ]

    def test_holds_under_deadline_batching(self):
        geometry = tiny_tape(seed=3)
        policy = BatchPolicy(
            max_batch=8, max_wait_seconds=120.0, flush_when_idle=False
        )
        requests = workload(
            11, count=30, horizon_seconds=2500.0,
            total_segments=geometry.total_segments,
        )
        _, single_stats, _, multi_stats = run_both(
            requests, geometry, policy=policy
        )
        assert multi_stats.samples == single_stats.samples

    def test_holds_under_fault_injection(self):
        # _derived_seed(seed, 0, 0) == seed: the preloaded drive draws
        # the exact fault stream of the single-drive FaultInjector.
        geometry = tiny_tape(seed=3)
        plan = FaultPlan(locate_fault_probability=0.3, seed=17)
        requests = workload(
            13, count=24, horizon_seconds=2000.0,
            total_segments=geometry.total_segments,
        )
        single, single_stats, multi, multi_stats = run_both(
            requests, geometry, fault_plan=plan
        )
        assert multi_stats.samples == single_stats.samples
        assert [r.segment for r in multi.failed] == [
            r.segment for r in single.failed
        ]
        assert multi.requeues == single.requeues

    def test_batch_records_match_field_for_field(self):
        geometry = tiny_tape(seed=3)
        requests = workload(
            19, count=20, horizon_seconds=1500.0,
            total_segments=geometry.total_segments,
        )
        single, _, multi, _ = run_both(requests, geometry)
        assert len(multi.batches) == len(single.batches)
        for ours, theirs in zip(multi.batches, single.batches):
            assert ours.start_seconds == theirs.start_seconds
            assert ours.size == theirs.size
            assert ours.execution_seconds == theirs.execution_seconds
            assert ours.queue_wait_seconds == theirs.queue_wait_seconds
            assert ours.locate_seconds == theirs.locate_seconds
            assert ours.rewind_seconds == theirs.rewind_seconds
            assert ours.drive == 0
            assert ours.label == LABEL


    @pytest.mark.parametrize(
        "fault_plan",
        [None, FaultPlan(locate_fault_probability=0.3, seed=17)],
        ids=["clean", "locate-faults"],
    )
    def test_bus_streams_match_kind_by_kind(self, fault_plan):
        # Both loops run one batch step, so per event kind they publish
        # the same sequence.  Only the queue.admit stamp differs: the
        # batch loop stamps an admission where it admits (a request
        # arriving mid-batch is admitted at the batch end), the kernel
        # at arrival.
        geometry = tiny_tape(seed=3)
        requests = workload(
            13, count=60, horizon_seconds=3000.0,
            total_segments=geometry.total_segments,
        )
        buses = (EventBus(), EventBus())
        single_events, multi_events = (bus.collect() for bus in buses)
        run_both(requests, geometry, fault_plan=fault_plan, buses=buses)

        def by_kind(events):
            kinds = defaultdict(list)
            for event in events:
                if event.name == "queue.admit":
                    event = dataclasses.replace(event, seconds=0.0)
                kinds[event.name].append(repr(event))
            return kinds

        single_kinds, multi_kinds = by_kind(single_events), by_kind(
            multi_events
        )
        assert sorted(multi_kinds) == sorted(single_kinds)
        for kind, events in single_kinds.items():
            assert multi_kinds[kind] == events, kind
        if fault_plan is not None:
            assert single_kinds["request.retry"]


class TestCachedEquivalence:
    """The two staging tiers over the two loops serve the same hits."""

    @given(
        workload_seed=st.integers(min_value=0, max_value=40),
        faults=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_samples_and_cache_stats_match(self, workload_seed, faults):
        geometry = tiny_tape(seed=3)
        requests = workload(
            workload_seed, count=60, horizon_seconds=4000.0,
            total_segments=geometry.total_segments, hot_set=25,
        )
        plan = (
            FaultPlan(locate_fault_probability=0.2, seed=workload_seed)
            if faults else None
        )
        single, single_stats, multi, multi_stats = run_both(
            requests, geometry, fault_plan=plan, cache_segments=40,
        )
        assert sorted(multi_stats.samples) == sorted(single_stats.samples)
        assert multi.cache_stats == single.cache_stats
        assert single.cache_stats.hits > 0
        assert multi.lost == 0


class TestGoldenEquivalence:
    """One fixed workload's samples, frozen bit-for-bit."""

    def _records(self):
        geometry = tiny_tape(seed=3)
        requests = workload(
            23, count=40, horizon_seconds=3000.0,
            total_segments=geometry.total_segments,
        )
        single, single_stats, multi, multi_stats = run_both(
            requests, geometry
        )
        assert multi_stats.samples == single_stats.samples
        return json.loads(
            json.dumps(
                {
                    "samples": list(multi_stats.samples),
                    "batch_sizes": [r.size for r in multi.batches],
                    "batch_starts": [
                        r.start_seconds for r in multi.batches
                    ],
                    "makespan_seconds": multi.clock_seconds,
                }
            )
        )

    def test_matches_the_frozen_fixture(self, regen_golden):
        records = self._records()
        if regen_golden:
            GOLDEN_PATH.parent.mkdir(exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(records, indent=1) + "\n"
            )
        if not GOLDEN_PATH.exists():
            pytest.fail(
                f"golden fixture {GOLDEN_PATH} is missing; generate "
                "it with pytest tests/library/test_equivalence.py "
                "--regen-golden"
            )
        frozen = json.loads(GOLDEN_PATH.read_text())
        assert records == frozen, (
            "single-drive equivalence output drifted from its golden "
            "fixture; if intentional, rerun with --regen-golden"
        )


class TestBeyondOneDrive:
    def test_two_drives_beat_one_on_a_two_tape_load(self):
        tapes = [
            Cartridge("a", tiny_tape(seed=1)),
            Cartridge("b", tiny_tape(seed=2)),
        ]
        rng = np.random.default_rng(29)
        requests = [
            LibraryRequest(
                arrival_seconds=float(t),
                label="a" if k % 2 == 0 else "b",
                segment=int(rng.integers(0, 300)),
            )
            for k, t in enumerate(
                np.sort(rng.uniform(0.0, 1200.0, size=24))
            )
        ]
        one = MultiDriveSystem(tapes, drives=1)
        two = MultiDriveSystem(tapes, drives=2)
        slow = one.run(list(requests))
        fast = two.run(list(requests))
        assert fast.mean_seconds < slow.mean_seconds
        assert one.lost == 0 and two.lost == 0
