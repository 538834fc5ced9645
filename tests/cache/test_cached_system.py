"""The cached online system (HSM front-end)."""

import math

import pytest

from repro.cache import (
    CachedTertiaryStorageSystem,
    GDSFPolicy,
    SegmentCache,
)
from repro.geometry import tiny_tape
from repro.online import BatchPolicy, TertiaryStorageSystem
from repro.workload import TimedRequest, ZipfArrivals, ZipfWorkload


@pytest.fixture()
def tape():
    return tiny_tape(seed=5)


def skewed_requests(tape, horizon_seconds=2 * 3600.0):
    workload = ZipfWorkload(
        total_segments=tape.total_segments,
        alpha=0.9,
        universe=80,
        seed=2,
    )
    return ZipfArrivals(
        rate_per_hour=300.0, workload=workload, seed=3
    ).batch(horizon_seconds)


class TestCachedSystem:
    def test_services_every_request(self, tape):
        requests = skewed_requests(tape)
        system = CachedTertiaryStorageSystem(
            geometry=tape,
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(32),
        )
        stats = system.run(requests)
        assert stats.count == len(requests)
        assert system.cache_stats.lookups == len(requests)

    def test_hits_complete_at_arrival(self, tape):
        system = CachedTertiaryStorageSystem(
            geometry=tape, cache=SegmentCache(8)
        )
        system.cache.admit(42)
        stats = system.run([TimedRequest(1.0, 42)])
        assert system.cache_stats.hits == 1
        assert stats.mean_seconds == 0.0

    def test_hit_latency_charged(self, tape):
        system = CachedTertiaryStorageSystem(
            geometry=tape,
            cache=SegmentCache(8),
            hit_latency_seconds=0.25,
        )
        system.cache.admit(42)
        stats = system.run([TimedRequest(1.0, 42)])
        assert stats.mean_seconds == pytest.approx(0.25)

    def test_negative_hit_latency_rejected(self, tape):
        with pytest.raises(ValueError):
            CachedTertiaryStorageSystem(
                geometry=tape, hit_latency_seconds=-1.0
            )

    def test_misses_are_staged_for_reuse(self, tape):
        system = CachedTertiaryStorageSystem(
            geometry=tape, cache=SegmentCache(16)
        )
        system.run([TimedRequest(0.0, 7), TimedRequest(5000.0, 7)])
        assert system.cache_stats.misses == 1
        assert system.cache_stats.hits == 1

    def test_beats_uncached_baseline_on_skewed_stream(self, tape):
        requests = skewed_requests(tape)
        baseline = TertiaryStorageSystem(
            geometry=tape, policy=BatchPolicy(max_batch=16)
        )
        base_stats = baseline.run(list(requests))
        cached = CachedTertiaryStorageSystem(
            geometry=tape,
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(16, policy=GDSFPolicy()),
        )
        cached_stats = cached.run(list(requests))
        assert cached.cache_stats.hits > 0
        assert cached_stats.mean_seconds < base_stats.mean_seconds

    def test_prefetch_toggle(self, tape):
        requests = skewed_requests(tape, horizon_seconds=3600.0)
        with_prefetch = CachedTertiaryStorageSystem(
            geometry=tape,
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(64),
            prefetch=True,
            prefetch_threshold=50,
        )
        with_prefetch.run(list(requests))
        without = CachedTertiaryStorageSystem(
            geometry=tape,
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(64),
            prefetch=False,
        )
        without.run(list(requests))
        assert without.cache_stats.prefetch_insertions == 0
        assert (
            with_prefetch.cache_stats.prefetch_insertions
            >= without.cache_stats.prefetch_insertions
        )

    def test_multisegment_requests(self, tape):
        system = CachedTertiaryStorageSystem(
            geometry=tape, cache=SegmentCache(32)
        )
        system.run(
            [
                TimedRequest(0.0, 10, length=4),
                TimedRequest(5000.0, 10, length=4),
            ]
        )
        assert system.cache_stats.hits == 1
        assert system.cache_stats.hit_segments == 4

    def test_byte_accounting(self, tape):
        system = CachedTertiaryStorageSystem(
            geometry=tape, cache=SegmentCache(32)
        )
        system.run([TimedRequest(0.0, 3), TimedRequest(5000.0, 3)])
        stats = system.cache_stats
        assert stats.hit_bytes == 32 * 1024
        assert stats.miss_bytes == 32 * 1024
        assert stats.byte_hit_rate == pytest.approx(0.5)

    def test_hit_waits_for_the_read_that_stages_it(self):
        # The first request's batch reads segment 200 from 0 s to
        # ~153 s; the second request arrives at 1 s, mid-batch, so it
        # misses and is served by the next batch (the event-driven
        # tier's answer).  Staging at dispatch let it hit at 1 s.
        system = CachedTertiaryStorageSystem(geometry=tiny_tape(seed=3))
        stats = system.run([TimedRequest(0.0, 200), TimedRequest(1.0, 200)])
        first, second = stats.samples
        assert first == pytest.approx(153.46, abs=0.01)
        assert second == pytest.approx(201.14, abs=0.01)
        assert system.cache_stats.hits == 0

    def test_arrival_exactly_at_the_batch_end_looks_up_first(self):
        # Same tie order as the event-driven tier: a lookup at the
        # batch's end instant runs before the batch's staging.
        tape = tiny_tape(seed=3)
        probe = CachedTertiaryStorageSystem(geometry=tape)
        (end,) = probe.run([TimedRequest(0.0, 200)]).samples
        at_end = CachedTertiaryStorageSystem(geometry=tape)
        at_end.run([TimedRequest(0.0, 200), TimedRequest(end, 200)])
        after = CachedTertiaryStorageSystem(geometry=tape)
        after.run(
            [
                TimedRequest(0.0, 200),
                TimedRequest(math.nextafter(end, math.inf), 200),
            ]
        )
        assert at_end.cache_stats.hits == 0
        assert after.cache_stats.hits == 1
