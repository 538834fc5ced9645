"""Opportunistic read-through prefetch."""

from repro.cache import SegmentCache, prefetch_candidates
from repro.cache.system import stage_batch
from repro.drive import SimulatedDrive
from repro.scheduling import Request, Schedule, execute_schedule


class TestPrefetchCandidates:
    def test_empty_batch(self):
        assert prefetch_candidates([]) == []

    def test_gap_within_group_is_prefetched(self):
        requests = [Request(100), Request(104)]
        assert prefetch_candidates(requests, threshold=10) == [
            101, 102, 103,
        ]

    def test_requests_beyond_threshold_contribute_nothing(self):
        requests = [Request(100), Request(5_000)]
        assert prefetch_candidates(requests, threshold=10) == []

    def test_covered_segments_excluded(self):
        # length-3 read covers 100..102; only 103 is a gap.
        requests = [Request(100, length=3), Request(104)]
        assert prefetch_candidates(requests, threshold=10) == [103]

    def test_limit_caps_output(self):
        requests = [Request(0), Request(100)]
        out = prefetch_candidates(requests, threshold=200, limit=5)
        assert len(out) == 5

    def test_narrow_gaps_first(self):
        requests = [
            Request(0), Request(50),         # wide-gap group
            Request(1_000), Request(1_002),  # narrow-gap group
        ]
        out = prefetch_candidates(requests, threshold=60, limit=1)
        assert out == [1_001]

    def test_singleton_groups_ignored(self):
        requests = [Request(0), Request(10_000), Request(50_000)]
        assert prefetch_candidates(requests, threshold=100) == []


def _stage_clean_batch(cache, model):
    """Execute [10, 14] cleanly and stage it with threshold 20."""
    schedule = Schedule((Request(10), Request(14)), origin=0,
                        algorithm="SORT")
    drive = SimulatedDrive(model)
    result = execute_schedule(drive, schedule)
    stage_batch(cache, model, drive.position, schedule, result,
                threshold=20)


class TestOpportunisticPrefetch:
    """The prefetch half of :func:`repro.cache.system.stage_batch`."""

    def test_stages_gaps_with_model_costs(self, tiny_model):
        cache = SegmentCache(32)
        _stage_clean_batch(cache, tiny_model)
        assert all(seg in cache for seg in (11, 12, 13))
        assert cache.stats.prefetch_insertions == 3

    def test_never_evicts_resident_data(self, tiny_model):
        # The demand fill takes both slots; the gap must not evict it.
        cache = SegmentCache(2)
        cache.admit(200)
        cache.admit(201)
        _stage_clean_batch(cache, tiny_model)
        assert cache.stats.prefetch_insertions == 0
        assert set(cache) == {10, 14}
