"""Library requests and the multi-tape Poisson stream."""

import math

import pytest

from repro.library.requests import (
    LibraryRequest,
    poisson_library_stream,
)
from repro.workload.arrivals import TimedRequest


class TestLibraryRequest:
    def test_timed_drops_the_label(self):
        request = LibraryRequest(
            arrival_seconds=3.5, label="alpha", segment=42, length=2
        )
        assert request.timed() == TimedRequest(
            arrival_seconds=3.5, segment=42, length=2
        )

    def test_default_length(self):
        request = LibraryRequest(0.0, "a", 1)
        assert request.length == 1

    def test_frozen(self):
        request = LibraryRequest(0.0, "a", 1)
        with pytest.raises(AttributeError):
            request.label = "b"


class TestPoissonLibraryStream:
    def test_deterministic_per_seed(self):
        first = poisson_library_stream(
            ["a", "b"], rate_per_hour=120.0, total_segments=100, seed=5
        )
        second = poisson_library_stream(
            ["a", "b"], rate_per_hour=120.0, total_segments=100, seed=5
        )
        assert first == second

    def test_seed_changes_the_stream(self):
        kwargs = dict(
            rate_per_hour=120.0, total_segments=100,
            horizon_seconds=7200.0,
        )
        assert poisson_library_stream(
            ["a"], seed=1, **kwargs
        ) != poisson_library_stream(["a"], seed=2, **kwargs)

    def test_targets_stay_in_range(self):
        requests = poisson_library_stream(
            ["a", "b", "c"], rate_per_hour=600.0, total_segments=50,
            seed=0, horizon_seconds=3600.0,
        )
        assert requests
        for request in requests:
            assert request.label in ("a", "b", "c")
            assert 0 <= request.segment < 50
            assert 0.0 < request.arrival_seconds < 3600.0

    def test_arrivals_are_increasing(self):
        requests = poisson_library_stream(
            ["a"], rate_per_hour=600.0, total_segments=10, seed=3
        )
        arrivals = [r.arrival_seconds for r in requests]
        assert arrivals == sorted(arrivals)

    def test_every_label_is_eventually_targeted(self):
        labels = ["a", "b", "c", "d"]
        requests = poisson_library_stream(
            labels, rate_per_hour=1200.0, total_segments=10, seed=0,
            horizon_seconds=3600.0,
        )
        assert {r.label for r in requests} == set(labels)

    def test_rate_scales_the_count(self):
        slow = poisson_library_stream(
            ["a"], rate_per_hour=60.0, total_segments=10, seed=0,
            horizon_seconds=3600.0 * 4,
        )
        fast = poisson_library_stream(
            ["a"], rate_per_hour=600.0, total_segments=10, seed=0,
            horizon_seconds=3600.0 * 4,
        )
        assert len(fast) > len(slow) * 4

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(labels=[], rate_per_hour=1.0), "labels"),
            (dict(labels=["a"], rate_per_hour=0.0), "rate_per_hour"),
            (
                dict(
                    labels=["a"], rate_per_hour=1.0,
                    horizon_seconds=0.0,
                ),
                "horizon_seconds",
            ),
            (dict(labels=["a"], rate_per_hour=math.nan), "rate_per_hour"),
            (dict(labels=["a"], rate_per_hour=math.inf), "rate_per_hour"),
            (
                dict(
                    labels=["a"], rate_per_hour=1.0,
                    horizon_seconds=math.nan,
                ),
                "horizon_seconds",
            ),
            (
                dict(
                    labels=["a"], rate_per_hour=1.0,
                    horizon_seconds=math.inf,
                ),
                "horizon_seconds",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            poisson_library_stream(**kwargs)
