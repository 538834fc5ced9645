"""Poisson arrival process."""

import math

import pytest

from repro.workload import PoissonArrivals, ZipfArrivals, ZipfWorkload


class TestPoisson:
    def test_arrivals_monotone_and_bounded(self):
        stream = PoissonArrivals(
            rate_per_hour=100.0, total_segments=1000, seed=1
        ).batch(3600.0)
        times = [r.arrival_seconds for r in stream]
        assert times == sorted(times)
        assert all(0 < t < 3600.0 for t in times)

    def test_rate_approximately_respected(self):
        stream = PoissonArrivals(
            rate_per_hour=200.0, total_segments=1000, seed=2
        ).batch(100 * 3600.0)
        rate = len(stream) / 100.0
        assert rate == pytest.approx(200.0, rel=0.1)

    def test_segments_in_range(self):
        stream = PoissonArrivals(
            rate_per_hour=50.0, total_segments=77, seed=3
        ).batch(24 * 3600.0)
        assert all(0 <= r.segment < 77 for r in stream)

    def test_deterministic(self):
        a = PoissonArrivals(50.0, 1000, seed=4).batch(3600.0)
        b = PoissonArrivals(50.0, 1000, seed=4).batch(3600.0)
        assert [(r.arrival_seconds, r.segment) for r in a] == [
            (r.arrival_seconds, r.segment) for r in b
        ]

    def test_invalid_rate(self):
        # NaN never ends the horizon loop and inf draws zero gaps, so
        # either would generate requests without bound.
        workload = ZipfWorkload(total_segments=1000, universe=100)
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate_per_hour"):
                PoissonArrivals(rate_per_hour=rate)
            with pytest.raises(ValueError, match="rate_per_hour"):
                ZipfArrivals(rate_per_hour=rate, workload=workload)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_batch_rejects_bad_horizon(self, horizon):
        # A NaN or infinite horizon never ends the loop.
        workload = ZipfWorkload(total_segments=1000, universe=100)
        for arrivals in (
            PoissonArrivals(rate_per_hour=50.0, total_segments=1000),
            ZipfArrivals(rate_per_hour=50.0, workload=workload),
        ):
            with pytest.raises(ValueError, match="horizon_seconds"):
                arrivals.batch(horizon)

    def test_stream_stays_endless_on_inf(self):
        stream = PoissonArrivals(50.0, 1000, seed=6).stream(math.inf)
        arrivals = [next(stream) for _ in range(500)]
        assert arrivals[-1].arrival_seconds > 0

    def test_streaming_matches_batch(self):
        gen = PoissonArrivals(80.0, 500, seed=5)
        first = list(gen.stream(1800.0))
        gen2 = PoissonArrivals(80.0, 500, seed=5)
        assert first == gen2.batch(1800.0)


def test_timed_request_is_frozen():
    from repro.workload import TimedRequest

    request = TimedRequest(1.0, 5)
    assert request.length == 1
    with pytest.raises(AttributeError):
        request.segment = 9
