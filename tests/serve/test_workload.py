"""The multi-tenant load generator and its trace round-trip."""

import math

import pytest

from repro.exceptions import ServeError, TraceError
from repro.serve import (
    TenantLoadSpec,
    load_serve_trace,
    save_serve_trace,
    zipf_serve_stream,
)

SPECS = (
    TenantLoadSpec(name="gold", users=500, rate_per_hour=60.0, weight=4.0),
    TenantLoadSpec(name="bulk", users=2000, rate_per_hour=120.0),
)
LABELS = ["tape-0", "tape-1", "tape-2"]


class TestSpecs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "users": 1, "rate_per_hour": 1.0},
            {"name": "t", "users": 0, "rate_per_hour": 1.0},
            {"name": "t", "users": 1, "rate_per_hour": 0.0},
            {"name": "t", "users": 1, "rate_per_hour": 1.0, "zipf_alpha": 0.0},
            {"name": "t", "users": 1, "rate_per_hour": 1.0, "weight": 0.0},
            {"name": "t", "users": 1, "rate_per_hour": math.nan},
            {"name": "t", "users": 1, "rate_per_hour": math.inf},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ServeError):
            TenantLoadSpec(**kwargs)

    def test_rejects_duplicate_tenants(self):
        spec = SPECS[0]
        with pytest.raises(ServeError):
            zipf_serve_stream((spec, spec), LABELS)

    def test_rejects_empty_labels(self):
        with pytest.raises(ServeError):
            zipf_serve_stream(SPECS, [])

    @pytest.mark.parametrize("horizon", [0.0, math.nan, math.inf])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(ServeError, match="horizon_seconds"):
            zipf_serve_stream(SPECS, LABELS, horizon_seconds=horizon)


class TestStream:
    def test_deterministic_per_seed(self):
        first = zipf_serve_stream(SPECS, LABELS, seed=3)
        second = zipf_serve_stream(SPECS, LABELS, seed=3)
        other = zipf_serve_stream(SPECS, LABELS, seed=4)
        assert first == second
        assert first != other

    def test_tenant_streams_are_order_independent(self):
        """Swapping spec order changes nothing per tenant."""
        forward = zipf_serve_stream(SPECS, LABELS, seed=3)
        backward = zipf_serve_stream(tuple(reversed(SPECS)), LABELS, seed=3)
        assert sorted(forward, key=repr) == sorted(backward, key=repr)

    def test_sorted_and_tagged(self):
        stream = zipf_serve_stream(SPECS, LABELS, seed=1)
        assert stream
        arrivals = [r.arrival_seconds for r in stream]
        assert arrivals == sorted(arrivals)
        assert {r.tenant for r in stream} <= {"gold", "bulk"}
        assert all(r.label in LABELS for r in stream)

    def test_horizon_truncates(self):
        stream = zipf_serve_stream(
            SPECS, LABELS, horizon_seconds=600.0, seed=1
        )
        assert all(r.arrival_seconds <= 600.0 for r in stream)

    def test_zipf_skew_concentrates_traffic(self):
        """A heavier alpha concentrates requests on fewer segments."""
        flat = zipf_serve_stream(
            (
                TenantLoadSpec(
                    name="t", users=5000, rate_per_hour=2000.0,
                    zipf_alpha=0.5,
                ),
            ),
            LABELS,
            seed=2,
        )
        skewed = zipf_serve_stream(
            (
                TenantLoadSpec(
                    name="t", users=5000, rate_per_hour=2000.0,
                    zipf_alpha=2.0,
                ),
            ),
            LABELS,
            seed=2,
        )
        distinct_flat = len({(r.label, r.segment) for r in flat})
        distinct_skewed = len({(r.label, r.segment) for r in skewed})
        assert distinct_skewed < distinct_flat


class TestTraceRoundTrip:
    def test_round_trip(self, tmp_path):
        stream = zipf_serve_stream(SPECS, LABELS, seed=9)
        path = tmp_path / "trace.jsonl"
        save_serve_trace(path, stream)
        assert load_serve_trace(path) == stream

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            load_serve_trace(path)

    def test_rejects_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "tenant": "a"}\n')
        with pytest.raises(TraceError):
            load_serve_trace(path)

    def test_rejects_negative_arrival(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"t": -1.0, "tenant": "a", "label": "x", '
            '"segment": 0, "length": 1}\n'
        )
        with pytest.raises(TraceError):
            load_serve_trace(path)
