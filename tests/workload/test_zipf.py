"""Zipf-skewed workload (extension)."""

import numpy as np
import pytest

from repro.workload import ZipfWorkload


class TestZipf:
    def test_batch_in_range(self):
        workload = ZipfWorkload(
            total_segments=10_000, universe=500, seed=0
        )
        batch = workload.sample_batch(100)
        assert batch.min() >= 0
        assert batch.max() < 10_000

    def test_distinct_mode(self):
        workload = ZipfWorkload(
            total_segments=10_000, universe=500, seed=0
        )
        batch = workload.sample_batch(200, distinct=True)
        assert len(set(batch.tolist())) == 200

    def test_distinct_overdraw_rejected(self):
        workload = ZipfWorkload(total_segments=1000, universe=50, seed=0)
        with pytest.raises(ValueError):
            workload.sample_batch(51, distinct=True)

    def test_skew_concentrates_on_hot_segments(self):
        workload = ZipfWorkload(
            total_segments=100_000, universe=1000, alpha=1.3, seed=1
        )
        batch = workload.sample_batch(5000, distinct=False)
        hottest = workload._placement[0]
        hits = int((batch == hottest).sum())
        # The rank-1 segment should absorb far more than 1/universe.
        assert hits > 5000 // 1000 * 5

    def test_universe_validated(self):
        with pytest.raises(ValueError):
            ZipfWorkload(total_segments=100, universe=101)
        with pytest.raises(ValueError):
            ZipfWorkload(total_segments=100, universe=50, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        # A NaN alpha would make sample_batch loop forever, so only
        # construction is exercised.
        with pytest.raises(ValueError, match="alpha"):
            ZipfWorkload(total_segments=100, universe=50, alpha=alpha)

    def test_deterministic(self):
        a = ZipfWorkload(10_000, seed=7).sample_batch(50)
        b = ZipfWorkload(10_000, seed=7).sample_batch(50)
        np.testing.assert_array_equal(a, b)


class TestClusteredPlacement:
    def test_hot_set_forms_runs(self):
        workload = ZipfWorkload(
            total_segments=100_000,
            universe=640,
            placement="clustered",
            run_length=64,
            seed=3,
        )
        hot = np.sort(workload._placement)
        gaps = np.diff(hot)
        # Mostly consecutive segments: at least (1 - runs/universe) of
        # the gaps are exactly 1.
        assert (gaps == 1).sum() >= 640 - 10 - 1

    def test_clustered_batches_span_fewer_sections(self, ):
        from repro.geometry import generate_tape

        tape = generate_tape(seed=4)
        scattered = ZipfWorkload(
            total_segments=tape.total_segments,
            universe=4_000,
            placement="scattered",
            seed=5,
        ).sample_batch(128)
        clustered = ZipfWorkload(
            total_segments=tape.total_segments,
            universe=4_000,
            placement="clustered",
            run_length=128,
            seed=5,
        ).sample_batch(128)

        def sections(batch):
            return len(set(tape.global_section_of(batch).tolist()))

        assert sections(clustered) < sections(scattered) / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfWorkload(1000, placement="weird")
        with pytest.raises(ValueError):
            ZipfWorkload(1000, placement="clustered", run_length=0)
        with pytest.raises(ValueError):
            # 3 runs of 400 cannot be placed on a 2-slot grid.
            ZipfWorkload(
                1000, universe=1000, placement="clustered",
                run_length=400,
            )
