"""Media aging: wear-driven drift and bad spots.

The pristine contract first — zero completed mount cycles must leave
both the locate model and the fault plan untouched, which is what
keeps an ``aging=``-configured system bit-identical to the seed until
a cartridge is actually remounted — then the wear curves (drift and
bad-spot probability grow with cycles and cap), and finally the
end-to-end effect inside :class:`MultiDriveSystem`: remounted
cartridges drift away from the scheduler's pristine plan and start
throwing read faults from the resilience taxonomy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import tiny_tape
from repro.library import (
    Cartridge,
    LibraryRequest,
    MediaAgingModel,
    MultiDriveSystem,
)
from repro.model.locate import LocateTimeModel
from repro.online import BatchPolicy


@pytest.fixture()
def base_model():
    return LocateTimeModel(tiny_tape(seed=3))


class TestWearCurves:
    def test_zero_cycles_is_pristine(self, base_model):
        aging = MediaAgingModel()
        assert aging.aged_model(base_model, "t0", 0) is base_model
        assert aging.read_fault_probability(0) == 0.0

    def test_drift_grows_with_cycles(self, base_model):
        aging = MediaAgingModel(
            drift_bias_seconds=0.1, drift_noise_seconds=0.0
        )
        pairs = [(0, d) for d in range(1, base_model.geometry.total_segments)]
        sources = np.asarray([s for s, _ in pairs])
        destinations = np.asarray([d for _, d in pairs])
        base = base_model.times(sources, destinations)
        young = aging.aged_model(base_model, "t0", 1).times(
            sources, destinations
        )
        old = aging.aged_model(base_model, "t0", 10).times(
            sources, destinations
        )
        # Bias only applies to short locates, so compare sums over the
        # whole pair set: older media is never faster.
        assert np.all(young >= base)
        assert np.all(old >= young)
        assert old.sum() > base.sum()

    def test_drift_plateaus_at_the_cycle_cap(self, base_model):
        aging = MediaAgingModel(max_drift_cycles=5)
        capped = aging.aged_model(base_model, "t0", 5)
        beyond = aging.aged_model(base_model, "t0", 50)
        assert capped.locate_time(0, 7) == beyond.locate_time(0, 7)

    def test_fault_probability_is_linear_then_capped(self):
        aging = MediaAgingModel(
            bad_spot_probability=0.01, max_bad_spot_probability=0.05
        )
        assert aging.read_fault_probability(3) == pytest.approx(0.03)
        assert aging.read_fault_probability(5) == pytest.approx(0.05)
        assert aging.read_fault_probability(500) == pytest.approx(0.05)
        assert aging.any_faults

    def test_label_seed_differentiates_equally_old_media(
        self, base_model
    ):
        aging = MediaAgingModel(
            drift_bias_seconds=0.0, drift_noise_seconds=0.5
        )
        a = aging.aged_model(base_model, "tape-a", 10)
        b = aging.aged_model(base_model, "tape-b", 10)
        destinations = np.arange(1, base_model.geometry.total_segments)
        sources = np.zeros_like(destinations)
        assert not np.array_equal(
            a.times(sources, destinations),
            b.times(sources, destinations),
        )
        # ...but each cartridge's wear is deterministic.
        again = aging.aged_model(base_model, "tape-a", 10)
        assert np.array_equal(
            a.times(sources, destinations),
            again.times(sources, destinations),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MediaAgingModel(drift_bias_seconds=-1.0)
        with pytest.raises(ValueError):
            MediaAgingModel(bad_spot_probability=1.5)
        with pytest.raises(ValueError):
            MediaAgingModel(max_drift_cycles=-1)
        for name in (
            "drift_bias_seconds", "drift_noise_seconds", "short_seconds",
        ):
            with pytest.raises(ValueError, match=name):
                MediaAgingModel(**{name: float("nan")})
        with pytest.raises(ValueError, match="short_seconds"):
            MediaAgingModel(short_seconds=float("inf"))
        with pytest.raises(ValueError, match="short_seconds"):
            MediaAgingModel(short_seconds=-1.0)
        aging = MediaAgingModel()
        with pytest.raises(ValueError):
            aging.read_fault_probability(-1)
        with pytest.raises(ValueError):
            aging.aged_model(object(), "t0", -1)


def run_library(aging, seed=5, count=40):
    """Two tapes, one drive: every batch boundary forces a remount."""
    tapes = [Cartridge(f"t{i}", tiny_tape(seed=i + 1)) for i in range(2)]
    total = min(c.geometry.total_segments for c in tapes)
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 6000.0, size=count))
    segments = rng.integers(0, total, size=count)
    picks = rng.integers(0, 2, size=count)
    requests = [
        LibraryRequest(
            arrival_seconds=float(arrivals[k]),
            label=f"t{int(picks[k])}",
            segment=int(segments[k]),
        )
        for k in range(count)
    ]
    system = MultiDriveSystem(
        tapes,
        drives=1,
        policy=BatchPolicy(max_batch=4),
        aging=aging,
    )
    stats = system.run(requests)
    return system, stats


class TestAgingInTheLibrary:
    def test_no_wear_configured_changes_nothing(self):
        baseline_system, baseline = run_library(aging=None)
        system, stats = run_library(
            aging=MediaAgingModel(
                drift_bias_seconds=0.0,
                drift_noise_seconds=0.0,
                bad_spot_probability=0.0,
            )
        )
        # An aging model that cannot wear anything is bit-identical
        # to no aging model at all.
        assert stats.samples == baseline.samples
        assert system.exchanges == baseline_system.exchanges
        assert system.lost == baseline_system.lost == 0

    def test_drift_slows_remounted_cartridges(self):
        _, baseline = run_library(aging=None)
        system, aged = run_library(
            aging=MediaAgingModel(
                drift_bias_seconds=2.0,
                drift_noise_seconds=0.0,
                bad_spot_probability=0.0,
            )
        )
        # Remounts happened (wear accumulated) and the actual service
        # got slower than the pristine plan predicts.
        assert system.exchanges > 2
        assert aged.mean_seconds > baseline.mean_seconds
        assert system.lost == 0

    def test_bad_spots_eventually_fail_reads(self):
        system, _ = run_library(
            aging=MediaAgingModel(
                drift_bias_seconds=0.0,
                drift_noise_seconds=0.0,
                bad_spot_probability=0.5,
                max_bad_spot_probability=1.0,
            ),
            count=60,
        )
        assert len(system.failed) > 0
        assert system.lost == 0
