"""Perturbation wrappers: even/odd error and ground-truth deviations."""

import numpy as np
import pytest

from repro.model import (
    EvenOddPerturbation,
    LocateTimeModel,
    ShortLocateDeviation,
)


class TestEvenOdd:
    def test_offsets_by_destination_parity(self, tiny_model, tiny):
        perturbed = EvenOddPerturbation(tiny_model, 3.0)
        destinations = np.arange(40, 60)
        base = tiny_model.locate_times(0, destinations)
        noisy = perturbed.locate_times(0, destinations)
        expected = np.maximum(
            0.0, base + np.where(destinations % 2 == 0, 3.0, -3.0)
        )
        np.testing.assert_allclose(noisy, expected)

    def test_never_negative(self, tiny_model):
        perturbed = EvenOddPerturbation(tiny_model, 1000.0)
        destinations = np.arange(1, 50)
        assert (perturbed.locate_times(0, destinations) >= 0.0).all()

    def test_total_over_any_permutation_is_constant(
        self, tiny_model, tiny, rng
    ):
        # The key Section 7 property: every request is a destination
        # exactly once, so the summed perturbation is order-independent
        # (which is why OPT is immune).
        perturbed = EvenOddPerturbation(tiny_model, 5.0)
        segments = rng.choice(tiny.total_segments, 10, replace=False)
        segments = segments[
            tiny_model.locate_times(0, segments) > 20.0
        ]  # keep away from the zero floor
        offsets = np.where(segments % 2 == 0, 5.0, -5.0)
        for _ in range(5):
            order = rng.permutation(segments.size)
            route = segments[order]
            sources = np.concatenate(([0], route[:-1] + 1))
            base = tiny_model.times(sources, route).sum()
            noisy = perturbed.times(sources, route).sum()
            assert noisy - base == pytest.approx(offsets.sum())

    def test_pairwise_consistent(self, tiny_model, rng):
        perturbed = EvenOddPerturbation(tiny_model, 2.0)
        sources = rng.integers(0, 100, 5)
        destinations = rng.integers(0, 100, 7)
        matrix = perturbed.pairwise_times(sources, destinations)
        for i, source in enumerate(sources):
            row = perturbed.locate_times(int(source), destinations)
            np.testing.assert_allclose(matrix[i], row)

    def test_geometry_passthrough(self, tiny_model, tiny):
        assert EvenOddPerturbation(tiny_model, 1.0).geometry is tiny


class TestShortLocateDeviation:
    def test_deterministic(self, tiny_model, rng):
        deviation = ShortLocateDeviation(tiny_model, seed=3)
        destinations = rng.integers(0, 100, 50)
        first = deviation.locate_times(0, destinations)
        second = deviation.locate_times(0, destinations)
        np.testing.assert_array_equal(first, second)

    def test_seeds_differ(self, tiny_model, rng):
        destinations = rng.integers(0, 100, 50)
        a = ShortLocateDeviation(tiny_model, seed=1).locate_times(
            0, destinations
        )
        b = ShortLocateDeviation(tiny_model, seed=2).locate_times(
            0, destinations
        )
        assert not np.array_equal(a, b)

    def test_bias_hits_only_short_locates(self, full_model, full_tape, rng):
        deviation = ShortLocateDeviation(
            full_model,
            short_seconds=30.0,
            bias_seconds=1.0,
            noise_seconds=0.0,
        )
        destinations = rng.integers(0, full_tape.total_segments, 3000)
        base = full_model.locate_times(0, destinations)
        measured = deviation.locate_times(0, destinations)
        short = base < 30.0
        np.testing.assert_allclose(measured[short], base[short] + 1.0)
        np.testing.assert_allclose(measured[~short], base[~short])

    def test_noise_is_bounded(self, tiny_model, rng):
        deviation = ShortLocateDeviation(
            tiny_model, bias_seconds=0.0, noise_seconds=0.5
        )
        destinations = rng.integers(0, 100, 500)
        base = tiny_model.locate_times(5, destinations)
        measured = deviation.locate_times(5, destinations)
        assert float(np.abs(measured - base).max()) <= 0.5 + 1e-9

    def test_oracle_roundtrip(self, tiny_model):
        deviation = ShortLocateDeviation(tiny_model)
        oracle = deviation.oracle()
        destinations = np.asarray([3, 5, 9])
        np.testing.assert_array_equal(
            oracle(0, destinations),
            deviation.locate_times(0, destinations),
        )

    def test_locate_time_scalar(self, tiny_model):
        deviation = ShortLocateDeviation(tiny_model)
        value = deviation.locate_time(0, 77)
        array = deviation.locate_times(0, np.asarray([77]))
        assert value == float(array[0])

    @pytest.mark.parametrize("seed", [-2, -5, 2**40])
    def test_seeds_outside_uint64_locate(self, tiny_model, seed):
        # Regression: the hash salt was built as np.uint64 of the raw
        # seed product, which overflowed at the first locate.
        deviation = ShortLocateDeviation(tiny_model, seed=seed)
        destinations = np.arange(60, 90)
        vector = deviation.locate_times(5, destinations)
        scalars = [deviation.locate_time(5, int(d)) for d in destinations]
        np.testing.assert_array_equal(vector, scalars)


def test_wrapper_requires_transform(tiny_model):
    from repro.model.perturb import ModelWrapper

    wrapper = ModelWrapper(tiny_model)
    with pytest.raises(NotImplementedError):
        wrapper.locate_times(0, np.asarray([1]))
    with pytest.raises(NotImplementedError):
        wrapper.locate_time(0, 1)


def test_stacked_wrappers(tiny):
    base = LocateTimeModel(tiny)
    stacked = EvenOddPerturbation(
        ShortLocateDeviation(base, noise_seconds=0.0, bias_seconds=0.0),
        2.0,
    )
    destinations = np.arange(10, 20)
    expected = EvenOddPerturbation(base, 2.0).locate_times(0, destinations)
    np.testing.assert_allclose(
        stacked.locate_times(0, destinations), expected
    )


def test_validation(tiny_model):
    # max(0.0, nan) is 0.0 but np.maximum(0.0, nan) is nan: a non-finite
    # parameter would split the scalar and vector kernels.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="error_seconds"):
            EvenOddPerturbation(tiny_model, bad)
        for name in ("short_seconds", "bias_seconds", "noise_seconds"):
            with pytest.raises(ValueError, match=name):
                ShortLocateDeviation(tiny_model, **{name: bad})
    with pytest.raises(ValueError, match="noise_seconds"):
        ShortLocateDeviation(tiny_model, noise_seconds=-0.1)
    # Negative offsets and biases stay legal (the floor keeps times >= 0).
    EvenOddPerturbation(tiny_model, -3.0)
    ShortLocateDeviation(tiny_model, bias_seconds=-0.2)
