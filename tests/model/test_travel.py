"""Head-travel accounting on the locate model."""

import numpy as np
import pytest

from repro.model import EvenOddPerturbation, ShortLocateDeviation


class TestTravelSections:
    def test_at_least_direct_distance(self, full_model, full_tape, rng):
        sources = rng.integers(0, full_tape.total_segments, 2000)
        destinations = rng.integers(0, full_tape.total_segments, 2000)
        travel = full_model.travel_sections(sources, destinations)
        direct = np.abs(
            full_tape.phys_of(destinations) - full_tape.phys_of(sources)
        )
        assert (travel >= direct - 1e-9).all()

    def test_read_through_is_exactly_direct(self, full_model, full_tape):
        layout = full_tape.track_layout(2).section_layout(5)
        source = layout.first_segment
        destination = layout.first_segment + 40
        travel = float(
            full_model.travel_sections(
                source, np.asarray([destination])
            )[0]
        )
        direct = abs(
            float(full_tape.phys_of(destination))
            - float(full_tape.phys_of(source))
        )
        assert travel == pytest.approx(direct)

    def test_bounded_by_tape_length_plus_overshoot(
        self, full_model, full_tape, rng
    ):
        sources = rng.integers(0, full_tape.total_segments, 2000)
        destinations = rng.integers(0, full_tape.total_segments, 2000)
        travel = full_model.travel_sections(sources, destinations)
        # Scan across the tape plus at most ~3 sections of read-in.
        assert float(travel.max()) <= 14.0 + 3.0

    def test_self_travel_zero(self, full_model):
        assert float(
            full_model.travel_sections(123, np.asarray([123]))[0]
        ) == 0.0

    @pytest.mark.parametrize(
        "wrapper",
        [
            lambda m: EvenOddPerturbation(m, 5.0),
            lambda m: ShortLocateDeviation(m),
        ],
    )
    def test_wrappers_pass_travel_through(self, full_model, rng, wrapper):
        wrapped = wrapper(full_model)
        destinations = rng.integers(
            0, full_model.geometry.total_segments, 100
        )
        np.testing.assert_array_equal(
            wrapped.travel_sections(0, destinations),
            full_model.travel_sections(0, destinations),
        )
