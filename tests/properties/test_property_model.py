"""Property-based tests of the locate-time model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import (
    READ_SECONDS_PER_SECTION,
    SCAN_SECONDS_PER_SECTION,
)
from repro.geometry import tiny_tape
from repro.model import (
    EvenOddPerturbation,
    LinearizedModel,
    LocateTimeModel,
    ShortLocateDeviation,
)

_TAPE = tiny_tape(seed=11, tracks=4)
_MODEL = LocateTimeModel(_TAPE)

segments = st.integers(min_value=0, max_value=_TAPE.total_segments - 1)


@given(source=segments, destination=segments)
@settings(max_examples=150, deadline=None)
def test_nonnegative_and_bounded(source, destination):
    time = _MODEL.locate_time(source, destination)
    assert time >= 0.0
    # Worst conceivable: reposition + full-length scan + two-plus
    # sections of read + reversal.
    ceiling = (
        14 * SCAN_SECONDS_PER_SECTION
        + 3 * READ_SECONDS_PER_SECTION
        + 10.0
    )
    assert time <= ceiling


@given(source=segments)
@settings(max_examples=50, deadline=None)
def test_self_locate_free(source):
    assert _MODEL.locate_time(source, source) == 0.0


@given(source=segments, data=st.data())
@settings(max_examples=50, deadline=None)
def test_vectorized_equals_scalar(source, data):
    destinations = np.asarray(
        data.draw(st.lists(segments, min_size=1, max_size=8))
    )
    vector = _MODEL.locate_times(source, destinations)
    for destination, value in zip(destinations, vector):
        assert value == _MODEL.locate_time(source, int(destination))


_ALL_SEGMENTS = np.arange(_TAPE.total_segments)
_TRACK_OF = _TAPE.track_of(_ALL_SEGMENTS)
_SOI_OF = _TAPE.ordinal_section_of(_ALL_SEGMENTS)
#: Segment 0, the last segment, and both sides of every track boundary.
_EDGE_SEGMENTS = sorted(
    {0, _TAPE.total_segments - 1}
    | {
        int(first) + step
        for first in _TAPE.track_first_segments()[1:-1]
        for step in (-1, 0, 1)
    }
)


@st.composite
def edge_biased_pairs(draw):
    """``(source, destination)`` pairs drawn mostly where the model's
    branches meet: self-locates, the read-through window edge (ordinal
    sections 2 vs 3 ahead on the same track), destinations just behind
    the source, track boundaries and the two ends of the tape."""
    source = draw(st.one_of(segments, st.sampled_from(_EDGE_SEGMENTS)))
    kind = draw(st.sampled_from(("any", "self", "window", "behind", "edge")))
    if kind == "any":
        return source, draw(segments)
    if kind == "self":
        return source, source
    if kind == "behind":
        return source, max(0, source - draw(st.integers(1, 2)))
    if kind == "edge":
        return source, draw(st.sampled_from(_EDGE_SEGMENTS))
    same_track = _TRACK_OF == _TRACK_OF[source]
    gap = draw(st.sampled_from((2, 3)))
    window = np.flatnonzero(same_track & (_SOI_OF == _SOI_OF[source] + gap))
    if window.size == 0:
        return source, int(draw(st.sampled_from(np.flatnonzero(same_track))))
    # The nearest and the farthest segment of that section.
    return source, int(draw(st.sampled_from((window[0], window[-1]))))


_SCALAR_MODELS = {
    "base": _MODEL,
    **{
        f"short-seed{seed}": ShortLocateDeviation(_MODEL, seed=seed)
        for seed in (0, 1, -2, 2**40)
    },
    "even-odd": EvenOddPerturbation(_MODEL, 3.0),
    "linearized": LinearizedModel(_MODEL),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_MODELS))
@given(pair=edge_biased_pairs())
@settings(max_examples=120, deadline=None)
def test_scalar_kernel_is_bitwise_vector_kernel(name, pair):
    model = _SCALAR_MODELS[name]
    source, destination = pair
    value = model.locate_time(source, destination)
    expected = float(model.locate_times(source, [destination])[0])
    assert type(value) is float
    assert np.float64(value).tobytes() == np.float64(expected).tobytes()


@given(source=segments, destination=segments,
       error=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_even_odd_perturbation_exact(source, destination, error):
    perturbed = EvenOddPerturbation(_MODEL, error)
    base = _MODEL.locate_time(source, destination)
    noisy = perturbed.locate_time(source, destination)
    offset = error if destination % 2 == 0 else -error
    assert noisy == max(0.0, base + offset)


@given(source=segments, destination=segments)
@settings(max_examples=80, deadline=None)
def test_same_section_read_ahead_beats_any_other_section(
    source, destination
):
    # The SLTF fast path's "fact 1": a forward read within the source's
    # section is never slower than a locate that leaves the section.
    geo = _MODEL.geometry
    same_section = int(geo.global_section_of(source)) == int(
        geo.global_section_of(destination)
    )
    if not same_section or destination < source:
        return
    inside = _MODEL.locate_time(source, destination)
    # Compare against the first segment of a few other sections.
    for track in range(geo.num_tracks):
        other = int(geo.key_points(track)[5])
        if int(geo.global_section_of(other)) == int(
            geo.global_section_of(source)
        ):
            continue
        assert inside <= _MODEL.locate_time(source, other) + 1e-9
