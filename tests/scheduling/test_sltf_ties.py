"""SLTF tie-breaking, and where the fast path leaves the greedy.

Both greedy variants scan candidates in ascending ``(segment, length)``
order and take the *first* minimum (``argmin``), so equal locate times
resolve to the lowest ``(segment, length)`` -- deterministically, in
both.  These tests pin that rule with a constructed exact tie and with
a cross-variant agreement sweep over small uniform batches, so a future
refactor that silently changes the rule (e.g. by switching to an
unstable sort or a last-minimum scan) fails loudly instead of shifting
schedules.

The two variants are not the same algorithm, though: the fast path
assumes the paper's "fact 1" (reading ahead in the current section
beats leaving it), which this model breaks for destinations that are
reached by a scan to a track start, and it reads an entered section in
segment order even where overlapping requests have carried the head
past a later start.  The last two tests pin both divergences.
"""

import numpy as np
import pytest

from repro.scheduling import Request, get_scheduler


def _find_exact_tie(model):
    """An (origin, low, high) with bitwise-equal nonzero locate times."""
    total = model.geometry.total_segments
    for origin in range(0, total, 7):
        times = model.locate_times(origin, np.arange(total))
        order = np.argsort(times, kind="stable")
        sorted_times = times[order]
        equal = np.flatnonzero(
            (np.diff(sorted_times) == 0.0) & (sorted_times[:-1] > 0.0)
        )
        for index in equal:
            a = int(order[index])
            b = int(order[index + 1])
            if origin not in (a, b):
                return origin, min(a, b), max(a, b)
    raise AssertionError(
        "no exact locate-time tie found on the tiny tape; the tie "
        "regression needs a new construction"
    )


@pytest.mark.parametrize("name", ["SLTF", "SLTF-naive"])
def test_equal_locate_times_resolve_to_lowest_segment(tiny_model, name):
    """On an exact tie, the lower (segment, length) is served first."""
    origin, low, high = _find_exact_tie(tiny_model)
    assert tiny_model.locate_time(origin, low) == tiny_model.locate_time(
        origin, high
    )
    # Present the batch high-first so arrival order cannot mask the rule.
    schedule = get_scheduler(name).schedule(tiny_model, origin, [high, low])
    assert [r.segment for r in schedule] == [low, high]


def test_fast_path_and_naive_agree_including_ties(tiny_model, rng):
    """On small uniform batches the variants produce bit-identical
    schedules, ties included."""
    total = tiny_model.geometry.total_segments
    fast = get_scheduler("SLTF")
    naive = get_scheduler("SLTF-naive")
    for _ in range(60):
        size = int(rng.integers(2, 20))
        batch = rng.choice(total, size=size, replace=False).tolist()
        origin = int(rng.integers(0, total))
        fast_order = [
            r.segment for r in fast.schedule(tiny_model, origin, batch)
        ]
        naive_order = [
            r.segment for r in naive.schedule(tiny_model, origin, batch)
        ]
        assert fast_order == naive_order


def test_tie_rule_is_arrival_order_independent(tiny_model):
    """Reversing the batch does not change who wins the tie."""
    origin, low, high = _find_exact_tie(tiny_model)
    for name in ("SLTF", "SLTF-naive"):
        forward = get_scheduler(name).schedule(
            tiny_model, origin, [low, high]
        )
        reverse = get_scheduler(name).schedule(
            tiny_model, origin, [high, low]
        )
        assert [r.segment for r in forward] == [
            r.segment for r in reverse
        ]


def test_fast_path_reads_ahead_where_the_greedy_leaves(full_model):
    """Fact 1 fails: leaving the section is cheaper than reading ahead."""
    geo = full_model.geometry
    origin, ahead, away = 330607, 331149, 389010
    assert geo.global_section(origin) == geo.global_section(ahead)
    assert geo.global_section(away) != geo.global_section(origin)
    # The destination's scan target is the start of its track.
    assert geo.segment_fields(away)[2] == 0
    assert full_model.locate_time(origin, ahead) == pytest.approx(
        12.03, abs=5e-3
    )
    assert full_model.locate_time(origin, away) == pytest.approx(
        10.93, abs=5e-3
    )
    fast = get_scheduler("SLTF").schedule(full_model, origin, [away, ahead])
    naive = get_scheduler("SLTF-naive").schedule(
        full_model, origin, [away, ahead]
    )
    assert [r.segment for r in fast] == [ahead, away]
    assert [r.segment for r in naive] == [away, ahead]


def test_fast_path_reads_overlapping_requests_in_segment_order(tiny_model):
    """After (s, 3) the head is at s + 3: the fast path goes back for
    s + 1, the greedy reads on to s + 4 first."""
    start = tiny_model.geometry.section_layout(0, 5).first_segment + 1
    batch = [Request(start, 3), Request(start + 1), Request(start + 4)]
    fast = get_scheduler("SLTF").schedule(tiny_model, 0, batch)
    naive = get_scheduler("SLTF-naive").schedule(tiny_model, 0, batch)
    assert [r.segment for r in fast] == [start, start + 1, start + 4]
    assert [r.segment for r in naive] == [start, start + 4, start + 1]
