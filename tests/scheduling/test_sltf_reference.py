"""SLTF's exit-table fast path against the per-jump loop it replaced.

:func:`reference_order` is ``SltfScheduler._order`` as it was before
jumps were priced from one table: every jump makes its own vector
``locate_times`` call over the live sections' first segments.  It is
kept here only as an oracle; the scheduler must produce the same
schedule and the same estimate, ties included, on batches built to
reach the table's edge cases -- sections partly read ahead (the head
starting mid-cluster or at a request's exit), overlapping multi-segment
requests, and reads that spill into the next section.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import SECTIONS_PER_TRACK
from repro.geometry import generate_tape, tiny_tape
from repro.model import (
    EvenOddPerturbation,
    LocateTimeModel,
    ShortLocateDeviation,
)
from repro.scheduling import (
    Request,
    Schedule,
    SltfScheduler,
    estimate_schedule_seconds,
)
from repro.scheduling.request import request_segments
from repro.scheduling.sltf import _out_position

_MODELS = (
    LocateTimeModel(tiny_tape(seed=3)),
    LocateTimeModel(tiny_tape(seed=11, tracks=6)),
    LocateTimeModel(generate_tape(seed=1)),
)


def reference_order(model, origin, requests):
    """SLTF with one vector locate call per jump."""
    geo = model.geometry
    ordered = sorted(requests, key=lambda r: (r.segment, r.length))
    section_ids = geo.global_section_of(request_segments(ordered))
    buckets = {}
    for request, sid in zip(ordered, section_ids.tolist()):
        buckets.setdefault(sid, []).append(request)
    sids = sorted(buckets)
    slot = {sid: k for k, sid in enumerate(sids)}
    firsts = np.fromiter(
        (buckets[sid][0].segment for sid in sids),
        dtype=np.int64,
        count=len(sids),
    )
    alive = np.ones(len(sids), dtype=bool)
    schedule = []
    position = origin
    while buckets:
        here = geo.global_section(position)
        bucket = buckets.get(here)
        if bucket is not None:
            ahead = [r for r in bucket if r.segment >= position]
            if ahead:
                schedule.extend(ahead)
                remaining = [r for r in bucket if r.segment < position]
                if remaining:
                    buckets[here] = remaining
                else:
                    del buckets[here]
                    alive[slot[here]] = False
                position = _out_position(model, ahead[-1])
                continue
        live = np.flatnonzero(alive)
        times = model.locate_times(position, firsts[live])
        chosen = int(live[int(np.argmin(times))])
        alive[chosen] = False
        taken = buckets.pop(sids[chosen])
        schedule.extend(taken)
        position = _out_position(model, taken[-1])
    return schedule


@st.composite
def clustered_cases(draw):
    """(model, origin, batch): requests packed into a few sections."""
    base = draw(st.sampled_from(_MODELS))
    geo = base.geometry
    total = geo.total_segments
    clusters = []
    for _ in range(draw(st.integers(1, 4))):
        track = draw(st.integers(0, geo.num_tracks - 1))
        section = draw(st.integers(0, SECTIONS_PER_TRACK - 1))
        layout = geo.section_layout(track, section)
        centre = layout.first_segment + draw(
            st.integers(0, layout.size - 1)
        )
        clusters.append((layout, centre))
    batch = []
    for _ in range(draw(st.integers(1, 24))):
        layout, centre = draw(st.sampled_from(clusters))
        # A window a dozen segments wide: on the tiny tapes that is
        # about a section, on the full tape it packs requests close
        # enough to overlap and to straddle section edges.
        segment = min(max(centre + draw(st.integers(-6, 6)), 0), total - 1)
        length = min(draw(st.integers(1, 3)), total - segment)
        batch.append(Request(segment, length))
    batch += [
        Request(segment)
        for segment in draw(
            st.lists(st.integers(0, total - 1), max_size=4)
        )
    ]
    kind = draw(st.sampled_from(["exit", "cluster", "uniform", "bot"]))
    if kind == "exit":
        origin = _out_position(base, draw(st.sampled_from(batch)))
    elif kind == "cluster":
        _, centre = draw(st.sampled_from(clusters))
        origin = min(max(centre + draw(st.integers(-6, 6)), 0), total - 1)
    elif kind == "uniform":
        origin = draw(st.integers(0, total - 1))
    else:
        origin = 0
    wrapper = draw(st.sampled_from(["none", "even-odd", "deviation"]))
    if wrapper == "even-odd":
        model = EvenOddPerturbation(base, draw(st.sampled_from([0.5, 4.0])))
    elif wrapper == "deviation":
        model = ShortLocateDeviation(base, seed=draw(st.integers(0, 3)))
    else:
        model = base
    return model, origin, batch


@given(clustered_cases())
@settings(max_examples=400, deadline=None)
def test_schedule_and_estimate_match_reference(case):
    model, origin, batch = case
    schedule = SltfScheduler().schedule(model, origin, batch)
    expected = reference_order(model, origin, tuple(batch))
    assert schedule.requests == tuple(expected)
    reference = Schedule(
        requests=tuple(expected), origin=origin, algorithm="SLTF"
    )
    assert schedule.estimated_seconds == estimate_schedule_seconds(
        model, reference
    )


def test_partly_read_section_is_priced_from_its_exit():
    # The head starts mid-section: it reads ahead to ``high`` and
    # leaves ``low`` behind.  From the section's exit, going back for
    # ``low`` must stay a candidate (the section's own column in its
    # exit row), and here it is the nearest.
    model = _MODELS[2]
    geo = model.geometry
    layout = geo.section_layout(10, 6)
    low = layout.first_segment + 5
    high = layout.first_segment + 200
    far = geo.section_layout(40, 2).first_segment + 3
    origin = low + 100
    batch = (Request(low), Request(high, 3), Request(far))
    schedule = SltfScheduler().schedule(model, origin, batch)
    assert [r.segment for r in schedule] == [high, low, far]
    assert list(schedule.requests) == reference_order(model, origin, batch)
