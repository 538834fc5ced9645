"""Property-based tests of the schedulers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.drive import SimulatedDrive
from repro.geometry import tiny_tape
from repro.model import LinearizedModel, LocateTimeModel, out_positions
from repro.scheduling import (
    LossScheduler,
    execute_schedule,
    get_scheduler,
    held_karp_path,
    brute_force_path,
    locate_sequence_times,
    loss_path,
    request_lengths,
)

_TAPE = tiny_tape(seed=21, tracks=4)
_MODEL = LocateTimeModel(_TAPE)
_LINEAR = LinearizedModel(_MODEL)

segments = st.integers(min_value=0, max_value=_TAPE.total_segments - 1)
batches = st.lists(segments, min_size=1, max_size=24, unique=True)
# Schedulers are stateless, so one instance each serves every example;
# LossScheduler(threshold=None) is the uncoalesced LOSS.
algorithms = st.sampled_from(
    [get_scheduler(name) for name in (
        "FIFO", "SORT", "SLTF", "SLTF-naive", "SLTF-coalesce",
        "SCAN", "WEAVE", "LOSS", "LOSS+oropt", "READ",
        "LTSP-exact", "LTSP-repair", "LTSP-sweep", "LTSP-greedy",
    )]
    + [LossScheduler(threshold=None)]
)
ltsp_algorithms = st.sampled_from(
    ["LTSP-exact", "LTSP-repair", "LTSP-sweep", "LTSP-greedy"]
)


@given(batch=batches, origin=segments, scheduler=algorithms)
@settings(max_examples=120, deadline=None)
def test_every_scheduler_returns_a_permutation(batch, origin, scheduler):
    schedule = scheduler.schedule(_MODEL, origin, batch)
    assert sorted(r.segment for r in schedule) == sorted(batch)
    assert schedule.origin == origin
    assert schedule.estimated_seconds is not None
    assert schedule.estimated_seconds >= 0.0


@given(batch=st.lists(segments, min_size=1, max_size=7, unique=True),
       origin=segments)
@settings(max_examples=40, deadline=None)
def test_opt_lower_bounds_heuristics(batch, origin):
    opt = get_scheduler("OPT").schedule(_MODEL, origin, batch)
    for name in ("FIFO", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS"):
        other = get_scheduler(name).schedule(_MODEL, origin, batch)
        assert opt.estimated_seconds <= other.estimated_seconds + 1e-6


@given(batch=st.lists(segments, min_size=1, max_size=12, unique=True),
       origin=segments, scheduler=algorithms)
@settings(max_examples=60, deadline=None)
def test_estimate_matches_execution(batch, origin, scheduler):
    schedule = scheduler.schedule(_MODEL, origin, batch)
    drive = SimulatedDrive(_MODEL, initial_position=origin)
    result = execute_schedule(drive, schedule)
    assert abs(result.total_seconds - schedule.estimated_seconds) < 1e-6


@st.composite
def distance_matrices(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    values = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=99.0),
            min_size=(n + 1) * n,
            max_size=(n + 1) * n,
        )
    )
    return np.asarray(values, dtype=np.float64).reshape(n + 1, n)


@given(matrix=distance_matrices())
@settings(max_examples=80, deadline=None)
def test_held_karp_is_exact(matrix):
    n = matrix.shape[1]
    dp = held_karp_path(matrix)
    bf = brute_force_path(matrix)

    def cost(order):
        total = matrix[0, order[0]]
        for a, b in zip(order, order[1:]):
            total += matrix[a + 1, b]
        return total

    assert sorted(dp) == list(range(n))
    assert cost(dp) <= cost(bf) + 1e-9


def _linear_travel(schedule):
    """Total linear head travel: deadhead plus read legs."""
    deadhead = float(locate_sequence_times(_LINEAR, schedule).sum())
    segs = schedule.segments()
    lengths = request_lengths(schedule.requests)
    exits = out_positions(segs, lengths, _TAPE.total_segments)
    read_legs = float(
        np.abs(_TAPE.phys_of(exits) - _TAPE.phys_of(segs)).sum()
    ) * _LINEAR.seconds_per_section
    return deadhead + read_legs


@given(batch=batches, origin=segments, name=ltsp_algorithms)
@settings(max_examples=80, deadline=None)
def test_ltsp_schedulers_are_deterministic_and_relabel_stable(
    batch, origin, name
):
    """Same schedule for the same batch in any arrival order."""
    scheduler = get_scheduler(name)
    first = scheduler.schedule(_MODEL, origin, batch)
    second = scheduler.schedule(_MODEL, origin, list(reversed(batch)))
    assert [r.segment for r in first] == [r.segment for r in second]
    assert first.estimated_seconds == second.estimated_seconds


@given(batch=batches, origin=segments)
@settings(max_examples=80, deadline=None)
def test_sweep_respects_three_approximation_on_linear_costs(
    batch, origin
):
    """The sweep policy's total linear travel is at most 3x optimal.

    Proof sketch (docs/OPTIMALITY.md): the better sweep's deadhead is
    at most span + lead-in + 2F where F is the total read-leg travel;
    the optimum's total is at least max(span + lead-in, F); hence
    sweep_total <= OPT + 2F <= 3 * OPT.
    """
    optimum = _linear_travel(
        get_scheduler("LTSP-exact").schedule(_LINEAR, origin, batch)
    )
    sweep = _linear_travel(
        get_scheduler("LTSP-sweep").schedule(_LINEAR, origin, batch)
    )
    assert sweep <= 3.0 * optimum + 1e-6


@given(batch=batches, origin=segments, name=ltsp_algorithms)
@settings(max_examples=60, deadline=None)
def test_ltsp_schedulers_never_beat_exact_linear_travel(
    batch, origin, name
):
    optimum = _linear_travel(
        get_scheduler("LTSP-exact").schedule(_LINEAR, origin, batch)
    )
    other = _linear_travel(
        get_scheduler(name).schedule(_LINEAR, origin, batch)
    )
    assert other >= optimum - 1e-6


@given(matrix=distance_matrices(max_size=10))
@settings(max_examples=60, deadline=None)
def test_loss_path_is_a_valid_path(matrix):
    n = matrix.shape[1]
    square = np.full((n + 1, n + 1), np.inf)
    square[:, 1:] = matrix
    order = loss_path(square)
    assert sorted(order) == list(range(1, n + 1))
