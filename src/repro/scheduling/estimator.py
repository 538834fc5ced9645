"""Schedule execution-time estimation.

"Given the locate time model ... it is possible to estimate how long it
will take the DLT4000 to read a sequence of segments.  This is the
essential ingredient for scheduling." (Section 3.)

The estimate of a schedule is the sum of the locate time into each
request (from the previous request's end position) plus the transfer
time of the data read.  The READ algorithm's whole-tape plan is costed
as a full sequential read plus rewind instead.

When the estimator is given the same model the simulated drive uses,
the estimate matches the drive's measured execution exactly (tested);
validation experiments arise from giving the two *different* models.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SEGMENT_TRANSFER_SECONDS
from repro.model.rewind import rewind_time
from repro.scheduling.request import request_lengths
from repro.scheduling.schedule import Schedule
from repro.drive.simulated import TRACK_TURNAROUND_SECONDS


def locate_sequence_times(model, schedule: Schedule) -> np.ndarray:
    """Per-request locate times of a schedule, in execution order."""
    return _locates_and_length(model, schedule)[0]


def _locates_and_length(
    model, schedule: Schedule
) -> tuple[np.ndarray, int]:
    """Per-request locate times and the total segments read, from one
    pass over the requests.

    Request ``k`` is located to from the out position of request
    ``k - 1`` (the origin for the first): its end segment, clamped to
    the last segment of the tape, as in
    :func:`~repro.model.distance_matrix.out_positions`.
    """
    requests = schedule.requests
    count = len(requests)
    if count == 0:
        return np.zeros(0, dtype=np.float64), 0
    segments = schedule.segments()
    lengths = request_lengths(requests)
    sources = np.empty(count, dtype=np.int64)
    sources[0] = schedule.origin
    tail = sources[1:]
    np.add(segments[:-1], lengths[:-1], out=tail)
    np.minimum(tail, model.geometry.total_segments - 1, out=tail)
    return model.times(sources, segments), int(lengths.sum())


def _transfer_seconds(model) -> float:
    """Per-segment transfer time of a model (profile-aware)."""
    return getattr(
        model, "segment_transfer_seconds", SEGMENT_TRANSFER_SECONDS
    )


def full_read_seconds(model_or_geometry) -> float:
    """Time for the READ algorithm: rewind-to-BOT assumed done, then a
    sequential scan of the whole tape plus the final rewind.

    Accepts a locate-time model (profile-aware) or a bare geometry
    (default DLT4000 profile)."""
    model = model_or_geometry
    geometry = getattr(model, "geometry", model)
    if geometry is model:
        model = None
    scan = geometry.total_segments * (
        _transfer_seconds(model) if model is not None
        else SEGMENT_TRANSFER_SECONDS
    )
    turnaround = (geometry.num_tracks - 1) * TRACK_TURNAROUND_SECONDS
    last = geometry.total_segments - 1
    if model is not None and hasattr(model, "rewind_seconds"):
        final_rewind = float(model.rewind_seconds(last))
    else:
        final_rewind = float(rewind_time(geometry, last))
    return scan + turnaround + final_rewind


def estimate_schedule_seconds(
    model, schedule: Schedule, include_transfers: bool = True
) -> float:
    """Model-estimated execution time of a schedule, in seconds.

    Parameters
    ----------
    model:
        Locate-time model (or wrapper); need not be the model that
        produced the schedule — that is exactly how the validation
        experiments measure estimate error.
    schedule:
        The plan to cost.
    include_transfers:
        Include data-transfer time.  The paper's "time per locate"
        metric excludes transfers; pass ``False`` to match it.
    """
    if schedule.whole_tape:
        base = full_read_seconds(model)
        if schedule.origin != 0:
            if hasattr(model, "rewind_seconds"):
                base += float(model.rewind_seconds(schedule.origin))
            else:
                base += float(
                    rewind_time(model.geometry, schedule.origin)
                )
        return base

    times, length = _locates_and_length(model, schedule)
    locates = float(times.sum())
    if not include_transfers:
        return locates
    return locates + float(length) * _transfer_seconds(model)


def estimate_locate_seconds(model, schedule: Schedule) -> float:
    """Total positioning-only time of a schedule.

    For a whole-tape READ plan there is no meaningful split between
    positioning and transfer, so the full plan time is returned (the
    paper's per-locate numbers for READ divide the whole 14,000 s by
    the batch size).
    """
    if schedule.whole_tape:
        return estimate_schedule_seconds(model, schedule)
    return float(locate_sequence_times(model, schedule).sum())
