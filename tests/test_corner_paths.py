"""Corner paths across subsystems that the mainline tests skirt."""

import numpy as np
import pytest

from repro.scheduling import WeaveScheduler, full_read_seconds


class TestWeaveFallback:
    def test_pattern_gap_falls_back_to_nearest(self, full_model):
        # From section 0 of a forward track, the published weave
        # pattern never names (CT, 0) — same physical section in a
        # co-directional track.  The scheduler must still service it
        # via the nearest-section fallback.
        geo = full_model.geometry
        origin = geo.segment_at(0, 0, 0)
        only_request = geo.segment_at(2, 0, 3)
        schedule = WeaveScheduler().schedule(
            full_model, origin, [only_request]
        )
        assert [r.segment for r in schedule] == [only_request]

    def test_mixed_gap_and_pattern_requests(self, full_model):
        geo = full_model.geometry
        origin = geo.segment_at(0, 0, 0)
        gap_request = geo.segment_at(2, 0, 3)       # pattern gap
        easy_request = geo.segment_at(0, 1, 5)      # first weave entry
        schedule = WeaveScheduler().schedule(
            full_model, origin, [gap_request, easy_request]
        )
        assert sorted(r.segment for r in schedule) == sorted(
            [gap_request, easy_request]
        )
        # The in-pattern neighbour is taken before the fallback one.
        assert schedule.requests[0].segment == easy_request


class TestFullReadParity:
    def test_model_and_geometry_paths_agree_on_default_profile(
        self, tiny, tiny_model
    ):
        assert full_read_seconds(tiny_model) == pytest.approx(
            full_read_seconds(tiny)
        )


class TestWearCustomRating:
    def test_exabyte_budget_depletes_fast(self):
        from repro.drive import EXABYTE_RATED_PASSES, WearMeter
        from repro.geometry.tape import TAPE_PHYS_LENGTH

        meter = WearMeter(rated_passes=EXABYTE_RATED_PASSES)
        meter.add_travel(150 * TAPE_PHYS_LENGTH)
        assert meter.life_used_fraction == pytest.approx(0.1)
        assert meter.passes_remaining == pytest.approx(1350.0)


class TestLibraryWearIntegration:
    def test_wear_tracked_across_mounts(self):
        from repro.drive import SimulatedDrive, WearMeter
        from repro.geometry import tiny_tape
        from repro.model import LocateTimeModel

        tape = tiny_tape(seed=3)
        model = LocateTimeModel(tape)
        meter = WearMeter()
        # A segment at the physical far end of the tape.
        deep = tape.track_layout(0).last_segment
        # Two "mount sessions" sharing one cartridge's meter: each
        # travels out (~1 tape length) and rewinds (~1 tape length).
        for _ in range(2):
            drive = SimulatedDrive(model, wear_meter=meter)
            drive.locate(deep)
            drive.rewind()
        assert meter.passes == pytest.approx(4.0, abs=0.5)


class TestReprs:
    def test_debug_reprs_do_not_crash(self, tiny, tiny_model):
        from repro.scheduling import LossScheduler

        assert "TapeGeometry" in repr(tiny)
        assert "LossScheduler" in repr(LossScheduler())


class TestNumpyIntegerInputs:
    def test_schedulers_accept_numpy_ints(self, tiny_model, rng):
        from repro.scheduling import get_scheduler

        batch = rng.choice(
            tiny_model.geometry.total_segments, 6, replace=False
        )  # numpy array, not a list
        for name in ("SORT", "LOSS", "OPT"):
            schedule = get_scheduler(name).schedule(
                tiny_model, np.int64(0), batch
            )
            assert len(schedule) == 6
