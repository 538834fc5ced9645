"""WEAVE: the fixed pattern and the scheduler built on it."""


from repro.scheduling import WeaveScheduler, weave_pattern
from repro.scheduling.weave import ANTI, CO, SAME, flip


class TestFlip:
    def test_flips_tape_ends(self):
        assert flip(0) == 1
        assert flip(1) == 0
        assert flip(12) == 13
        assert flip(13) == 12

    def test_identity_elsewhere(self):
        for section in range(2, 12):
            assert flip(section) == section


class TestPattern:
    def test_prefix_from_middle_forward(self):
        entries = list(weave_pattern(section=6, direction=1))
        assert entries[:7] == [
            (SAME, 6),
            (SAME, 7),
            (SAME, 8),
            (CO, 8),
            (ANTI, 5),
            (CO, 7),
            (ANTI, 4),
        ]

    def test_prefix_respects_direction(self):
        entries = list(weave_pattern(section=6, direction=-1))
        # In a reverse track "forward" is toward lower physical sections.
        assert entries[:3] == [(SAME, 6), (SAME, 5), (SAME, 4)]

    def test_no_duplicates(self):
        for section in range(14):
            for direction in (1, -1):
                entries = list(weave_pattern(section, direction))
                assert len(entries) == len(set(entries))

    def test_all_sections_in_range(self):
        for section in (0, 7, 13):
            for _, sec in weave_pattern(section, 1):
                assert 0 <= sec <= 13

    def test_nearby_before_far(self):
        # The same-track entries must appear in increasing distance.
        entries = list(weave_pattern(section=2, direction=1))
        same_track = [sec for cls, sec in entries if cls == SAME]
        ahead = [sec for sec in same_track if sec >= 2]
        assert ahead[:3] == [2, 3, 4]


class TestScheduler:
    def test_valid_permutation(self, full_model, rng):
        batch = rng.choice(
            full_model.geometry.total_segments, 120, replace=False
        ).tolist()
        schedule = WeaveScheduler().schedule(full_model, 0, batch)
        assert sorted(r.segment for r in schedule) == sorted(batch)

    def test_sections_consumed_whole_and_ascending(self, full_model, rng):
        geo = full_model.geometry
        batch = rng.choice(
            geo.total_segments, 120, replace=False
        ).tolist()
        schedule = WeaveScheduler().schedule(full_model, 0, batch)
        segments = schedule.segments()
        sections = geo.global_section_of(segments)
        seen = set()
        current = None
        for sid, segment in zip(sections.tolist(), segments.tolist()):
            if sid != current:
                assert sid not in seen  # sections never revisited
                seen.add(sid)
                current = sid

    def test_prefers_read_ahead_neighbour(self, full_model):
        # First weave entry: the section immediately following in the
        # same track.
        geo = full_model.geometry
        near = geo.segment_at(8, 6, 0)
        far = geo.segment_at(30, 13, 5)
        origin = geo.segment_at(8, 5, 2)
        schedule = WeaveScheduler().schedule(full_model, origin,
                                             [far, near])
        assert schedule.requests[0].segment == near

    def test_better_than_fifo_on_average(self, full_model, rng):
        from repro.scheduling import FifoScheduler

        total = full_model.geometry.total_segments
        weave_total = 0.0
        fifo_total = 0.0
        for _ in range(5):
            batch = rng.choice(total, 48, replace=False).tolist()
            weave_total += WeaveScheduler().schedule(
                full_model, 0, batch
            ).estimated_seconds
            fifo_total += FifoScheduler().schedule(
                full_model, 0, batch
            ).estimated_seconds
        assert weave_total < 0.8 * fifo_total

    def test_requires_no_locate_calls(self, full_tape, rng):
        # WEAVE's selling point: it never consults locate_time().
        class ExplodingModel:
            def __init__(self, geometry):
                self.geometry = geometry

            def locate_times(self, *args, **kwargs):
                raise AssertionError("WEAVE must not call locate_times")

            def pairwise_times(self, *args, **kwargs):
                raise AssertionError("WEAVE must not call pairwise_times")

            def times(self, sources, destinations):
                # Only the estimator (after ordering) may cost the
                # schedule.
                import repro.model as model_pkg

                real = model_pkg.LocateTimeModel(self.geometry)
                return real.times(sources, destinations)

            def locate_time(self, source, destination):
                raise AssertionError("WEAVE must not call locate_time")

        batch = rng.choice(
            full_tape.total_segments, 30, replace=False
        ).tolist()
        schedule = WeaveScheduler().schedule(
            ExplodingModel(full_tape), 0, batch
        )
        assert len(schedule) == 30


class TestPatternTable:
    def test_table_holds_every_pattern(self):
        from repro.constants import SECTIONS_PER_TRACK
        from repro.scheduling.weave import _PATTERNS

        keys = {
            (section, direction)
            for section in range(SECTIONS_PER_TRACK)
            for direction in (1, -1)
        }
        assert set(_PATTERNS) == keys and len(keys) == 28
        for (section, direction), pattern in _PATTERNS.items():
            assert pattern == tuple(weave_pattern(section, direction))
