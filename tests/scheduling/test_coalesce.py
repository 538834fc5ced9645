"""Request coalescing."""


from repro.scheduling import (
    Request,
    coalesce_by_threshold,
    expand_groups,
)


def segments(groups):
    return [[r.segment for r in g.requests] for g in groups]


class TestThresholdCoalescing:
    def test_paper_rule(self):
        # Gap < T joins the group; gap >= T starts a new representative.
        batch = [Request(s) for s in (0, 5, 9, 100, 104, 300)]
        groups = coalesce_by_threshold(batch, threshold=10)
        assert segments(groups) == [[0, 5, 9], [100, 104], [300]]

    def test_exact_threshold_splits(self):
        batch = [Request(0), Request(10)]
        assert len(coalesce_by_threshold(batch, threshold=10)) == 2
        assert len(coalesce_by_threshold(batch, threshold=11)) == 1

    def test_input_order_irrelevant(self):
        shuffled = [Request(s) for s in (104, 0, 300, 9, 100, 5)]
        groups = coalesce_by_threshold(shuffled, threshold=10)
        assert segments(groups) == [[0, 5, 9], [100, 104], [300]]

    def test_chaining(self):
        # Coalescing is transitive along the sorted order: consecutive
        # small gaps chain into one long representative.
        batch = [Request(s) for s in range(0, 100, 9)]
        groups = coalesce_by_threshold(batch, threshold=10)
        assert len(groups) == 1

    def test_group_endpoints(self):
        groups = coalesce_by_threshold(
            [Request(5), Request(8, length=3)], threshold=10
        )
        group = groups[0]
        assert group.first_segment == 5
        assert group.out_segment == 11
        assert len(group) == 2


class TestExpand:
    def test_round_trip_multiset(self, rng):
        batch = [Request(int(s)) for s in rng.integers(0, 10_000, 50)]
        groups = coalesce_by_threshold(batch, threshold=500)
        assert sorted(expand_groups(groups)) == sorted(batch)

    def test_groups_internally_sorted(self, rng):
        batch = [Request(int(s)) for s in rng.integers(0, 10_000, 50)]
        for group in coalesce_by_threshold(batch, threshold=500):
            ordered = [r.segment for r in group.requests]
            assert ordered == sorted(ordered)


def test_empty_batch_gives_no_groups():
    assert coalesce_by_threshold([], threshold=10) == []
    assert expand_groups([]) == []
