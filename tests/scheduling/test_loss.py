"""LOSS: the max-regret greedy path algorithm."""

import numpy as np
import pytest

from repro.exceptions import SchedulingError
from repro.scheduling import (
    FifoScheduler,
    LossScheduler,
    SltfScheduler,
    loss_path,
    loss_path_fragments,
)


def path_matrix(weights):
    """Square matrix with +inf diagonal and +inf into node 0."""
    matrix = np.asarray(weights, dtype=np.float64)
    np.fill_diagonal(matrix, np.inf)
    matrix[:, 0] = np.inf
    return matrix


class TestLossPath:
    def test_trivial_sizes(self):
        assert loss_path(path_matrix([[0.0]])) == []
        assert loss_path(path_matrix([[0, 1], [9, 0]])) == [1]

    def test_forced_chain(self):
        # Only one finite continuation at each step.
        inf = np.inf
        matrix = path_matrix(
            [
                [inf, 1, inf, inf],
                [inf, inf, 1, inf],
                [inf, inf, inf, 1],
                [inf, inf, inf, inf],
            ]
        )
        assert loss_path(matrix) == [1, 2, 3]

    def test_visits_every_node_once(self, rng):
        for size in (3, 6, 12, 25):
            weights = rng.uniform(1.0, 100.0, size=(size, size))
            order = loss_path(path_matrix(weights))
            assert sorted(order) == list(range(1, size))

    def test_regret_beats_pure_greedy_trap(self):
        # Classic regret example: from 0, node 1 is nearest, but taking
        # it forces a huge edge later; LOSS avoids the trap.
        matrix = path_matrix(
            [
                [0.0, 1.0, 2.0, 50.0],
                [0.0, 0.0, 100.0, 100.0],
                [0.0, 1.5, 0.0, 3.0],
                [0.0, 1.0, 100.0, 0.0],
            ]
        )
        order = loss_path(matrix.copy())
        cost = _path_cost(matrix, order)
        greedy_cost = _path_cost(matrix, [1, 3, 2])  # nearest-first
        assert cost < greedy_cost

    def test_rejects_non_square(self):
        with pytest.raises(SchedulingError):
            loss_path(np.zeros((3, 4)))


def _path_cost(matrix, order):
    cost = matrix[0, order[0]]
    for a, b in zip(order, order[1:]):
        cost += matrix[a, b]
    return float(cost)


class TestLossScheduler:
    def test_valid_permutation(self, full_model, rng):
        batch = rng.choice(
            full_model.geometry.total_segments, 64, replace=False
        ).tolist()
        schedule = LossScheduler().schedule(full_model, 0, batch)
        assert sorted(r.segment for r in schedule) == sorted(batch)

    def test_beats_sltf_on_average(self, full_model, rng):
        # The paper's headline algorithmic claim.
        total = full_model.geometry.total_segments
        loss_sum = 0.0
        sltf_sum = 0.0
        for _ in range(8):
            batch = rng.choice(total, 96, replace=False).tolist()
            loss_sum += LossScheduler().schedule(
                full_model, 0, batch
            ).estimated_seconds
            sltf_sum += SltfScheduler().schedule(
                full_model, 0, batch
            ).estimated_seconds
        assert loss_sum < sltf_sum

    def test_far_better_than_fifo(self, full_model, rng):
        batch = rng.choice(
            full_model.geometry.total_segments, 96, replace=False
        ).tolist()
        loss = LossScheduler().schedule(full_model, 0, batch)
        fifo = FifoScheduler().schedule(full_model, 0, batch)
        assert loss.estimated_seconds < 0.6 * fifo.estimated_seconds

    def test_single_request(self, full_model):
        schedule = LossScheduler().schedule(full_model, 0, [1234])
        assert [r.segment for r in schedule] == [1234]

    def test_single_group_short_circuit(self, full_model):
        # All requests coalesce into one representative.
        batch = [1000, 1100, 1200]
        schedule = LossScheduler().schedule(full_model, 0, batch)
        assert [r.segment for r in schedule] == [1000, 1100, 1200]

    def test_raw_variant_matches_on_sparse_batches(self, full_model, rng):
        # With a huge threshold disabled, raw LOSS still produces a
        # valid, competitive schedule.
        batch = rng.choice(
            full_model.geometry.total_segments, 24, replace=False
        ).tolist()
        raw = LossScheduler(threshold=None).schedule(full_model, 0, batch)
        coalesced = LossScheduler().schedule(full_model, 0, batch)
        assert sorted(r.segment for r in raw) == sorted(batch)
        assert raw.estimated_seconds < 1.3 * coalesced.estimated_seconds

    def test_multi_segment_requests(self, full_model, rng):
        from repro.scheduling import Request

        batch = [
            Request(int(s), length=10)
            for s in rng.choice(
                full_model.geometry.total_segments - 10, 16, replace=False
            )
        ]
        schedule = LossScheduler().schedule(full_model, 0, batch)
        assert sorted(schedule.requests) == sorted(batch)


class TestLossPathFragments:
    def test_complete_matrix_gives_one_fragment(self, rng):
        n = 8
        matrix = np.full((n + 1, n + 1), np.inf)
        matrix[:, 1:] = rng.uniform(1, 50, size=(n + 1, n))
        fragments = loss_path_fragments(matrix)
        assert len(fragments) == 1
        assert fragments[0][0] == 0
        assert sorted(fragments[0][1:]) == list(range(1, n + 1))

    def test_disconnected_matrix_gives_pieces(self):
        inf = np.inf
        # Two islands: {0 -> 1} and {2 <-> 3}, no bridge.
        matrix = np.asarray(
            [
                [inf, 2.0, inf, inf],
                [inf, inf, inf, inf],
                [inf, inf, inf, 3.0],
                [inf, inf, 5.0, inf],
            ]
        )
        fragments = loss_path_fragments(matrix)
        assert [0, 1] in fragments
        # 2 and 3 form one fragment (one edge picked, cycle forbidden).
        assert any(
            sorted(fragment) == [2, 3]
            for fragment in fragments
            if fragment[0] != 0
        )

    def test_origin_fragment_first(self, rng):
        n = 5
        matrix = np.full((n + 1, n + 1), np.inf)
        matrix[:, 1:] = rng.uniform(1, 50, size=(n + 1, n))
        fragments = loss_path_fragments(matrix)
        assert fragments[0][0] == 0
