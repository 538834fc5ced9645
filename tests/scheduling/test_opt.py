"""OPT: exactness of Held–Karp against brute force, and optimality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BatchTooLarge
from repro.scheduling import (
    BruteForceOptScheduler,
    OptScheduler,
    brute_force_path,
    held_karp_path,
    get_scheduler,
    scheduler_names,
)


def random_rectangular(rng, n):
    return rng.uniform(1.0, 100.0, size=(n + 1, n))


def path_cost(matrix, order):
    cost = matrix[0, order[0]]
    for a, b in zip(order, order[1:]):
        cost += matrix[a + 1, b]
    return float(cost)


class TestHeldKarp:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8])
    def test_matches_brute_force(self, rng, n):
        for _ in range(5):
            matrix = random_rectangular(rng, n)
            dp_order = held_karp_path(matrix)
            bf_order = brute_force_path(matrix)
            assert path_cost(matrix, dp_order) == pytest.approx(
                path_cost(matrix, bf_order)
            )

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_on_tie_heavy_matrices(self, n, seed):
        # Integer costs 0..3 make many orders tie; the sums are exact,
        # so the two optima must cost exactly the same.
        matrix = (
            np.random.default_rng(seed)
            .integers(0, 4, size=(n + 1, n))
            .astype(np.float64)
        )
        dp_order = held_karp_path(matrix)
        assert sorted(dp_order) == list(range(n))
        assert path_cost(matrix, dp_order) == path_cost(
            matrix, brute_force_path(matrix)
        )

    def test_visits_everything(self, rng):
        matrix = random_rectangular(rng, 9)
        assert sorted(held_karp_path(matrix)) == list(range(9))

    def test_empty_and_single(self):
        assert held_karp_path(np.zeros((1, 0))) == []
        assert held_karp_path(np.asarray([[3.0], [0.0]])) == [0]


class TestOptScheduler:
    def test_not_worse_than_any_other_scheduler(self, tiny_model, rng):
        batch = rng.choice(
            tiny_model.geometry.total_segments, 9, replace=False
        ).tolist()
        opt = OptScheduler().schedule(tiny_model, 0, batch)
        for name in scheduler_names():
            if name in ("READ", "AUTO") or name.startswith("OPT"):
                continue
            other = get_scheduler(name).schedule(tiny_model, 0, batch)
            assert (
                opt.estimated_seconds
                <= other.estimated_seconds + 1e-6
            ), name

    def test_agrees_with_permutation_opt(self, tiny_model, rng):
        for _ in range(4):
            batch = rng.choice(
                tiny_model.geometry.total_segments, 7, replace=False
            ).tolist()
            dp = OptScheduler().schedule(tiny_model, 0, batch)
            bf = BruteForceOptScheduler().schedule(tiny_model, 0, batch)
            assert dp.estimated_seconds == pytest.approx(
                bf.estimated_seconds
            )

    def test_size_limit(self, tiny_model):
        with pytest.raises(BatchTooLarge):
            OptScheduler(limit=5).schedule(tiny_model, 0, list(range(6)))

    def test_brute_force_default_limit(self, tiny_model):
        with pytest.raises(BatchTooLarge):
            BruteForceOptScheduler().schedule(
                tiny_model, 0, list(range(10))
            )

    def test_single_request(self, tiny_model):
        schedule = OptScheduler().schedule(tiny_model, 0, [5])
        assert [r.segment for r in schedule] == [5]
