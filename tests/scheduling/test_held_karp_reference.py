"""The layered Held–Karp kernel against the straightforward per-mask loop.

:func:`reference_path` is the loop ``held_karp_path`` used to be: masks
in increasing order, every finite (mask, end) cell extended to every
request outside the mask, a cell's parent replaced only on a strictly
smaller cost.  It is kept here only as an oracle; the kernel must
return the same order, ties and missing (+inf) edges included — so the
properties compare orders, not costs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import held_karp_path


def reference_path(distance: np.ndarray) -> list[int]:
    """Held–Karp by one Python pass over every mask."""
    n = distance.shape[1]
    if n == 0:
        return []
    if n == 1:
        return [0]
    size = 1 << n
    infinity = float("inf")
    inner = [row.tolist() for row in distance[1:, :]]
    cost = [[infinity] * n for _ in range(size)]
    parent = [[-1] * n for _ in range(size)]
    start_row = distance[0].tolist()
    for j in range(n):
        cost[1 << j][j] = start_row[j]

    for mask in range(1, size):
        row = cost[mask]
        for j in range(n):
            here = row[j]
            if here == infinity or not (mask >> j) & 1:
                continue
            edges = inner[j]
            for k in range(n):
                if (mask >> k) & 1:
                    continue
                extended = here + edges[k]
                nxt = mask | (1 << k)
                if extended < cost[nxt][k]:
                    cost[nxt][k] = extended
                    parent[nxt][k] = j

    full = size - 1
    final = cost[full]
    end = min(range(n), key=final.__getitem__)
    order = [end]
    mask = full
    while parent[mask][order[-1]] != -1:
        prev = parent[mask][order[-1]]
        mask ^= 1 << order[-1]
        order.append(prev)
    return order[::-1]


def tie_heavy_matrix(n: int, seed: int, missing: float) -> np.ndarray:
    """``(n + 1, n)`` integers 0..3; a ``missing`` share set to +inf."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 4, size=(n + 1, n)).astype(np.float64)
    matrix[rng.random(matrix.shape) < missing] = np.inf
    return matrix


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_matches_reference_on_tie_heavy_matrices(n, seed):
    matrix = tie_heavy_matrix(n, seed, missing=0.0)
    assert held_karp_path(matrix) == reference_path(matrix)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    missing=st.sampled_from([0.1, 0.3, 0.6, 1.0]),
)
def test_matches_reference_with_missing_edges(n, seed, missing):
    matrix = tie_heavy_matrix(n, seed, missing)
    assert held_karp_path(matrix) == reference_path(matrix)


def test_no_finite_path_keeps_the_reference_partial_order():
    # Request 1 is unreachable: the full mask has no finite cell, so
    # the first end (0) has parent -1 and the order stops there.
    matrix = np.array(
        [
            [1.0, np.inf, 2.0],
            [0.0, np.inf, 1.0],
            [0.0, np.inf, 0.0],
            [1.0, np.inf, 0.0],
        ]
    )
    assert held_karp_path(matrix) == reference_path(matrix) == [0]


def test_matches_reference_at_the_largest_sizes():
    for n in (10, 11, 12):
        for missing in (0.0, 0.1):
            matrix = tie_heavy_matrix(n, seed=n, missing=missing)
            assert held_karp_path(matrix) == reference_path(matrix)
