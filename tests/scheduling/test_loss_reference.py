"""The incremental LOSS kernel against the straightforward max-loss loop.

:func:`reference_fragments` is the O(m³) loop ``loss_path_fragments``
used to be: every step partitions the whole work matrix by rows and by
columns to find each city's shortest and second-shortest edge.  It is
kept here only as an oracle; the kernel must build the same fragments,
ties and missing (+inf) edges included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchedulingError
from repro.model.distance_matrix import schedule_distance_matrix
from repro.scheduling import loss_path_fragments


def reference_fragments(distance: np.ndarray) -> list[list[int]]:
    """Max-loss edge selection by a full rescan per edge."""
    m = distance.shape[0]
    if distance.shape != (m, m):
        raise SchedulingError("distance matrix must be square")
    if m == 1:
        return [[0]]
    work = distance.astype(np.float64, copy=True)
    np.fill_diagonal(work, np.inf)
    work[:, 0] = np.inf

    successor = np.full(m, -1, dtype=np.int64)
    predecessor = np.full(m, -1, dtype=np.int64)
    parent = np.arange(m, dtype=np.int64)
    head = np.arange(m, dtype=np.int64)
    tail = np.arange(m, dtype=np.int64)

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for _ in range(m - 1):
        edge = _select_edge(work)
        if edge is None:
            break
        u, v = edge
        successor[u] = v
        predecessor[v] = u
        work[u, :] = np.inf
        work[:, v] = np.inf
        root_u, root_v = find(u), find(v)
        parent[root_v] = root_u
        new_head, new_tail = head[root_u], tail[root_v]
        head[root_u], tail[root_u] = new_head, new_tail
        work[new_tail, new_head] = np.inf

    fragments: list[list[int]] = []
    for node in range(m):
        if predecessor[node] != -1:
            continue
        fragment = [node]
        cursor = int(successor[node])
        while cursor != -1:
            fragment.append(cursor)
            cursor = int(successor[cursor])
        fragments.append(fragment)
    fragments.sort(key=lambda fragment: fragment[0] != 0)
    return fragments


def _select_edge(work: np.ndarray) -> tuple[int, int] | None:
    """Pick the next edge by the max-loss rule; None when exhausted."""
    with np.errstate(invalid="ignore"):
        row_two = np.partition(work, 1, axis=1)[:, :2]
        col_two = np.partition(work, 1, axis=0)[:2, :]
        out_loss = row_two[:, 1] - row_two[:, 0]
        in_loss = col_two[1, :] - col_two[0, :]
    out_loss = _sanitize_loss(out_loss, row_two[:, 0], row_two[:, 1])
    in_loss = _sanitize_loss(in_loss, col_two[0, :], col_two[1, :])

    loss = np.maximum(out_loss, in_loss)
    city = int(np.argmax(loss))
    if loss[city] == -np.inf:
        return None
    if out_loss[city] >= in_loss[city]:
        return city, int(np.argmin(work[city, :]))
    return int(np.argmin(work[:, city])), city


def _sanitize_loss(
    loss: np.ndarray, best: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """No candidate edge: loss -inf; exactly one (forced): +inf."""
    loss = loss.copy()
    loss[~np.isfinite(best)] = -np.inf
    loss[np.isfinite(best) & ~np.isfinite(second)] = np.inf
    return loss


def synthetic_matrix(family: str, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "uniform":
        return rng.uniform(0.0, 100.0, size=(m, m))
    if family == "ties":
        return rng.integers(0, 4, size=(m, m)).astype(np.float64)
    matrix = rng.integers(0, 10, size=(m, m)).astype(np.float64)
    matrix[rng.random((m, m)) < 0.3] = np.inf
    return matrix


def locate_matrix(model, m: int, seed: int) -> np.ndarray:
    """The square matrix ``LossScheduler`` builds for ``m - 1`` requests."""
    rng = np.random.default_rng(seed)
    total = model.geometry.total_segments
    draws = rng.choice(total, size=m, replace=False)
    square = np.full((m, m), np.inf)
    square[:, 1:] = schedule_distance_matrix(model, int(draws[0]), draws[1:])
    return square


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(["uniform", "ties", "sparse"]),
    m=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_reference_on_synthetic_matrices(family, m, seed):
    matrix = synthetic_matrix(family, m, seed)
    assert loss_path_fragments(matrix) == reference_fragments(matrix)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_matches_reference_on_locate_matrices(full_model, m, seed):
    matrix = locate_matrix(full_model, m, seed)
    assert loss_path_fragments(matrix) == reference_fragments(matrix)


@pytest.mark.parametrize("family", ["uniform", "ties", "sparse"])
def test_matches_reference_past_the_property_sizes(family):
    # Paper-sweep batches coalesce to m of about 170.
    for m in (61, 97, 140, 200, 256):
        matrix = synthetic_matrix(family, m, seed=m)
        assert loss_path_fragments(matrix) == reference_fragments(matrix)


def test_input_matrix_untouched():
    matrix = synthetic_matrix("sparse", 12, seed=3)
    before = matrix.copy()
    loss_path_fragments(matrix)
    np.testing.assert_array_equal(matrix, before)


def test_lines_with_one_and_no_finite_entry():
    # Row 3 has exactly one finite entry, so 3 -> 4 is forced (loss
    # +inf) and taken first; row 4 has none (loss -inf) and can only
    # end the path.
    inf = np.inf
    matrix = np.array(
        [
            [inf, 4.0, 1.0, 7.0, 9.0],
            [inf, inf, 2.0, 3.0, inf],
            [inf, 5.0, inf, 1.0, 6.0],
            [inf, inf, inf, inf, 2.0],
            [inf, inf, inf, inf, inf],
        ]
    )
    expected = [[0, 1, 2, 3, 4]]
    assert reference_fragments(matrix) == expected
    assert loss_path_fragments(matrix) == expected
