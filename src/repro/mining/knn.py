"""k-nearest-neighbour queries over a precomputed distance matrix.

:func:`k_nearest_neighbors` orders candidates by ``(distance, index)``
ascending and selects the first ``k`` by O(n) partial selection
(:func:`~repro.mining.selection.smallest_indices`) instead of sorting the
whole row.  :func:`k_nearest_neighbors_reference` keeps the sort-based
definition as the oracle; the two are bit-for-bit equal, ties included.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.exceptions import MiningError
from repro.mining.matrix import pairwise_view
from repro.mining.selection import smallest_indices


def k_nearest_neighbors(
    distance_matrix: np.ndarray, index: int, *, k: int
) -> tuple[int, ...]:
    """The indices of the ``k`` nearest neighbours of item ``index``.

    The item itself is excluded; ties are broken by smaller index so the
    result is deterministic.  Accepts the square form or a condensed
    :class:`~repro.mining.matrix.CondensedDistanceMatrix` — only one row of
    distances is ever materialised.
    """
    matrix = pairwise_view(distance_matrix)
    n = matrix.n_items
    if not 0 <= index < n:
        raise MiningError(f"index {index} out of range for {n} items")
    if not 1 <= k <= n - 1:
        raise MiningError(f"k must be between 1 and {n - 1}")
    row = matrix.row(index).copy()
    # Validated distances are finite, so +inf excludes the item itself from
    # selection without shifting any tie-break.
    row[index] = np.inf
    return tuple(smallest_indices(row, k).tolist())


def k_nearest_neighbors_reference(
    distance_matrix: np.ndarray, index: int, *, k: int
) -> tuple[int, ...]:
    """Sort-based oracle for :func:`k_nearest_neighbors` (same contract).

    Builds every ``(distance, index)`` pair of the row and sorts them — the
    definition the selection-based fast path must match bit for bit.
    """
    matrix = pairwise_view(distance_matrix)
    n = matrix.n_items
    if not 0 <= index < n:
        raise MiningError(f"index {index} out of range for {n} items")
    if not 1 <= k <= n - 1:
        raise MiningError(f"k must be between 1 and {n - 1}")
    row = matrix.row(index)
    candidates = [(float(row[j]), j) for j in range(n) if j != index]
    candidates.sort()
    return tuple(j for _, j in candidates[:k])


def knn_classify(
    distance_matrix: np.ndarray,
    labels: list[int | str],
    index: int,
    *,
    k: int,
) -> int | str:
    """Majority-vote k-NN classification of item ``index``.

    ``labels`` provides the class of every item; the label of ``index``
    itself is ignored.  Ties between classes are broken by the class of the
    nearest neighbour among the tied classes, keeping the outcome
    deterministic.
    """
    matrix = pairwise_view(distance_matrix)
    if len(labels) != matrix.n_items:
        raise MiningError("labels must have one entry per item")
    neighbors = k_nearest_neighbors(matrix, index, k=k)
    votes = Counter(labels[j] for j in neighbors)
    best_count = max(votes.values())
    tied = {label for label, count in votes.items() if count == best_count}
    for j in neighbors:
        if labels[j] in tied:
            return labels[j]
    raise MiningError("unreachable: no neighbour carried a tied label")
