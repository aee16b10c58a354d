"""Deterministic partial selection over distance arrays.

The mining artefacts are defined with explicit tie-breaks — k-nearest
neighbours order candidates by ``(distance, index)`` ascending, outlier
rankings by ``(-score, index)`` — so a plain ``np.argpartition`` is not
enough: partitioning compares distances only and returns ties in an
arbitrary (platform-dependent) order.  The helpers here combine
``argpartition``'s O(n) selection with an explicit tie-break pass: partition
to find the k-th order statistic, take *every* element on the boundary
value, sort only that (small) candidate set under the documented tie-break,
and truncate.  The result is bit-for-bit equal to fully sorting the input —
tested against the sort-based reference — at partial-selection cost.

Used by the exact kNN lists (:func:`~repro.mining.knn.k_nearest_neighbors`)
and outlier ranking (:func:`~repro.mining.outliers.top_n_outliers`), by
:class:`~repro.mining.incremental.IncrementalDistanceMatrix` (kNN
maintenance and the memoized ``top_outliers`` ranking) and by the pivot
index layer (:mod:`repro.mining.approx`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MiningError


def smallest_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest ``values``, ties broken by smaller index.

    Equivalent to ``np.argsort(values, kind="stable")[:k]`` (bit-for-bit,
    including NaN-free ordering of ties) but runs in O(n + t log t) where
    ``t`` is the candidate set around the k-th order statistic instead of
    O(n log n).
    """
    array = np.asarray(values)
    n = array.shape[0]
    if not 0 <= k <= n:
        raise MiningError(f"cannot select {k} smallest of {n} values")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k == n:
        return np.argsort(array, kind="stable").astype(np.int64, copy=False)
    partitioned = np.argpartition(array, k - 1)
    boundary = array[partitioned[k - 1]]
    # Everything strictly below the boundary is certainly selected; the
    # boundary value itself may be tied, so gather all of its occurrences
    # and resolve the tie by index.
    candidates = np.flatnonzero(array <= boundary)
    order = np.argsort(array[candidates], kind="stable")
    return candidates[order][:k].astype(np.int64, copy=False)


def largest_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest ``values``, ties broken by smaller index.

    The descending counterpart of :func:`smallest_indices`: equivalent to
    sorting by ``(-value, index)`` and truncating, at partial-selection
    cost.  This is the ranking order of
    :func:`~repro.mining.outliers.top_n_outliers`.
    """
    array = np.asarray(values)
    n = array.shape[0]
    if not 0 <= k <= n:
        raise MiningError(f"cannot select {k} largest of {n} values")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k == n:
        return np.argsort(-array, kind="stable").astype(np.int64, copy=False)
    partitioned = np.argpartition(-array, k - 1)
    boundary = array[partitioned[k - 1]]
    candidates = np.flatnonzero(array >= boundary)
    order = np.argsort(-array[candidates], kind="stable")
    return candidates[order][:k].astype(np.int64, copy=False)


__all__ = ["largest_indices", "smallest_indices"]
