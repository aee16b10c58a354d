"""Distance-based outlier detection (Knorr, Ng & Tucakov, VLDBJ 2000).

An object ``o`` is a *DB(p, D)-outlier* if at least fraction ``p`` of all
objects lie at distance greater than ``D`` from ``o``.  The module also
provides the common "top-n by k-NN distance" ranking variant, which the
benchmark harness uses to compare outlier rankings between the plaintext and
encrypted sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import MiningError
from repro.mining.matrix import pairwise_view
from repro.mining.selection import largest_indices, smallest_indices


@dataclass(frozen=True)
class OutlierResult:
    """Outcome of a DB(p, D)-outlier scan."""

    outliers: tuple[int, ...]
    fraction_far: tuple[float, ...]
    p: float
    d: float

    def is_outlier(self, index: int) -> bool:
        """True if the item at ``index`` was flagged."""
        return index in set(self.outliers)


def distance_based_outliers(
    distance_matrix: np.ndarray, *, p: float, d: float
) -> OutlierResult:
    """Find all DB(p, D)-outliers.

    Parameters
    ----------
    distance_matrix:
        Square symmetric matrix of pairwise distances, or a condensed
        :class:`~repro.mining.matrix.CondensedDistanceMatrix` (rows are
        scanned one at a time, the square form is never materialised).
    p:
        Required fraction (0 < p <= 1) of objects farther than ``d``.
    d:
        Distance threshold ``D``.
    """
    if not 0.0 < p <= 1.0:
        raise MiningError("p must lie in (0, 1]")
    if d < 0:
        raise MiningError("d must be non-negative")
    matrix = pairwise_view(distance_matrix)
    n = matrix.n_items
    if n == 1:
        return OutlierResult(outliers=(), fraction_far=(0.0,), p=p, d=d)

    fractions: list[float] = []
    outliers: list[int] = []
    for i in range(n):
        others = np.delete(matrix.row(i), i)
        fraction = float(np.count_nonzero(others > d)) / (n - 1)
        fractions.append(fraction)
        if fraction >= p:
            outliers.append(i)
    return OutlierResult(
        outliers=tuple(outliers), fraction_far=tuple(fractions), p=p, d=d
    )


def top_n_outliers(distance_matrix: np.ndarray, *, n_outliers: int, k: int = 3) -> tuple[int, ...]:
    """Rank items by their distance to the k-th nearest neighbour, return the top n.

    Ties are broken by smaller index so the ranking is deterministic.  Both
    the k-th-neighbour distance and the ``(-score, index)`` ranking come
    from the partial selectors of :mod:`repro.mining.selection`.  Accepts
    the square form or a condensed
    :class:`~repro.mining.matrix.CondensedDistanceMatrix`.
    """
    matrix = pairwise_view(distance_matrix)
    n = matrix.n_items
    if not 1 <= n_outliers <= n:
        raise MiningError(f"n_outliers must be between 1 and {n}")
    if not 1 <= k < n:
        raise MiningError(f"k must be between 1 and {n - 1}")
    scores = np.empty(n, dtype=float)
    for i in range(n):
        row = matrix.row(i).copy()
        row[i] = np.inf  # validated distances are finite: excludes the item itself
        scores[i] = row[smallest_indices(row, k)[-1]]
    return tuple(largest_indices(scores, n_outliers).tolist())
