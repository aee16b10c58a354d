"""Output oracles: every expected value is recomputed in the same run.

Mining artefacts (DBSCAN labels, DB(p, D)-outliers, kNN lists and the
distance matrix) must be equal exactly: Definition 1 of the paper promises
d(Enc x, Enc y) = d(x, y), with no tolerance.
"""

from __future__ import annotations

import math

import numpy as np

#: Failures kept, with their explanation, for the run record.
KEPT_PROBLEMS = 5


class Verdicts:
    """Counts checked operations and keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problem: str | None) -> None:
        """Record one operation; ``problem`` is ``None`` when it was correct."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < KEPT_PROBLEMS:
                self.problems.append(problem)


def mining_mismatch(expected, actual, *, compare_matrix: bool = True) -> str | None:
    """Explain how two mining results differ (``None`` when equal).

    Both arguments expose ``labels``, ``outlier_indices`` and ``knn``; with
    ``compare_matrix`` both must also carry a condensed ``matrix`` and the
    largest absolute distance difference must be exactly 0.
    """
    if tuple(expected.labels) != tuple(actual.labels):
        differing = sum(a != b for a, b in zip(expected.labels, actual.labels))
        return f"DBSCAN labels differ at {differing} of {len(expected.labels)} items"
    if tuple(expected.outlier_indices) != tuple(actual.outlier_indices):
        return (
            f"outlier sets differ: {len(expected.outlier_indices)} expected, "
            f"{len(actual.outlier_indices)} found"
        )
    if tuple(expected.knn) != tuple(actual.knn):
        first = next(
            index for index, (a, b) in enumerate(zip(expected.knn, actual.knn)) if a != b
        ) if len(expected.knn) == len(actual.knn) else -1
        return f"kNN lists differ (first at item {first})"
    if compare_matrix:
        gap = max_distance_gap(expected.matrix, actual.matrix)
        if gap != 0.0:
            return f"max |d_plain - d_enc| = {gap!r}, Definition 1 requires 0"
    return None


def max_distance_gap(first, second) -> float:
    """max |d_1 - d_2| over all pairs of two condensed matrices."""
    a, b = np.asarray(first.condensed()), np.asarray(second.condensed())
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0
