"""Condensed-matrix round-trips through the mining entry points.

Every mining algorithm must produce *identical* results whether it is fed
the square distance matrix, the :class:`CondensedDistanceMatrix`, or the
bare 1-D condensed array — the condensed path reconstructs the exact same
stored floats, so this is an equality check, not an approximation check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MiningError
from repro.mining import (
    CondensedDistanceMatrix,
    complete_link,
    condensed_length,
    cut_dendrogram,
    dbscan,
    distance_based_outliers,
    k_medoids,
    k_nearest_neighbors,
    knn_classify,
    n_items_from_condensed,
    pairwise_view,
    top_n_outliers,
)


def _random_square(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = rng.uniform(0.05, 1.0, size=(n, n))
    matrix = np.triu(upper, k=1)
    return matrix + matrix.T


@pytest.fixture(scope="module")
def square() -> np.ndarray:
    return _random_square(14, seed=123)


@pytest.fixture(scope="module")
def condensed(square) -> CondensedDistanceMatrix:
    return CondensedDistanceMatrix.from_square(square)


class TestCondensedDistanceMatrix:
    def test_round_trip(self, square, condensed):
        assert condensed.n == square.shape[0]
        assert np.array_equal(condensed.to_square(), square)

    def test_row_and_value_match_square(self, square, condensed):
        n = square.shape[0]
        for i in range(n):
            assert np.array_equal(condensed.row(i), square[i])
            for j in range(n):
                assert condensed.value(i, j) == square[i, j]

    def test_columns_and_submatrix_match_square(self, square, condensed):
        indices = [0, 3, 7]
        assert np.array_equal(condensed.columns(indices), square[:, indices])
        assert np.array_equal(condensed.submatrix(indices), square[np.ix_(indices, indices)])

    def test_validation(self):
        with pytest.raises(MiningError):
            CondensedDistanceMatrix(values=np.zeros((2, 2)), n=2)  # not 1-D
        with pytest.raises(MiningError):
            CondensedDistanceMatrix(values=np.zeros(4), n=4)  # wrong length
        with pytest.raises(MiningError):
            CondensedDistanceMatrix(values=np.array([-1.0]), n=2)  # negative
        with pytest.raises(MiningError):
            CondensedDistanceMatrix(values=np.zeros(0), n=0)  # no items

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("form", ["square", "condensed"])
    def test_non_finite_entries_rejected(self, form, bad):
        # NaN slips past every ordered comparison, and +inf is the kNN
        # self-exclusion sentinel, so both must be refused at the boundary.
        values = np.array([0.5, bad, 0.2])
        square = np.zeros((3, 3))
        square[np.triu_indices(3, k=1)] = values
        square = square + square.T
        with pytest.raises(MiningError, match="non-finite"):
            if form == "square":
                pairwise_view(square)
            else:
                CondensedDistanceMatrix(values=values, n=3)
        with pytest.raises(MiningError, match="non-finite"):
            k_nearest_neighbors(square if form == "square" else values, 0, k=1)

    def test_diagonal_not_stored(self, condensed):
        assert condensed.value(3, 3) == 0.0
        with pytest.raises(MiningError):
            condensed.index(3, 3)

    def test_length_helpers(self):
        assert condensed_length(6) == 15
        assert n_items_from_condensed(15) == 6
        assert n_items_from_condensed(0) == 1
        with pytest.raises(MiningError):
            n_items_from_condensed(14)

    def test_pairwise_view_accepts_all_forms(self, square, condensed):
        for form in (square, condensed, condensed.values):
            view = pairwise_view(form)
            assert view.n_items == square.shape[0]
            assert view.value(0, 1) == square[0, 1]
        assert pairwise_view(condensed) is condensed


class TestMiningEquivalenceAcrossRepresentations:
    """Square, condensed object and bare 1-D array must agree exactly."""

    def _forms(self, square):
        condensed = CondensedDistanceMatrix.from_square(square)
        return [square, condensed, condensed.values]

    def test_dbscan(self, square):
        eps = float(np.median(square[square > 0]))
        results = [dbscan(form, eps=eps, min_points=3) for form in self._forms(square)]
        assert results[0] == results[1] == results[2]

    def test_k_medoids(self, square):
        results = [k_medoids(form, k=4) for form in self._forms(square)]
        assert results[0] == results[1] == results[2]

    def test_complete_link_and_cut(self, square):
        dendrograms = [complete_link(form) for form in self._forms(square)]
        assert dendrograms[0] == dendrograms[1] == dendrograms[2]
        cuts = [cut_dendrogram(d, n_clusters=4) for d in dendrograms]
        assert cuts[0] == cuts[1] == cuts[2]

    def test_outliers(self, square):
        d = float(np.quantile(square, 0.8))
        results = [
            distance_based_outliers(form, p=0.7, d=d) for form in self._forms(square)
        ]
        assert results[0] == results[1] == results[2]
        rankings = [top_n_outliers(form, n_outliers=3, k=2) for form in self._forms(square)]
        assert rankings[0] == rankings[1] == rankings[2]

    def test_knn(self, square):
        n = square.shape[0]
        labels = [index % 3 for index in range(n)]
        for index in range(n):
            neighbor_lists = [
                k_nearest_neighbors(form, index, k=3) for form in self._forms(square)
            ]
            assert neighbor_lists[0] == neighbor_lists[1] == neighbor_lists[2]
            votes = [
                knn_classify(form, labels, index, k=3) for form in self._forms(square)
            ]
            assert votes[0] == votes[1] == votes[2]

    def test_validation_still_applies_to_condensed(self):
        with pytest.raises(MiningError):
            dbscan(np.array([0.1, 0.2, -0.3]), eps=0.5, min_points=2)  # negative entry
        with pytest.raises(MiningError):
            k_nearest_neighbors(np.zeros(4), 0, k=1)  # not a triangular length
