"""Tests for outlier detection, kNN and clustering-agreement metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpe import LogContext
from repro.core.measures import TokenDistance
from repro.exceptions import MiningError
from repro.mining.evaluation import (
    adjusted_rand_index,
    clusterings_equivalent,
    confusion_counts,
    normalized_mutual_information,
)
from repro.mining.knn import (
    k_nearest_neighbors,
    k_nearest_neighbors_reference,
    knn_classify,
)
from repro.mining.matrix import CondensedDistanceMatrix
from repro.mining.outliers import distance_based_outliers, top_n_outliers
from repro.workloads.generator import QueryLogGenerator, WorkloadMix


def line_matrix(points: list[float]) -> np.ndarray:
    array = np.array(points, dtype=float)
    return np.abs(array[:, None] - array[None, :])


@st.composite
def quantised_matrices(draw) -> CondensedDistanceMatrix:
    """Condensed matrices whose distances take at most four distinct values."""
    n = draw(st.integers(min_value=2, max_value=14))
    grid = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
    levels = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4, unique=True))
    values = draw(
        st.lists(st.sampled_from(levels), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    return CondensedDistanceMatrix(values=np.array(values, dtype=float), n=n)


def top_n_outliers_by_sort(square: np.ndarray, *, n_outliers: int, k: int) -> tuple[int, ...]:
    """The full-sort ranking: k-th neighbour distance, ordered by (-score, index)."""
    n = square.shape[0]
    scores = [float(np.sort(np.delete(square[i], i))[k - 1]) for i in range(n)]
    return tuple(sorted(range(n), key=lambda i: (-scores[i], i))[:n_outliers])


class TestDistanceBasedOutliers:
    def test_single_far_point_is_outlier(self):
        matrix = line_matrix([0.0, 0.1, 0.2, 0.3, 100.0])
        result = distance_based_outliers(matrix, p=0.9, d=1.0)
        assert result.outliers == (4,)
        assert result.is_outlier(4) and not result.is_outlier(0)

    def test_no_outliers_in_tight_cluster(self):
        matrix = line_matrix([0.0, 0.1, 0.2, 0.3])
        assert distance_based_outliers(matrix, p=0.5, d=1.0).outliers == ()

    def test_everything_outlier_when_d_zero_and_points_distinct(self):
        matrix = line_matrix([0.0, 5.0, 10.0])
        result = distance_based_outliers(matrix, p=1.0, d=0.0)
        assert result.outliers == (0, 1, 2)

    def test_fraction_far_values(self):
        matrix = line_matrix([0.0, 0.1, 100.0])
        result = distance_based_outliers(matrix, p=0.9, d=1.0)
        assert result.fraction_far[2] == 1.0
        assert result.fraction_far[0] == 0.5

    def test_single_item(self):
        assert distance_based_outliers(np.zeros((1, 1)), p=0.5, d=1.0).outliers == ()

    def test_parameter_validation(self):
        matrix = line_matrix([0.0, 1.0])
        with pytest.raises(MiningError):
            distance_based_outliers(matrix, p=0.0, d=1.0)
        with pytest.raises(MiningError):
            distance_based_outliers(matrix, p=1.5, d=1.0)
        with pytest.raises(MiningError):
            distance_based_outliers(matrix, p=0.5, d=-1.0)


class TestTopNOutliers:
    def test_ranking(self):
        matrix = line_matrix([0.0, 0.1, 0.2, 50.0, 100.0])
        top = top_n_outliers(matrix, n_outliers=2, k=2)
        assert set(top) == {3, 4}
        assert top[0] == 4  # farther point ranks first

    def test_ranking_under_ties_orders_by_index(self):
        # Items 1, 3 and 4 share the largest 2nd-neighbour distance; the
        # ranking keeps them in index order, then the tied rest likewise.
        matrix = line_matrix([0.0, 2.0, 0.0, 4.0, 6.0, 0.0])
        matrix = np.minimum(matrix, 2.0)
        assert top_n_outliers(matrix, n_outliers=6, k=2) == (1, 3, 4, 0, 2, 5)
        assert top_n_outliers(matrix, n_outliers=2, k=2) == (1, 3)

    @settings(max_examples=60, deadline=None)
    @given(condensed=quantised_matrices())
    def test_tie_heavy_ranking_matches_full_sort(self, condensed):
        square = condensed.to_square()
        for k in range(1, condensed.n):
            for n_outliers in range(1, condensed.n + 1):
                expected = top_n_outliers_by_sort(square, n_outliers=n_outliers, k=k)
                assert top_n_outliers(square, n_outliers=n_outliers, k=k) == expected
                assert top_n_outliers(condensed, n_outliers=n_outliers, k=k) == expected

    def test_validation(self):
        matrix = line_matrix([0.0, 1.0, 2.0])
        with pytest.raises(MiningError):
            top_n_outliers(matrix, n_outliers=0)
        with pytest.raises(MiningError):
            top_n_outliers(matrix, n_outliers=4)
        with pytest.raises(MiningError):
            top_n_outliers(matrix, n_outliers=1, k=3)


class TestKnn:
    def test_neighbors_ordered_by_distance(self):
        matrix = line_matrix([0.0, 1.0, 3.0, 7.0])
        assert k_nearest_neighbors(matrix, 0, k=2) == (1, 2)
        assert k_nearest_neighbors(matrix, 3, k=1) == (2,)

    def test_self_excluded(self):
        matrix = line_matrix([0.0, 1.0, 2.0])
        assert 1 not in k_nearest_neighbors(matrix, 1, k=2)

    def test_ties_broken_by_index(self):
        matrix = line_matrix([0.0, 1.0, -1.0])
        assert k_nearest_neighbors(matrix, 0, k=1) == (1,)

    def test_validation(self):
        matrix = line_matrix([0.0, 1.0, 2.0])
        for knn in (k_nearest_neighbors, k_nearest_neighbors_reference):
            with pytest.raises(MiningError):
                knn(matrix, 5, k=1)
            with pytest.raises(MiningError):
                knn(matrix, 0, k=3)

    @settings(max_examples=100, deadline=None)
    @given(condensed=quantised_matrices())
    def test_selection_matches_sort_reference_under_ties(self, condensed):
        square = condensed.to_square()
        for form in (square, condensed):
            for index in range(condensed.n):
                for k in range(1, condensed.n):
                    assert k_nearest_neighbors(form, index, k=k) == (
                        k_nearest_neighbors_reference(form, index, k=k)
                    ), (index, k)

    def test_selection_matches_sort_reference_on_token_log(self, webshop):
        log = QueryLogGenerator(webshop, WorkloadMix(), seed=3).generate(300)
        matrix = TokenDistance().condensed_distance_matrix(LogContext(log=log))
        # Token distances are Jaccard ratios of small sets: far fewer
        # distinct values than pairs, so ties at the k-th distance are the
        # normal case here.
        assert np.unique(matrix.values).size * 20 < matrix.values.size
        for index in range(matrix.n):
            for k in (1, 3, 10, 50, matrix.n - 1):
                assert k_nearest_neighbors(matrix, index, k=k) == (
                    k_nearest_neighbors_reference(matrix, index, k=k)
                ), (index, k)

    def test_classification_majority(self):
        matrix = line_matrix([0.0, 0.1, 0.2, 10.0, 10.1])
        labels = ["a", "a", "a", "b", "b"]
        assert knn_classify(matrix, labels, 0, k=2) == "a"
        assert knn_classify(matrix, labels, 4, k=2) == "b"

    def test_classification_tie_broken_by_nearest(self):
        matrix = line_matrix([0.0, 1.0, 2.0])
        labels = ["x", "a", "b"]
        assert knn_classify(matrix, labels, 0, k=2) == "a"

    def test_classification_validation(self):
        matrix = line_matrix([0.0, 1.0])
        with pytest.raises(MiningError):
            knn_classify(matrix, ["a"], 0, k=1)


class TestClusteringAgreement:
    def test_equivalence_up_to_relabeling(self):
        assert clusterings_equivalent([0, 0, 1, 1], [5, 5, 9, 9])
        assert clusterings_equivalent(["a", "b", "a"], [1, 2, 1])
        assert not clusterings_equivalent([0, 0, 1, 1], [0, 1, 0, 1])
        assert not clusterings_equivalent([0, 0, 1], [0, 0, 0])
        assert not clusterings_equivalent([0, 0, 0], [0, 0, 1])

    def test_equivalence_validation(self):
        with pytest.raises(MiningError):
            clusterings_equivalent([0, 1], [0])
        with pytest.raises(MiningError):
            clusterings_equivalent([], [])

    def test_ari_identical_is_one(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_ari_decreases_with_disagreement(self):
        perfect = adjusted_rand_index([0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2])
        noisy = adjusted_rand_index([0, 0, 1, 1, 2, 2], [0, 0, 1, 2, 2, 2])
        assert perfect > noisy

    def test_ari_known_value(self):
        # Independent-looking split of 4 items.
        value = adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1])
        assert value == pytest.approx(-0.5)

    def test_nmi_identical_is_one(self):
        assert normalized_mutual_information([0, 0, 1, 1], [7, 7, 3, 3]) == pytest.approx(1.0)

    def test_nmi_single_cluster_against_itself(self):
        assert normalized_mutual_information([0, 0, 0], [1, 1, 1]) == pytest.approx(1.0)

    def test_nmi_bounded(self):
        value = normalized_mutual_information([0, 0, 1, 1, 2], [0, 1, 1, 0, 2])
        assert 0.0 <= value <= 1.0

    def test_confusion_counts(self):
        table = confusion_counts([0, 0, 1], ["a", "b", "b"])
        assert table == {(0, "a"): 1, (0, "b"): 1, (1, "b"): 1}
