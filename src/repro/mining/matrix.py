"""Distance-matrix representations shared by the mining algorithms.

Two representations of the pairwise distances over ``n`` items coexist:

* a dense square ``(n, n)`` numpy array (the classic form), and
* a :class:`CondensedDistanceMatrix` — the strict upper triangle flattened
  row-major into ``n * (n - 1) / 2`` values, the same layout scipy's
  ``pdist`` uses.  For large logs this halves memory and lets callers avoid
  ever materialising the square form.

Every mining entry point funnels its input through :func:`pairwise_view`,
which accepts either representation (plus a bare 1-D array interpreted as
condensed) and returns an object with a uniform row/value/submatrix
protocol.  Square inputs keep their exact seed semantics (rows are views
into the validated array); condensed inputs reconstruct rows on demand from
the same stored floats, so mining results are bit-identical across
representations.

The row-major condensed layout is also what the scaling subsystems build
on.  Row ``i`` occupies the contiguous slice starting at
``i * (2n - i - 1) / 2``, so a *row block* of the triangle is a contiguous
slice of ``values`` — :mod:`repro.mining.parallel` exploits this to merge
worker results by offset, deterministically and without reordering.
Appending items, by contrast, interleaves new entries into every row, which
is why :mod:`repro.mining.incremental` maintains a growing square buffer
internally and emits the condensed form on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import MiningError


def check_distance_matrix(matrix: np.ndarray, *, tolerance: float = 1e-9) -> np.ndarray:
    """Validate a distance matrix: square, finite, symmetric, zero diagonal, non-negative.

    Returns the matrix as a float array; raises :class:`MiningError` on any
    violation.  Every mining entry point funnels its input through this check
    so that a malformed matrix fails loudly instead of producing nonsense
    clusters.
    """
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise MiningError(f"distance matrix must be square, got shape {array.shape}")
    if array.shape[0] == 0:
        raise MiningError("distance matrix must contain at least one item")
    if not np.all(np.isfinite(array)):
        raise MiningError("distance matrix contains non-finite entries")
    if np.any(array < -tolerance):
        raise MiningError("distance matrix contains negative entries")
    if np.any(np.abs(np.diagonal(array)) > tolerance):
        raise MiningError("distance matrix has a non-zero diagonal")
    if np.any(np.abs(array - array.T) > tolerance):
        raise MiningError("distance matrix is not symmetric")
    return array


def condensed_length(n: int) -> int:
    """Number of strict-upper-triangle entries for ``n`` items."""
    return n * (n - 1) // 2


def n_items_from_condensed(length: int) -> int:
    """Recover the item count from a condensed length (``length = n(n-1)/2``).

    A length of 0 is taken to mean a single item (the smallest log with no
    pairs); anything that is not a triangular number is rejected.
    """
    if length == 0:
        return 1
    n = (1 + math.isqrt(1 + 8 * length)) // 2
    if condensed_length(n) != length:
        raise MiningError(f"{length} is not a valid condensed-matrix length n(n-1)/2")
    return n


@dataclass(frozen=True, eq=False)
class CondensedDistanceMatrix:
    """Pairwise distances stored as the flattened strict upper triangle.

    ``values[k]`` holds ``d(i, j)`` for the k-th pair in row-major order
    (``(0,1), (0,2), ..., (0,n-1), (1,2), ...``).  The array is frozen
    (non-writeable) because instances are shared through measure-level
    caches.  Instances compare (and hash) by identity — the dataclass
    default would try to ``==`` the ndarray field and raise; compare
    ``values`` explicitly (e.g. ``np.array_equal``) for value equality.
    """

    values: np.ndarray
    n: int

    def __post_init__(self) -> None:
        array = np.asarray(self.values, dtype=float)
        if array.ndim != 1:
            raise MiningError(f"condensed values must be 1-D, got shape {array.shape}")
        if self.n < 1:
            raise MiningError("condensed matrix needs at least one item")
        if array.shape[0] != condensed_length(self.n):
            raise MiningError(
                f"condensed form for {self.n} items must have "
                f"{condensed_length(self.n)} entries, got {array.shape[0]}"
            )
        if not np.all(np.isfinite(array)):
            raise MiningError("distance matrix contains non-finite entries")
        if array.size and float(array.min()) < -1e-9:
            raise MiningError("distance matrix contains negative entries")
        array = array.copy() if array is self.values else array
        array.setflags(write=False)
        object.__setattr__(self, "values", array)

    # -- constructors -------------------------------------------------------- #

    @classmethod
    def from_square(cls, matrix: np.ndarray) -> "CondensedDistanceMatrix":
        """Condense a validated square matrix (strict upper triangle)."""
        array = check_distance_matrix(matrix)
        n = array.shape[0]
        return cls(values=array[np.triu_indices(n, k=1)], n=n)

    # -- the pairwise-view protocol ------------------------------------------ #

    @property
    def n_items(self) -> int:
        """Number of items (protocol alias for ``n``)."""
        return self.n

    def index(self, i: int, j: int) -> int:
        """Position of the (unordered) pair ``{i, j}`` inside ``values``."""
        if i == j:
            raise MiningError("the diagonal is not stored in condensed form")
        if i > j:
            i, j = j, i
        if not 0 <= i < j < self.n:
            raise MiningError(f"pair ({i}, {j}) out of range for {self.n} items")
        return i * (2 * self.n - i - 1) // 2 + (j - i - 1)

    def value(self, i: int, j: int) -> float:
        """The stored distance ``d(i, j)`` (0.0 on the diagonal)."""
        if i == j:
            return 0.0
        return float(self.values[self.index(i, j)])

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` of the square form, rebuilt from the stored values."""
        n = self.n
        if not 0 <= i < n:
            raise MiningError(f"index {i} out of range for {n} items")
        out = np.zeros(n, dtype=float)
        if i + 1 < n:
            start = i * (2 * n - i - 1) // 2
            out[i + 1 :] = self.values[start : start + (n - i - 1)]
        if i > 0:
            js = np.arange(i, dtype=np.int64)
            out[:i] = self.values[js * (2 * n - js - 1) // 2 + (i - js - 1)]
        return out

    def columns(self, indices: list[int]) -> np.ndarray:
        """The ``(n, len(indices))`` slice of the square form (by symmetry)."""
        return np.stack([self.row(i) for i in indices], axis=1)

    def submatrix(self, indices: list[int]) -> np.ndarray:
        """The square sub-matrix over ``indices`` × ``indices``."""
        idx = np.asarray(indices, dtype=np.int64)
        return np.stack([self.row(int(i))[idx] for i in indices], axis=0)

    def condensed(self) -> np.ndarray:
        """The condensed values themselves (read-only view)."""
        return self.values

    def to_square(self) -> np.ndarray:
        """Materialise the full square matrix (fresh, writeable array)."""
        square = np.zeros((self.n, self.n), dtype=float)
        square[np.triu_indices(self.n, k=1)] = self.values
        return square + square.T


class _SquareView:
    """Pairwise-view adapter over a validated square matrix.

    Rows are views into the array, so mining algorithms behave exactly as
    they did when they indexed the square matrix directly.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]

    def value(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def row(self, i: int) -> np.ndarray:
        n = self.matrix.shape[0]
        if not 0 <= i < n:
            raise MiningError(f"index {i} out of range for {n} items")
        return self.matrix[i]

    def columns(self, indices: list[int]) -> np.ndarray:
        return self.matrix[:, indices]

    def submatrix(self, indices: list[int]) -> np.ndarray:
        return self.matrix[np.ix_(indices, indices)]

    def condensed(self) -> np.ndarray:
        n = self.matrix.shape[0]
        return self.matrix[np.triu_indices(n, k=1)]

    def to_square(self) -> np.ndarray:
        return self.matrix


def pairwise_view(distances) -> "CondensedDistanceMatrix | _SquareView":
    """Normalise any distance input into the row/value/submatrix protocol.

    Accepts a square 2-D array (validated as before), a
    :class:`CondensedDistanceMatrix`, a bare 1-D array (interpreted as
    condensed, with the item count recovered from the length), or an
    already-built view (returned unchanged).
    """
    if isinstance(distances, (CondensedDistanceMatrix, _SquareView)):
        return distances
    array = np.asarray(distances, dtype=float)
    if array.ndim == 1:
        return CondensedDistanceMatrix(values=array, n=n_items_from_condensed(array.shape[0]))
    return _SquareView(check_distance_matrix(array))


def square_to_condensed(matrix: np.ndarray) -> np.ndarray:
    """Flatten the strict upper triangle of a square distance matrix."""
    array = check_distance_matrix(matrix)
    n = array.shape[0]
    return array[np.triu_indices(n, k=1)]


def condensed_to_square(condensed: np.ndarray, n: int) -> np.ndarray:
    """Rebuild a square matrix from its condensed upper-triangle form."""
    expected = condensed_length(n)
    values = np.asarray(condensed, dtype=float)
    if values.shape != (expected,):
        raise MiningError(
            f"condensed form for {n} items must have {expected} entries, got {values.shape}"
        )
    square = np.zeros((n, n), dtype=float)
    square[np.triu_indices(n, k=1)] = values
    return square + square.T
