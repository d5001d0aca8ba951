"""Row supports and hard-thresholding projections.

The thresholding operators here keep the k entries (or rows) of largest
magnitude (or Euclidean row norm), with ties broken toward the smaller
index so results are deterministic.  The atom set is the canonical basis
throughout, which makes these projections exact best approximations.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import as_matrix, row_norms

__all__ = [
    "RowSupport",
    "top_k_indices",
    "top_k_rows",
    "project_rows",
    "support_union",
    "row_support",
]


class RowSupport:
    """A sorted, duplicate-free set of row indices inside [0, ambient).

    indices may be any integer sequence or array.  It is stored as a
    read-only intp array, returned by as_array(); the indices attribute
    gives the same set as a tuple of Python ints, built on first access.
    """

    def __init__(self, indices, ambient: int):
        arr = np.array(indices, dtype=np.intp)
        arr.setflags(write=False)
        self._array, self.ambient = arr, int(ambient)
        if self.ambient < 0:
            raise ValueError("ambient must be nonnegative")
        if np.count_nonzero(arr[1:] <= arr[:-1]):
            raise ValueError("indices must be strictly increasing")
        if arr.size and (arr[0] < 0 or arr[-1] >= self.ambient):
            raise ValueError(
                f"indices must lie in [0, {self.ambient}), got {arr[0]}..{arr[-1]}"
            )

    indices = functools.cached_property(lambda self: tuple(self._array.tolist()))

    @classmethod
    def empty(cls, ambient: int) -> "RowSupport":
        return cls((), ambient)

    def __len__(self):
        return self._array.size

    def __eq__(self, other):
        return isinstance(other, RowSupport) and self.ambient == other.ambient and (
            np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.indices, self.ambient))

    def __repr__(self):
        return f"RowSupport(indices={self.indices}, ambient={self.ambient})"

    def as_array(self) -> np.ndarray:
        return self._array


def _top_k(scores: np.ndarray, k: int, ambient: int) -> RowSupport:
    if k < 0 or k > ambient:
        raise ValueError(f"k={k} out of range [0, {ambient}]")
    if k == 0:
        return RowSupport.empty(ambient)
    # stable sort on the negated scores keeps the smaller index on ties
    order = np.argsort(-scores, kind="stable")
    return RowSupport(np.sort(order[:k]), ambient)


def top_k_indices(w, k: int) -> RowSupport:
    """Indices of the k largest entries of w in absolute value."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("w must be a 1-D vector")
    return _top_k(np.abs(w), k, w.size)


def top_k_rows(X, k: int) -> RowSupport:
    """Indices of the k rows of X with largest Euclidean norm."""
    norms = row_norms(X)
    return _top_k(norms, k, norms.size)


def project_rows(X, support: RowSupport) -> np.ndarray:
    """Copy the rows in the support, zero all others."""
    X = as_matrix(X)
    if support.ambient != X.shape[0]:
        raise ValueError(
            f"support ambient {support.ambient} != matrix rows {X.shape[0]}"
        )
    out = np.zeros(X.shape)
    if len(support):
        idx = support.as_array()
        out[idx] = X[idx]
    return out


def support_union(a: RowSupport, b: RowSupport) -> RowSupport:
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} != {b.ambient}")
    return RowSupport(np.union1d(a.as_array(), b.as_array()), a.ambient)


def row_support(X, tol: float = 0.0) -> RowSupport:
    """Indices of rows with norm strictly greater than tol.

    With tol = 0 the size of the result is the row sparsity of X.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    X = as_matrix(X)
    keep = np.flatnonzero(row_norms(X) > tol)
    return RowSupport(keep, X.shape[0])
