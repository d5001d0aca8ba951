"""Row supports and hard-thresholding projections.

The thresholding operators here keep the k entries (or rows) of largest
magnitude (or Euclidean row norm), with ties broken toward the smaller
index so results are deterministic; _top_k_mask is that one rule, for
top_k_rows and the solvers alike.  The atom set is the canonical basis
throughout, which makes these projections exact best approximations.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, require_int, row_norms

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
    read-only intp array, returned by as_array().
    """

    def __init__(self, indices, ambient: int):
        self.ambient = int(require_int(ambient, "ambient"))
        if self.ambient < 0:
            raise ValueError("ambient must be nonnegative")
        self._array = _checked_rows(np.array(indices), self.ambient)
        self._array.setflags(write=False)

    def __len__(self):
        return self._array.size

    def __eq__(self, other):
        return isinstance(other, RowSupport) and self.ambient == other.ambient and (
            np.array_equal(self._array, other._array)
        )

    def __repr__(self):
        return f"RowSupport(indices={self._array.tolist()}, ambient={self.ambient})"

    def as_array(self) -> np.ndarray:
        return self._array


def _checked_rows(indices, ambient: int) -> np.ndarray:
    """indices as an intp array, checked by RowSupport's rule.

    ValueError unless indices is an empty sequence or a 1-D array of an
    integer dtype (not bool), strictly increasing inside [0, ambient).
    An intp array is returned as it is, not copied.
    """
    arr = np.asarray(indices)
    if arr.dtype != np.intp:
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.intp)
    if arr.ndim != 1:
        raise ValueError(f"indices must be 1-D, got ndim={arr.ndim}")
    if arr.size and (arr[0] < 0 or arr[-1] >= ambient
                     or np.count_nonzero(arr[1:] <= arr[:-1])):
        raise ValueError(f"indices must be strictly increasing inside [0, {ambient})")
    return arr


def top_k_indices(w, k: int) -> RowSupport:
    """Indices of the k largest entries of w in absolute value."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("w must be a 1-D vector")
    if require_int(k, "k") < 0 or k > w.size:
        raise ValueError(f"k={k} out of range [0, {w.size}]")
    return RowSupport(np.flatnonzero(_top_k_mask(w[None], k)[0]), w.size)


def top_k_rows(X, k: int) -> RowSupport:
    """Indices of the k rows of X with largest Euclidean norm."""
    return top_k_indices(row_norms(X), k)


def _top_k_mask(B, k):
    # each row's k entries of largest magnitude, ties to the lowest index: a
    # partition finds the k-th largest, and if more than k reach it, those
    # equal to it are taken from the lowest index up, as a stable sort takes
    # them.  NaN ranks last, as it sorts.
    if k == 0:
        return np.zeros(B.shape, dtype=bool)
    mag, n = np.fmax(np.abs(B), -1.0), B.shape[1]
    kth = np.partition(mag, n - k, axis=1)[:, n - k : n - k + 1]
    mask = mag >= kth
    if np.count_nonzero(mask) > k * len(B):
        np.greater(mag, kth, out=mask)
        ties = mag == kth
        short = k - np.count_nonzero(mask, axis=1, keepdims=True)
        mask |= ties & (np.cumsum(ties, axis=1) <= short)
    return mask


def project_rows(X, support: RowSupport) -> np.ndarray:
    """Copy the rows in the support, zero all others."""
    X = as_matrix(X)
    if support.ambient != X.shape[0]:
        raise ValueError(
            f"support ambient {support.ambient} != matrix rows {X.shape[0]}"
        )
    out = np.zeros(X.shape)
    idx = support.as_array()
    out[idx] = X[idx]
    return out


def support_union(a: RowSupport, b: RowSupport) -> RowSupport:
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} != {b.ambient}")
    return RowSupport(np.union1d(a.as_array(), b.as_array()), a.ambient)


def row_support(X) -> RowSupport:
    """Indices of the nonzero rows of X; their count is its row sparsity."""
    X = as_matrix(X)
    return RowSupport(np.flatnonzero((X != 0).any(axis=1)), X.shape[0])
