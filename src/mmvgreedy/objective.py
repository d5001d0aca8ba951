"""The multiple-measurement least-squares objective and its components.

For a sensing matrix A (m x n) and measurements Y (m x L) the objective is

    F(X) = (1 / 2m) * ||Y - A X||_F^2

viewed as the mean of m components, one per measurement row:

    f_i(X) = (1 / 2) * ||Y[i] - A[i] X||_2^2.

Stochastic solvers consume this through batch gradients (the mean gradient
over a set of rows) and support-restricted minimization.  The objective is
separable across signal columns: the per-column kernels are the shared
kernels of the single-column problem (A, Y[:, j]) that the concatenated
solvers run, computed on A and Y[:, j] directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, least_squares_solve, require_finite
from .sparsity import RowSupport

__all__ = ["MmvObjective", "BatchPlan", "batch_partition"]


@dataclass(frozen=True)
class BatchPlan:
    """A partition of component indices {0..M-1} into consecutive batches.

    Every batch has the same size except possibly the last one.
    """

    batches: tuple

    @property
    def count(self) -> int:
        return len(self.batches)


def batch_partition(M: int, b: int) -> BatchPlan:
    """Split {0..M-1} into ceil(M/b) contiguous batches (the last may be short)."""
    if not 1 <= b <= M:
        raise ValueError(f"batch size {b} out of range [1, {M}]")
    batches = tuple(tuple(range(i, min(i + b, M))) for i in range(0, M, b))
    return BatchPlan(batches)


class MmvObjective:
    """Least-squares misfit of jointly measured signals, one component per row."""

    def __init__(self, A, Y):
        self.A = require_finite(as_matrix(A, "A"), "A")
        self.Y = require_finite(as_matrix(Y, "Y"), "Y")
        (self.m, self.n), self.L = self.A.shape, self.Y.shape[1]
        if self.Y.shape[0] != self.m:
            raise ValueError(f"A has {self.m} rows but Y has {self.Y.shape[0]}")
        self.component_count = self.m  # one component per sensing row

    def _check_iterate(self, X) -> np.ndarray:
        X = as_matrix(X, "X")
        if X.shape != (self.n, self.L):
            raise ValueError(f"X must be {self.n}x{self.L}, got {X.shape}")
        return X

    def _rows(self, rows) -> np.ndarray:
        idx = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("component index set must be nonempty")
        if (idx < 0).any() or (idx >= self.component_count).any():
            raise ValueError("component index out of range")
        return idx

    def value(self, X) -> float:
        """F(X) = (1/2m) ||Y - A X||_F^2."""
        X = self._check_iterate(X)
        R = self.Y - self.A @ X
        return 0.5 / self.m * float(np.vdot(R, R))

    def batch_grad(self, rows, X) -> np.ndarray:
        """Mean component gradient over the given rows.

        Returns (1/|rows|) * A[rows]^T (A[rows] X - Y[rows]), an n x L
        matrix.  A singleton gives the single-component gradient.
        """
        idx = self._rows(rows)
        X = self._check_iterate(X)
        A_rows = self.A[idx]
        R = A_rows @ X - self.Y[idx]
        return A_rows.T @ R / idx.size

    def column_grad(self, rows, j: int, x) -> np.ndarray:
        """batch_grad of column j's problem (A, Y[:, j]) at the length-n x."""
        idx = self._rows(rows)
        if not 0 <= j < self.L:
            raise ValueError(f"column {j} out of range [0, {self.L})")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        A_rows = self.A[idx]
        r = A_rows @ x[:, None] - self.Y[idx, j][:, None]
        return (A_rows.T @ r / idx.size).ravel()

    def _support_rows(self, support) -> np.ndarray:
        # a RowSupport, or the sorted array of one's rows; the argmins'
        # least_squares_solve rejects an empty one
        if isinstance(support, RowSupport):
            if support.ambient != self.n:
                raise ValueError(
                    f"support ambient {support.ambient} != signal length {self.n}"
                )
            return support.as_array()
        return support

    def restricted_argmin(self, support) -> np.ndarray:
        """Minimize F over matrices supported on the given rows.

        Rows outside the support are zero; the supported block is the
        minimum-norm least-squares solution against the selected columns
        of A.
        """
        idx = self._support_rows(support)
        B = np.zeros((self.n, self.L))
        B[idx] = least_squares_solve(self.A[:, idx], self.Y)
        return B

    def restricted_column_argmin(self, support, j: int) -> np.ndarray:
        """restricted_argmin of column j's problem, as a length-n vector."""
        idx = self._support_rows(support)
        if not 0 <= j < self.L:
            raise ValueError(f"column {j} out of range [0, {self.L})")
        b = np.zeros(self.n)
        b[idx] = least_squares_solve(self.A[:, idx], self.Y[:, j : j + 1]).ravel()
        return b

    def full_grad(self, X) -> np.ndarray:
        """Exact gradient (1/m) A^T (A X - Y) of F: batch_grad over every row."""
        return self.batch_grad(np.arange(self.m), X)

    def restricted_value(self, X, support) -> float:
        """F(X) for an X known to be supported on the given rows (cheaper).

        support is a RowSupport or the sorted array of one's rows.
        """
        X = self._check_iterate(X)
        idx = self._support_rows(support)
        R = self.Y - self.A[:, idx] @ X.take(idx, 0)
        return 0.5 / self.m * float(np.vdot(R, R))
