"""The multiple-measurement least-squares objective and its components.

For a sensing matrix A (m x n) and measurements Y (m x L) the objective is

    F(X) = (1 / 2m) * ||Y - A X||_F^2

viewed as the mean of m components, one per measurement row:

    f_i(X) = (1 / 2) * ||Y[i] - A[i] X||_2^2.

Stochastic solvers consume this through batch gradients (the mean gradient
over a set of rows: indices, or a contiguous row slice checked in O(1))
and support-restricted minimization.  The objective is separable across
signal columns: the per-column kernels run the one gradient body and the
one solve body on the single-column problem (A, Y[:, j]).

Every public method checks its input.  The solve loop, on supports it built,
reads F through restricted_value's unchecked body _value: the support's rows
of a C-order copy of A^T made on first use (8mn bytes, 160 KB at m = 100,
n = 200), with the bits of the column gather.  So the benchmark's span on
restricted_value reads 0 calls until its layer table names _value.

A restricted solve on a support S with |S| >= m and a complement c of
fewer than m rows goes through the row-space projector of A (see linalg):
Q = A^T (A A^T)^-1 A and V = pinv(A) Y, built on the first such solve and
kept, and one c x c Cholesky per solve.  Every other shape, and every
solve whose guard fails, goes to least_squares_solve(A[:, S], Y).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import (
    _complement_solve, _row_space_projector, as_matrix, least_squares_solve,
    require_finite,
)
from .sparsity import _checked_rows

__all__ = ["MmvObjective"]


class MmvObjective:
    """Least-squares misfit of jointly measured signals, one component per row."""

    def __init__(self, A, Y):
        self.A = require_finite(as_matrix(A, "A"), "A")
        self.Y = require_finite(as_matrix(Y, "Y"), "Y")
        (self.m, self.n), self.L = self.A.shape, self.Y.shape[1]
        if self.Y.shape[0] != self.m:
            raise ValueError(f"A has {self.m} rows but Y has {self.Y.shape[0]}")
        if not self.m * self.n * self.L:
            raise ValueError(f"A ({self.m}x{self.n}) and Y ({self.m}x{self.L}) "
                             "must be nonempty")

    def _check_iterate(self, X) -> np.ndarray:
        X = as_matrix(X, "X")
        if X.shape != (self.n, self.L):
            raise ValueError(f"X must be {self.n}x{self.L}, got {X.shape}")
        return X

    def _rows(self, rows):
        if isinstance(rows, slice):  # checked in O(1); A[rows] is then a view
            m = self.m
            if rows.indices(m) != (rows.start, rows.stop, 1) or rows.start >= rows.stop:
                raise ValueError(f"{rows} is not a nonempty step-1 range in [0, {m})")
            return rows
        idx = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("component index set must be nonempty")
        if (idx < 0).any() or (idx >= self.m).any():
            raise ValueError("component index out of range")
        return idx

    def value(self, X) -> float:
        """F(X) = (1/2m) ||Y - A X||_F^2."""
        X = self._check_iterate(X)
        R = self.Y - self.A @ X
        return 0.5 / self.m * float(np.vdot(R, R))

    def _grad(self, rows, X, Y) -> np.ndarray:
        # (1/|rows|) A[rows]^T (A[rows] X - Y[rows]), for rows checked by _rows
        A_rows = self.A[rows]
        return A_rows.T @ (A_rows @ X - Y[rows]) / len(A_rows)

    def batch_grad(self, rows, X) -> np.ndarray:
        """Mean component gradient over the given rows.

        Returns (1/|rows|) * A[rows]^T (A[rows] X - Y[rows]), an n x L
        matrix.  A singleton gives the single-component gradient.  rows is
        an index sequence or a contiguous row slice.
        """
        return self._grad(self._rows(rows), self._check_iterate(X), self.Y)

    def column_grad(self, rows, j: int, x) -> np.ndarray:
        """batch_grad of column j's problem (A, Y[:, j]) at the length-n x."""
        rows = self._rows(rows)
        if not 0 <= j < self.L:
            raise ValueError(f"column {j} out of range [0, {self.L})")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        return self._grad(rows, x[:, None], self.Y[:, j : j + 1]).ravel()

    @cached_property
    def _projector(self):
        # _row_space_projector's (Q, V, cond), built on the first wide solve
        # that takes it; None when A A^T fails the Gram guard
        return _row_space_projector(self.A, self.Y)

    def _argmin(self, support, cols) -> np.ndarray:
        # zero off the support, the min-norm least-squares block on it for
        # the columns cols (a slice) of Y
        idx = _checked_rows(support, self.n)
        if len(idx) >= self.m > self.n - len(idx) and self._projector is not None:
            rest = np.ones(self.n, bool)
            rest[idx] = False
            B = _complement_solve(*self._projector, np.flatnonzero(rest), cols)
            if B is not None:
                return B
        Y = self.Y[:, cols]
        B = np.zeros((self.n, Y.shape[1]))
        B[idx] = least_squares_solve(self.A[:, idx], Y)
        return B

    def restricted_argmin(self, support) -> np.ndarray:
        """Minimize F over matrices supported on the given rows.

        support is a nonempty, strictly increasing integer index array in
        [0, n) (a RowSupport passes .as_array()).  Rows outside it are zero;
        the supported block is the minimum-norm least-squares solution
        against the selected columns of A.
        """
        return self._argmin(support, slice(None))

    def restricted_column_argmin(self, support, j: int) -> np.ndarray:
        """restricted_argmin of column j's problem, as a length-n vector."""
        if not 0 <= j < self.L:
            raise ValueError(f"column {j} out of range [0, {self.L})")
        return self._argmin(support, slice(j, j + 1)).ravel()

    def full_grad(self, X) -> np.ndarray:
        """Exact gradient (1/m) A^T (A X - Y) of F: batch_grad over every row."""
        return self.batch_grad(np.arange(self.m), X)

    @cached_property
    def _At(self):
        # A^T in C order, for _value (see above)
        return np.ascontiguousarray(self.A.T)

    def _value(self, X, idx) -> float:
        # restricted_value for an n x L float64 X and a checked index array
        R = self.Y - self._At.take(idx, 0).T @ X.take(idx, 0)
        return 0.5 / self.m * float(np.vdot(R, R))

    def restricted_value(self, X, support) -> float:
        """F(X) for an X supported on the index array support (cheaper)."""
        return self._value(self._check_iterate(X), _checked_rows(support, self.n))
