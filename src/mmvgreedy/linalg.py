"""Dense matrix primitives shared by the whole package.

Matrices are plain C-contiguous float64 2-D numpy arrays, treated as
immutable once constructed (safe to share across threads).  This module
provides the norms used everywhere, minimum-norm least squares, and a
seeded random-stream abstraction with explicit substream derivation so
that trials and columns can be randomized independently and reproducibly.
A stream is single-owner: share the (seed, id) recipe, not the object.

Least squares solves the normal equations of the smaller side: a wide
block A (m x s, s >= m) through the m x m matrix A A^T, a tall one through
the s x s matrix A^T A, each by Cholesky.  A guard sends the solve to the
SVD driver (LAPACK gelsd) whenever that Gram matrix is singular or too
ill-conditioned for the normal equations to be accurate, so the result is
always the minimum-norm least-squares solution up to rounding.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

__all__ = [
    "RngStream",
    "as_matrix",
    "require_finite",
    "frobenius_norm",
    "row_norms",
    "least_squares_solve",
    "IndexSampler",
    "draw_index",
    "derive_seed",
]

_U64 = (1 << 64) - 1


def as_matrix(X, name: str = "matrix") -> np.ndarray:
    """Coerce input to a C-contiguous float64 2-D array."""
    A = np.ascontiguousarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    return A


def require_finite(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject NaN/Inf entries (used by generators and file I/O)."""
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite entries")
    return X


def frobenius_norm(X) -> float:
    """Square root of the sum of squared entries, as np.linalg.norm(X) sums them."""
    x = as_matrix(X).ravel()
    return float(np.sqrt(x.dot(x)))


def row_norms(X) -> np.ndarray:
    """Euclidean norm of each row, as a 1-D array of length rows."""
    X = as_matrix(X)
    if X.shape[1] == 1:  # the norm of a one-entry row is its absolute value
        return np.abs(X[:, 0])
    # the operations np.linalg.norm(X, axis=1) runs, without its overhead
    return np.sqrt(np.add.reduce(X * X, axis=1))


# Smallest reciprocal condition number (LAPACK dpocon, 1-norm) of the Gram
# matrix G that the Cholesky path accepts.  Solving with G instead of A is
# backward stable in G, so the error relative to ||pinv(A)|| ||Y|| is about
# cond(G) * u with unit roundoff u = 1.1e-16, in the wide and the tall case
# alike.  cond_2(G) <= cond_1(G) for symmetric G, and 1e-5 caps cond_1(G)
# at 1e5, so the error stays near 1.1e-11: a tenfold margin under 1e-10 for
# the estimator, which can fall short of the true condition by a small
# factor, and for the dimension factors in the rounding bounds.
_GRAM_RCOND_MIN = 1e-5
_EPS = np.finfo(np.float64).eps


def least_squares_solve(A_sub, Y) -> np.ndarray:
    """Minimum-Frobenius-norm solution B of min ||Y - A_sub @ B||_F.

    The method is picked by shape.  A wide or square block (s >= m rows of
    B) factors G = A_sub A_sub^T (m x m) by Cholesky and returns the
    minimum-norm A_sub^T G^-1 Y; a tall block factors G = A_sub^T A_sub
    (s x s) and returns G^-1 A_sub^T Y.  When the Cholesky factorization
    fails or the reciprocal condition estimate of G is below
    _GRAM_RCOND_MIN, the solve is redone with the SVD driver (gelsd).  Rank
    deficiency is therefore not an error.  On the Cholesky path the result
    agrees with pinv(A_sub) @ Y to about 1e-11 relative to
    ||pinv(A_sub)|| ||Y||.
    """
    A_sub = as_matrix(A_sub, "A_sub")
    Y = as_matrix(Y, "Y")
    m, s = A_sub.shape
    if s < 1:
        raise ValueError("A_sub must have at least one column")
    if Y.shape[0] != m:
        raise ValueError(
            f"row mismatch: A_sub has {m} rows but Y has {Y.shape[0]}"
        )
    wide = s >= m
    # Products go through scipy's BLAS, the library its LAPACK calls use.
    # numpy and scipy wheels each bundle an OpenBLAS with its own thread
    # pool; with two BLAS threads, level-3 calls that alternate between the
    # pools cost milliseconds each (on a 2-core host a k=60 mstogradmp
    # trial took 0.28 s instead of 0.009 s).  A_sub.T is A_sub's own buffer
    # in Fortran order, so BLAS reads it without a copy.
    At = A_sub.T
    G = blas.dgemm(1.0, At, At, trans_a=int(wide), trans_b=int(not wide))
    anorm = np.linalg.norm(G, 1)
    C, info = lapack.dpotrf(G, overwrite_a=True, clean=False)
    if info == 0:
        rcond, info = lapack.dpocon(C, anorm)
        if info == 0 and rcond >= _GRAM_RCOND_MIN:
            if wide:
                return blas.dgemm(1.0, At, lapack.dpotrs(C, Y)[0])
            return lapack.dpotrs(C, blas.dgemm(1.0, At, Y.T, trans_b=1))[0]
    # singular values below max(m, s) * eps * sigma_max (numpy.linalg.lstsq's
    # cutoff) are rounding noise of an exactly rank-deficient block, such as
    # one with a repeated column; inverting them would swamp the solution
    B, _, _, _ = scipy.linalg.lstsq(
        A_sub, Y, cond=max(m, s) * _EPS, lapack_driver="gelsd", check_finite=False
    )
    return B


class RngStream:
    """A reproducible random stream identified by (master_seed, stream_id).

    The same pair yields the same value sequence on every platform;
    distinct ids yield statistically independent streams.  The state is a
    counter-based Philox generator keyed by hashing the id tuple into the
    seed material, so substreams can be derived without coordination.
    """

    def __init__(self, master_seed: int, stream_id=()):
        if isinstance(stream_id, (int, np.integer)):
            stream_id = (int(stream_id),)
        self.master_seed = int(master_seed) & _U64
        self.stream_id = tuple(int(i) & _U64 for i in stream_id)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_id)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def substream(self, *ids: int) -> "RngStream":
        """Derive an independent child stream by extending the id tuple."""
        return RngStream(self.master_seed, self.stream_id + tuple(ids))

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return float(self._gen.random())

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def choice_without_replacement(self, n: int, size: int) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=False)


def derive_seed(master_seed: int, *ids: int) -> int:
    """Hash (master_seed, ids) into a fresh 64-bit seed."""
    seq = np.random.SeedSequence(
        int(master_seed) & _U64, spawn_key=tuple(int(i) & _U64 for i in ids)
    )
    return int(seq.generate_state(1, np.uint64)[0])


class IndexSampler:
    """Inverse-CDF draws from probabilities p, checked and summed once.

    p must be nonnegative and sum to 1 within 1e-12.
    """

    def __init__(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-D probability vector")
        if (p < 0).any():
            raise ValueError("p has negative entries")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"p sums to {total!r}, expected 1 within 1e-12")
        self.p, self._cum = p, np.cumsum(p)
        # u beyond the last cumulative value (rounding) takes the last nonzero bin
        self._last = int(np.flatnonzero(p > 0)[-1])

    def draw(self, rng: RngStream) -> int:
        idx = int(self._cum.searchsorted(rng.uniform(), side="right"))
        return idx if idx < self._cum.size else self._last


def draw_index(p, rng: RngStream) -> int:
    """Sample one index with the given probabilities; see IndexSampler."""
    return IndexSampler(p).draw(rng)
