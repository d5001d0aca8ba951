"""Dense matrix primitives shared by the whole package.

Matrices are plain C-contiguous float64 2-D numpy arrays, treated as
immutable once constructed.  This module provides the norms used
everywhere, minimum-norm least squares, and a seeded random-stream
abstraction with explicit substream derivation so that trials and columns
can be randomized independently and reproducibly.
A stream is single-owner: share the (seed, id) recipe, not the object.

Least squares solves the normal equations of the smaller side: a wide
block A (m x s, s >= m) through the m x m matrix A A^T, a tall one through
the s x s matrix A^T A, each by Cholesky.  A guard sends the solve to the
SVD driver (LAPACK gelsd) whenever that Gram matrix is singular or too
ill-conditioned for the normal equations to be accurate, so the result is
always the minimum-norm least-squares solution up to rounding.

A wide solve restricted to the rows S of a whole sensing matrix A (m x n)
has a second route through the row-space projector Q = A^T (A A^T)^-1 A
and V = A^T (A A^T)^-1 Y = pinv(A) Y, both built once per A.  By the
Woodbury identity A_S A_S^T = A A^T - A_c A_c^T for the complement c of
S; with L L^T = A A^T and W = L^-1 A that is L (I - W_c W_c^T) L^T, and
I - W_c W_c^T (m x m) has the eigenvalues of I - Q_cc = I - W_c^T W_c
(c x c) and ones.  I - Q projects onto null(A), so x = V - (I - Q)_:c w
solves A x = Y for every w; x_c = 0 fixes w = (I - Q_cc)^-1 V_c, and x is
then orthogonal to every null vector of A_S, so it is the minimum-norm
solution on S:

    x_S = V_S + Q_Sc (I - Q_cc)^-1 V_c.

One c x c Cholesky replaces the m x m one, which pays when c < m <= |S|.
The guard: I - Q_cc is singular exactly when A_S loses full row rank, and
cond(A_S A_S^T) <= cond(A A^T) ||(I - Q_cc)^-1||_2.  The projector is
built only when A A^T passes the Gram guard, and a solve takes it only
when 1 / (cond(A A^T) ||(I - Q_cc)^-1||_1), estimated by dpocon with the
norm of I - W_c W_c^T being 1, reaches _GRAM_RCOND_MIN: the cap the Gram
guard puts on cond(A_S A_S^T).  A failed guard sends the solve to
least_squares_solve.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

__all__ = [
    "RngStream",
    "frobenius_norm",
    "row_norms",
    "least_squares_solve",
    "draw_index",
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


def require_int(value, name: str):
    """Reject anything but a Python or numpy integer; bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def frobenius_norm(X) -> float:
    """Square root of the sum of squared entries, as np.linalg.norm(X) sums them."""
    x = as_matrix(X).ravel()
    return math.sqrt(x.dot(x))  # IEEE sqrt, correctly rounded as np.sqrt is


def row_norms(X) -> np.ndarray:
    """Euclidean norm of each row, as a 1-D array of length rows.

    Unscaled, for speed: a row's norm is correct to rounding while its
    largest magnitude lies in [1e-150, 1e150] and it has fewer than 1e8
    entries.  Outside that range a square may overflow (inf from about
    1.3e154) or underflow (digits lost below about 1.5e-154, and 0 for a
    row below about 1.5e-162).  top_k_rows and the solvers rank by these
    norms, so they misorder such rows.
    """
    X = as_matrix(X)
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


def _gram_cholesky(G, anorm=None):
    """(C, rcond): the upper Cholesky factor of symmetric G and its rcond.

    rcond is dpocon's estimate of 1 / (anorm ||G^-1||_1), with anorm
    ||G||_1 by default.  G is overwritten.  C is None when the
    factorization fails or rcond is below _GRAM_RCOND_MIN: the one guard
    of every normal-equation solve.
    """
    if anorm is None:
        anorm = np.linalg.norm(G, 1)
    C, info = lapack.dpotrf(G, overwrite_a=True, clean=False)
    if info == 0:
        rcond, info = lapack.dpocon(C, anorm)
        if info == 0 and rcond >= _GRAM_RCOND_MIN:
            return C, rcond
    return None, 0.0


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
    if not Y.shape[1]:  # no right-hand sides: LAPACK rejects the empty block
        return np.zeros((s, 0))
    wide = s >= m
    # Products go through scipy's BLAS, the library its LAPACK calls use.
    # numpy and scipy wheels each bundle an OpenBLAS with its own thread
    # pool; with two BLAS threads, level-3 calls that alternate between the
    # pools cost milliseconds each (on a 2-core host a k=60 mstogradmp
    # trial took 0.28 s instead of 0.009 s).  A_sub.T is A_sub's own buffer
    # in Fortran order, so BLAS reads it without a copy.
    At = A_sub.T
    C, _ = _gram_cholesky(blas.dgemm(1.0, At, At, trans_a=int(wide), trans_b=int(not wide)))
    if C is not None:
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


def _row_space_projector(A, Y):
    """(Q, V, cond) for Q = A^T (A A^T)^-1 A and V = A^T (A A^T)^-1 Y, or None.

    With L L^T = A A^T and W = L^-1 A, Q = W^T W (mirrored from one
    triangle, so exactly symmetric) and V = W^T (L^-1 Y) = pinv(A) Y; cond
    is 1 / rcond(A A^T).  None when A A^T fails the Gram guard.  V comes
    in C order.
    """
    At = A.T
    C, rcond = _gram_cholesky(blas.dgemm(1.0, At, At, trans_a=1))
    if C is None:
        return None
    W = lapack.dtrtrs(C, A, trans=1)[0]  # C is L^T
    # dsyrk fills the upper triangle of an F-order array: Q is its C-order
    # transpose, mirrored row by row from its lower triangle, so no n x n
    # temporary is made
    Q = blas.dsyrk(1.0, W, trans=1).T
    for i in range(len(Q) - 1):
        Q[i, i + 1 :] = Q[i + 1 :, i]
    Vt = blas.dgemm(1.0, lapack.dtrtrs(C, Y, trans=1)[0], W, trans_a=1)
    return Q, Vt.T, 1.0 / rcond


def _complement_solve(Q, V, cond, rest, cols):
    """Min-norm solve on the rows off rest, from _row_space_projector's output.

    Returns the n-row block, zero on rest, of x_S = V_S + Q_Sc (I - Q_cc)^-1
    V_c for the complement c = rest and the columns cols (a slice) of V, or
    None when I - Q_cc fails the Gram guard.
    """
    if not rest.size:
        return V[:, cols].copy()
    QR = Q[rest]
    G = QR[:, rest]  # symmetric, so its F-order transpose is the same matrix
    np.negative(G, out=G)
    G.flat[:: rest.size + 1] += 1.0
    # measured against cond(A A^T) ||I - W_c W_c^T||, rcond bounds
    # 1 / cond(A_S A_S^T) as the Gram guard does
    C, _ = _gram_cholesky(G.T, anorm=cond)
    if C is None:
        return None
    w = lapack.dpotrs(C, V[rest, cols])[0]
    # (V + Q_:c w)^T in F order, which is V + Q_:c w in C order
    B = blas.dgemm(1.0, w, QR.T, beta=1.0, c=V.T[cols], trans_a=1, trans_b=1).T
    B[rest] = 0.0
    return B


class RngStream:
    """A reproducible random stream identified by (master_seed, stream_id).

    The same pair yields the same value sequence on every platform;
    distinct ids yield statistically independent streams.  The state is a
    counter-based Philox generator keyed by hashing the id tuple into the
    seed material, so substreams can be derived without coordination.
    """

    def __init__(self, master_seed: int, stream_id: tuple):
        self.master_seed = int(master_seed) & _U64
        self.stream_id = tuple(int(i) & _U64 for i in stream_id)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_id)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def substream(self, *ids: int) -> "RngStream":
        """Derive an independent child stream by extending the id tuple."""
        return RngStream(self.master_seed, self.stream_id + tuple(ids))

    def uniforms(self, count: int) -> np.ndarray:
        """The next count doubles in [0, 1)."""
        return self._gen.random(count)

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

    p must be finite, nonnegative and sum to 1 within 1e-12.
    """

    def __init__(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-D probability vector")
        if not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("p has negative or non-finite entries")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"p sums to {total!r}, expected 1 within 1e-12")
        self.p, self._cum = p, np.cumsum(p)
        # u beyond the last cumulative value (rounding) takes the last nonzero bin
        self._last = int(np.flatnonzero(p > 0)[-1])

    def draw(self, rng: RngStream) -> int:
        return int(self.draws(rng, 1)[0])

    def draws(self, rng: RngStream, count: int) -> np.ndarray:
        """count inverse-CDF draws, mapped from rng's next count uniforms."""
        idx = self._cum.searchsorted(rng.uniforms(count), side="right")
        idx[idx == self._cum.size] = self._last
        return idx


def draw_index(p, rng: RngStream) -> int:
    """Sample one index with the given probabilities; see IndexSampler."""
    return IndexSampler(p).draw(rng)
