"""Stochastic greedy solvers for jointly row-sparse recovery.

One engine runs all four solvers.  Each iteration draws a batch of
objective components per problem and applies one step to its iterate:

* IHT (``mstoiht``, ``cstoiht``), stochastic iterative hard thresholding:
  take the stochastic gradient step scaled by gamma / (d * p(batch)) and
  keep the k rows of largest norm.  For one drawn row a_i, row j of the
  step off the kept rows is -scale * a_ij * r, its norm monotone in |a_ij|
  even after rounding, so the joint step forms the kept rows and the k + 1
  others of largest |a_ij| only, unless the last two tie in norm or the
  block would cover all n rows: then it forms all n, with the same bits.
* GradMP (``mstogradmp``, ``cstogradmp``), stochastic gradient matching
  pursuit: match the 2k rows of largest gradient norm, unite them with the
  kept support, minimize the objective restricted to that candidate set
  (at most 3k rows), then keep the k best rows of the minimizer.  For one
  drawn row the joint step takes the norms of the 2k + 1 rows of largest
  |a_ij| only, by the same rule, and matches all but the lowest.

Every step has one contract, step(obj, X, kept, cols, batch, scale, k)
-> (rows, old, new, kept, candidate_size), on index sets the engine built
once per solve: contiguous batches as row slices, which batch_grad and
column_grad check in O(1), and supports as sorted index arrays or masks.
The joint solvers step the n x L problem on one batch; the concatenated
ones step the L single-column problems (A, Y[:, j]), each with its own
substream j, kept rows (row j of an L x n mask), batch and tolerance stop,
at once on the stack X.T[cols] of the running columns cols.  All rank rows
by sparsity's one tie rule, so at L = 1 both families compute the same
bits; at batch size 1 the column gradients are one stacked expression.

rows names the part of X that the step changed (the one-row IHT step's
rows, or the columns cols), old and new its values, and the engine writes
just that part after the timer: into the iterate, and into n x L buffers
holding X - X_old and X - ground_truth.  Every norm of the trace, and
each column's own change, is then the same reduction over the same
values as the norm of a freshly formed difference, so the bits do not
move.  A dense joint step (larger batches, GradMP) returns rows None and
its whole new iterate; its differences are formed afresh, cheaper than
fancy-indexed writes of 2k rows.  Each stream draws its batches in bulk,
with the bits of one draw at a time.

All solvers start from the zero matrix and stop when the relative iterate
change (every column's, for the concatenated solvers) drops below the
tolerance, or after max_iter iterations.  The per-iteration trace (compute
time, objective, iterate change, error against an optional ground truth)
is bit-identical for identical inputs and seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    IndexSampler, RngStream, as_matrix, frobenius_norm, require_finite, require_int,
    row_norms,
)
from .objective import MmvObjective
# the benchmark's layer spans look these names up here
from .linalg import draw_index  # noqa: F401
from .sparsity import _top_k_mask
from .sparsity import (  # noqa: F401
    project_rows, row_support, support_union, top_k_indices, top_k_rows,
)

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolveTrace",
    "DivergenceError",
    "mstoiht",
    "cstoiht",
    "mstogradmp",
    "cstogradmp",
    "SOLVERS",
]

# abort when the objective blows up past this multiple of its initial value
_DIVERGENCE_FACTOR = 1e12
# uniforms a stream draws per bulk call: few calls, and memory bounded
# however large max_iter is
_DRAW_BLOCK = 1024


class DivergenceError(RuntimeError):
    """Raised when an iterate goes non-finite or the objective explodes.

    Carries the records accumulated before the failure so a benchmark can
    keep the partial trace.
    """

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records if records is not None else []


@dataclass
class SolverConfig:
    """Parameters shared by all solvers, and the rules they must meet.

    probabilities is either "uniform" or an explicit distribution, summing
    to 1, over the ceil(m / batch_size) batches: contiguous row slices of
    batch_size rows, the last possibly short.  The ground truth, when
    given, must be a finite, nonzero n x L matrix and is only used to
    record per-iteration relative errors in the trace.
    """

    k: int
    gamma: float = 1.0
    batch_size: int = 1
    probabilities: object = "uniform"
    max_iter: int = 1000
    tol: float = 1e-6
    seed: int = 0
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        for name in ("k", "batch_size", "max_iter"):
            if require_int(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        require_int(self.seed, "seed")
        if isinstance(self.gamma, bool) or not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be a positive finite real, got {self.gamma}")
        if isinstance(self.tol, bool) or not self.tol >= 0:
            raise ValueError(f"tol must be a nonnegative real, got {self.tol}")
        if isinstance(self.probabilities, str) and self.probabilities != "uniform":
            raise ValueError(f"unknown probabilities setting {self.probabilities!r}")
        if self.ground_truth is not None:
            self.ground_truth = require_finite(
                as_matrix(self.ground_truth, "ground_truth"), "ground_truth"
            )

    def check_problem(self, algo: str, n: int, m: int, L: int) -> None:
        """Raise ValueError unless solver algo can run on n x L, m components."""
        if self.k > n:
            raise ValueError(f"sparsity k={self.k} exceeds signal length n={n}")
        if _STEPS[algo][2] and _MATCH * self.k > n:
            raise ValueError(f"{algo} matches {_MATCH}k rows and needs {_MATCH}k <= n, "
                             f"got k={self.k}, n={n}")
        if self.batch_size > m:
            raise ValueError(f"batch_size={self.batch_size} exceeds m={m} components")
        gt = self.ground_truth
        if gt is not None:
            if gt.shape != (n, L):
                raise ValueError(f"ground_truth must be {n}x{L}, got {gt.shape}")
            if frobenius_norm(gt) == 0:
                raise ValueError("ground_truth must be nonzero")

    def batch_probabilities(self, d: int) -> np.ndarray:
        """The draw probability of each of the d batches."""
        if isinstance(self.probabilities, str):
            return np.full(d, 1.0 / d)
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.shape != (d,):
            raise ValueError(f"probabilities must have length {d} (one per batch)")
        return p


@dataclass
class IterationRecord:
    iteration: int
    elapsed_s: float
    objective: float
    step_rel_change: float
    rel_err: float | None
    support_size: int
    candidate_size: int | None = None


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)
    estimate: np.ndarray | None = None
    stop_reason: str = "max_iter"

    @property
    def final_record(self) -> IterationRecord:
        return self.records[-1]

    @property
    def iterations(self) -> int:
        return len(self.records)


def _rel_change(prev_norm: float, diff_norm: float) -> float:
    # change relative to the previous iterate; from the zero matrix the
    # change is infinite unless the new iterate is zero too
    if prev_norm == 0.0:
        return 0.0 if diff_norm == 0.0 else math.inf
    return diff_norm / prev_norm


def _one_row(obj, X, batch, count, skip=None):
    # (a, r, top) of a one-row batch: its sensing row a, its residual r and
    # the count rows of largest |a_j| off skip.  Row j of the batch gradient
    # is a_j r, its norm monotone in |a_j| even after rounding.
    a = obj.A[batch.start]
    score = np.abs(a)
    if skip is not None:
        score[skip] = -1.0
    return a, obj.A[batch] @ X - obj.Y[batch], score.argpartition(-count)[-count:]


def _strictly_lowest(norms):
    # a block of the rows of largest |a_j| ranks as all n rows do when its
    # lowest norm is below all its others: no row off it can outrank those
    lowest = np.partition(norms, 1)
    return lowest[0] < lowest[1]


def _iht_step(obj, X, kept, cols, batch, scale, k):
    """Scaled stochastic gradient step, then keep the k rows of largest norm.

    The joint step, on the row slice batch: X is zero off the sorted kept
    rows and is not written.  A one-row batch forms few rows (see above)
    and returns them as rows, with their values in X and in the new
    iterate; the dense path returns rows None and the whole new iterate,
    as _gradmp_step does.  Both also return the new support and the
    candidate size.
    """
    if batch.stop - batch.start == 1 and len(kept) + k + 1 < obj.n:
        a, r, top = _one_row(obj, X, batch, k + 1, kept)
        rows = np.concatenate((kept, top))
        old = X.take(rows, 0)
        B = old - scale * (a.take(rows)[:, None] * r)
        norms = row_norms(B)
        if _strictly_lowest(norms[len(kept) :]):
            # rank by norm, then by index, as top_k_rows does
            order = np.lexsort((rows, -norms))
            B[order[k:]] = 0.0
            support = rows[order[:k]]
            support.sort()
            return rows, old, B, support, None
    B = X - scale * obj.batch_grad(batch, X)
    keep = _top_k_mask(row_norms(B)[None], k)[0]  # top_k_rows(B, k) as a mask
    B[~keep] = 0.0
    return None, None, B, np.flatnonzero(keep), None


def _gradmp_step(obj, X, kept, cols, batch, scale, k):
    """Match 2k gradient rows, minimize on them and the kept rows, keep k.

    Rank-deficient restricted solves fall back to the minimum-norm
    solution and are not an error.
    """
    count, cand = _MATCH * k, None
    if batch.stop - batch.start == 1 and count < obj.n:
        # the gradient's rows are a_j r: all but the lowest of the count + 1
        # rows of largest |a_j|, unless its norm ties
        a, r, top = _one_row(obj, X, batch, count + 1)
        norms = row_norms(a.take(top)[:, None] * r)
        if _strictly_lowest(norms):
            cand = np.zeros(obj.n, bool)
            cand[top] = True
            cand[top[norms.argmin()]] = False
    if cand is None:
        # the rows top_k_rows ranks first, as masks: its _top_k_mask rule on norms
        cand = _top_k_mask(row_norms(obj.batch_grad(batch, X))[None], count)[0]
    cand[kept] = True
    candidate = np.flatnonzero(cand)
    B = obj.restricted_argmin(candidate)
    keep = _top_k_mask(row_norms(B)[None], k)[0]
    B[~keep] = 0.0
    return None, None, B, np.flatnonzero(keep), len(candidate)


def _column_grads(obj, old, cols, batches):
    # column_grad of each column j in cols at its iterate, the row of old
    if any(b.stop - b.start > 1 for b in batches):
        return np.array([obj.column_grad(*args) for args in zip(batches, cols, old)])
    # one row a_i each: the stacked vector product is column_grad's dot, and
    # + 0.0 turns -0.0 into the 0.0 that its BLAS outer product returns
    i = np.array([b.start for b in batches])
    a = obj.A[i]
    r = (a[:, None, :] @ old[:, :, None])[:, 0, 0] - obj.Y[i, cols]
    return a * r[:, None] + 0.0


def _iht_columns(obj, X, kept, cols, batches, scales, k):
    """The IHT step of each column problem j in cols, whose iterate is X[:, j]."""
    old = X.T[cols]
    B = old - scales[:, None] * _column_grads(obj, old, cols, batches)
    kept[cols] = keep = _top_k_mask(B, k)
    return (slice(None), cols), old.T, np.where(keep, B, 0.0).T, kept, None


def _gradmp_columns(obj, X, kept, cols, batches, scales, k):
    """The GradMP step of each column problem j in cols, whose iterate is X[:, j]."""
    old = X.T[cols]
    cand = _top_k_mask(_column_grads(obj, old, cols, batches), _MATCH * k) | kept[cols]
    B = np.array([obj.restricted_column_argmin(np.flatnonzero(c), j)
                  for c, j in zip(cand, cols)])
    kept[cols] = keep = _top_k_mask(B, k)
    new = np.where(keep, B, 0.0).T
    return (slice(None), cols), old.T, new, kept, int(cand.sum(axis=1).max())


def _stacked_norms(R):
    # each row's norm as frobenius_norm takes it: the same dot product (one
    # stacked matmul over the C-contiguous rows), then an IEEE sqrt
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


# each solver's step, whether it runs on the L single-column problems, and
# whether it matches _MATCH * k gradient rows, which needs _MATCH * k <= n
_MATCH = 2
_STEPS = {"mstoiht": (_iht_step, False, False), "cstoiht": (_iht_columns, True, False),
          "mstogradmp": (_gradmp_step, False, True),
          "cstogradmp": (_gradmp_columns, True, True)}


def _draws(sampler, rng, count):
    # the count batch indices rng draws, drawn in bulk _DRAW_BLOCK at a time
    for start in range(0, count, _DRAW_BLOCK):
        yield from sampler.draws(rng, min(_DRAW_BLOCK, count - start)).tolist()


def _solve(obj: MmvObjective, cfg: SolverConfig, algo: str):
    """Run algo's step on obj, or on all of its single-column problems.

    Only the draws and the steps are timed; X is written after.  A joint
    record carries the step's support; a concatenated one the row support
    of the combined iterate, which may exceed k while the columns disagree.
    """
    cfg.check_problem(algo, obj.n, obj.m, obj.L)
    step, columns, _ = _STEPS[algo]
    kept = np.zeros((obj.L, obj.n), bool) if columns else np.empty(0, np.intp)
    m, b = obj.m, cfg.batch_size  # 1 <= b <= m, checked above
    bounds = [slice(i, min(i + b, m)) for i in range(0, m, b)]  # the last may be short
    sampler = IndexSampler(cfg.batch_probabilities(len(bounds)))
    with np.errstate(divide="ignore"):  # a batch of probability 0 is never drawn
        scales = cfg.gamma / (len(bounds) * sampler.p)
    streams = [_draws(sampler, RngStream(cfg.seed, (j,)), cfg.max_iter)
               for j in range(obj.L if columns else 1)]
    X = np.zeros((obj.n, obj.L))
    f0 = obj.value(X)
    gt = cfg.ground_truth
    if gt is not None:
        gt_norm, err = frobenius_norm(gt), X - gt
    diff, written, norm = np.zeros(X.shape), slice(0), 0.0
    active, trace, elapsed = np.arange(len(streams)), SolveTrace(), 0.0
    for t in range(1, cfg.max_iter + 1):
        tic = time.perf_counter()
        # a draw from each running column's stream in column order, or the joint one
        i = [next(streams[j]) for j in active.tolist()] if columns else next(streams[0])
        batch = [bounds[d] for d in i] if columns else bounds[i]
        rows, old, new, kept, size = step(obj, X, kept, active, batch, scales[i], cfg.k)
        elapsed += time.perf_counter() - tic
        if rows is None:  # new is the whole new iterate
            diff, X, written = new - X, new, slice(None)
            if gt is not None:
                err = X - gt
        else:
            step_diff = new - old
            diff[written] = 0.0
            X[rows], diff[rows], written = new, step_diff, rows
            if gt is not None:  # take gathers faster, but not by a column tuple
                err[rows] = new - (gt[rows] if columns else gt.take(rows, 0))
        support = np.flatnonzero(X.any(axis=1)) if columns else kept
        prev_norm, norm = norm, frobenius_norm(X)
        change = _rel_change(prev_norm, frobenius_norm(diff))
        if columns:  # row r of old.T and step_diff.T is column active[r]
            old_norm, diff_norm = _stacked_norms(old.T), _stacked_norms(step_diff.T)
            with np.errstate(divide="ignore", invalid="ignore"):  # as _rel_change
                stopped = np.where(diff_norm == 0, 0.0, diff_norm / old_norm) < cfg.tol
            active = active[~stopped]
        done = not active.size if columns else change < cfg.tol

        fval = obj.restricted_value(X, support)
        if not math.isfinite(fval):
            raise DivergenceError(
                f"objective became non-finite ({fval}); the step size is likely "
                "too large",
                trace.records,
            )
        if f0 > 0 and fval > _DIVERGENCE_FACTOR * f0:
            raise DivergenceError(
                f"objective grew to {fval:.3e}, more than {_DIVERGENCE_FACTOR:.0e} "
                f"times its initial value {f0:.3e}; aborting as divergent",
                trace.records,
            )
        rel = None if gt is None else frobenius_norm(err) / gt_norm
        trace.records.append(IterationRecord(
            iteration=t, elapsed_s=elapsed, objective=fval, step_rel_change=change,
            rel_err=rel, support_size=len(support), candidate_size=size,
        ))
        if done:
            trace.stop_reason = "tolerance"
            break
    trace.estimate = X
    return trace


def mstoiht(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Joint stochastic IHT; with one batch of all components, projected GD."""
    return _solve(obj, cfg, "mstoiht")


def cstoiht(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Concatenated stochastic IHT: the IHT step run on each column alone."""
    return _solve(obj, cfg, "cstoiht")


def mstogradmp(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Joint stochastic gradient matching pursuit over all signal columns."""
    return _solve(obj, cfg, "mstogradmp")


def cstogradmp(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Concatenated stochastic GradMP: the GradMP step run on each column alone."""
    return _solve(obj, cfg, "cstogradmp")


SOLVERS = {
    "mstoiht": mstoiht,
    "cstoiht": cstoiht,
    "mstogradmp": mstogradmp,
    "cstogradmp": cstogradmp,
}
