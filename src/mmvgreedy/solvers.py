"""Stochastic greedy solvers for jointly row-sparse recovery.

One engine runs all four solvers.  Each iteration draws a batch of
objective components per problem and applies one step to its iterate:

* IHT (``mstoiht``, ``cstoiht``), stochastic iterative hard thresholding:
  take the stochastic gradient step scaled by gamma / (d * p(batch)) and
  keep the k rows of largest norm.  For one drawn row a_i the gradient is
  a_i r^T and the iterate is zero off the kept rows, where row j of the
  step is thus -scale * a_ij * r, its norm monotone in |a_ij| even after
  rounding.  So the step forms the kept rows and the k + 1 others of
  largest |a_ij| only, unless the last two tie in norm or the block would
  cover all n rows: then it forms all n, as for larger batches, same bits.
* GradMP (``mstogradmp``, ``cstogradmp``), stochastic gradient matching
  pursuit: match the 2k rows of largest gradient norm, unite them with the
  kept support, minimize the objective restricted to that candidate set
  (at most 3k rows), then keep the k best rows of the minimizer.

Every step has one contract, step(obj, X, kept, cols, batches, scales, k)
-> (rows, old, new, kept, candidate_size).  The joint solvers step one
problem, the whole n x L matrix: cols is [0].  The concatenated solvers
step the L single-column problems (A, Y[:, j]), each with its own
substream j, kept rows (row j of an L x n mask) and tolerance stop, at
once on the stack X.T[cols]: each row is one contiguous operand, ranked
as top_k_rows ranks an n x 1 block, so at L = 1 both families compute
the same bits.  The trace at iteration t holds every column's t-th iterate.

rows names the part of X that the step changed (the one-row IHT step's
rows, or the columns cols), old and new its values, and the engine writes
just that part: into the iterate, and into two n x L buffers that hold
X - X_old and X - ground_truth everywhere.  Each norm of the trace is
then the same dense reduction over the same values as a norm of a freshly
formed difference, so the bits do not move.  A dense joint step (larger
batches, GradMP) returns rows None and its whole new iterate, and the
differences are formed afresh, which costs less than fancy-indexed writes
of 2k rows.  ||X_old|| is the previous iteration's ||X||.  Supports are
sorted index arrays, and each stream draws its batches in bulk: the same
uniforms, mapped the same way, as one draw at a time.

All solvers start from the zero matrix, stop when the relative iterate
change drops below the tolerance (every column's change, for the
concatenated solvers) or after max_iter iterations, and record a
per-iteration trace (elapsed compute time, objective, iterate change, and
error against an optional ground truth).  Identical inputs including the
seed give bit-identical traces.
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
from .linalg import draw_index  # noqa: F401  the benchmark's spans look it up here
from .objective import MmvObjective, batch_partition
from .sparsity import (
    RowSupport,
    project_rows,
    row_support,
    support_union,
    top_k_indices,  # noqa: F401  the benchmark's layer spans look it up here
    top_k_rows,
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

    probabilities is either "uniform" or an explicit distribution over the
    batches produced by the batch partition (it must sum to 1).  The
    ground truth, when given, must be a finite, nonzero n x L matrix and is
    only used to record per-iteration relative errors in the trace.
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
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
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
        if _STEPS[algo][2] and 2 * self.k > n:
            raise ValueError(
                f"{algo} matches 2k rows and needs 2k <= n, got k={self.k}, n={n}"
            )
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


def _iht_step(obj, X, kept, cols, batches, scales, k):
    """Scaled stochastic gradient step, then keep the k rows of largest norm.

    The joint step, on cols [0]: X is zero off the sorted kept rows and is
    not written.  A one-row batch forms few rows (see above) and returns
    them as rows, with their values in X and in the new iterate; the dense
    path returns rows None and the whole new iterate, as _gradmp_step
    does.  Both also return the new support and the candidate size.
    """
    batch, scale = batches[0], scales[0]
    if len(batch) == 1 and len(kept) + k + 1 < obj.n:
        i = batch[0]
        a = obj.A[i]
        r = obj.A[i : i + 1] @ X - obj.Y[i : i + 1]
        score = np.abs(a)
        score[kept] = -1.0
        rows = np.concatenate((kept, score.argpartition(-k - 1)[-k - 1 :]))
        old = X.take(rows, 0)
        B = old - scale * (a.take(rows)[:, None] * r)
        norms = row_norms(B)
        lowest = np.partition(norms[len(kept) :], 1)
        if lowest[0] < lowest[1]:
            # rank by norm, then by index, as top_k_rows does
            order = np.lexsort((rows, -norms))
            B[order[k:]] = 0.0
            support = rows[order[:k]]
            support.sort()
            return rows, old, B, support, None
    B = X - scale * obj.batch_grad(batch, X)
    support = top_k_rows(B, k)
    return None, None, project_rows(B, support), support.as_array(), None


def _gradmp_step(obj, X, kept, cols, batches, scales, k):
    """Match 2k gradient rows, minimize on them and the kept rows, keep k.

    Rank-deficient restricted solves fall back to the minimum-norm
    solution and are not an error.
    """
    matched = top_k_rows(obj.batch_grad(batches[0], X), 2 * k)
    candidate = support_union(matched, RowSupport(kept, obj.n))
    B = obj.restricted_argmin(candidate)
    support = top_k_rows(B, k)
    return None, None, project_rows(B, support), support.as_array(), len(candidate)


def _top_k_mask(B, k):
    # each row's k entries of largest magnitude, ranked as top_k_rows ranks
    # the n x 1 block B[r][:, None] (a stable sort): a partition finds the
    # k-th largest, and the entries tied with it are taken from the lowest
    # index up.  NaN ranks last, as it sorts last.
    mask = np.zeros(B.shape, dtype=bool)
    if k == 0:
        return mask
    mag = np.fmax(np.abs(B), -1.0)
    n = B.shape[1]
    kth = np.partition(mag, n - k, axis=1)[:, n - k : n - k + 1]
    np.greater(mag, kth, out=mask)
    ties = mag == kth
    short = k - np.count_nonzero(mask, axis=1, keepdims=True)
    mask |= ties & (np.cumsum(ties, axis=1) <= short)
    return mask


def _iht_columns(obj, X, kept, cols, batches, scales, k):
    """The IHT step of each column problem j in cols, whose iterate is X[:, j]."""
    old = X.T[cols]
    G = np.array([obj.column_grad(b, j, x) for b, j, x in zip(batches, cols, old)])
    B = old - np.array(scales)[:, None] * G
    kept[cols] = keep = _top_k_mask(B, k)
    return (slice(None), cols), old.T, np.where(keep, B, 0.0).T, kept, None


def _gradmp_columns(obj, X, kept, cols, batches, scales, k):
    """The GradMP step of each column problem j in cols, whose iterate is X[:, j]."""
    old = X.T[cols]
    G = np.array([obj.column_grad(b, j, x) for b, j, x in zip(batches, cols, old)])
    cand = _top_k_mask(G, 2 * k) | kept[cols]
    B = np.array([obj.restricted_column_argmin(np.flatnonzero(c), j)
                  for c, j in zip(cand, cols)])
    kept[cols] = keep = _top_k_mask(B, k)
    new = np.where(keep, B, 0.0).T
    return (slice(None), cols), old.T, new, kept, int(cand.sum(axis=1).max())


# each solver's step, whether it runs on the L single-column problems, and
# whether it matches 2k rows, which needs 2k <= n
_STEPS = {"mstoiht": (_iht_step, False, False), "cstoiht": (_iht_columns, True, False),
          "mstogradmp": (_gradmp_step, False, True),
          "cstogradmp": (_gradmp_columns, True, True)}


def _draws(sampler, rng, count):
    # the count batch indices rng draws, drawn in bulk _DRAW_BLOCK at a time
    for start in range(0, count, _DRAW_BLOCK):
        yield from sampler.draws(rng, min(_DRAW_BLOCK, count - start)).tolist()


def _solve(obj: MmvObjective, cfg: SolverConfig, algo: str):
    """Run algo's step on obj, or on all of its single-column problems.

    Only the draws and the steps are timed.  A joint record carries the
    step's support; a concatenated one the row support of the combined
    iterate, which may exceed k while the columns disagree.
    """
    cfg.check_problem(algo, obj.n, obj.component_count, obj.L)
    step, columns, _ = _STEPS[algo]
    kept = np.zeros((obj.L, obj.n), bool) if columns else np.empty(0, np.intp)
    plan = batch_partition(obj.component_count, cfg.batch_size)
    sampler = IndexSampler(cfg.batch_probabilities(plan.count))
    with np.errstate(divide="ignore"):  # a batch of probability 0 is never drawn
        scales = (cfg.gamma / (plan.count * sampler.p)).tolist()
    streams = [_draws(sampler, RngStream(cfg.seed, (j,)), cfg.max_iter)
               for j in range(obj.L if columns else 1)]
    X = np.zeros((obj.n, obj.L))
    f0 = obj.value(X)
    gt = cfg.ground_truth
    if gt is not None:
        gt_norm, err = frobenius_norm(gt), X - gt
    diff, written, norm = np.zeros(X.shape), slice(0), 0.0
    changes, active = [math.inf] * len(streams), list(range(len(streams)))
    trace, elapsed = SolveTrace(), 0.0
    for t in range(1, cfg.max_iter + 1):
        tic = time.perf_counter()
        draws = [next(streams[j]) for j in active]
        rows, old, new, kept, candidate_size = step(
            obj, X, kept, active, [plan.batches[i] for i in draws],
            [scales[i] for i in draws], cfg.k,
        )
        if rows is not None:
            X[rows] = new
        elapsed += time.perf_counter() - tic
        if rows is None:  # new is the whole new iterate
            diff, X, written = new - X, new, slice(None)
            if gt is not None:
                err = X - gt
        else:
            diff[written] = 0.0
            diff[rows], written = new - old, rows
            if gt is not None:  # take gathers faster, but not by a column tuple
                err[rows] = new - (gt[rows] if columns else gt.take(rows, 0))
        if columns:  # row r of old.T and new.T is column active[r]
            for r, j in enumerate(active):
                o, x = old.T[r : r + 1], new.T[r : r + 1]
                changes[j] = _rel_change(frobenius_norm(o), frobenius_norm(x - o))
        support = row_support(X) if columns else kept
        prev_norm, norm = norm, frobenius_norm(X)
        change = _rel_change(prev_norm, frobenius_norm(diff))
        if not columns:
            changes[0] = change
        active = [j for j in active if not changes[j] < cfg.tol]

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
            rel_err=rel, support_size=len(support), candidate_size=candidate_size,
        ))
        if not active:
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
