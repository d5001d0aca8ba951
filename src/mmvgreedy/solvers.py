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

The joint solvers run the step on one problem, the whole n x L matrix.
The concatenated solvers run it on the L single-column problems
(A, Y[:, j]), each with its own substream j, kept support and tolerance
stop, advanced in lockstep: the trace at iteration t is the matrix of
every column's t-th iterate, and at L = 1 both are the same computation.

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

from .linalg import IndexSampler, RngStream, frobenius_norm, row_norms
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
# the solvers that take the GradMP step, which matches 2k rows
_MATCHING_PURSUITS = ("mstogradmp", "cstogradmp")


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
    """Parameters shared by all solvers.

    probabilities is either "uniform" or an explicit distribution over the
    batches produced by the batch partition (it must sum to 1).  The
    ground truth, when given, is only used to record per-iteration
    relative errors in the trace.
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
        if self.k < 1:
            raise ValueError("sparsity k must be >= 1")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")

    def check_problem(self, algo: str, n: int, m: int) -> None:
        """Raise ValueError unless solver algo can run on n rows, m components."""
        if self.k > n:
            raise ValueError(f"sparsity k={self.k} exceeds signal length n={n}")
        if algo in _MATCHING_PURSUITS and 2 * self.k > n:
            raise ValueError(
                f"{algo} matches 2k rows and needs 2k <= n, got k={self.k}, n={n}"
            )
        if self.batch_size > m:
            raise ValueError(f"batch_size={self.batch_size} exceeds m={m} components")


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


def _batch_probabilities(cfg: SolverConfig, d: int) -> np.ndarray:
    if isinstance(cfg.probabilities, str):
        if cfg.probabilities != "uniform":
            raise ValueError(f"unknown probabilities setting {cfg.probabilities!r}")
        return np.full(d, 1.0 / d)
    p = np.asarray(cfg.probabilities, dtype=np.float64)
    if p.shape != (d,):
        raise ValueError(f"probabilities must have length {d} (one per batch)")
    return p


def _rel_change(X_old: np.ndarray, X_new: np.ndarray) -> float:
    # change relative to the previous iterate; from the zero matrix the
    # change is infinite unless the new iterate is zero too
    prev_norm = frobenius_norm(X_old)
    diff_norm = frobenius_norm(X_new - X_old)
    if prev_norm == 0.0:
        return 0.0 if diff_norm == 0.0 else math.inf
    return diff_norm / prev_norm


def _check_objective(fval: float, f0: float, records) -> None:
    if not math.isfinite(fval):
        raise DivergenceError(
            f"objective became non-finite ({fval}); the step size is likely too large",
            records,
        )
    if f0 > 0 and fval > _DIVERGENCE_FACTOR * f0:
        raise DivergenceError(
            f"objective grew to {fval:.3e}, more than {_DIVERGENCE_FACTOR:.0e} times "
            f"its initial value {f0:.3e}; aborting as divergent",
            records,
        )


class _TraceBuilder:
    """Accumulates per-iteration diagnostics outside the timed sections."""

    def __init__(self, obj: MmvObjective, cfg: SolverConfig):
        self.obj = obj
        self.f0 = obj.value(np.zeros((obj.n, obj.L)))
        self.gt = None
        self.gt_norm = 0.0
        if cfg.ground_truth is not None:
            self.gt = np.asarray(cfg.ground_truth, dtype=np.float64)
            if self.gt.shape != (obj.n, obj.L):
                raise ValueError(
                    f"ground_truth must be {obj.n}x{obj.L}, got {self.gt.shape}"
                )
            self.gt_norm = float(np.linalg.norm(self.gt))
        self.records = []
        self.elapsed = 0.0

    def add(self, t, X_new, support, change, candidate_size):
        fval = self.obj.restricted_value(X_new, support)
        _check_objective(fval, self.f0, self.records)
        rel = None
        if self.gt is not None:
            rel = frobenius_norm(X_new - self.gt) / self.gt_norm
        self.records.append(
            IterationRecord(
                iteration=t,
                elapsed_s=self.elapsed,
                objective=fval,
                step_rel_change=change,
                rel_err=rel,
                support_size=len(support),
                candidate_size=candidate_size,
            )
        )


def _iht_step(obj, X, kept, batch, scale, k):
    """Scaled stochastic gradient step, then keep the k rows of largest norm.

    X is zero off the kept rows; a one-row batch forms few rows (see above).
    """
    if len(batch) == 1 and len(kept) + k + 1 < obj.n:
        i, kept_rows = batch[0], kept.as_array()
        a = obj.A[i]
        r = obj.A[i : i + 1] @ X - obj.Y[i : i + 1]
        score = np.abs(a)
        score[kept_rows] = -1.0
        rows = np.concatenate((kept_rows, np.argpartition(score, -k - 1)[-k - 1 :]))
        B = X[rows] - scale * (a[rows, None] * r)
        norms = row_norms(B)
        lowest = np.partition(norms[len(kept_rows) :], 1)
        if lowest[0] < lowest[1]:
            # rank by norm, then by index, as top_k_rows does
            top = np.lexsort((rows, -norms))[:k]
            X_new = np.zeros(X.shape)
            X_new[rows[top]] = B[top]
            return X_new, RowSupport(np.sort(rows[top]), obj.n), None
    B = X - scale * obj.batch_grad(batch, X)
    support = top_k_rows(B, k)
    return project_rows(B, support), support, None


def _gradmp_step(obj, X, kept, batch, scale, k):
    """Match 2k gradient rows, minimize on them and the kept rows, keep k.

    Rank-deficient restricted solves fall back to the minimum-norm
    solution and are not an error.
    """
    matched = top_k_rows(obj.batch_grad(batch, X), 2 * k)
    candidate = support_union(matched, kept)
    B = obj.restricted_argmin(candidate)
    support = top_k_rows(B, k)
    return project_rows(B, support), support, candidate


@dataclass
class _Problem:
    """An objective the engine advances, with its stream and state."""

    obj: MmvObjective
    rng: RngStream
    X: np.ndarray
    kept: RowSupport
    change: float = math.inf
    active: bool = True


def _solve(obj: MmvObjective, cfg: SolverConfig, algo: str, per_column: bool):
    """Run algo's step on obj, or on each of its single-column problems.

    Only the draws and the steps are timed.  A joint record carries the
    step's support; a concatenated one the row support of the combined
    iterate, which may exceed k while the columns disagree.
    """
    cfg.check_problem(algo, obj.n, obj.component_count)
    step = _gradmp_step if algo in _MATCHING_PURSUITS else _iht_step
    plan = batch_partition(obj.component_count, cfg.batch_size)
    sampler = IndexSampler(_batch_probabilities(cfg, plan.count))
    tracer = _TraceBuilder(obj, cfg)
    parts = [obj]
    if per_column:
        parts = [MmvObjective(obj.A, obj.Y[:, j : j + 1]) for j in range(obj.L)]
    problems = [
        _Problem(part, RngStream(cfg.seed, (j,)), np.zeros((obj.n, part.L)),
                 RowSupport.empty(obj.n))
        for j, part in enumerate(parts)
    ]
    X = np.zeros((obj.n, obj.L))
    trace = SolveTrace()
    for t in range(1, cfg.max_iter + 1):
        candidate_sizes = []
        for prob in problems:
            if not prob.active:
                continue
            tic = time.perf_counter()
            i = sampler.draw(prob.rng)
            scale = cfg.gamma / (plan.count * sampler.p[i])
            X_new, prob.kept, candidate = step(
                prob.obj, prob.X, prob.kept, plan.batches[i], scale, cfg.k
            )
            tracer.elapsed += time.perf_counter() - tic

            prob.change = _rel_change(prob.X, X_new)
            prob.X = X_new
            prob.active = not prob.change < cfg.tol
            if candidate is not None:
                candidate_sizes.append(len(candidate))

        if per_column:
            X_new = np.hstack([prob.X for prob in problems])
            support, change = row_support(X_new), _rel_change(X, X_new)
        else:
            X_new, support, change = problems[0].X, problems[0].kept, problems[0].change
        tracer.add(t, X_new, support, change, max(candidate_sizes, default=None))
        X = X_new
        if not any(prob.active for prob in problems):
            trace.stop_reason = "tolerance"
            break
    trace.records = tracer.records
    trace.estimate = X
    return trace


def mstoiht(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Joint stochastic IHT; with one batch of all components, projected GD."""
    return _solve(obj, cfg, "mstoiht", per_column=False)


def cstoiht(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Concatenated stochastic IHT: the IHT step run on each column alone."""
    return _solve(obj, cfg, "cstoiht", per_column=True)


def mstogradmp(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Joint stochastic gradient matching pursuit over all signal columns."""
    return _solve(obj, cfg, "mstogradmp", per_column=False)


def cstogradmp(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Concatenated stochastic GradMP: the GradMP step run on each column alone."""
    return _solve(obj, cfg, "cstogradmp", per_column=True)


SOLVERS = {
    "mstoiht": mstoiht,
    "cstoiht": cstoiht,
    "mstogradmp": mstogradmp,
    "cstogradmp": cstogradmp,
}
