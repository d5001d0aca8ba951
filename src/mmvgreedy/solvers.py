"""Stochastic greedy solvers for jointly row-sparse recovery.

Two families are implemented, each in a matrix (joint) and a concatenated
(per-column) variant:

* ``mstoiht`` / ``cstoiht``: stochastic iterative hard thresholding.  Each
  iteration draws a batch of objective components, takes an unbiased
  gradient step scaled by gamma / (d * p(batch)), and hard-thresholds the
  result to the k best rows (or entries, per column).
* ``mstogradmp`` / ``cstogradmp``: stochastic gradient matching pursuit.
  Each iteration matches the 2k largest gradient rows, unions them with
  the previously kept support, solves the objective restricted to that
  candidate set, then re-thresholds to k rows.

All solvers start from the zero matrix, stop when the relative iterate
change drops below the tolerance or after max_iter iterations, and record
a per-iteration trace (elapsed compute time, objective, iterate change,
and error against an optional ground truth).  Identical inputs including
the seed give bit-identical traces.  The concatenated variants advance all
columns in lockstep with independent per-column substreams, so the trace
at iteration t is the matrix of every column's t-th inner iterate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import RngStream, draw_index
from .objective import MmvObjective, batch_partition
from .sparsity import (
    RowSupport,
    project_rows,
    row_support,
    support_union,
    top_k_indices,
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
        if not self.gamma > 0:
            raise ValueError("step size gamma must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


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


def _rel_change(prev_norm: float, diff_norm: float) -> float:
    # change relative to the previous iterate; from the zero matrix the
    # change is infinite unless the new iterate is zero too
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
        self.cfg = cfg
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

    def add(self, t, X_new, support, prev_norm, diff_norm, candidate_size=None):
        fval = self.obj.restricted_value(X_new, support)
        _check_objective(fval, self.f0, self.records)
        change = _rel_change(prev_norm, diff_norm)
        rel = None
        if self.gt is not None:
            rel = float(np.linalg.norm(X_new - self.gt)) / self.gt_norm
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
        return change


def _common_checks(obj: MmvObjective, cfg: SolverConfig, need_half_n: bool) -> None:
    if cfg.k > obj.n:
        raise ValueError(f"sparsity k={cfg.k} exceeds signal length n={obj.n}")
    if need_half_n and 2 * cfg.k > obj.n:
        raise ValueError(
            f"matching pursuit needs 2k <= n, got k={cfg.k}, n={obj.n}"
        )
    if cfg.batch_size > obj.component_count:
        raise ValueError(
            f"batch_size={cfg.batch_size} exceeds component count "
            f"{obj.component_count}"
        )


def mstoiht(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Joint stochastic iterative hard thresholding over all signal columns.

    Per iteration: draw a batch, take the scaled stochastic gradient step,
    keep the k rows of largest norm.  With batch_size equal to the number
    of components this reduces to projected full-gradient descent.
    """
    _common_checks(obj, cfg, need_half_n=False)
    plan = batch_partition(obj.component_count, cfg.batch_size)
    p = _batch_probabilities(cfg, plan.count)
    rng = RngStream(cfg.seed, (0,))
    tracer = _TraceBuilder(obj, cfg)

    X = np.zeros((obj.n, obj.L))
    prev_norm = 0.0
    trace = SolveTrace()
    for t in range(1, cfg.max_iter + 1):
        tic = time.perf_counter()
        i = draw_index(p, rng)
        scale = cfg.gamma / (plan.count * p[i])
        B = X - scale * obj.batch_grad(plan.batches[i], X)
        support = top_k_rows(B, cfg.k)
        X_new = project_rows(B, support)
        tracer.elapsed += time.perf_counter() - tic

        diff_norm = float(np.linalg.norm(X_new - X))
        change = tracer.add(t, X_new, support, prev_norm, diff_norm)
        X = X_new
        prev_norm = float(np.linalg.norm(X))
        if change < cfg.tol:
            trace.stop_reason = "tolerance"
            break
    trace.records = tracer.records
    trace.estimate = X
    return trace


def mstogradmp(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Joint stochastic gradient matching pursuit.

    Per iteration: draw a batch and form its gradient, match the 2k rows
    of largest gradient norm, union with the previously kept support
    (candidate set of at most 3k rows), minimize the full objective
    restricted to the candidate rows, then keep the k best rows of that
    minimizer.  Rank-deficient restricted solves fall back to the
    minimum-norm solution and are not an error.
    """
    _common_checks(obj, cfg, need_half_n=True)
    plan = batch_partition(obj.component_count, cfg.batch_size)
    p = _batch_probabilities(cfg, plan.count)
    rng = RngStream(cfg.seed, (0,))
    tracer = _TraceBuilder(obj, cfg)

    X = np.zeros((obj.n, obj.L))
    kept = RowSupport.empty(obj.n)
    prev_norm = 0.0
    trace = SolveTrace()
    for t in range(1, cfg.max_iter + 1):
        tic = time.perf_counter()
        i = draw_index(p, rng)
        R = obj.batch_grad(plan.batches[i], X)
        matched = top_k_rows(R, 2 * cfg.k)
        candidate = support_union(matched, kept)
        B = obj.restricted_argmin(candidate)
        kept = top_k_rows(B, cfg.k)
        X_new = project_rows(B, kept)
        tracer.elapsed += time.perf_counter() - tic

        diff_norm = float(np.linalg.norm(X_new - X))
        change = tracer.add(
            t, X_new, kept, prev_norm, diff_norm, candidate_size=len(candidate)
        )
        X = X_new
        prev_norm = float(np.linalg.norm(X))
        if change < cfg.tol:
            trace.stop_reason = "tolerance"
            break
    trace.records = tracer.records
    trace.estimate = X
    return trace


def cstoiht(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Concatenated stochastic iterative hard thresholding.

    Runs one scalar-signal solver per column with its own random
    substream, advancing all columns in lockstep.  Column j at trace
    iteration t therefore matches the t-th iterate of the standalone
    single-vector solver seeded with substream j, and columns that meet
    the tolerance stop early while the rest continue.
    """
    _common_checks(obj, cfg, need_half_n=False)
    plan = batch_partition(obj.component_count, cfg.batch_size)
    p = _batch_probabilities(cfg, plan.count)
    rngs = [RngStream(cfg.seed, (j,)) for j in range(obj.L)]
    tracer = _TraceBuilder(obj, cfg)

    X = np.zeros((obj.n, obj.L))
    active = [True] * obj.L
    X_prev = X.copy()
    trace = SolveTrace()
    for t in range(1, cfg.max_iter + 1):
        tic = time.perf_counter()
        for j in range(obj.L):
            if not active[j]:
                continue
            col = X[:, j]
            i = draw_index(p, rngs[j])
            scale = cfg.gamma / (plan.count * p[i])
            b = col - scale * obj.column_grad(plan.batches[i], j, col)
            keep = top_k_indices(b, cfg.k)
            new_col = np.zeros(obj.n)
            idx = keep.as_array()
            new_col[idx] = b[idx]
            col_change = _rel_change(
                float(np.linalg.norm(col)), float(np.linalg.norm(new_col - col))
            )
            X[:, j] = new_col
            if col_change < cfg.tol:
                active[j] = False
        tracer.elapsed += time.perf_counter() - tic

        support = row_support(X)
        diff_norm = float(np.linalg.norm(X - X_prev))
        tracer.add(t, X, support, float(np.linalg.norm(X_prev)), diff_norm)
        X_prev = X.copy()
        if not any(active):
            trace.stop_reason = "tolerance"
            break
    trace.records = tracer.records
    trace.estimate = X
    return trace


def cstogradmp(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Concatenated stochastic gradient matching pursuit.

    Per-column matching pursuit with independent substreams, advanced in
    lockstep like cstoiht.  Each column keeps its own retained support and
    solves its own restricted least-squares problem every iteration.
    """
    _common_checks(obj, cfg, need_half_n=True)
    plan = batch_partition(obj.component_count, cfg.batch_size)
    p = _batch_probabilities(cfg, plan.count)
    rngs = [RngStream(cfg.seed, (j,)) for j in range(obj.L)]
    tracer = _TraceBuilder(obj, cfg)

    X = np.zeros((obj.n, obj.L))
    kept = [RowSupport.empty(obj.n) for _ in range(obj.L)]
    active = [True] * obj.L
    X_prev = X.copy()
    trace = SolveTrace()
    for t in range(1, cfg.max_iter + 1):
        max_candidate = 0
        tic = time.perf_counter()
        for j in range(obj.L):
            if not active[j]:
                continue
            col = X[:, j]
            i = draw_index(p, rngs[j])
            r = obj.column_grad(plan.batches[i], j, col)
            matched = top_k_indices(r, 2 * cfg.k)
            candidate = support_union(matched, kept[j])
            max_candidate = max(max_candidate, len(candidate))
            b = obj.restricted_column_argmin(candidate, j)
            kept[j] = top_k_indices(b, cfg.k)
            new_col = np.zeros(obj.n)
            idx = kept[j].as_array()
            new_col[idx] = b[idx]
            col_change = _rel_change(
                float(np.linalg.norm(col)), float(np.linalg.norm(new_col - col))
            )
            X[:, j] = new_col
            if col_change < cfg.tol:
                active[j] = False
        tracer.elapsed += time.perf_counter() - tic

        support = row_support(X)
        diff_norm = float(np.linalg.norm(X - X_prev))
        tracer.add(
            t,
            X,
            support,
            float(np.linalg.norm(X_prev)),
            diff_norm,
            candidate_size=max_candidate if max_candidate else None,
        )
        X_prev = X.copy()
        if not any(active):
            trace.stop_reason = "tolerance"
            break
    trace.records = tracer.records
    trace.estimate = X
    return trace


SOLVERS = {
    "mstoiht": mstoiht,
    "cstoiht": cstoiht,
    "mstogradmp": mstogradmp,
    "cstogradmp": cstogradmp,
}
