"""Frozen reference copy of the four solver loops, for equivalence tests.

These are the hand-written loops that `mmvgreedy.solvers` had before its
one iteration engine: two joint loops and two per-column loops, with the
helpers they used.  The per-column kernels the loops called
(`MmvObjective.column_grad`, `MmvObjective.restricted_column_argmin` and
`sparsity.top_k_indices`) are copied here as functions, so the reference
keeps working if the package drops them.  So is the batch partition
(`objective.batch_partition`, whose tuples the engine replaced with row
slices), and the empty support is `RowSupport((), n)`, as the dropped
`RowSupport.empty` built it.  The row selection
(`sparsity.top_k_rows`) is copied too, as the stable sort it was, so the
engine's tie rule is checked against an independent one.  The kernels
shared with the engine (`batch_grad`, `restricted_argmin`, `project_rows`,
`support_union`, `row_support`, `draw_index`) come from the package, so a
change to one of them shows in both; the objective's restricted kernels
read index arrays, so the loops hand them a support's `.as_array()`.  Do
not edit the loops otherwise: they define what "the same behaviour" means
for the solvers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from mmvgreedy.linalg import RngStream, draw_index, least_squares_solve, row_norms
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import (
    DivergenceError,
    IterationRecord,
    SolveTrace,
    SolverConfig,
)
from mmvgreedy.sparsity import (
    RowSupport,
    project_rows,
    row_support,
    support_union,
)


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


def _top_k(scores: np.ndarray, k: int, ambient: int) -> RowSupport:
    if k < 0 or k > ambient:
        raise ValueError(f"k={k} out of range [0, {ambient}]")
    if k == 0:
        return RowSupport((), ambient)
    # stable sort on the negated scores keeps the smaller index on ties
    order = np.argsort(-scores, kind="stable")
    return RowSupport(np.sort(order[:k]), ambient)


def top_k_rows(X, k: int) -> RowSupport:
    """Indices of the k rows of X with largest Euclidean norm."""
    norms = row_norms(X)
    return _top_k(norms, k, norms.size)


def top_k_indices(w, k: int) -> RowSupport:
    """Indices of the k largest entries of w in absolute value."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("w must be a 1-D vector")
    return _top_k(np.abs(w), k, w.size)


def column_grad(obj: MmvObjective, rows, j: int, x) -> np.ndarray:
    """Gradient of the column-j component restricted objective."""
    idx = obj._rows(rows)
    if not 0 <= j < obj.L:
        raise ValueError(f"column {j} out of range [0, {obj.L})")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (obj.n,):
        raise ValueError(f"x must have shape ({obj.n},), got {x.shape}")
    A_rows = obj.A[idx]
    r = A_rows @ x[:, None] - obj.Y[idx, j][:, None]
    return (A_rows.T @ r / idx.size).ravel()


def restricted_column_argmin(obj: MmvObjective, support: RowSupport, j: int) -> np.ndarray:
    """Per-column version of restricted_argmin, returns a length-n vector."""
    if support.ambient != obj.n:
        raise ValueError(
            f"support ambient {support.ambient} != signal length {obj.n}"
        )
    if len(support) == 0:
        raise ValueError("support must be nonempty")
    if not 0 <= j < obj.L:
        raise ValueError(f"column {j} out of range [0, {obj.L})")
    idx = support.as_array()
    b = np.zeros(obj.n)
    b[idx] = least_squares_solve(obj.A[:, idx], obj.Y[:, j : j + 1]).ravel()
    return b


# abort when the objective blows up past this multiple of its initial value
_DIVERGENCE_FACTOR = 1e12


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
        fval = self.obj.restricted_value(X_new, support.as_array())
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
    if cfg.batch_size > obj.m:
        raise ValueError(
            f"batch_size={cfg.batch_size} exceeds component count {obj.m}"
        )


def mstoiht(obj: MmvObjective, cfg: SolverConfig) -> SolveTrace:
    """Joint stochastic iterative hard thresholding over all signal columns.

    Per iteration: draw a batch, take the scaled stochastic gradient step,
    keep the k rows of largest norm.  With batch_size equal to the number
    of components this reduces to projected full-gradient descent.
    """
    _common_checks(obj, cfg, need_half_n=False)
    plan = batch_partition(obj.m, cfg.batch_size)
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
    plan = batch_partition(obj.m, cfg.batch_size)
    p = _batch_probabilities(cfg, plan.count)
    rng = RngStream(cfg.seed, (0,))
    tracer = _TraceBuilder(obj, cfg)

    X = np.zeros((obj.n, obj.L))
    kept = RowSupport((), obj.n)
    prev_norm = 0.0
    trace = SolveTrace()
    for t in range(1, cfg.max_iter + 1):
        tic = time.perf_counter()
        i = draw_index(p, rng)
        R = obj.batch_grad(plan.batches[i], X)
        matched = top_k_rows(R, 2 * cfg.k)
        candidate = support_union(matched, kept)
        B = obj.restricted_argmin(candidate.as_array())
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
    plan = batch_partition(obj.m, cfg.batch_size)
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
            b = col - scale * column_grad(obj, plan.batches[i], j, col)
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
    plan = batch_partition(obj.m, cfg.batch_size)
    p = _batch_probabilities(cfg, plan.count)
    rngs = [RngStream(cfg.seed, (j,)) for j in range(obj.L)]
    tracer = _TraceBuilder(obj, cfg)

    X = np.zeros((obj.n, obj.L))
    kept = [RowSupport((), obj.n) for _ in range(obj.L)]
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
            r = column_grad(obj, plan.batches[i], j, col)
            matched = top_k_indices(r, 2 * cfg.k)
            candidate = support_union(matched, kept[j])
            max_candidate = max(max_candidate, len(candidate))
            b = restricted_column_argmin(obj, candidate, j)
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


ORACLES = {
    "mstoiht": mstoiht,
    "cstoiht": cstoiht,
    "mstogradmp": mstogradmp,
    "cstogradmp": cstogradmp,
}
