"""Benchmark protocol: data generation, repeated trials, and CSV traces.

Every trial regenerates the sensing matrix, the planted row-sparse signal,
and the noise from a trial-indexed substream, runs the selected solver,
and records a relative-error/objective trace.  Per-trial streams are
derived from (seed, trial), so raising the trial count leaves earlier
trials bit-identical, and trials may run concurrently without changing
any output byte.

Wall-clock timing covers solver compute only (never data generation or
diagnostics).  CSV output zeroes the time column by default so repeated
runs are byte-identical; pass timing="wall" to export measured seconds at
the cost of that reproducibility.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import RngStream, derive_seed, require_finite
from .objective import MmvObjective
from .solvers import SOLVERS, DivergenceError, SolverConfig

__all__ = [
    "ExperimentSpec",
    "TraceRow",
    "TraceTable",
    "gaussian_sensing_matrix",
    "row_sparse_signal",
    "add_noise",
    "generate_instance",
    "run_experiment",
    "run_sweep",
    "sweep_specs",
    "SWEEP_FIELDS",
]

CSV_HEADER = "trial,algo,iter,time_s,rel_err,objective"

SWEEP_FIELDS = {
    "sparsity": "k",
    "signals": "L",
    "noise": "noise_sigma",
    "batch": "batch_size",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark configuration: dimensions, solver, and trial count."""

    n: int = 200
    m: int = 100
    L: int = 40
    k: int = 5
    noise_sigma: float = 0.0
    algo: str = "mstoiht"
    batch_size: int = 1
    gamma: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-6
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "m", "L", "k", "batch_size", "max_iter", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k > self.n:
            raise ValueError(f"k={self.k} exceeds n={self.n}")
        if self.batch_size > self.m:
            raise ValueError(
                f"batch_size={self.batch_size} exceeds the m={self.m} components"
            )
        if self.algo in ("mstogradmp", "cstogradmp") and 2 * self.k > self.n:
            raise ValueError(
                f"{self.algo} matches 2k rows and needs 2k <= n, "
                f"got k={self.k}, n={self.n}"
            )
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.algo not in SOLVERS:
            raise ValueError(
                f"unknown algo {self.algo!r}, expected one of {sorted(SOLVERS)}"
            )


def gaussian_sensing_matrix(m: int, n: int, rng: RngStream) -> np.ndarray:
    """Gaussian matrix with entry variance 1/m and unit-norm columns."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    norms = np.linalg.norm(A, axis=0)
    if (norms == 0).any():
        raise ValueError("degenerate zero column in sensing matrix")
    return require_finite(A / norms, "sensing matrix")


def row_sparse_signal(n: int, L: int, k: int, rng: RngStream) -> np.ndarray:
    """Standard-normal matrix with all but k uniformly chosen rows zeroed."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    if L < 1:
        raise ValueError("L must be >= 1")
    X = rng.standard_normal((n, L))
    keep = np.sort(rng.choice_without_replacement(n, k))
    out = np.zeros_like(X)
    out[keep] = X[keep]
    return require_finite(out, "signal matrix")


def add_noise(Y, sigma: float, rng: RngStream) -> np.ndarray:
    """Add zero-mean Gaussian noise with standard deviation sigma."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    Y = np.asarray(Y, dtype=np.float64)
    if sigma == 0:
        return Y.copy()
    return Y + sigma * rng.standard_normal(Y.shape)


def generate_instance(spec: ExperimentSpec, trial: int):
    """Per-trial data: sensing matrix, planted signal, measurements."""
    rng = RngStream(spec.seed, (trial, 0))
    A = gaussian_sensing_matrix(spec.m, spec.n, rng)
    X_star = row_sparse_signal(spec.n, spec.L, spec.k, rng)
    Y = A @ X_star
    if spec.noise_sigma > 0:
        Y = add_noise(Y, spec.noise_sigma, rng)
    return A, X_star, Y


@dataclass(frozen=True)
class TraceRow:
    trial: object  # int trial index, or "mean"/"median" for aggregates
    algo: str
    iteration: int
    time_s: float
    rel_err: float
    objective: float


@dataclass
class TraceTable:
    """Per-trial trace rows plus cross-trial mean/median curves."""

    spec: ExperimentSpec
    rows: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    divergences: dict = field(default_factory=dict)

    def trial_rows(self, trial: int):
        return [r for r in self.rows if r.trial == trial]

    def final_rel_errs(self) -> np.ndarray:
        """Final relative error of each trial, in trial order."""
        out = np.empty(self.spec.trials)
        for trial in range(self.spec.trials):
            out[trial] = self.trial_rows(trial)[-1].rel_err
        return out

    def hit_iterations(self, threshold: float) -> np.ndarray:
        """First iteration at which each trial's error reaches threshold.

        Trials that never reach it get max_iter + 1 so medians stay
        comparable.
        """
        out = np.empty(self.spec.trials)
        for trial in range(self.spec.trials):
            hit = self.spec.max_iter + 1
            for r in self.trial_rows(trial):
                if r.rel_err <= threshold:
                    hit = r.iteration
                    break
            out[trial] = hit
        return out

    def total_times(self) -> np.ndarray:
        """Measured solver seconds per trial."""
        out = np.empty(self.spec.trials)
        for trial in range(self.spec.trials):
            out[trial] = self.trial_rows(trial)[-1].time_s
        return out

    def to_csv_text(self, timing: str = "off") -> str:
        if timing not in ("off", "wall"):
            raise ValueError("timing must be 'off' or 'wall'")
        lines = [CSV_HEADER]
        for r in self.rows + self.aggregates:
            t = r.time_s if timing == "wall" else 0.0
            lines.append(
                f"{r.trial},{r.algo},{r.iteration},{t!r},{r.rel_err!r},{r.objective!r}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path, timing: str = "off") -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text(timing))


def _run_trial(spec: ExperimentSpec, trial: int):
    A, X_star, Y = generate_instance(spec, trial)
    obj = MmvObjective(A, Y)
    cfg = SolverConfig(
        k=spec.k,
        gamma=spec.gamma,
        batch_size=spec.batch_size,
        max_iter=spec.max_iter,
        tol=spec.tol,
        seed=derive_seed(spec.seed, trial, 1),
        ground_truth=X_star,
    )
    failure = None
    try:
        trace = SOLVERS[spec.algo](obj, cfg)
        records = trace.records
    except DivergenceError as exc:
        records = exc.records
        failure = str(exc)
    f0 = obj.value(np.zeros((obj.n, obj.L)))
    rows = [TraceRow(trial, spec.algo, 0, 0.0, 1.0, f0)]
    rows.extend(
        TraceRow(trial, spec.algo, r.iteration, r.elapsed_s, r.rel_err, r.objective)
        for r in records
    )
    return rows, failure


def _aggregate(spec: ExperimentSpec, per_trial_rows) -> list:
    horizon = max(rows[-1].iteration for rows in per_trial_rows)
    series = np.empty((len(per_trial_rows), horizon + 1, 3))
    for t, rows in enumerate(per_trial_rows):
        last = rows[0]
        by_iter = {r.iteration: r for r in rows}
        for it in range(horizon + 1):
            last = by_iter.get(it, last)  # converged trials carry forward
            series[t, it] = (last.time_s, last.rel_err, last.objective)
    out = []
    for label, reducer in (("mean", np.mean), ("median", np.median)):
        stats = reducer(series, axis=0)
        out.extend(
            TraceRow(
                label,
                spec.algo,
                it,
                float(stats[it, 0]),
                float(stats[it, 1]),
                float(stats[it, 2]),
            )
            for it in range(horizon + 1)
        )
    return out


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> TraceTable:
    """Run every trial of the spec and assemble the trace table.

    Trials are independent; with workers > 1 they run concurrently, and
    the output is canonicalized by (trial, iteration) so scheduling never
    changes it.  A diverging trial keeps its partial rows and is noted in
    the table's divergences map instead of aborting the run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    results = {}
    failures = {}
    if workers == 1:
        for trial in range(spec.trials):
            results[trial], failures[trial] = _run_trial(spec, trial)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                trial: pool.submit(_run_trial, spec, trial)
                for trial in range(spec.trials)
            }
            for trial, fut in futures.items():
                results[trial], failures[trial] = fut.result()
    per_trial = [results[t] for t in range(spec.trials)]
    table = TraceTable(spec=spec)
    for rows in per_trial:
        table.rows.extend(rows)
    table.aggregates = _aggregate(spec, per_trial)
    table.divergences = {t: msg for t, msg in failures.items() if msg}
    return table


def _format_value(value) -> str:
    return format(value, "g")


def sweep_specs(base: ExperimentSpec, param: str, values) -> list:
    """One validated spec per swept value, in order; raises ValueError early."""
    if param not in SWEEP_FIELDS:
        raise ValueError(
            f"unknown sweep parameter {param!r}, expected one of {sorted(SWEEP_FIELDS)}"
        )
    field_name = SWEEP_FIELDS[param]
    cast = float if field_name == "noise_sigma" else int
    return [dataclasses.replace(base, **{field_name: cast(v)}) for v in values]


def run_sweep(
    base: ExperimentSpec,
    param: str,
    values,
    out_dir,
    timing: str = "off",
    workers: int = 1,
) -> list:
    """Run one experiment per swept value and write one CSV per value.

    Every swept spec is built and validated before the first run.
    """
    specs = sweep_specs(base, param, values)
    field_name = SWEEP_FIELDS[param]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in specs:
        table = run_experiment(spec, workers=workers)
        value = getattr(spec, field_name)
        path = out_dir / f"{param}_{_format_value(value)}.csv"
        table.write_csv(path, timing=timing)
        written.append(path)
    return written
