"""Benchmark protocol: data generation, repeated trials, and CSV traces.

Every trial regenerates the sensing matrix, the planted row-sparse signal,
and the noise from a trial-indexed substream, runs the selected solver,
and records a relative-error/objective trace.  Per-trial streams are
derived from (seed, trial), so raising the trial count leaves earlier
trials bit-identical, and trials may run on threads (workers > 1) without
changing any output byte, though not always faster (see the README).  A
TraceTable keeps each trial's rows at its trial index.

A spec checks its own fields and builds its solver settings as every
trial does, so SolverConfig's rules, non-finite values included, raise
ValueError before any instance is generated.

Wall-clock timing covers solver compute only (never data generation or
diagnostics).  CSV output zeroes the time column by default so repeated
runs are byte-identical; pass timing="wall" to export measured seconds at
the cost of that reproducibility.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
        for name in ("n", "m", "L", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}"
            )
        if self.algo not in SOLVERS:
            raise ValueError(
                f"unknown algo {self.algo!r}, expected one of {sorted(SOLVERS)}"
            )
        _solver_config(self, trial=0).check_problem(self.algo, self.n, self.m)


def _solver_config(spec: ExperimentSpec, trial: int, ground_truth=None) -> SolverConfig:
    """The solver settings of one trial; raises ValueError on a bad setting."""
    return SolverConfig(
        k=spec.k, gamma=spec.gamma, batch_size=spec.batch_size,
        max_iter=spec.max_iter, tol=spec.tol,
        seed=derive_seed(spec.seed, trial, 1), ground_truth=ground_truth,
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
    """Per-trial trace rows plus cross-trial mean/median curves.

    by_trial[t] holds trial t's rows, one per iteration from 0 to its last,
    with no gaps; a diverged trial keeps the rows before the failure.
    """

    spec: ExperimentSpec
    by_trial: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    divergences: dict = field(default_factory=dict)

    @property
    def rows(self) -> tuple:
        """Every trial's rows, in trial order."""
        return tuple(itertools.chain.from_iterable(self.by_trial))

    def trial_rows(self, trial: int) -> tuple:
        return self.by_trial[trial]

    def final_rel_errs(self) -> np.ndarray:
        """Final relative error of each trial, in trial order."""
        return np.array([rows[-1].rel_err for rows in self.by_trial])

    def hit_iterations(self, threshold: float) -> np.ndarray:
        """First iteration at which each trial's error reaches threshold.

        Trials that never reach it get max_iter + 1 so medians stay
        comparable.
        """
        miss = self.spec.max_iter + 1
        hits = [
            next((r.iteration for r in rows if r.rel_err <= threshold), miss)
            for rows in self.by_trial
        ]
        return np.array(hits, dtype=np.float64)

    def total_times(self) -> np.ndarray:
        """Measured solver seconds per trial."""
        return np.array([rows[-1].time_s for rows in self.by_trial])

    def to_csv_text(self, timing: str = "off") -> str:
        if timing not in ("off", "wall"):
            raise ValueError("timing must be 'off' or 'wall'")
        lines = [CSV_HEADER]
        for r in itertools.chain(*self.by_trial, self.aggregates):
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
    failure = None
    try:
        records = SOLVERS[spec.algo](obj, _solver_config(spec, trial, X_star)).records
    except DivergenceError as exc:
        records = exc.records
        failure = str(exc)
    f0 = obj.value(np.zeros((obj.n, obj.L)))
    rows = [TraceRow(trial, spec.algo, 0, 0.0, 1.0, f0)]
    rows.extend(
        TraceRow(trial, spec.algo, r.iteration, r.elapsed_s, r.rel_err, r.objective)
        for r in records
    )
    return tuple(rows), failure


def _aggregate(spec: ExperimentSpec, by_trial) -> list:
    # a trial that stopped early carries its last row forward
    horizon = max(map(len, by_trial))
    padded = [rows + rows[-1:] * (horizon - len(rows)) for rows in by_trial]
    series = np.array(
        [[(r.time_s, r.rel_err, r.objective) for r in rows] for rows in padded]
    )
    out = []
    for label, reducer in (("mean", np.mean), ("median", np.median)):
        stats = reducer(series, axis=0)
        out.extend(
            TraceRow(label, spec.algo, it, *map(float, stats[it]))
            for it in range(horizon)
        )
    return out


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> TraceTable:
    """Run every trial of the spec and assemble the trace table.

    Trials are independent; with workers > 1 they run on a thread pool,
    and the table lists them in trial order whatever the scheduling.  A
    diverging trial keeps its partial rows and is noted in the table's
    divergences map instead of aborting the run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    run_trial = functools.partial(_run_trial, spec)
    if workers == 1:
        results = list(map(run_trial, range(spec.trials)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, range(spec.trials)))
    by_trial = [rows for rows, _ in results]
    return TraceTable(
        spec=spec,
        by_trial=by_trial,
        aggregates=_aggregate(spec, by_trial),
        divergences={t: msg for t, (_, msg) in enumerate(results) if msg},
    )


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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in specs:
        path = out_dir / f"{param}_{getattr(spec, SWEEP_FIELDS[param]):g}.csv"
        run_experiment(spec, workers=workers).write_csv(path, timing=timing)
        written.append(path)
    return written
