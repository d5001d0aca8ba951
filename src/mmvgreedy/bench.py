"""Benchmark protocol: data generation, repeated trials, and CSV traces.

Every trial regenerates the sensing matrix, the planted row-sparse signal,
and the noise from a trial-indexed substream, runs the selected solver,
and records a relative-error/objective trace.  Per-trial streams are
derived from (seed, trial), so raising the trial count leaves earlier
trials bit-identical.  Trials run one after another, and a TraceTable
keeps each trial's trace at its trial index as one record array of
(iteration, time_s, rel_err, objective) rows, one per iteration; the CSV
writer formats one such array at a time.

A spec checks its own fields and builds its solver settings as every
trial does, so SolverConfig's rules, non-finite values and non-integer
counts included, raise ValueError before any instance is generated.

Wall-clock timing covers solver compute only (never data generation or
diagnostics).  CSV output zeroes the time column by default so repeated
runs are byte-identical; pass timing="wall" to export measured seconds at
the cost of that reproducibility.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import RngStream, derive_seed, require_finite, require_int
from .objective import MmvObjective
from .solvers import SOLVERS, DivergenceError, SolverConfig

__all__ = [
    "ExperimentSpec",
    "TraceTable",
    "gaussian_sensing_matrix",
    "row_sparse_signal",
    "add_noise",
    "generate_instance",
    "run_experiment",
    "run_sweep",
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
    batch_size: int = SolverConfig.batch_size
    gamma: float = SolverConfig.gamma
    max_iter: int = SolverConfig.max_iter
    tol: float = SolverConfig.tol
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "m", "L", "trials"):
            if require_int(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        require_int(self.seed, "seed")
        _require_sigma(self.noise_sigma, "noise_sigma")
        if self.algo not in SOLVERS:
            raise ValueError(
                f"unknown algo {self.algo!r}, expected one of {sorted(SOLVERS)}"
            )
        _solver_config(self, trial=0).check_problem(self.algo, self.n, self.m, self.L)


def _require_sigma(sigma, name: str) -> None:
    if isinstance(sigma, bool) or not 0 <= sigma < math.inf:
        raise ValueError(f"{name} must be a finite nonnegative real, got {sigma}")


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
    _require_sigma(sigma, "sigma")
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
    Y = add_noise(Y, spec.noise_sigma, rng)
    return A, X_star, Y


TRACE_DTYPE = np.dtype([
    ("iteration", "i8"), ("time_s", "f8"), ("rel_err", "f8"), ("objective", "f8"),
])
VALUE_FIELDS = TRACE_DTYPE.names[1:]
TraceRow = namedtuple("TraceRow", ["trial", "algo", *TRACE_DTYPE.names])


@dataclass
class TraceTable:
    """Per-trial trace arrays plus cross-trial mean/median curves.

    by_trial[t] is trial t's TRACE_DTYPE record array, one row per iteration
    from 0 to its last with no gaps; a diverged trial keeps the rows before
    the failure.  aggregates maps "mean" and "median" to curves of that dtype.
    """

    spec: ExperimentSpec
    by_trial: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    divergences: dict = field(default_factory=dict)

    @property
    def rows(self):
        """Every trial's rows as TraceRows, in trial order, made as iterated."""
        for trial, rows in enumerate(self.by_trial):
            for row in rows.tolist():
                yield TraceRow(trial, self.spec.algo, *row)

    def final_rel_errs(self) -> np.ndarray:
        """Final relative error of each trial, in trial order."""
        return np.array([rows["rel_err"][-1] for rows in self.by_trial])

    def hit_iterations(self, threshold: float) -> np.ndarray:
        """First iteration at which each trial's error reaches threshold.

        Trials that never reach it get max_iter + 1 so medians stay
        comparable.
        """
        hits = [r["iteration"][r["rel_err"] <= threshold] for r in self.by_trial]
        miss = self.spec.max_iter + 1
        return np.array([h[0] if h.size else miss for h in hits], dtype=np.float64)

    def total_times(self) -> np.ndarray:
        """Measured solver seconds per trial."""
        return np.array([rows["time_s"][-1] for rows in self.by_trial])

    def _csv_chunks(self, timing: str):
        """The CSV text in pieces: the header, then each trial and curve."""
        if timing not in ("off", "wall"):
            raise ValueError("timing must be 'off' or 'wall'")
        yield CSV_HEADER + "\n"
        traces = itertools.chain(enumerate(self.by_trial), self.aggregates.items())
        for label, rows in traces:
            its, times, errs, objs = (rows[name].tolist() for name in TRACE_DTYPE.names)
            times = map(repr, times) if timing == "wall" else ["0.0"] * len(rows)
            yield "".join([
                f"{label},{self.spec.algo},{it},{t},{err!r},{obj!r}\n"
                for it, t, err, obj in zip(its, times, errs, objs)
            ])

    def to_csv_text(self, timing: str = "off") -> str:
        return "".join(self._csv_chunks(timing))

    def write_csv(self, path, timing: str = "off") -> None:
        chunks = self._csv_chunks(timing)
        header = next(chunks)  # checks timing before the file is opened
        with open(path, "w", newline="\n") as fh:
            fh.write(header)
            fh.writelines(chunks)


def _run_trial(spec: ExperimentSpec, trial: int):
    A, X_star, Y = generate_instance(spec, trial)
    obj = MmvObjective(A, Y)
    failure = None
    try:
        records = SOLVERS[spec.algo](obj, _solver_config(spec, trial, X_star)).records
    except DivergenceError as exc:
        records, failure = exc.records, str(exc)
    rows = [(0, 0.0, 1.0, obj.value(np.zeros((obj.n, obj.L))))]
    rows += [(r.iteration, r.elapsed_s, r.rel_err, r.objective) for r in records]
    return np.array(rows, dtype=TRACE_DTYPE), failure


def _aggregate(by_trial) -> dict:
    # stopped trials carry their last row forward; C order keeps the curves' bits
    horizon = max(map(len, by_trial))
    iterations = np.arange(horizon)
    values = np.empty((len(by_trial), horizon, len(VALUE_FIELDS)))
    for stack, rows in zip(values, by_trial):
        padded = rows[np.minimum(iterations, len(rows) - 1)]
        stack[:] = np.column_stack([padded[name] for name in VALUE_FIELDS])
    curves = {}
    for label, reducer in (("mean", np.mean), ("median", np.median)):
        curve = curves[label] = np.empty(horizon, TRACE_DTYPE)
        curve["iteration"] = iterations
        for name, column in zip(VALUE_FIELDS, reducer(values, axis=0).T):
            curve[name] = column
    return curves


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> TraceTable:
    """Run every trial of the spec in order and assemble the trace table.

    A diverging trial keeps its partial rows and is noted in the table's
    divergences map instead of aborting the run.  workers is kept for
    callers that pass workers=1; any other value raises ValueError.
    """
    if workers != 1:
        raise ValueError(f"trials run one by one; workers must be 1, got {workers}")
    by_trial, failures = zip(*(_run_trial(spec, t) for t in range(spec.trials)))
    return TraceTable(
        spec, list(by_trial), _aggregate(by_trial),
        divergences={t: msg for t, msg in enumerate(failures) if msg},
    )


def _sweep_csv_name(param: str, spec: ExperimentSpec) -> str:
    return f"{param}_{getattr(spec, SWEEP_FIELDS[param]):g}.csv"


def _sweep_value(field_name: str, value):
    # a string (from the CLI) parses as the field's type; a number must be
    # one already, and a bool is not a value of any swept field
    noise = field_name == "noise_sigma"
    if isinstance(value, str):
        return float(value) if noise else int(value)
    if isinstance(value, bool):
        raise ValueError(f"{field_name} must be a number, got {value!r}")
    return float(value) if noise else int(require_int(value, field_name))


def sweep_specs(base: ExperimentSpec, param: str, values) -> list:
    """One validated spec per swept value, in order; raises ValueError early.

    Two values that name the same CSV file are rejected too: a repeat such
    as 0.1 and 0.10, or values equal to the six digits a name keeps.
    """
    if param not in SWEEP_FIELDS:
        raise ValueError(
            f"unknown sweep parameter {param!r}, expected one of {sorted(SWEEP_FIELDS)}"
        )
    field_name = SWEEP_FIELDS[param]
    specs = [dataclasses.replace(base, **{field_name: _sweep_value(field_name, v)})
             for v in values]
    names = [_sweep_csv_name(param, spec) for spec in specs]
    if len(set(names)) < len(names):
        raise ValueError(f"two values would write the same file: {names}")
    return specs


def run_sweep(
    base: ExperimentSpec, param: str, values, out_dir, timing: str = "off"
) -> list:
    """Run one experiment per swept value and write one CSV per value.

    Every swept spec is built and validated before the first run.
    """
    specs = sweep_specs(base, param, values)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in specs:
        path = out_dir / _sweep_csv_name(param, spec)
        run_experiment(spec).write_csv(path, timing=timing)
        written.append(path)
    return written
