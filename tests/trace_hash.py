"""Two hashes: seeded random solves of all four solvers, and seeded CSV output.

Run from the repository root:

    PYTHONPATH=src python3 tests/trace_hash.py [--runs 600] [--seed 0]

It prints two lines.  The first gives the number of iteration records and
a sha256 over every record (all fields but elapsed_s), stop reason,
estimate and divergence message of --runs random solves.  A change that
must keep the solvers' bits prints the same first line as its parent.
The draws reach shapes the benchmark workloads do not: n from 4 to 40, m
from 1 to 30, L from 1 to 5 (one run in five has L = 1), batch size 1 in
half the runs and any size up to m in the others, gamma in {0.5, 1, 2},
tol in {0, 1e-6, 1e-2}, noise sigma in {0, 0.05}, sensing matrices with
unit columns, some rounded (ties in the selections), and runs with and
without a ground truth.  Some IHT runs diverge; their partial records and
messages are hashed too.

The second line gives the number of trace tables and CSV lines and a
sha256 over the CSV text (timing off) of the `run_experiment` and
`run_sweep` calls in CSV_SPECS and SWEEP: all four solvers, diverged
trials, tolerance and max_iter stops, and trials of different lengths, so
the mean/median curves carry rows forward.  Those calls keep their own
seeds; --seed moves only the first line.  A change that must keep the CSV
bytes prints the same second line as its parent.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile

import numpy as np

from mmvgreedy.bench import ExperimentSpec, run_experiment, run_sweep
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import SOLVERS, DivergenceError, SolverConfig

ALGOS = ("mstoiht", "cstoiht", "mstogradmp", "cstogradmp")

CSV_SPECS = (
    # trials 3 and 5 diverge, trial 1 stops at max_iter, the rest on tolerance
    ExperimentSpec(n=30, m=20, L=3, k=3, algo="mstoiht", batch_size=20, gamma=20.0,
                   max_iter=300, tol=1e-3, trials=6, seed=42),
    ExperimentSpec(n=40, m=30, L=3, k=2, algo="cstoiht", batch_size=30,
                   max_iter=150, tol=1e-3, trials=4, seed=3),
    ExperimentSpec(n=40, m=20, L=4, k=3, algo="mstogradmp", max_iter=30, tol=1e-8,
                   trials=4, seed=5),
    ExperimentSpec(n=40, m=20, L=4, k=3, algo="cstogradmp", batch_size=3,
                   max_iter=12, tol=1e-9, trials=4, seed=6),
)
SWEEP = (
    ExperimentSpec(n=40, m=20, L=4, k=3, algo="mstogradmp", batch_size=5,
                   max_iter=30, tol=1e-6, trials=4, seed=7),
    "noise",
    (0.0, 0.05),
)


def solve(seed: int, run: int):
    """Draw run's problem and settings, solve it, and return its trace parts."""
    rng = np.random.default_rng([seed, run])
    algo = ALGOS[run % len(ALGOS)]
    n, m = int(rng.integers(4, 41)), int(rng.integers(1, 31))
    L = 1 if run % 5 == 0 else int(rng.integers(1, 6))
    k = int(rng.integers(1, n // 2 + 1))  # 2k <= n, as matching pursuit needs
    b = 1 if rng.random() < 0.5 else int(rng.integers(1, m + 1))
    gamma = float(rng.choice([0.5, 1.0, 2.0]))
    tol = float(rng.choice([0.0, 1e-6, 1e-2]))
    sigma = float(rng.choice([0.0, 0.05]))
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)  # unit columns, as the benchmark draws them
    if rng.random() < 0.3:  # ties among rows and entries
        A = np.round(4 * A) / 4
    X_star = np.zeros((n, L))
    X_star[rng.choice(n, k, replace=False)] = rng.standard_normal((k, L))
    Y = A @ X_star + sigma * rng.standard_normal((m, L))
    cfg = SolverConfig(
        k=k, gamma=gamma, batch_size=b, max_iter=int(rng.integers(1, 81)), tol=tol,
        seed=run, ground_truth=X_star if rng.random() < 0.5 else None,
    )
    header = (run, algo, n, m, L, k, b, gamma, tol, sigma, cfg.max_iter)
    try:
        trace = SOLVERS[algo](MmvObjective(A, Y), cfg)
    except DivergenceError as exc:
        return header, exc.records, "divergence", None, str(exc)
    return header, trace.records, trace.stop_reason, trace.estimate, None


def csv_digest():
    """(tables, lines, sha256) over the CSV text of CSV_SPECS and SWEEP."""
    texts = [run_experiment(spec).to_csv_text() for spec in CSV_SPECS]
    with tempfile.TemporaryDirectory() as out_dir:
        texts += [path.read_text() for path in run_sweep(*SWEEP, out_dir)]
    text = "".join(texts)
    return len(texts), text.count("\n"), hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    digest, count = hashlib.sha256(), 0
    for run in range(args.runs):
        header, records, stop, estimate, message = solve(args.seed, run)
        digest.update(repr((header, stop, message)).encode())
        for r in records:
            digest.update(repr((
                r.iteration, r.objective, r.step_rel_change, r.rel_err,
                r.support_size, r.candidate_size,
            )).encode())
        if estimate is not None:
            digest.update(estimate.tobytes())
        count += len(records)
    print(f"runs {args.runs} records {count} sha256 {digest.hexdigest()}")
    tables, lines, sha256 = csv_digest()
    print(f"tables {tables} csv lines {lines} sha256 {sha256}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
