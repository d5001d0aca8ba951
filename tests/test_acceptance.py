"""Acceptance suite: one test per shipped guarantee, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
solver-convergence criteria run the full 50-trial protocol at the
benchmark dimensions, so this module takes a few minutes.

Criteria 01-03 assert convergence targets that the single-draw
(batch_size=1) configurations do not reach at these dimensions; they are
kept at their stated thresholds and fail honestly rather than being
loosened.  See the "Known behavior" section of the README for the
mechanics: a one-row draw's gradient is the rank-one a_i r^T, so the rows
a single-draw step lets into the support are those of largest |a_ij| in
the drawn sensing row whatever the residual, and no step size repairs
that identification; and restricted solves are underdetermined once 2k
exceeds m.
"""

import json
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from mmvgreedy.analysis import (
    ConvexityConstants,
    contraction_cstogradmp,
    contraction_cstoiht,
    contraction_mstogradmp,
    contraction_mstoiht,
    verify_rsc_rss,
)
from mmvgreedy.bench import ExperimentSpec, run_experiment
from mmvgreedy.linalg import RngStream, frobenius_norm
from mmvgreedy.objective import MmvObjective
from mmvgreedy.sparsity import RowSupport, project_rows, top_k_rows

SEED = 20260810


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status} ({detail})")
    return ok


def test_criterion_01_gradmp_family_exact_recovery():
    # n=200, m=100, L=40, k=60, noise-free, T=30, b=1, 50 trials:
    # mean final relative error < 1e-4, in under 2 minutes
    spec = ExperimentSpec(
        n=200, m=100, L=40, k=60, noise_sigma=0.0, algo="mstogradmp",
        batch_size=1, gamma=1.0, max_iter=30, tol=1e-6, trials=50, seed=SEED,
    )
    t0 = time.perf_counter()
    table = run_experiment(spec)
    runtime = time.perf_counter() - t0
    mean_final = float(table.final_rel_errs().mean())
    ok = mean_final < 1e-4 and runtime < 120.0
    report(1, "gradmp exact recovery at k=60", ok,
           f"mean_final_rel_err={mean_final:.3e} (required <1e-4), "
           f"runtime={runtime:.1f}s (required <120s)")
    assert ok


def test_criterion_02_iht_family_convergence():
    # same data at k=5, gamma=1, T=1000, b=1, 50 trials:
    # mean final relative error < 1e-2, in under 5 minutes
    spec = ExperimentSpec(
        n=200, m=100, L=40, k=5, noise_sigma=0.0, algo="mstoiht",
        batch_size=1, gamma=1.0, max_iter=1000, tol=1e-6, trials=50, seed=SEED,
    )
    t0 = time.perf_counter()
    table = run_experiment(spec)
    runtime = time.perf_counter() - t0
    mean_final = float(table.final_rel_errs().mean())
    ok = mean_final < 1e-2 and runtime < 300.0
    report(2, "iht convergence at k=5", ok,
           f"mean_final_rel_err={mean_final:.3e} (required <1e-2), "
           f"runtime={runtime:.1f}s (required <300s)")
    assert ok


def test_criterion_03_batching_reaches_threshold_sooner():
    # batched draws (b=10) must reach rel_err <= 1e-2 in strictly fewer
    # iterations (median over 50 trials) than b=1 on the same seeds
    base = dict(
        n=200, m=100, L=40, k=5, noise_sigma=0.0, algo="mstoiht",
        gamma=1.0, max_iter=1000, tol=1e-6, trials=50, seed=SEED,
    )
    single = run_experiment(ExperimentSpec(batch_size=1, **base))
    batched = run_experiment(ExperimentSpec(batch_size=10, **base))
    med_single = float(np.median(single.hit_iterations(1e-2)))
    med_batched = float(np.median(batched.hit_iterations(1e-2)))
    ok = med_batched < med_single
    report(3, "mini-batching speeds up thresholding", ok,
           f"median_hit_iter b=10: {med_batched:.0f}, b=1: {med_single:.0f} "
           f"(max_iter+1 = never reached)")
    assert ok


def test_criterion_04_joint_gradmp_beats_concatenated_wall_time():
    # equal iteration count T=30 at k=60, L=40: median wall time of the
    # joint solver is below the concatenated one's over 50 trials
    base = dict(
        n=200, m=100, L=40, k=60, noise_sigma=0.0, batch_size=1,
        gamma=1.0, max_iter=30, tol=0.0, trials=50, seed=SEED,
    )
    joint = run_experiment(ExperimentSpec(algo="mstogradmp", **base))
    concat = run_experiment(ExperimentSpec(algo="cstogradmp", **base))
    med_joint = float(np.median(joint.total_times()))
    med_concat = float(np.median(concat.total_times()))
    ok = med_joint < med_concat
    report(4, "joint gradmp faster than concatenated", ok,
           f"median wall {med_joint:.3f}s vs {med_concat:.3f}s "
           f"({med_concat / med_joint:.1f}x)")
    assert ok


def test_criterion_05_noise_floor_monotone():
    # median final error nondecreasing in sigma over {0, .02, .04, .06, .08},
    # with the sigma=0.02 floor below 0.1 (run in a recoverable regime,
    # k=20, so the noise level rather than identifiability sets the floor)
    medians = []
    for sigma in (0.0, 0.02, 0.04, 0.06, 0.08):
        spec = ExperimentSpec(
            n=200, m=100, L=40, k=20, noise_sigma=sigma, algo="mstogradmp",
            batch_size=1, gamma=1.0, max_iter=30, tol=1e-6, trials=50,
            seed=SEED,
        )
        medians.append(float(np.median(run_experiment(spec).final_rel_errs())))
    monotone = all(b >= a for a, b in zip(medians, medians[1:]))
    floor_ok = medians[1] < 0.1
    ok = monotone and floor_ok
    report(5, "noise floor monotone in sigma", ok,
           "medians " + ", ".join(f"{m:.3e}" for m in medians)
           + f"; floor at 0.02 = {medians[1]:.3e} (required <0.1)")
    assert ok


def test_criterion_06_theory_identities():
    # concatenated-vs-joint coefficient identities, both to 1e-12
    worst_iht = 0.0
    for rho, alpha in [(0.05, 0.06), (0.2, 0.3), (0.45, 0.5), (0.3, 0.9)]:
        c = ConvexityConstants(rho_minus=rho, rho_plus=1.0, alpha=alpha)
        kappa = contraction_mstoiht(c)
        kappa_hat, _ = contraction_cstoiht([c] * 3)
        worst_iht = max(worst_iht, abs(kappa_hat - math.sqrt(2) * kappa))
    worst_gmp = 0.0
    for rho, rho_plus in [(0.3, 0.5), (0.4, 0.41), (0.2, 0.9)]:
        c = ConvexityConstants(rho_minus=rho, rho_plus=rho_plus, alpha=rho)
        kappa = contraction_mstogradmp(c, M=11)
        kappa_tilde = contraction_cstogradmp(c, M=11).kappa
        worst_gmp = max(worst_gmp, abs(kappa_tilde - 2 * kappa))
    ok = worst_iht <= 1e-12 and worst_gmp <= 1e-12
    report(6, "contraction identities sqrt(2)x and 2x", ok,
           f"max |dev| iht={worst_iht:.2e}, gradmp={worst_gmp:.2e} "
           f"(required <=1e-12)")
    assert ok


def test_criterion_07_gradient_matches_finite_differences():
    # 100 random instances with n <= 50: batch gradients within 1e-6
    # relative of central finite differences
    rng = RngStream(SEED, (7,))
    worst = 0.0
    for case in range(100):
        m = 3 + case % 8
        n = 5 + (case * 7) % 46
        L = 1 + case % 3
        A = rng.standard_normal((m, n))
        Y = rng.standard_normal((m, L))
        X = rng.standard_normal((n, L))
        obj = MmvObjective(A, Y)
        rows = sorted({case % m, (case * 3) % m})
        G = obj.batch_grad(rows, X)

        h = 1e-6
        G_fd = np.zeros_like(G)
        for s in range(n):
            for t in range(L):
                Zp, Zm = X.copy(), X.copy()
                Zp[s, t] += h
                Zm[s, t] -= h
                fp = sum(0.5 * float((A[i] @ Zp - Y[i]) @ (A[i] @ Zp - Y[i]))
                         for i in rows) / len(rows)
                fm = sum(0.5 * float((A[i] @ Zm - Y[i]) @ (A[i] @ Zm - Y[i]))
                         for i in rows) / len(rows)
                G_fd[s, t] = (fp - fm) / (2 * h)
        rel = float(np.linalg.norm(G - G_fd) / np.linalg.norm(G_fd))
        worst = max(worst, rel)
    ok = worst < 1e-6
    report(7, "component gradients vs finite differences", ok,
           f"worst relative deviation {worst:.2e} over 100 instances "
           f"(required <1e-6)")
    assert ok


def test_criterion_08_thresholding_matches_exhaustive_search():
    # 500 random matrices with n <= 10: selected support achieves exactly
    # the exhaustive best-k projection error
    rng = RngStream(SEED, (8,))
    checked = 0
    for case in range(500):
        n = 2 + case % 9
        L = 1 + case % 4
        k = case % (n + 1)
        X = rng.standard_normal((n, L))
        sup = top_k_rows(X, k)
        achieved = frobenius_norm(X - project_rows(X, sup))
        best = min(
            frobenius_norm(X - project_rows(X, RowSupport(combo, n)))
            for combo in combinations(range(n), k)
        )
        assert achieved == best, f"case {case}: {achieved} != {best}"
        checked += 1
    ok = checked == 500
    report(8, "best k-row support vs exhaustive search", ok,
           f"{checked}/500 instances matched exactly")
    assert ok


def test_criterion_09_restricted_convexity_smoothness_hold():
    # zero violations at the certified constants, isometry constant
    # computed exhaustively, 1000 sampled pairs, n <= 12, k <= 3
    rng = RngStream(SEED, (9,))
    reports = []
    for n, m, L, k in [(12, 30, 3, 3), (10, 24, 2, 2), (9, 20, 1, 3)]:
        A = rng.standard_normal((m, n)) / math.sqrt(m)
        A /= np.linalg.norm(A, axis=0)
        obj = MmvObjective(A, rng.standard_normal((m, L)))
        reports.append(verify_rsc_rss(obj, k=k, pairs=1000,
                                      rng=rng.substream(n)))
    violations = sum(r.convexity_violations + r.smoothness_violations
                     for r in reports)
    # tall instances keep delta < 1, so the convexity bound is nonvacuous
    nonvacuous = all(r.delta < 1.0 and r.rho_minus > 0 for r in reports)
    ok = violations == 0 and nonvacuous
    report(9, "restricted convexity/smoothness certified", ok,
           f"{violations} violations over {sum(r.pairs_checked for r in reports)}"
           f" pairs, deltas "
           + ", ".join(f"{r.delta:.3f}" for r in reports))
    assert ok


def test_criterion_10_cli_runs_are_byte_identical(tmp_path):
    # repeating any run invocation with the same seed reproduces the CSV
    # byte for byte
    outputs = []
    for algo, extra in (("mstoiht", ()), ("mstogradmp", ())):
        paths = []
        for attempt in range(2):
            out = tmp_path / f"{algo}_{attempt}.csv"
            res = subprocess.run(
                [sys.executable, "-m", "mmvgreedy", "run", "--algo", algo,
                 "--n", "40", "--m", "20", "--L", "4", "--k", "3",
                 "--max-iter", "25", "--trials", "3", "--seed", "77",
                 "--out", str(out), *extra],
                capture_output=True, text=True,
            )
            assert res.returncode == 0, res.stderr
            paths.append(out)
        outputs.append(paths[0].read_bytes() == paths[1].read_bytes())
    ok = all(outputs)
    report(10, "CLI trace output byte-identical", ok,
           f"identical={outputs} for mstoiht and mstogradmp")
    assert ok
