"""The Cholesky least-squares path changes rounding only, not trajectories.

`least_squares_solve` solves the normal equations of the smaller Gram
matrix.  Its earlier body, pivoted QR (LAPACK gelsy) redone with the SVD
driver (gelsd) on rank deficiency, is kept below as the reference.  Every
solver runs with both on small instances, one of them with wide candidate
blocks (3k > m), and must take the same path: the same supports and
candidate sizes at every iteration, the same stop, and estimates that agree
to 1e-10 relative.
"""

import numpy as np
import pytest
import scipy.linalg

import mmvgreedy.objective
from mmvgreedy.bench import ExperimentSpec, generate_instance
from mmvgreedy.linalg import as_matrix
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import SOLVERS, SolverConfig
from mmvgreedy.sparsity import row_support


def qr_least_squares_solve(A_sub, Y):
    """The pivoted-QR body that least_squares_solve had before."""
    A_sub = as_matrix(A_sub, "A_sub")
    Y = as_matrix(Y, "Y")
    m, s = A_sub.shape
    B, _, rank, _ = scipy.linalg.lstsq(
        A_sub, Y, lapack_driver="gelsy", check_finite=False
    )
    if rank < min(m, s):
        B, _, _, _ = scipy.linalg.lstsq(
            A_sub, Y, lapack_driver="gelsd", check_finite=False
        )
    return B


# Every instance is noisy.  Without noise an exactly recovered column has a
# residual of pure rounding noise, so the 2k rows it matches next are picked
# by rounding, and any change of rounding moves them (and the candidate
# size) although the kept support and the estimate stay the same.
INSTANCES = {
    "tall": dict(n=40, m=24, L=4, k=3, noise_sigma=0.01),
    "tall-k4": dict(n=40, m=24, L=4, k=4, noise_sigma=0.05),
    "wide": dict(n=40, m=12, L=3, k=5, noise_sigma=0.01),  # 3k = 15 > m = 12
}


def _solve(algo, dims, trial):
    spec = ExperimentSpec(algo=algo, max_iter=30, tol=1e-6, seed=17, **dims)
    A, X_star, Y = generate_instance(spec, trial)
    cfg = SolverConfig(k=spec.k, max_iter=spec.max_iter, tol=spec.tol,
                       seed=trial, ground_truth=X_star)
    return SOLVERS[algo](MmvObjective(A, Y), cfg)


@pytest.mark.parametrize("algo", sorted(SOLVERS))
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_cholesky_solve_keeps_the_qr_trajectory(monkeypatch, algo, instance):
    dims = INSTANCES[instance]
    for trial in range(2):
        new = _solve(algo, dims, trial)
        with monkeypatch.context() as patch:
            patch.setattr(
                mmvgreedy.objective, "least_squares_solve", qr_least_squares_solve
            )
            old = _solve(algo, dims, trial)

        assert [r.support_size for r in new.records] == [
            r.support_size for r in old.records
        ]
        assert [r.candidate_size for r in new.records] == [
            r.candidate_size for r in old.records
        ]
        assert new.iterations == old.iterations
        assert new.stop_reason == old.stop_reason
        np.testing.assert_array_equal(
            row_support(new.estimate).as_array(), row_support(old.estimate).as_array()
        )
        np.testing.assert_allclose(new.estimate, old.estimate, rtol=1e-10, atol=0)
        if instance == "wide" and algo.endswith("gradmp"):
            assert max(r.candidate_size for r in new.records) > dims["m"]
