import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmvgreedy.bench import (
    ExperimentSpec,
    gaussian_sensing_matrix,
    row_sparse_signal,
    run_experiment,
)
from mmvgreedy.linalg import RngStream, frobenius_norm
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import (
    SOLVERS,
    DivergenceError,
    SolverConfig,
    _rel_change,
    cstogradmp,
    cstoiht,
    mstogradmp,
    mstoiht,
)
from mmvgreedy.sparsity import project_rows, row_support, top_k_rows


def planted_problem(seed, n=60, m=30, L=4, k=3, sigma=0.0):
    rng = RngStream(seed, (0,))
    A = gaussian_sensing_matrix(m, n, rng)
    X_star = row_sparse_signal(n, L, k, rng)
    Y = A @ X_star
    if sigma > 0:
        Y = Y + sigma * rng.standard_normal(Y.shape)
    return MmvObjective(A, Y), X_star


@pytest.mark.parametrize("solver", list(SOLVERS.values()), ids=list(SOLVERS))
def test_zero_data_is_a_one_iteration_fixed_point(solver):
    obj = MmvObjective(np.eye(4), np.zeros((4, 2)))
    cfg = SolverConfig(k=2, max_iter=50, tol=1e-8, seed=0)
    trace = solver(obj, cfg)
    assert trace.iterations == 1
    assert trace.stop_reason == "tolerance"
    np.testing.assert_array_equal(trace.estimate, np.zeros((4, 2)))


@pytest.mark.parametrize("solver", list(SOLVERS.values()), ids=list(SOLVERS))
def test_stop_rule_at_the_iteration_cap(solver):
    # the change from the zero start is inf, and inf < inf is false, so
    # tol=inf stops on the tolerance at iteration 2, or at a cap of 1
    obj, _ = planted_problem(31, n=20, m=10, L=2, k=3)
    for max_iter, tol, stop, iterations in [
        (2, math.inf, "tolerance", 2),
        (1, math.inf, "max_iter", 1),
        (2, 0.0, "max_iter", 2),
    ]:
        trace = solver(obj, SolverConfig(k=3, max_iter=max_iter, tol=tol, seed=32))
        assert (trace.stop_reason, trace.iterations) == (stop, iterations)


def test_mstoiht_one_full_batch_step_matches_hand_rolled_proxy():
    obj, _ = planted_problem(1)
    cfg = SolverConfig(k=3, gamma=1.0, batch_size=obj.m, max_iter=1, tol=0.0, seed=2)
    trace = mstoiht(obj, cfg)
    proxy = (1.0 / obj.m) * obj.A.T @ obj.Y  # gradient step from zero
    expected = project_rows(proxy, top_k_rows(proxy, 3))
    np.testing.assert_allclose(trace.estimate, expected, rtol=1e-12, atol=1e-15)


def test_mstogradmp_one_full_batch_step_recovers_planted_signal():
    # with the full gradient at zero, the matched rows contain the true
    # support, the restricted solve is overdetermined and consistent, and
    # one iteration lands on the planted signal
    rng = RngStream(5, (0,))
    n, m, L, k = 16, 10, 2, 3
    A = gaussian_sensing_matrix(m, n, rng)
    X_star = row_sparse_signal(n, L, k, rng)
    obj = MmvObjective(A, A @ X_star)
    grad0 = obj.full_grad(np.zeros((n, L)))
    matched = top_k_rows(grad0, 2 * k).as_array()
    assert np.isin(row_support(X_star).as_array(), matched).all()
    cfg = SolverConfig(k=k, batch_size=m, max_iter=1, tol=0.0, seed=4)
    trace = mstogradmp(obj, cfg)
    np.testing.assert_allclose(trace.estimate, X_star, atol=1e-10)
    assert trace.records[0].candidate_size <= 3 * k


def test_mstogradmp_exact_recovery_stochastic():
    # single-component draws, planted instance in the recoverable regime
    obj, X_star = planted_problem(5, n=60, m=30, L=4, k=3)
    cfg = SolverConfig(k=3, max_iter=60, tol=1e-9, seed=6, ground_truth=X_star)
    trace = mstogradmp(obj, cfg)
    assert trace.final_record.rel_err <= 1e-6
    assert trace.stop_reason == "tolerance"


def test_mstoiht_exact_recovery_with_batching():
    # noise-free recovery within the iteration budget needs batch draws
    # large enough to keep the thresholded iteration contractive
    obj, X_star = planted_problem(7, n=200, m=100, L=40, k=5)
    cfg = SolverConfig(
        k=5, gamma=1.0, batch_size=50, max_iter=2000, tol=0.0, seed=8,
        ground_truth=X_star,
    )
    trace = mstoiht(obj, cfg)
    assert trace.final_record.rel_err <= 1e-2


@pytest.mark.parametrize("pair", [(mstoiht, cstoiht), (mstogradmp, cstogradmp)],
                         ids=["iht", "gradmp"])
def test_single_signal_concatenated_equals_joint(pair):
    joint, concatenated = pair
    obj, X_star = planted_problem(9, n=50, m=30, L=1, k=4)
    cfg = SolverConfig(k=4, max_iter=40, tol=0.0, seed=10, ground_truth=X_star)
    tj = joint(obj, cfg)
    tc = concatenated(obj, cfg)
    np.testing.assert_array_equal(tj.estimate, tc.estimate)
    for rj, rc in zip(tj.records, tc.records):
        assert rj.rel_err == rc.rel_err


@pytest.mark.parametrize("solver", list(SOLVERS.values()), ids=list(SOLVERS))
def test_traces_are_deterministic(solver):
    obj, X_star = planted_problem(11, n=40, m=24, L=3, k=3)
    cfg = SolverConfig(k=3, max_iter=30, tol=0.0, seed=12, ground_truth=X_star)
    a = solver(obj, cfg)
    b = solver(obj, cfg)
    np.testing.assert_array_equal(a.estimate, b.estimate)
    assert [r.objective for r in a.records] == [r.objective for r in b.records]
    assert [r.rel_err for r in a.records] == [r.rel_err for r in b.records]


@pytest.mark.parametrize("solver", [mstoiht, mstogradmp], ids=["mstoiht", "mstogradmp"])
def test_joint_iterates_stay_row_sparse(solver):
    obj, _ = planted_problem(13, n=40, m=24, L=3, k=4)
    cfg = SolverConfig(k=4, max_iter=25, tol=0.0, seed=14)
    trace = solver(obj, cfg)
    assert all(r.support_size <= 4 for r in trace.records)
    assert len(row_support(trace.estimate)) <= 4


@pytest.mark.parametrize("solver", [cstoiht, cstogradmp], ids=["cstoiht", "cstogradmp"])
def test_concatenated_columns_stay_sparse(solver):
    # per-column sparsity holds every iteration; the joint support of the
    # combined iterate may exceed k while column supports disagree
    obj, _ = planted_problem(15, n=40, m=24, L=3, k=4)
    cfg = SolverConfig(k=4, max_iter=25, tol=0.0, seed=16)
    trace = solver(obj, cfg)
    for j in range(obj.L):
        assert np.count_nonzero(trace.estimate[:, j]) <= 4


def test_concatenated_early_supports_disagree_across_columns():
    # the joint support of early concatenated iterates exceeds k because
    # each column estimates its own support independently
    obj, _ = planted_problem(0, n=30, m=20, L=4, k=3)
    cfg = SolverConfig(k=3, max_iter=3, tol=0.0, seed=100)
    trace = cstoiht(obj, cfg)
    assert max(r.support_size for r in trace.records) > 3


def test_mstogradmp_candidate_set_bounded_by_3k():
    obj, _ = planted_problem(17, n=40, m=24, L=3, k=5)
    cfg = SolverConfig(k=5, max_iter=25, tol=0.0, seed=18)
    trace = mstogradmp(obj, cfg)
    assert all(r.candidate_size <= 15 for r in trace.records)


@pytest.mark.parametrize("solver", list(SOLVERS.values()), ids=list(SOLVERS))
def test_elapsed_time_is_nondecreasing(solver):
    obj, _ = planted_problem(19, n=30, m=20, L=2, k=3)
    cfg = SolverConfig(k=3, max_iter=15, tol=0.0, seed=20)
    trace = solver(obj, cfg)
    elapsed = [r.elapsed_s for r in trace.records]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    assert elapsed[-1] > 0
    assert len(trace.records) <= cfg.max_iter


def test_relative_change_from_zero_start_is_infinite_then_finite():
    obj, _ = planted_problem(21, n=30, m=20, L=2, k=3)
    cfg = SolverConfig(k=3, max_iter=5, tol=0.0, seed=22)
    trace = mstoiht(obj, cfg)
    assert trace.records[0].step_rel_change == np.inf
    assert np.isfinite(trace.records[1].step_rel_change)


@settings(max_examples=150)
@pytest.mark.parametrize("algo", sorted(SOLVERS))
@given(data=st.data())
def test_trace_norms_equal_the_dense_recomputation(algo, data):
    # the engine keeps X - X_old and X - ground_truth in buffers it updates
    # only where a step wrote; each record must still hold, bit for bit, the
    # norms of freshly formed differences of the iterates the objective saw,
    # also while some columns have stopped and others run on
    n = data.draw(st.integers(4, 30), "n")
    m = data.draw(st.integers(1, 20), "m")
    L = data.draw(st.integers(1, 5), "L")
    k = data.draw(st.integers(1, n // 2), "k")
    obj, X_star = planted_problem(
        data.draw(st.integers(0, 2**32 - 1), "seed"), n=n, m=m, L=L, k=k,
        sigma=data.draw(st.sampled_from([0.0, 0.05]), "sigma"),
    )
    cfg = SolverConfig(
        k=k, batch_size=data.draw(st.one_of(st.just(1), st.integers(1, m)), "b"),
        max_iter=data.draw(st.integers(1, 40), "max_iter"),
        tol=data.draw(st.sampled_from([0.0, 1e-2, 1e-1]), "tol"),
        seed=data.draw(st.integers(0, 1000), "solver seed"), ground_truth=X_star,
    )
    iterates, real_value = [], MmvObjective._value

    def value(self, X, support):
        iterates.append(X.copy())
        return real_value(self, X, support)

    with mock.patch.object(MmvObjective, "_value", value):
        try:
            trace = SOLVERS[algo](obj, cfg)
            records = trace.records
            assert trace.estimate.tobytes() == iterates[-1].tobytes()
        except DivergenceError as exc:  # gamma = 1 is too large at some shapes
            records = exc.records
    assert len(records) in (len(iterates), len(iterates) - 1)
    X_prev = np.zeros_like(X_star)
    for record, X in zip(records, iterates):
        assert record.rel_err == frobenius_norm(X - X_star) / frobenius_norm(X_star)
        assert record.step_rel_change == _rel_change(
            frobenius_norm(X_prev), frobenius_norm(X - X_prev)
        )
        X_prev = X


def test_divergence_guard_raises_with_partial_records():
    obj, _ = planted_problem(23, n=30, m=20, L=2, k=3)
    cfg = SolverConfig(k=3, gamma=5e4, batch_size=20, max_iter=400, tol=0.0, seed=24)
    with pytest.raises(DivergenceError) as info:
        mstoiht(obj, cfg)
    assert len(info.value.records) >= 1
    # a step so large that the objective overflows at iteration 1
    cfg = SolverConfig(k=3, gamma=1e300, batch_size=20, max_iter=400, tol=0.0, seed=24)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        mstoiht(obj, cfg)
    assert "non-finite" in str(info.value) and len(info.value.records) == 0
    spec = ExperimentSpec(n=30, m=20, L=2, k=3, gamma=1e300, batch_size=20,
                          max_iter=400, tol=0.0, trials=1, seed=24)
    with np.errstate(over="ignore"):
        table = run_experiment(spec)
    assert "non-finite" in table.divergences[0]
    assert table.by_trial[0]["iteration"].tolist() == [0]


def test_noise_floor_monotone_in_sigma():
    # median final error over a few trials is nondecreasing in the noise level
    medians = []
    for sigma in (0.02, 0.04, 0.06, 0.08):
        finals = []
        for trial in range(9):
            obj, X_star = planted_problem(100 + trial, n=200, m=100, L=40, k=20,
                                          sigma=sigma)
            cfg = SolverConfig(k=20, max_iter=30, tol=1e-6, seed=trial,
                               ground_truth=X_star)
            finals.append(mstogradmp(obj, cfg).final_record.rel_err)
        medians.append(float(np.median(finals)))
    assert all(b >= a for a, b in zip(medians, medians[1:]))


def test_explicit_batch_probabilities():
    obj, _ = planted_problem(25, n=30, m=20, L=2, k=3)
    # point mass on the first batch: every draw uses rows (0..4)
    p = np.zeros(4)
    p[0] = 1.0
    cfg = SolverConfig(k=3, batch_size=5, probabilities=p, max_iter=10, tol=0.0,
                       seed=26)
    trace = mstoiht(obj, cfg)
    assert trace.iterations == 10
    with pytest.raises(ValueError):
        mstoiht(obj, SolverConfig(k=3, batch_size=5, probabilities=np.ones(3),
                                  max_iter=5, seed=0))
    # b = 6 does not divide m = 20: four batches, the last of two rows
    q = np.full(4, 0.25)
    assert mstoiht(obj, SolverConfig(k=3, batch_size=6, probabilities=q, max_iter=10,
                                     tol=0.0, seed=26)).iterations == 10
    with pytest.raises(ValueError, match="length 4"):
        mstoiht(obj, SolverConfig(k=3, batch_size=6, probabilities=np.full(3, 1 / 3),
                                  max_iter=5, seed=0))
    # a NaN entry passes neither the sign nor the sum test by itself
    with pytest.raises(ValueError, match="non-finite"):
        mstoiht(obj, SolverConfig(k=3, batch_size=10, probabilities=[math.nan, 1.0]))


def test_config_validation():
    obj, _ = planted_problem(27, n=20, m=10, L=2, k=3)
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(k=2, gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(k=2, gamma=math.inf)
    with pytest.raises(ValueError):
        SolverConfig(k=2, tol=math.nan)
    with pytest.raises(ValueError):
        SolverConfig(k=2, tol=-1.0)
    with pytest.raises(ValueError):
        mstoiht(obj, SolverConfig(k=21))  # k > n
    with pytest.raises(ValueError):
        mstogradmp(obj, SolverConfig(k=11))  # 2k > n
    with pytest.raises(ValueError):
        SolverConfig(k=1, batch_size=0)
    with pytest.raises(ValueError):
        mstoiht(obj, SolverConfig(k=2, batch_size=11))  # batch > components
    with pytest.raises(ValueError, match="unknown probabilities"):
        SolverConfig(k=2, probabilities="importance")  # before any problem


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_ground_truth_rejected_when_the_config_is_built(bad):
    obj, X_star = planted_problem(30, n=20, m=10, L=2, k=3)
    X_star[4, 1] = bad
    with pytest.raises(ValueError, match="ground_truth contains non-finite"):
        SolverConfig(k=3, seed=0, ground_truth=X_star)
    # so no solve records a NaN rel_err
    with pytest.raises(ValueError, match="ground_truth contains non-finite"):
        mstoiht(obj, SolverConfig(k=3, max_iter=5, seed=0, ground_truth=X_star))


def test_ground_truth_shape_checked():
    obj, _ = planted_problem(29, n=20, m=10, L=2, k=3)
    cfg = SolverConfig(k=3, max_iter=5, seed=0, ground_truth=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        mstoiht(obj, cfg)
    # a zero ground truth has no relative error; rejected before the first draw
    for solver in SOLVERS.values():
        cfg = SolverConfig(k=3, seed=0, ground_truth=np.zeros((20, 2)))
        with pytest.raises(ValueError, match="must be nonzero"):
            solver(obj, cfg)
