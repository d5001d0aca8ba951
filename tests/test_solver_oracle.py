"""The solvers against the frozen reference loops in oracle_solvers.py.

Shapes, step sizes, tolerances, noise levels and seeds are drawn with
hypothesis.  Two modes compare a solver with its reference:

* exact: the records (all but the measured time), the estimate and the
  stop are bit-identical.  The joint solvers must pass it.
* rounding: every iteration has the same support and candidate sizes, the
  stop and the iteration count are the same, and every value agrees to
  1e-10 relative to its scale.  The concatenated solvers must pass it on
  noisy instances: the engine multiplies each column as a contiguous
  n x 1 block, the reference as a strided view of the iterate, and numpy
  sums the two products in different orders.  Without noise an exactly
  recovered column has a gradient of pure rounding noise, so the rows
  GradMP matches next are picked by rounding.

The same draws check the solvers' invariants: row sparsity, same-seed
determinism, and at L = 1 the concatenated solvers equal the joint ones.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmvgreedy.bench import gaussian_sensing_matrix, row_sparse_signal
from mmvgreedy.linalg import RngStream
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import SOLVERS, DivergenceError, SolverConfig
from mmvgreedy.sparsity import row_support
from oracle_solvers import ORACLES

JOINT = ("mstoiht", "mstogradmp")
CONCATENATED = ("cstoiht", "cstogradmp")
RTOL = 1e-10


@st.composite
def instances(draw, sigmas=st.sampled_from([0.0, 0.05]), L=st.integers(1, 5)):
    """(objective, config) of a planted instance with drawn settings."""
    n = draw(st.integers(4, 40))
    m = draw(st.integers(2, 30))
    L = draw(L)
    k = draw(st.integers(1, n // 2))  # 2k <= n, as matching pursuit needs
    sigma = draw(sigmas)
    rng = RngStream(draw(st.integers(0, 2**32 - 1)), (0,))
    A = gaussian_sensing_matrix(m, n, rng)
    X_star = row_sparse_signal(n, L, k, rng)
    Y = A @ X_star
    if sigma > 0:
        Y = Y + sigma * rng.standard_normal(Y.shape)
    cfg = SolverConfig(
        k=k,
        gamma=draw(st.sampled_from([0.5, 1.0, 1.5])),
        batch_size=draw(st.integers(1, m)),
        max_iter=draw(st.integers(1, 30)),
        tol=draw(st.sampled_from([0.0, 1e-8, 1e-5, 1e-2])),
        seed=draw(st.integers(0, 2**32 - 1)),
        ground_truth=X_star,
    )
    return MmvObjective(A, Y), cfg


def _run(solver, obj, cfg):
    """(records, estimate, stop); a divergence stops with its message."""
    try:
        trace = solver(obj, cfg)
    except DivergenceError as exc:
        return exc.records, None, str(exc)
    return trace.records, trace.estimate, trace.stop_reason


def _untimed(records):
    return [dataclasses.replace(r, elapsed_s=0.0) for r in records]


def _assert_close(new, old, floor):
    # relative to the value, or to floor where the value is near zero
    assert abs(new - old) <= RTOL * max(floor, abs(old)), (new, old)


@settings(max_examples=100)
@given(instances(), st.sampled_from(JOINT))
def test_joint_solvers_match_the_reference_exactly(instance, algo):
    obj, cfg = instance
    records, estimate, stop = _run(SOLVERS[algo], obj, cfg)
    ref_records, ref_estimate, ref_stop = _run(ORACLES[algo], obj, cfg)
    assert _untimed(records) == _untimed(ref_records)
    assert stop == ref_stop
    if estimate is not None:
        np.testing.assert_array_equal(estimate, ref_estimate)


@settings(max_examples=100)
@given(instances(sigmas=st.floats(0.01, 0.1)), st.sampled_from(CONCATENATED))
def test_concatenated_solvers_match_the_reference_to_rounding(instance, algo):
    obj, cfg = instance
    records, estimate, stop = _run(SOLVERS[algo], obj, cfg)
    ref_records, ref_estimate, ref_stop = _run(ORACLES[algo], obj, cfg)
    assert (estimate is None) == (ref_estimate is None)  # both diverge, or neither
    assert len(records) == len(ref_records)
    if estimate is not None:
        assert stop == ref_stop
        assert np.linalg.norm(estimate - ref_estimate) <= RTOL * np.linalg.norm(
            ref_estimate
        )
    f0 = obj.value(np.zeros((obj.n, obj.L)))
    for new, old in zip(records, ref_records):
        assert (new.iteration, new.support_size, new.candidate_size) == (
            old.iteration, old.support_size, old.candidate_size
        )
        _assert_close(new.objective, old.objective, f0)
        _assert_close(new.rel_err, old.rel_err, 1.0)
        if new.step_rel_change != old.step_rel_change:  # inf == inf
            _assert_close(new.step_rel_change, old.step_rel_change, 1.0)


@settings(max_examples=50)
@given(instances(), st.sampled_from(sorted(SOLVERS)))
def test_estimates_are_sparse_and_reproducible(instance, algo):
    obj, cfg = instance
    records, estimate, stop = _run(SOLVERS[algo], obj, cfg)
    again = _run(SOLVERS[algo], obj, cfg)
    assert _untimed(records) == _untimed(again[0]) and stop == again[2]
    if estimate is None:
        return
    np.testing.assert_array_equal(estimate, again[1])
    if algo in JOINT:
        assert len(row_support(estimate)) <= cfg.k
        assert all(r.support_size <= cfg.k for r in records)
    else:
        assert (np.count_nonzero(estimate, axis=0) <= cfg.k).all()


@settings(max_examples=50)
@given(instances(L=st.just(1)), st.sampled_from(["iht", "gradmp"]))
def test_single_column_concatenated_equals_joint(instance, family):
    obj, cfg = instance
    joint = _run(SOLVERS[f"msto{family}"], obj, cfg)
    concatenated = _run(SOLVERS[f"csto{family}"], obj, cfg)
    assert joint[2] == concatenated[2]
    assert [r.rel_err for r in joint[0]] == [r.rel_err for r in concatenated[0]]
    if joint[1] is not None:
        np.testing.assert_array_equal(joint[1], concatenated[1])


@settings(max_examples=6)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05]), st.integers(1, 50),
    st.sampled_from([0.0, 1e-6]),
)
def test_joint_iht_matches_the_reference_exactly_at_acceptance_shape(
    seed, sigma, max_iter, tol
):
    # n=200, m=100, L=40, k=5, b=1 as in the IHT acceptance protocol, where
    # the single-row step forms k-row candidate blocks instead of n x L ones
    rng = RngStream(seed, (0,))
    A = gaussian_sensing_matrix(100, 200, rng)
    X_star = row_sparse_signal(200, 40, 5, rng)
    Y = A @ X_star + sigma * rng.standard_normal((100, 40))
    obj = MmvObjective(A, Y)
    cfg = SolverConfig(
        k=5, batch_size=1, max_iter=max_iter, tol=tol, seed=seed, ground_truth=X_star
    )
    records, estimate, stop = _run(SOLVERS["mstoiht"], obj, cfg)
    ref_records, ref_estimate, ref_stop = _run(ORACLES["mstoiht"], obj, cfg)
    assert _untimed(records) == _untimed(ref_records)
    assert stop == ref_stop
    np.testing.assert_array_equal(estimate, ref_estimate)
