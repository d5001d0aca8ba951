"""The stacked column step against the reference loops at acceptance shape.

The concatenated solvers advance every active column in one step over an
L x n stack.  The property tests of test_solver_oracle.py draw n <= 40,
m <= 30 and L <= 5, so they never reach 40 columns or candidate blocks of
120 rows and more.  Here both concatenated solvers run at the acceptance
shape (n=200, m=100, L=40, b=1) on noisy instances and must match the
frozen loops of oracle_solvers.py in the oracle's rounding mode: the same
supports, candidate sizes, stop and iteration count at every iteration,
and values that agree to 1e-10.  A tolerance of 1e-2 stops columns at
different iterations, so the set of active columns shrinks mid-run.

Every GradMP record, joint or concatenated, has between 2k and 3k
candidate rows: the 2k matched rows united with the k kept ones.  The
stacked selection ranks each row of the stack as the oracle's frozen
stable sort ranks it, ties included, and the engine's expressions keep
the bits of the checked kernels: batch_grad on a row slice is batch_grad
on its index tuple, the stacked one-row gradient is column_grad's row by
row, the stacked norms are frobenius_norm's, and the joint mask
selection united with the kept rows is the frozen sort of the row norms
(which top_k_rows gives too) united with them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmvgreedy.bench import gaussian_sensing_matrix, row_sparse_signal
from mmvgreedy.linalg import RngStream, frobenius_norm, row_norms
from mmvgreedy import solvers
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import SOLVERS, SolverConfig, _column_grads, _stacked_norms
from mmvgreedy.sparsity import RowSupport, _top_k_mask, support_union, top_k_rows
from oracle_solvers import ORACLES, top_k_indices

RTOL = 1e-10
# (solver, k, max_iter) of the acceptance protocols of the two families
RUNS = [("cstogradmp", 60, 5), ("cstoiht", 5, 50)]


def _instance(k, seed, sigma=0.05, n=200, m=100, L=40):
    rng = RngStream(seed, (0,))
    A = gaussian_sensing_matrix(m, n, rng)
    X_star = row_sparse_signal(n, L, k, rng)
    Y = A @ X_star + sigma * rng.standard_normal((m, L))
    return MmvObjective(A, Y), X_star


def _close(new, old, floor):
    # relative to the value, or to floor where the value is near zero
    return new == old or abs(new - old) <= RTOL * max(floor, abs(old))


@pytest.mark.parametrize("tol", [0.0, 1e-2])
@pytest.mark.parametrize("algo, k, max_iter", RUNS)
@pytest.mark.parametrize("seed", [1, 2])
def test_stacked_step_matches_the_reference_at_acceptance_shape(
    monkeypatch, algo, k, max_iter, tol, seed
):
    obj, X_star = _instance(k, seed)
    cfg = SolverConfig(k=k, max_iter=max_iter, tol=tol, seed=seed, ground_truth=X_star)
    steps = []  # the columns the engine gives its column step, call by call
    real_step, *flags = solvers._STEPS[algo]

    def step(obj, X, kept, cols, *args):
        steps.extend(cols.tolist())
        return real_step(obj, X, kept, cols, *args)

    with monkeypatch.context() as patch:
        patch.setitem(solvers._STEPS, algo, (step, *flags))
        new = SOLVERS[algo](obj, cfg)
    old = ORACLES[algo](obj, cfg)

    assert (new.stop_reason, new.iterations) == (old.stop_reason, old.iterations)
    f0 = obj.value(np.zeros((obj.n, obj.L)))
    for a, b in zip(new.records, old.records):
        assert (a.iteration, a.support_size, a.candidate_size) == (
            b.iteration, b.support_size, b.candidate_size
        )
        assert _close(a.objective, b.objective, f0)
        assert _close(a.rel_err, b.rel_err, 1.0)
        assert _close(a.step_rel_change, b.step_rel_change, 1.0)
    assert np.linalg.norm(new.estimate - old.estimate) <= RTOL * np.linalg.norm(
        old.estimate
    )
    full = obj.L * new.iterations
    if tol == 0:
        assert len(steps) == full
    else:  # some column stopped before the last iteration
        assert len(steps) < full


@pytest.mark.parametrize("algo", ["mstogradmp", "cstogradmp"])
@pytest.mark.parametrize(
    "n, m, L, k, sigma",
    [(200, 100, 40, 60, 0.0), (200, 100, 40, 20, 0.05), (40, 12, 3, 5, 0.01)],
)
def test_gradmp_candidates_hold_2k_to_3k_rows(algo, n, m, L, k, sigma):
    obj, X_star = _instance(k, 7, sigma, n, m, L)
    cfg = SolverConfig(k=k, max_iter=5, tol=0.0, seed=7, ground_truth=X_star)
    sizes = [r.candidate_size for r in SOLVERS[algo](obj, cfg).records]
    assert len(sizes) == 5
    assert all(2 * k <= size <= 3 * k for size in sizes), sizes


@settings(max_examples=100)
@given(st.integers(1, 6), st.integers(1, 50), st.integers(0, 2**32 - 1), st.data())
def test_stacked_selection_ranks_each_row_as_top_k_rows(rows, n, seed, data):
    B = RngStream(seed, (0,)).standard_normal((rows, n))
    if data.draw(st.booleans()):  # ties, zeros and signed zeros among them
        B = np.round(B) * data.draw(st.sampled_from([1.0, -1.0]))
    k = data.draw(st.integers(0, n))
    mask = _top_k_mask(B, k)
    for r in range(rows):  # against the oracle's frozen stable sort
        assert np.flatnonzero(mask[r]).tolist() == (
            top_k_indices(B[r], k).as_array().tolist()
        )
    # each row's norm, stacked, as frobenius_norm takes it
    norms = [frobenius_norm(B[r : r + 1]) for r in range(rows)]
    assert _stacked_norms(B).tobytes() == np.array(norms).tobytes()
    # the joint selection of the n x rows G: its k rows of largest norm,
    # united with kept rows as the GradMP step unites them
    G = B.T.copy()
    kept = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
    cand = _top_k_mask(row_norms(G)[None], k)[0]
    cand[kept] = True
    ranked = top_k_indices(row_norms(G), k)  # the frozen stable sort of the norms
    assert top_k_rows(G, k) == ranked
    union = support_union(ranked, RowSupport(kept, n))
    assert np.flatnonzero(cand).tolist() == union.as_array().tolist()


@settings(max_examples=100)
@given(
    st.integers(1, 30), st.integers(1, 8), st.integers(1, 6),
    st.integers(0, 2**32 - 1), st.data(),
)
def test_engine_gradients_equal_the_checked_kernels(n, m, L, seed, data):
    # batch_grad on the engine's row slice equals batch_grad on the index
    # tuple, and the stacked column gradient equals column_grad row by row,
    # bit for bit
    rng = RngStream(seed, (0,))
    A, X, Y = (rng.standard_normal(shape) for shape in ((m, n), (n, L), (m, L)))
    if data.draw(st.booleans()):  # ties, zeros and signed zeros among them
        A, X = np.round(A), np.round(X)
    obj = MmvObjective(A, Y)
    b = data.draw(st.integers(1, m))
    bounds = [slice(i, min(i + b, m)) for i in range(0, m, b)]
    for batch in bounds:
        rows = tuple(range(batch.start, batch.stop))
        assert obj.batch_grad(batch, X).tobytes() == obj.batch_grad(rows, X).tobytes()
    cols = np.array(
        sorted(data.draw(st.sets(st.integers(0, L - 1), min_size=1))), dtype=np.intp
    )
    batches = [data.draw(st.sampled_from(bounds)) for _ in cols]
    old = X.T[cols]
    G = _column_grads(obj, old, cols, batches)
    for g, batch, j, x in zip(G, batches, cols, old):
        rows = tuple(range(batch.start, batch.stop))
        assert g.tobytes() == obj.column_grad(rows, j, x).tobytes()
