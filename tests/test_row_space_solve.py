"""The row-space projector route of the restricted solves.

A wide restricted solve whose complement c has fewer than m rows (|S| >= m
and n - |S| < m) goes through Q = A^T (A A^T)^-1 A and V = A^T (A A^T)^-1 Y,
built once per objective: x_S = V_S + Q_Sc (I - Q_cc)^-1 V_c.  These tests
draw such shapes and require agreement with pinv(A_S) @ Y to 1e-11
relative to ||pinv(A_S)|| ||Y||, and with least_squares_solve to the
oracle's 1e-10.  A block whose columns span fewer than m dimensions fails
a guard and must fall back to least_squares_solve, bit for bit.  The
solvers that never make such a solve must never build the projector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvgreedy.objective
from mmvgreedy.bench import (
    ExperimentSpec, gaussian_sensing_matrix, run_experiment, run_sweep,
)
from mmvgreedy.linalg import RngStream, _row_space_projector, least_squares_solve
from mmvgreedy.objective import MmvObjective
from test_solver_oracle import RTOL


@st.composite
def wide_solves(draw, repeated=False):
    """(objective, support) with |S| >= m and n - |S| < m.

    repeated: S's columns are copies of fewer than m distinct rounded
    columns, so A_S loses full row rank.
    """
    m = draw(st.integers(2 if repeated else 1, 25))
    n = draw(st.integers(m, 40))
    L = draw(st.sampled_from([1, 1, 2, 3, 5]))
    size = draw(st.sampled_from(["m", "n", "any"]))
    low = max(m, n - m + 1)
    s = {"m": low, "n": n, "any": draw(st.integers(low, n))}[size]
    rng = RngStream(draw(st.integers(0, 2**32 - 1)), (0,))
    A = rng.standard_normal((m, n))
    rows = np.sort(draw(st.permutations(range(n)))[:s])
    if repeated:
        pool = np.round(2 * rng.standard_normal((m, draw(st.integers(1, m - 1))))) / 2
        A[:, rows] = pool[:, [draw(st.integers(0, pool.shape[1] - 1)) for _ in rows]]
    return MmvObjective(A, rng.standard_normal((m, L))), rows


def _solve(obj, rows):
    # both argmins on rows, and how many solves fell back to least_squares_solve
    calls = []

    def spy(A_sub, Y):
        calls.append(Y.shape)
        return least_squares_solve(A_sub, Y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmvgreedy.objective, "least_squares_solve", spy)
        B = obj.restricted_argmin(rows)
        columns = [obj.restricted_column_argmin(rows, j) for j in range(obj.L)]
    return B, columns, len(calls)


def _pinv_gap(obj, rows, B):
    P = np.linalg.pinv(obj.A[:, rows])
    ref = np.zeros_like(B)
    ref[rows] = P @ obj.Y
    return np.abs(B - ref).max() / (np.linalg.norm(P, 2) * np.linalg.norm(obj.Y))


@settings(max_examples=300)
@given(wide_solves())
def test_projector_route_matches_pinv_and_the_gram_route(solve):
    obj, rows = solve
    B, columns, _ = _solve(obj, rows)
    assert _pinv_gap(obj, rows, B) <= 1e-11
    ref = np.zeros_like(B)
    ref[rows] = least_squares_solve(obj.A[:, rows], obj.Y)
    assert np.linalg.norm(B - ref) <= RTOL * np.linalg.norm(ref)
    off = np.ones(obj.n, bool)
    off[rows] = False
    assert not B[off].any()
    for j, b in enumerate(columns):
        assert np.linalg.norm(b - B[:, j]) <= RTOL * np.linalg.norm(B[:, j])


@settings(max_examples=150)
@given(wide_solves(repeated=True))
def test_rank_deficient_blocks_fall_back_to_least_squares_solve(solve):
    obj, rows = solve
    B, columns, calls = _solve(obj, rows)
    assert calls == 1 + obj.L  # every solve fell back
    ref = np.zeros_like(B)
    ref[rows] = least_squares_solve(obj.A[:, rows], obj.Y)
    np.testing.assert_array_equal(B, ref)
    for j, b in enumerate(columns):
        ref = np.zeros(obj.n)
        ref[rows] = least_squares_solve(obj.A[:, rows], obj.Y[:, j : j + 1]).ravel()
        np.testing.assert_array_equal(b, ref)


def test_acceptance_shape_solves_take_the_projector():
    # n=200, m=100 as in criterion 04, with candidate sets of 120-180 rows
    rng = RngStream(8, (0,))
    obj = MmvObjective(gaussian_sensing_matrix(100, 200, rng), rng.standard_normal((100, 3)))
    for size in (120, 144, 180, 200):
        rows = np.sort(rng.choice_without_replacement(200, size))
        B, _, calls = _solve(obj, rows)
        assert calls == 0
        assert _pinv_gap(obj, rows, B) <= 1e-11


def test_projector_is_exactly_symmetric():
    # Q is mirrored from one triangle: it equals its transpose bit for bit
    rng = RngStream(9, (0,))
    for m, n in ((100, 200), (1, 1), (3, 7)):
        Q, V, _ = _row_space_projector(rng.standard_normal((m, n)),
                                       rng.standard_normal((m, 2)))
        assert Q.flags.c_contiguous and V.flags.c_contiguous
        np.testing.assert_array_equal(Q, Q.T)


_ACCEPTANCE = dict(n=200, m=100, L=40, batch_size=1, gamma=1.0, seed=20260810)


def test_only_wide_solves_build_the_projector(monkeypatch, tmp_path):
    builds = []
    real = mmvgreedy.objective._row_space_projector

    def build(A, Y):
        builds.append(A.shape)
        return real(A, Y)

    monkeypatch.setattr(mmvgreedy.objective, "_row_space_projector", build)
    # criterion 02's mstoiht and criterion 05's k=20 sweep: tall solves only
    run_experiment(ExperimentSpec(**_ACCEPTANCE, k=5, algo="mstoiht", max_iter=50,
                                  tol=1e-6, trials=2))
    sweep = ExperimentSpec(**_ACCEPTANCE, k=20, algo="mstogradmp", max_iter=30,
                           tol=1e-6, trials=2)
    run_sweep(sweep, "noise", (0.0, 0.04), tmp_path)
    assert builds == []
    # criterion 04's cstogradmp: one build per trial's objective
    run_experiment(ExperimentSpec(**_ACCEPTANCE, k=60, algo="cstogradmp", max_iter=3,
                                  tol=0.0, trials=2))
    assert builds == [(100, 200)] * 2
