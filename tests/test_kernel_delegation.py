"""The per-column and full-gradient kernels against their own definitions.

`column_grad` and `restricted_column_argmin` compute the shared kernels
(`batch_grad`, `restricted_argmin`) of the single-column problem
(A, Y[:, j]), `top_k_indices` delegates to `top_k_rows`, and `full_grad`
is `batch_grad` over every component.  Under the derandomized profile these
tests draw shapes, supports and batches and require every value to match,
bit for bit, the stand-alone copies frozen in oracle_solvers.py and the
textbook gradient `A^T (A X - Y) / m`.  The one exception is a restricted
solve under the row-space projector rule, which must agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_solvers
from mmvgreedy.linalg import RngStream
from mmvgreedy.objective import MmvObjective
from mmvgreedy.sparsity import RowSupport, top_k_indices
from test_solver_oracle import RTOL


@st.composite
def problems(draw):
    """(objective, stream) with m, n and L drawn, L = 1 among them."""
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, 40))
    L = draw(st.sampled_from([1, 1, 2, 3, 7]))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)), (0,))
    return MmvObjective(rng.standard_normal((m, n)), rng.standard_normal((m, L))), rng


def _batch(draw, obj):
    # from one component up to all m, in any order, repeats allowed
    size = draw(st.integers(1, obj.m))
    return draw(st.lists(st.integers(0, obj.m - 1), min_size=size, max_size=size))


def _support(draw, obj):
    # sizes from 1 to n: wide (s >= m) and tall (s < m) blocks alike
    size = draw(st.integers(1, obj.n))
    rows = draw(st.permutations(range(obj.n)))[:size]
    return RowSupport(np.sort(rows), obj.n)


def _projector_rule(obj, support):
    # the restricted solves take the row-space projector (when its guards
    # pass) exactly when |S| >= m and the complement has fewer than m rows
    s = len(support.as_array())
    return s >= obj.m > obj.n - s


def test_column_kernels_match_the_frozen_copies():
    # the frozen copy solves through least_squares_solve, as the objective
    # does on the Gram route: there the bits must match.  Under the
    # projector rule the objective may solve another way, which moves
    # rounding only: ROADMAP's rounding mode, within the oracle's RTOL.
    routes = set()

    @settings(max_examples=150)
    @given(problems(), st.data())
    def check(problem, data):
        obj, rng = problem
        j = data.draw(st.integers(0, obj.L - 1))
        rows = _batch(data.draw, obj)
        x = rng.standard_normal(obj.n)
        np.testing.assert_array_equal(
            obj.column_grad(rows, j, x), oracle_solvers.column_grad(obj, rows, j, x)
        )
        support = _support(data.draw, obj)
        b = obj.restricted_column_argmin(support.as_array(), j)
        ref = oracle_solvers.restricted_column_argmin(obj, support, j)
        if _projector_rule(obj, support):
            routes.add("projector")
            assert np.linalg.norm(b - ref) <= RTOL * np.linalg.norm(ref)
        else:
            routes.add("gram")
            np.testing.assert_array_equal(b, ref)

    check()
    assert routes == {"gram", "projector"}


@settings(max_examples=150)
@given(problems())
def test_full_grad_is_the_textbook_gradient(problem):
    obj, rng = problem
    X = rng.standard_normal((obj.n, obj.L))
    np.testing.assert_array_equal(
        obj.full_grad(X), obj.A.T @ (obj.A @ X - obj.Y) / obj.m
    )


@settings(max_examples=150)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.data())
def test_top_k_indices_matches_the_frozen_copy(size, seed, data):
    w = RngStream(seed, (0,)).standard_normal(size)
    if data.draw(st.booleans()):  # ties: the lower index must win
        w = np.round(w)
    k = data.draw(st.integers(0, size))
    assert top_k_indices(w, k) == oracle_solvers.top_k_indices(w, k)


@settings(max_examples=50)
@given(problems())
def test_column_kernels_reject_a_bad_column_or_vector(problem):
    obj, _ = problem
    x, support = np.zeros(obj.n), RowSupport([0], obj.n).as_array()
    for j in (-1, obj.L):
        with pytest.raises(ValueError, match="column"):
            obj.column_grad([0], j, x)
        with pytest.raises(ValueError, match="column"):
            obj.restricted_column_argmin(support, j)
    for bad in (np.zeros(obj.n + 1), np.zeros((obj.n, 1))):
        with pytest.raises(ValueError, match="x must have shape"):
            obj.column_grad([0], 0, bad)
    with pytest.raises(ValueError, match="1-D"):
        top_k_indices(np.zeros((obj.n, 1)), 1)
