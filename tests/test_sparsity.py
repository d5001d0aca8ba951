from itertools import combinations

import numpy as np
import pytest

from mmvgreedy.linalg import RngStream, frobenius_norm
from mmvgreedy.sparsity import (
    RowSupport,
    project_rows,
    row_support,
    support_union,
    top_k_indices,
    top_k_rows,
)


def best_support_bruteforce(X, k):
    """Exhaustive search for the k-row support minimizing ||X - P(X)||_F."""
    n = X.shape[0]
    best, best_err = None, np.inf
    for combo in combinations(range(n), k):
        sup = RowSupport(tuple(combo), n)
        err = frobenius_norm(X - project_rows(X, sup))
        if err < best_err:
            best, best_err = sup, err
    return best, best_err


def test_top_k_indices_examples():
    assert top_k_indices(np.array([0.1, -5.0, 2.0]), 1).as_array().tolist() == [1]
    assert top_k_indices(np.array([0.1, -5.0, 2.0]), 3).as_array().tolist() == [0, 1, 2]
    # tie broken toward the smaller index
    assert top_k_indices(np.array([2.0, 2.0, 1.0]), 1).as_array().tolist() == [0]
    # magnitudes whose squares overflow or underflow still rank by |w|
    assert top_k_indices(np.array([1e200, -2e200]), 1).as_array().tolist() == [1]
    assert top_k_indices(np.array([1e-170, -3e-170]), 1).as_array().tolist() == [1]


def test_top_k_indices_range_errors():
    with pytest.raises(ValueError):
        top_k_indices(np.arange(3.0), 4)
    with pytest.raises(ValueError):
        top_k_indices(np.arange(3.0), -1)
    # a count must be an integer (numpy's too), not a float or a bool
    for k in (2.0, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            top_k_indices(np.array([3.0, 1.0, 2.0]), k)
    assert top_k_indices(np.array([3.0, 1.0, 2.0]), np.int64(2)).as_array().tolist() == [0, 2]


def test_top_k_rows_example():
    X = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    assert top_k_rows(X, 1).as_array().tolist() == [0]


def test_top_k_rows_single_column_matches_vector_operator():
    rng = RngStream(7, (0,))
    w = rng.standard_normal(9)
    X = w[:, None]
    for k in range(10):
        np.testing.assert_array_equal(
            top_k_rows(X, k).as_array(), top_k_indices(w, k).as_array()
        )


def test_top_k_rows_matches_exhaustive_search():
    rng = RngStream(8, (0,))
    for k in (2, 0):
        for _ in range(25):
            X = rng.standard_normal((8, 3))
            sup = top_k_rows(X, k)
            best, best_err = best_support_bruteforce(X, k)
            achieved = frobenius_norm(X - project_rows(X, sup))
            assert achieved == best_err
            np.testing.assert_array_equal(sup.as_array(), best.as_array())


def test_top_k_zero_allowed():
    assert len(top_k_rows(np.ones((4, 2)), 0)) == 0
    assert top_k_rows(np.ones((4, 2)), 0) == RowSupport((), 4)
    assert top_k_rows(np.ones((0, 2)), 0) == RowSupport((), 0)


def test_project_rows_examples():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(project_rows(X, RowSupport((0, 1), 2)), X)
    np.testing.assert_array_equal(project_rows(X, RowSupport((), 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(
        project_rows(X, RowSupport((1,), 2)), [[0.0, 0.0], [3.0, 4.0]]
    )


def test_project_rows_ambient_mismatch():
    with pytest.raises(ValueError):
        project_rows(np.ones((3, 2)), RowSupport((0,), 2))


def test_projection_idempotent_and_nonexpansive():
    rng = RngStream(9, (0,))
    for _ in range(10):
        X = rng.standard_normal((6, 4))
        sup = top_k_rows(X, 3)
        P1 = project_rows(X, sup)
        np.testing.assert_array_equal(project_rows(P1, sup), P1)
        assert frobenius_norm(P1) <= frobenius_norm(X)


def test_projection_pythagoras():
    rng = RngStream(10, (0,))
    for k in (3, 0, 7):
        for _ in range(10):
            X = rng.standard_normal((7, 3))
            sup = top_k_rows(X, k)
            comp = RowSupport(np.setdiff1d(np.arange(7), sup.as_array()), 7)
            total = frobenius_norm(X) ** 2
            split = frobenius_norm(project_rows(X, sup)) ** 2 + frobenius_norm(
                project_rows(X, comp)
            ) ** 2
            assert total == pytest.approx(split, rel=1e-12)


def test_support_union():
    a = RowSupport((0, 2), 4)
    b = RowSupport((2, 3), 4)
    assert support_union(a, b).as_array().tolist() == [0, 2, 3]
    np.testing.assert_array_equal(
        support_union(a, RowSupport((), 4)).as_array(), a.as_array()
    )
    singles = support_union(RowSupport((0,), 4), RowSupport((1,), 4))
    assert singles.as_array().tolist() == [0, 1]
    with pytest.raises(ValueError):
        support_union(a, RowSupport((0,), 5))
    same = RowSupport(np.array([0, 2]), 4)
    assert same == a


def test_row_support_examples():
    assert len(row_support(np.zeros((3, 2)))) == 0
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    assert row_support(X).as_array().tolist() == [0, 2]
    assert row_support(np.array([[1e-12, 0.0]])).as_array().tolist() == [0]
    # 1e-200 squared underflows to 0.0: a row counts by its entries, not its norm
    assert row_support(np.array([[1e-200, 0.0]])).as_array().tolist() == [0]
    assert row_support(np.array([[0.0], [-5e-324]])).as_array().tolist() == [1]


def test_row_support_of_projection_is_contained():
    rng = RngStream(11, (0,))
    X = rng.standard_normal((9, 2))
    sup = top_k_rows(X, 4)
    assert np.isin(row_support(project_rows(X, sup)).as_array(), sup.as_array()).all()


def test_row_support_counts_sparsity():
    X = np.zeros((10, 3))
    X[[1, 5, 6]] = 1.0
    assert len(row_support(X)) == 3


def test_row_support_validation():
    with pytest.raises(ValueError):
        RowSupport((1, 1), 3)
    with pytest.raises(ValueError):
        RowSupport((2, 1), 3)
    with pytest.raises(ValueError):
        RowSupport((3,), 3)
    with pytest.raises(ValueError, match="ambient"):
        RowSupport((), -1)
    for ambient in (3.7, True):
        with pytest.raises(ValueError, match="ambient must be an integer"):
            RowSupport((0,), ambient)
    assert RowSupport((0,), np.int64(3)) == RowSupport((0,), 3)
    # floats and bools are not row indices, even where they would cast to some
    with pytest.raises(ValueError, match="integers"):
        RowSupport([0.5, 1.7], 3)
    with pytest.raises(ValueError, match="integers"):
        RowSupport([True, False, True], 3)
    assert len(RowSupport([], 3)) == 0
