import numpy as np
import pytest

from mmvgreedy.linalg import RngStream
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import SolverConfig, mstoiht
from mmvgreedy.sparsity import RowSupport, project_rows, row_support, top_k_rows


def random_objective(seed, m=8, n=12, L=3):
    rng = RngStream(seed, (0,))
    A = rng.standard_normal((m, n))
    Y = rng.standard_normal((m, L))
    return MmvObjective(A, Y), rng


def finite_difference_grad(obj, rows, X, h=1e-6):
    """Central differences of the mean component misfit over `rows`."""
    rows = list(rows)

    def fval(Z):
        total = 0.0
        for i in rows:
            r = obj.A[i] @ Z - obj.Y[i]
            total += 0.5 * float(r @ r)
        return total / len(rows)

    G = np.zeros_like(X)
    for s in range(X.shape[0]):
        for t in range(X.shape[1]):
            Zp = X.copy()
            Zm = X.copy()
            Zp[s, t] += h
            Zm[s, t] -= h
            G[s, t] = (fval(Zp) - fval(Zm)) / (2 * h)
    return G


def test_value_zero_residual():
    obj, rng = random_objective(1)
    X = rng.standard_normal((obj.n, obj.L))
    exact = MmvObjective(obj.A, obj.A @ X)
    assert exact.value(X) == pytest.approx(0.0, abs=1e-20)


def test_value_hand_case():
    # identity sensing, zero data: F(I) = (1/4) * ||I||_F^2 = 0.5
    obj = MmvObjective(np.eye(2), np.zeros((2, 2)))
    assert obj.value(np.eye(2)) == pytest.approx(0.5)


def test_value_is_mean_of_components():
    obj, rng = random_objective(2)
    X = rng.standard_normal((obj.n, obj.L))
    total = 0.0
    for i in range(obj.m):
        r = obj.A[i] @ X - obj.Y[i]
        total += 0.5 * float(r @ r)
    assert obj.value(X) == pytest.approx(total / obj.m, rel=1e-12)


def test_batch_grad_at_zero_single_row():
    obj, _ = random_objective(3)
    X = np.zeros((obj.n, obj.L))
    G = obj.batch_grad([2], X)
    np.testing.assert_allclose(G, -np.outer(obj.A[2], obj.Y[2]), atol=1e-15)


def test_batch_grad_hand_case():
    # one sensing row (1, 0), X = [[1,1],[0,0]], data zero
    A = np.array([[1.0, 0.0]])
    Y = np.array([[0.0, 0.0]])
    obj = MmvObjective(A, Y)
    G = obj.batch_grad([0], np.array([[1.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(G, [[1.0, 1.0], [0.0, 0.0]])


def test_batch_grad_matches_finite_differences():
    obj, rng = random_objective(4)
    X = rng.standard_normal((obj.n, obj.L))
    for rows in ([0], [1, 3, 5], list(range(obj.m))):
        G = obj.batch_grad(rows, X)
        G_fd = finite_difference_grad(obj, rows, X)
        rel = np.linalg.norm(G - G_fd) / np.linalg.norm(G_fd)
        assert rel < 1e-6


def test_batch_grad_rejects_empty_and_out_of_range():
    obj, _ = random_objective(5)
    X = np.zeros((obj.n, obj.L))
    with pytest.raises(ValueError):
        obj.batch_grad([], X)
    with pytest.raises(ValueError):
        obj.batch_grad([obj.m], X)
    # a row slice must be a nonempty, in-range, explicit run of step 1
    bad = [slice(2, 2), slice(-1, 2), slice(0, obj.m + 1), slice(0, 4, 2),
           slice(None, 2)]
    for rows in bad:
        with pytest.raises(ValueError):
            obj.batch_grad(rows, X)
        with pytest.raises(ValueError):
            obj.column_grad(rows, 0, np.zeros(obj.n))


def test_mean_of_component_grads_is_full_gradient():
    obj, rng = random_objective(6)
    X = rng.standard_normal((obj.n, obj.L))
    mean = sum(obj.batch_grad([i], X) for i in range(obj.m)) / obj.m
    full = obj.full_grad(X)
    assert np.linalg.norm(mean - full) <= 1e-10 * np.linalg.norm(full)


def test_uniform_weighting_is_unbiased():
    # exhaustive average of the solver-weighted proxy steps equals the
    # full gradient: sum_i p_i * (1/(m p_i)) grad_i = grad F
    obj, rng = random_objective(7)
    X = rng.standard_normal((obj.n, obj.L))
    m = obj.m
    p = np.full(m, 1.0 / m)
    acc = np.zeros_like(X)
    for i in range(m):
        acc += p[i] * (1.0 / (m * p[i])) * obj.batch_grad([i], X)
    np.testing.assert_allclose(acc, obj.full_grad(X), atol=1e-12)


def test_column_grad_matches_batch_grad_column():
    # identical up to reduction-order ulps: the residual dot products go
    # through BLAS kernels of different output widths
    obj, rng = random_objective(8)
    X = rng.standard_normal((obj.n, obj.L))
    for i in (0, 4):
        G = obj.batch_grad([i], X)
        for j in range(obj.L):
            g = obj.column_grad([i], j, X[:, j])
            np.testing.assert_allclose(g, G[:, j], rtol=1e-13, atol=1e-15)


def test_column_grad_matches_batch_grad_exactly_single_column():
    # with one signal column the kernels coincide and bits match
    rng = RngStream(88, (0,))
    obj = MmvObjective(rng.standard_normal((8, 12)), rng.standard_normal((8, 1)))
    X = rng.standard_normal((12, 1))
    for i in range(obj.m):
        G = obj.batch_grad([i], X)
        g = obj.column_grad([i], 0, X[:, 0])
        np.testing.assert_array_equal(g, G[:, 0])


def test_column_grad_zero_case():
    obj, _ = random_objective(9)
    Y = obj.Y.copy()
    Y[1, 0] = 0.0
    obj = MmvObjective(obj.A, Y)
    g = obj.column_grad([1], 0, np.zeros(obj.n))
    np.testing.assert_array_equal(g, np.zeros(obj.n))


def test_column_grad_finite_differences():
    obj, rng = random_objective(10)
    x = rng.standard_normal(obj.n)
    i, j = 3, 1
    g = obj.column_grad([i], j, x)
    h = 1e-6
    g_fd = np.zeros(obj.n)
    for s in range(obj.n):
        xp, xm = x.copy(), x.copy()
        xp[s] += h
        xm[s] -= h
        fp = 0.5 * (obj.A[i] @ xp - obj.Y[i, j]) ** 2
        fm = 0.5 * (obj.A[i] @ xm - obj.Y[i, j]) ** 2
        g_fd[s] = (fp - fm) / (2 * h)
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-6


def test_column_grad_index_errors():
    obj, _ = random_objective(11)
    with pytest.raises(ValueError):
        obj.column_grad([0], obj.L, np.zeros(obj.n))
    with pytest.raises(ValueError):
        obj.column_grad([obj.m], 0, np.zeros(obj.n))


def test_restricted_argmin_identity_full_support():
    Y = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    obj = MmvObjective(np.eye(3), Y)
    B = obj.restricted_argmin(RowSupport((0, 1, 2), 3).as_array())
    np.testing.assert_allclose(B, Y, atol=1e-12)


def test_restricted_argmin_recovers_planted_signal():
    rng = RngStream(12, (0,))
    n, m, L, k = 16, 10, 2, 3
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    X_star = np.zeros((n, L))
    support = RowSupport((2, 7, 11), n)
    X_star[support.as_array()] = rng.standard_normal((k, L))
    obj = MmvObjective(A, A @ X_star)
    B = obj.restricted_argmin(support.as_array())
    np.testing.assert_allclose(B, X_star, atol=1e-8)


def test_restricted_argmin_beats_random_competitors():
    obj, rng = random_objective(13)
    support = top_k_rows(rng.standard_normal((obj.n, obj.L)), 4)
    B = obj.restricted_argmin(support.as_array())
    fB = obj.value(B)
    for _ in range(100):
        Z = rng.standard_normal((obj.n, obj.L))
        assert fB <= obj.value(project_rows(Z, support)) + 1e-12


def test_restricted_argmin_support_containment():
    obj, rng = random_objective(14)
    support = RowSupport((1, 5, 9), obj.n)
    B = obj.restricted_argmin(support.as_array())
    assert np.isin(row_support(B).as_array(), support.as_array()).all()


def test_restricted_argmin_empty_support_rejected():
    obj, _ = random_objective(15)
    for empty in (RowSupport((), obj.n).as_array(), np.empty(0, dtype=np.intp)):
        with pytest.raises(ValueError):
            obj.restricted_argmin(empty)
        with pytest.raises(ValueError):
            obj.restricted_column_argmin(empty, 0)
    # a support of a longer signal: its row n is out of range
    with pytest.raises(ValueError, match="indices must"):
        obj.restricted_argmin(RowSupport((obj.n,), obj.n + 1).as_array())


def test_restricted_value_takes_the_same_support_rule():
    obj, rng = random_objective(17)
    X = np.zeros((obj.n, obj.L))
    # X supported on no rows is the zero matrix, whose value is F(0)
    for empty in (RowSupport((), obj.n).as_array(), np.empty(0, dtype=np.intp)):
        assert obj.restricted_value(X, empty) == obj.value(X)
    X[0] = rng.standard_normal(obj.L)
    with pytest.raises(ValueError, match="indices must"):
        obj.restricted_value(X, RowSupport((obj.n,), obj.n + 1).as_array())


# each breaks RowSupport's rule on n = 12 rows: duplicate, unsorted,
# negative (which would wrap to row n - 1), too large, float and bool; a
# RowSupport itself is no index array (its .as_array() is)
_BAD_SUPPORTS = ([2, 2], [5, 3], [-1], [4, 12], [0.0, 2.0], [True, False],
                 RowSupport((0, 2), 12))


@pytest.mark.parametrize("bad", _BAD_SUPPORTS)
def test_index_array_supports_take_the_row_support_rule(bad):
    obj, rng = random_objective(18)
    X = np.zeros((obj.n, obj.L))
    for form in (bad, np.array(bad)):
        with pytest.raises(ValueError, match="indices must"):
            obj.restricted_argmin(form)
        with pytest.raises(ValueError, match="indices must"):
            obj.restricted_column_argmin(form, 0)
        with pytest.raises(ValueError, match="indices must"):
            obj.restricted_value(X, form)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["A", "Y"])
def test_non_finite_data_rejected_before_any_solve(name, bad):
    rng = RngStream(19, (0,))
    data = {"A": rng.standard_normal((8, 12)), "Y": rng.standard_normal((8, 3))}
    data[name][3, 1] = bad
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
        MmvObjective(data["A"], data["Y"])  # so no solve can start on it


def test_restricted_value_matches_full_value():
    obj, rng = random_objective(16)
    for k in (5, 0):
        X = rng.standard_normal((obj.n, obj.L))
        sup = top_k_rows(X, k)
        Xs = project_rows(X, sup)
        assert obj.restricted_value(Xs, sup.as_array()) == pytest.approx(
            obj.value(Xs), rel=1e-12
        )


def solve_loop_batches(M, b):
    """The rows of each batch the solve loop draws, found by solving.

    With A = I the gradient of a batch is nonzero on the batch's own rows
    alone, so one IHT step (k = M, so nothing is cut) with all the
    probability on batch i leaves exactly batch i's rows nonzero.
    """
    obj = MmvObjective(np.eye(M), np.ones((M, 1)))
    d = -(-M // b)
    batches = []
    for i in range(d):
        p = np.zeros(d)
        p[i] = 1.0
        cfg = SolverConfig(k=M, batch_size=b, probabilities=p, max_iter=1, tol=0.0)
        X = mstoiht(obj, cfg).estimate
        batches.append(tuple(np.flatnonzero(X.any(axis=1)).tolist()))
    return tuple(batches)


def test_batch_partition_examples():
    assert solve_loop_batches(4, 1) == ((0,), (1,), (2,), (3,))
    assert solve_loop_batches(4, 4) == ((0, 1, 2, 3),)
    assert solve_loop_batches(5, 2) == ((0, 1), (2, 3), (4,))


def test_batch_partition_range_errors():
    obj = MmvObjective(np.eye(4), np.ones((4, 1)))
    with pytest.raises(ValueError):
        SolverConfig(k=1, batch_size=0)
    with pytest.raises(ValueError):
        mstoiht(obj, SolverConfig(k=1, batch_size=5))


def test_batch_partition_covers_disjointly():
    for M, b in [(10, 3), (12, 4), (7, 7), (9, 2)]:
        batches = solve_loop_batches(M, b)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(M))
        assert len(flat) == len(set(flat))
        assert all(len(batch) == b for batch in batches[:-1])
        # the solve loop takes one probability per batch, no more and no fewer
        d = -(-M // b)
        obj = MmvObjective(np.eye(M), np.ones((M, 1)))
        for wrong in (d - 1, d + 1):
            p = np.full(wrong, 1 / max(wrong, 1))  # d - 1 is 0 when b = M
            cfg = SolverConfig(k=1, batch_size=b, probabilities=p)
            with pytest.raises(ValueError, match=f"length {d}"):
                mstoiht(obj, cfg)


def test_objective_shape_validation():
    with pytest.raises(ValueError):
        MmvObjective(np.ones((3, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="2-D"):
        MmvObjective(np.ones((3, 2, 1)), np.ones((3, 2)))
    obj = MmvObjective(np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        obj.value(np.ones((3, 2)))


@pytest.mark.parametrize("A_shape, Y_shape", [((0, 3), (0, 2)), ((3, 0), (3, 2)),
                                              ((3, 3), (3, 0))])
def test_empty_problems_rejected(A_shape, Y_shape):
    # no rows would divide F by m = 0; no columns leave nothing to recover
    with pytest.raises(ValueError, match="nonempty"):
        MmvObjective(np.zeros(A_shape), np.zeros(Y_shape))
