"""The single-row IHT and GradMP steps against the dense steps, bit for bit.

At batch size 1 the IHT step forms only the kept rows and the k + 1 other
rows of largest |a_ij|.  It returns the rows it changes with their old
and new values, or, on the dense path, the whole new iterate, and leaves
X as it is.  Whatever it forms, the new iterate and the support must
equal the dense X - scale * batch_grad, top_k_rows and project_rows,
including the sign of every zero.  The GradMP step takes the norms of the
2k + 1 gradient rows of largest |a_ij| only, and must match the 2k rows
that top_k_rows picks from the dense gradient.  The draws force the cases
that can break a shortcut: ties in |a_ij| (repeated and sign-flipped
entries), a zero residual (every row outside the kept support has norm
0), zero entries of the drawn row, and n <= |kept| + k + 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmvgreedy.bench import gaussian_sensing_matrix
from mmvgreedy.linalg import RngStream
from mmvgreedy import solvers
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import SolverConfig, _gradmp_step, _iht_step, mstoiht
from mmvgreedy.sparsity import RowSupport, project_rows, top_k_rows

# few distinct magnitudes, so drawn rows repeat |a_ij| often
TIES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0])
# + 0.0 turns -0.0 into 0.0: the solvers' iterates never hold -0.0
VALUES = st.floats(-3.0, 3.0, allow_subnormal=False).map(lambda v: v + 0.0)


@st.composite
def single_row_steps(draw):
    """(objective, iterate, kept rows, drawn row, scale, k)."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 4))
    L = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    kept = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    i = draw(st.integers(0, m - 1))
    entries = st.lists(st.one_of(TIES, VALUES), min_size=m * n, max_size=m * n)
    A = np.array(draw(entries)).reshape(m, n)
    X = np.zeros((n, L))
    X[kept] = np.array(
        draw(st.lists(VALUES, min_size=len(kept) * L, max_size=len(kept) * L))
    ).reshape(len(kept), L)
    Y = np.array(draw(st.lists(VALUES, min_size=m * L, max_size=m * L))).reshape(m, L)
    if draw(st.booleans()):  # zero residual on the drawn row
        Y[i] = (A[i : i + 1] @ X)[0]
    scale = draw(st.sampled_from([0.5, 1.0, 1.7, 100.0]))
    return MmvObjective(A, Y), X, np.array(kept, dtype=np.intp), i, scale, k


def _dense_step(obj, X, i, scale, k):
    B = X - scale * obj.batch_grad((i,), X)
    support = top_k_rows(B, k)
    return project_rows(B, support), support


def _assert_same_step(obj, X, kept, i, scale, k):
    X_before = X.copy()
    rows, old, new, support, candidate = _iht_step(
        obj, X, kept, [0], slice(i, i + 1), scale, k
    )
    X_ref, support_ref = _dense_step(obj, X, i, scale, k)
    assert X.tobytes() == X_before.tobytes()
    assert candidate is None
    assert support.dtype == np.intp
    assert support.tolist() == support_ref.as_array().tolist()
    assert _written(X.copy(), rows, new).tobytes() == X_ref.tobytes()
    if rows is not None:
        # the changed rows cover the old and the new support
        assert np.isin(kept, rows).all() and np.isin(support, rows).all()
        assert old.tobytes() == X[rows].tobytes()


def _written(X, rows, new):
    # the new iterate: X with the changed rows written, or the whole of new
    if rows is None:
        return new
    X[rows] = new
    return X


def _advance(obj, X, kept, i, scale, k):
    rows, _, new, kept, _ = _iht_step(obj, X, kept, [0], slice(i, i + 1), scale, k)
    return _written(X, rows, new), kept


@settings(max_examples=400)
@given(single_row_steps())
def test_single_row_step_equals_the_dense_step(step):
    _assert_same_step(*step)


def test_single_row_step_at_acceptance_shape():
    # n=200, L=40, k=5 as in the IHT acceptance protocol, iterated so the
    # kept support is a real one; most steps take the k-row path
    rng = RngStream(3, (0,))
    A = gaussian_sensing_matrix(100, 200, rng)
    obj = MmvObjective(A, rng.standard_normal((100, 40)))
    X, kept = np.zeros((200, 40)), np.empty(0, dtype=np.intp)
    for t in range(60):
        i = t % 100
        _assert_same_step(obj, X, kept, i, 100.0, 5)
        X, kept = _advance(obj, X, kept, i, 100.0, 5)


def test_single_row_step_forms_no_dense_gradient(monkeypatch):
    rng = RngStream(4, (0,))
    A = gaussian_sensing_matrix(10, 50, rng)
    obj = MmvObjective(A, rng.standard_normal((10, 3)))

    def dense(*args):
        raise AssertionError("the dense gradient was formed")

    monkeypatch.setattr(MmvObjective, "batch_grad", dense)
    X, kept = np.zeros((50, 3)), np.empty(0, dtype=np.intp)
    for i in range(10):
        X, kept = _advance(obj, X, kept, i, 10.0, 4)
    assert len(kept) == 4


def test_joint_single_row_solve_builds_no_row_support(monkeypatch):
    # the engine keeps supports as index arrays, and still evaluates the
    # objective through restricted_value's body once per iteration
    rng = RngStream(5, (0,))
    A = gaussian_sensing_matrix(100, 200, rng)
    obj = MmvObjective(A, rng.standard_normal((100, 40)))
    calls = {"support": 0, "value": 0}
    real_init, real_value = RowSupport.__init__, MmvObjective._value

    def init(self, *args):
        calls["support"] += 1
        real_init(self, *args)

    def value(self, X, support):
        calls["value"] += 1
        assert isinstance(support, np.ndarray) and support.dtype == np.intp
        return real_value(self, X, support)

    monkeypatch.setattr(RowSupport, "__init__", init)
    monkeypatch.setattr(MmvObjective, "_value", value)
    trace = mstoiht(obj, SolverConfig(k=5, max_iter=100, tol=0.0, seed=5))
    assert trace.iterations == 100
    assert calls == {"support": 0, "value": 100}


def _gradmp_candidate(obj, X, kept, i, k):
    # the rows _gradmp_step hands to restricted_argmin, and its step
    seen = []
    solve = obj.restricted_argmin
    obj.restricted_argmin = lambda rows: seen.append(rows) or solve(rows)
    step = _gradmp_step(obj, X, kept, [0], slice(i, i + 1), 1.0, k)
    del obj.restricted_argmin
    return seen[0], step


@settings(max_examples=200)
@given(single_row_steps())
def test_single_row_matching_equals_the_dense_matching(step):
    obj, X, kept, i, _, k = step
    k = max(1, min(k, obj.n // 2))  # matching pursuit needs 2k <= n
    # entries near 1e-300 can make the minimizer's norms overflow to inf,
    # on both sides alike
    with np.errstate(over="ignore"):
        candidate, (_, _, B, support, size) = _gradmp_candidate(obj, X, kept, i, k)
        matched = top_k_rows(obj.batch_grad((i,), X), 2 * k).as_array()
        B_ref = obj.restricted_argmin(candidate)
        support_ref = top_k_rows(B_ref, k)
    assert candidate.tolist() == np.union1d(matched, kept).tolist()
    assert size == len(candidate)
    assert support.tolist() == support_ref.as_array().tolist()
    assert B.tobytes() == project_rows(B_ref, support_ref).tobytes()


def test_single_row_matching_forms_no_dense_gradient(monkeypatch):
    rng = RngStream(6, (0,))
    A = gaussian_sensing_matrix(10, 50, rng)
    obj = MmvObjective(A, rng.standard_normal((10, 3)))

    def dense(*args):
        raise AssertionError("the dense gradient was formed")

    monkeypatch.setattr(MmvObjective, "batch_grad", dense)
    X, kept = np.zeros((50, 3)), np.empty(0, dtype=np.intp)
    for i in range(10):
        _, _, X, kept, size = _gradmp_step(obj, X, kept, [0], slice(i, i + 1), 1.0, 4)
        assert len(kept) == 4 and 8 <= size <= 12
