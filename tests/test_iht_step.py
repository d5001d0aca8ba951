"""The single-row IHT step against the dense step, bit for bit.

At batch size 1 the step forms only the kept rows and the k + 1 other
rows of largest |a_ij|.  Whatever it forms, its iterate and support must
equal the dense X - scale * batch_grad, top_k_rows and project_rows,
including the sign of every zero.  The draws force the cases that can
break a shortcut: ties in |a_ij| (repeated and sign-flipped entries), a
zero residual (every row outside the kept support has norm 0), zero
entries of the drawn row, and n <= |kept| + k + 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmvgreedy.bench import gaussian_sensing_matrix
from mmvgreedy.linalg import RngStream
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import _iht_step
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
    return MmvObjective(A, Y), X, RowSupport(kept, n), i, scale, k


def _dense_step(obj, X, i, scale, k):
    B = X - scale * obj.batch_grad((i,), X)
    support = top_k_rows(B, k)
    return project_rows(B, support), support


def _assert_same_step(obj, X, kept, i, scale, k):
    X_new, support, candidate = _iht_step(obj, X, kept, (i,), scale, k)
    X_ref, support_ref = _dense_step(obj, X, i, scale, k)
    assert candidate is None
    assert support == support_ref
    assert X_new.shape == X_ref.shape
    assert X_new.tobytes() == X_ref.tobytes()


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
    X, kept = np.zeros((200, 40)), RowSupport.empty(200)
    for t in range(60):
        i = t % 100
        _assert_same_step(obj, X, kept, i, 100.0, 5)
        X, kept, _ = _iht_step(obj, X, kept, (i,), 100.0, 5)


def test_single_row_step_forms_no_dense_gradient(monkeypatch):
    rng = RngStream(4, (0,))
    A = gaussian_sensing_matrix(10, 50, rng)
    obj = MmvObjective(A, rng.standard_normal((10, 3)))

    def dense(*args):
        raise AssertionError("the dense gradient was formed")

    monkeypatch.setattr(MmvObjective, "batch_grad", dense)
    X, kept = np.zeros((50, 3)), RowSupport.empty(50)
    for i in range(10):
        X, kept, _ = _iht_step(obj, X, kept, (i,), 10.0, 4)
    assert len(kept) == 4
