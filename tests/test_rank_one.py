"""The rank-one identification fact of single-component steps.

One component's gradient is the rank-one a_i r^T, so its row j is
a_ij * r, and rounding keeps the norm of that row non-decreasing in
|a_ij|.  At batch size 1 and any residual r != 0, the rows a step can
pick up therefore depend on the drawn sensing row a_i alone:

* the GradMP step matches the 2k rows of largest |a_ij|;
* the IHT step's entering rows, those of its new support off the kept
  one, are the rows of largest |a_ij| off the kept support.

Ties go to the lower index.  Both hold whenever the last row picked and
the first row passed over differ in norm.  The README's "Known behavior"
section draws the consequence for the single-draw acceptance criteria.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmvgreedy.linalg import row_norms
from mmvgreedy.objective import MmvObjective
from mmvgreedy.solvers import _iht_step
from mmvgreedy.sparsity import RowSupport, top_k_rows

# + 0.0 turns -0.0 into 0.0: the solvers' iterates never hold -0.0
VALUES = st.floats(-3.0, 3.0, allow_subnormal=False).map(lambda v: v + 0.0)


def _matrix(draw, rows, cols):
    entries = draw(st.lists(VALUES, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries).reshape(rows, cols)


@st.composite
def single_draws(draw):
    """(objective, iterate, kept rows, drawn row) with a nonzero residual."""
    n = draw(st.integers(3, 30))
    m = draw(st.integers(1, 4))
    L = draw(st.integers(1, 4))
    kept = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    X = np.zeros((n, L))
    X[kept] = _matrix(draw, len(kept), L)
    obj = MmvObjective(_matrix(draw, m, n), _matrix(draw, m, L))
    i = draw(st.integers(0, m - 1))
    assume(np.any(obj.A[i] @ X != obj.Y[i]))
    return obj, X, RowSupport(kept, n), i


def _largest(scores, rows, count):
    """The count rows of largest score, ties to the lower index, sorted."""
    return tuple(sorted(sorted(rows, key=lambda j: (-scores[j], j))[:count]))


def _boundary_differs(norms, count):
    # the count-th and (count+1)-th largest norms, when both exist
    ranked = np.sort(norms)[::-1]
    return count in (0, ranked.size) or ranked[count - 1] != ranked[count]


@settings(max_examples=200)
@given(single_draws(), st.data())
def test_gradmp_matches_the_rows_of_largest_drawn_entries(draw_, data):
    obj, X, _, i = draw_
    k = data.draw(st.integers(1, (obj.n - 1) // 2))
    G = obj.batch_grad([i], X)
    assume(_boundary_differs(row_norms(G), 2 * k))
    matched = top_k_rows(G, 2 * k)
    assert np.array_equal(
        matched.as_array(), _largest(np.abs(obj.A[i]), range(obj.n), 2 * k)
    )


@settings(max_examples=200)
@given(single_draws(), st.data())
def test_iht_entering_rows_are_the_largest_drawn_entries_off_the_kept_ones(draw_, data):
    obj, X, kept, i = draw_
    k = data.draw(st.integers(1, obj.n))
    scale = data.draw(st.sampled_from([0.5, 1.0, 1.7, 100.0]))
    support = _iht_step(obj, X, kept.as_array(), [0], slice(i, i + 1), scale, k)[3]
    off = np.setdiff1d(np.arange(obj.n), kept.as_array())
    entering = np.setdiff1d(support, kept.as_array())
    B = X - scale * obj.batch_grad([i], X)
    assume(_boundary_differs(row_norms(B)[off], len(entering)))
    assert np.array_equal(entering, _largest(np.abs(obj.A[i]), off, len(entering)))
