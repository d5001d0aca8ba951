import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvgreedy.linalg as linalg
from mmvgreedy.linalg import (
    IndexSampler,
    RngStream,
    draw_index,
    frobenius_norm,
    least_squares_solve,
    row_norms,
)


def test_frobenius_zero_matrix():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_identity():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), rel=1e-15)


def test_frobenius_345():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


def test_frobenius_matches_row_norms_squared():
    rng = RngStream(5, (0,))
    for _ in range(20):
        X = rng.standard_normal((7, 4))
        lhs = frobenius_norm(X) ** 2
        rhs = float((row_norms(X) ** 2).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_row_norms_examples():
    np.testing.assert_allclose(row_norms(np.array([[3.0, 4.0], [0.0, 0.0]])), [5.0, 0.0])
    np.testing.assert_allclose(row_norms(np.array([[-2.0]])), [2.0])
    X = np.ones((6, 3))
    np.testing.assert_allclose(row_norms(X), np.full(6, np.sqrt(3.0)))


@settings(max_examples=200)
@given(st.floats(1e-150, 1e150), st.booleans())
def test_one_column_row_norms_are_absolute_values(x, negative):
    # sqrt(x * x) is |x| exactly while x * x neither underflows nor overflows
    x = -x if negative else x
    assert row_norms(np.array([[x], [0.0], [-0.0]])).tolist() == [abs(x), 0.0, 0.0]


def test_lstsq_identity_system():
    Y = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(least_squares_solve(np.eye(2), Y), Y)


def test_lstsq_overdetermined_mean():
    A = np.array([[1.0], [1.0]])
    Y = np.array([[1.0], [3.0]])
    np.testing.assert_allclose(least_squares_solve(A, Y), [[2.0]])


def test_lstsq_recovers_planted_solution():
    # consistent system: the unique LS solution is the planted one
    rng = RngStream(11, (0,))
    A = rng.standard_normal((6, 3))
    B0 = rng.standard_normal((3, 2))
    B = least_squares_solve(A, A @ B0)
    np.testing.assert_allclose(B, B0, atol=1e-10)


def test_lstsq_residual_orthogonality():
    rng = RngStream(12, (0,))
    for m, s, L in [(8, 3, 2), (5, 5, 1), (4, 7, 3), (10, 4, 4)]:
        A = rng.standard_normal((m, s))
        Y = rng.standard_normal((m, L))
        B = least_squares_solve(A, Y)
        resid = np.linalg.norm(A.T @ (A @ B - Y))
        assert resid <= 1e-8 * np.linalg.norm(A) * np.linalg.norm(Y)


def test_lstsq_rank_deficient_min_norm():
    # duplicated columns: solution components must split evenly (min norm)
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = least_squares_solve(A, np.array([[2.0], [2.0]]))
    np.testing.assert_allclose(B, [[1.0], [1.0]], atol=1e-12)


def test_lstsq_wide_min_norm_matches_pinv():
    rng = RngStream(13, (0,))
    A = rng.standard_normal((4, 9))
    Y = rng.standard_normal((4, 2))
    np.testing.assert_allclose(
        least_squares_solve(A, Y), np.linalg.pinv(A) @ Y, atol=1e-10
    )


def _pinv_gap(A, Y, B):
    """Largest entry of B - pinv(A) @ Y, relative to ||pinv(A)|| ||Y||."""
    # an explicit cutoff, so rounding noise of an exactly rank-deficient A
    # is not inverted by the reference either
    P = np.linalg.pinv(A, 1e-10)
    return np.abs(B - P @ Y).max() / (np.linalg.norm(P, 2) * np.linalg.norm(Y))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(["wide", "tall", "square"]),
    small=st.integers(1, 40),
    large=st.integers(1, 40),
    rhs=st.integers(1, 5),
    defect=st.sampled_from([None, "repeated column", "zero row"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lstsq_matches_pinv_on_random_blocks(shape, small, large, rhs, defect, seed):
    small, large = sorted((small, large))
    m, s = {"wide": (small, large), "tall": (large, small), "square": (small, small)}[shape]
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, s))
    if defect == "repeated column" and s > 1:
        A[:, -1] = A[:, 0]
    if defect == "zero row" and m > 1:
        A[-1] = 0.0
    Y = rng.standard_normal((m, rhs))
    assert _pinv_gap(A, Y, least_squares_solve(A, Y)) <= 1e-10


def test_lstsq_repeated_column_takes_svd_fallback(monkeypatch):
    # a tall block with a repeated column has a singular A^T A, so the
    # Cholesky path must hand the solve to gelsd
    drivers = []
    real_lstsq = scipy.linalg.lstsq

    def spy(*args, **kwargs):
        drivers.append(kwargs.get("lapack_driver"))
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(linalg.scipy.linalg, "lstsq", spy)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 8))
    A[:, 5] = A[:, 2]
    Y = rng.standard_normal((30, 3))
    B = least_squares_solve(A, Y)
    assert drivers == ["gelsd"]
    assert _pinv_gap(A, Y, B) <= 1e-10
    # the two copies of the column share the weight evenly (min norm)
    np.testing.assert_allclose(B[5], B[2], rtol=1e-10)


def test_lstsq_well_conditioned_blocks_skip_fallback(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("well-conditioned solve fell back to gelsd")

    monkeypatch.setattr(linalg.scipy.linalg, "lstsq", forbidden)
    rng = np.random.default_rng(4)
    for m, s in [(100, 180), (100, 60)]:
        A = rng.standard_normal((m, s))
        Y = rng.standard_normal((m, 2))
        assert _pinv_gap(A, Y, least_squares_solve(A, Y)) <= 1e-10


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_lstsq_takes_the_wide_branch_exactly_when_s_reaches_m(monkeypatch, offset):
    # the wide branch forms the m x m Gram matrix A A^T, the tall one the
    # s x s A^T A; at s = m only the transpose flags of the product differ
    grams = []
    real_dgemm = linalg.blas.dgemm

    def dgemm(*args, **flags):
        out = real_dgemm(*args, **flags)
        grams.append((flags, out.shape))
        return out

    monkeypatch.setattr(linalg, "blas", types.SimpleNamespace(dgemm=dgemm))
    m = 12
    s = m + offset
    rng = np.random.default_rng(5)
    A = rng.standard_normal((m, s))
    Y = rng.standard_normal((m, 3))
    B = least_squares_solve(A, Y)
    wide = s >= m
    assert grams[0] == (
        {"trans_a": int(wide), "trans_b": int(not wide)}, (m, m) if wide else (s, s)
    )
    assert _pinv_gap(A, Y, B) <= 1e-10


def test_lstsq_dimension_mismatch():
    with pytest.raises(ValueError):
        least_squares_solve(np.eye(3), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        least_squares_solve(np.zeros((3, 0)), np.zeros((3, 1)))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
def test_lstsq_without_right_hand_sides(shape):
    # the empty (s, 0) solution, as numpy.linalg.lstsq gives it, before LAPACK
    m, s = shape
    B = least_squares_solve(np.ones(shape), np.ones((m, 0)))
    assert B.shape == (s, 0)
    assert B.shape == np.linalg.lstsq(np.ones(shape), np.ones((m, 0)))[0].shape


def test_draw_index_point_mass():
    rng = RngStream(0, (0,))
    assert all(draw_index([1.0, 0.0, 0.0], rng) == 0 for _ in range(50))


def test_draw_index_uniform_frequencies():
    # 40000 draws at p=0.25: the sd of each frequency is ~0.0022, so a
    # 0.02 window is a ~9 sigma bound
    rng = RngStream(21, (0,))
    counts = np.zeros(4)
    for _ in range(40000):
        counts[draw_index(np.full(4, 0.25), rng)] += 1
    np.testing.assert_allclose(counts / 40000, 0.25, atol=0.02)


def test_draw_index_seeded_reproducibility():
    a = RngStream(99, (3,))
    b = RngStream(99, (3,))
    p = [0.5, 0.5]
    seq_a = [draw_index(p, a) for _ in range(100)]
    seq_b = [draw_index(p, b) for _ in range(100)]
    assert seq_a == seq_b


def test_draw_index_validation():
    rng = RngStream(0, (0,))
    with pytest.raises(ValueError):
        draw_index([0.5, 0.6], rng)
    with pytest.raises(ValueError):
        draw_index([-0.1, 1.1], rng)
    with pytest.raises(ValueError):
        draw_index([], rng)
    with pytest.raises(ValueError):
        draw_index([np.nan, 1.0], rng)  # passes the sign and the sum tests


def test_draw_index_skips_zero_probability():
    rng = RngStream(4, (0,))
    p = [0.0, 1.0, 0.0]
    assert all(draw_index(p, rng) == 1 for _ in range(50))


# weights with zero bins, point masses and trailing zeros; normalized, some
# (ten 0.1s, say) have a cumulative sum that ends one ulp below 1
WEIGHTS = st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0, 0.1]), min_size=1,
                   max_size=12).filter(any)


def _probabilities(weights):
    w = np.array(weights)
    return w / w.sum()


@settings(max_examples=200)
@given(WEIGHTS, st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_bulk_draws_equal_successive_draws(weights, seed, count):
    sampler = IndexSampler(_probabilities(weights))
    bulk = sampler.draws(RngStream(seed, (0,)), count)
    one_by_one = RngStream(seed, (0,))
    assert bulk.tolist() == [sampler.draw(one_by_one) for _ in range(count)]


class _Scripted:
    """A generator stand-in that returns the given doubles in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, count=None):
        if count is None:
            return self._values.pop(0)
        out, self._values = self._values[:count], self._values[count:]
        return np.array(out)


@settings(max_examples=200)
@given(st.one_of(WEIGHTS, st.just([0.1] * 10 + [0.0, 0.0])), st.data())
def test_bulk_draws_take_the_last_nonzero_bin_beyond_the_cumulative_sum(weights, data):
    # uniforms at, just below and beyond every cumulative value, up to the
    # largest double a generator returns; beyond the last one, which may
    # fall short of 1 by rounding, both paths take the last nonzero bin
    p = _probabilities(weights)
    cum = np.cumsum(p)
    edges = [0.0, 1.0 - 2.0**-53, *cum[cum < 1.0], *np.nextafter(cum, 0.0)]
    values = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=40))
    sampler = IndexSampler(p)
    bulk, one_by_one = RngStream(0, (0,)), RngStream(0, (0,))
    bulk._gen, one_by_one._gen = _Scripted(values), _Scripted(values)
    expected = [sampler.draw(one_by_one) for _ in values]
    assert sampler.draws(bulk, len(values)).tolist() == expected
    last = int(np.flatnonzero(p)[-1])
    for u, idx in zip(values, expected):
        assert p[idx] > 0
        if u >= cum[-1]:
            assert idx == last


def test_ten_tenths_end_below_one():
    # the case the last-nonzero-bin rule is for
    assert np.cumsum(_probabilities([0.1] * 10 + [0.0, 0.0]))[-1] < 1.0


def test_rng_stream_identical_ids_identical_values():
    a = RngStream(1234, (7, 8))
    b = RngStream(1234, (7, 8))
    assert a.uniforms(20).tolist() == b.uniforms(20).tolist()
    np.testing.assert_array_equal(a.standard_normal(10), b.standard_normal(10))
    # a stream id is a tuple; an int is not one
    with pytest.raises(TypeError):
        RngStream(1234, 5)


def test_rng_stream_distinct_ids_differ():
    a = RngStream(1234, (0,))
    b = RngStream(1234, (1,))
    assert a.uniforms(5).tolist() != b.uniforms(5).tolist()


def test_rng_substream_derivation():
    parent = RngStream(7, (2,))
    child = parent.substream(5)
    again = RngStream(7, (2, 5))
    assert child.stream_id == (2, 5)
    assert child.uniforms(5).tolist() == again.uniforms(5).tolist()
