import math
from itertools import combinations

import numpy as np
import pytest

from mmvgreedy.analysis import (
    ConvexityConstants,
    RegimeError,
    contraction_cstogradmp,
    contraction_cstoiht,
    contraction_mstogradmp,
    contraction_mstoiht,
    rip_constant,
    tolerance_mstogradmp,
    verify_rsc_rss,
)
from mmvgreedy.bench import gaussian_sensing_matrix, row_sparse_signal
from mmvgreedy.linalg import RngStream, row_norms
from mmvgreedy.objective import MmvObjective


def consts(rho_minus, alpha, rho_plus=None, rho_plus_bar=None):
    if rho_plus is None:
        rho_plus = max(rho_minus, rho_plus_bar or rho_minus)
    return ConvexityConstants(
        rho_minus=rho_minus, rho_plus=rho_plus, alpha=alpha,
        rho_plus_bar=rho_plus_bar,
    )


# independent re-implementations used as duplicate-formula oracles

def oracle_mstoiht(rho_minus, rho_plus_bar, alpha, gamma, eta):
    a = 1 - gamma * (2 - gamma * alpha) * rho_minus
    b = (eta * eta - 1) * (1 + gamma * gamma * alpha * rho_plus_bar - 2 * gamma * rho_minus)
    return 2 * math.sqrt(a) + math.sqrt(b)


def oracle_cstoiht_kj(rho_minus, rho_plus_bar, alpha, gamma, eta):
    return 8 * (1 - (2 * gamma - gamma * gamma * alpha) * rho_minus) + 4 * (
        eta * eta - 1
    ) * (1 + gamma * gamma * alpha * rho_plus_bar - 2 * gamma * rho_minus)


def oracle_mstogradmp(rho_minus, rho_plus, alpha, eta1, eta2, mp_max):
    return (
        (1 + eta2)
        * math.sqrt(alpha / rho_minus)
        * (
            math.sqrt(mp_max)
            * math.sqrt(rho_plus * (2 * eta1 * eta1 - 1) / (rho_minus * eta2 * eta2) - 1)
            + math.sqrt(eta1 * eta1 - 1) / eta1
        )
    )


def test_mstoiht_simple_substitution():
    # eta = gamma = 1: kappa = 2 sqrt(1 - 2*0.3 + 0.5*0.3) = 2 sqrt(0.55)
    kappa = contraction_mstoiht(consts(0.3, 0.5), gamma=1.0, eta=1.0)
    assert kappa == pytest.approx(2 * math.sqrt(0.55), rel=1e-15)
    assert kappa == pytest.approx(1.4832396974191326, rel=1e-12)


def test_mstoiht_unit_contraction_case():
    # 1 - 2*rho + alpha*rho = 0.25 with rho = 0.5, alpha = 0.5
    assert contraction_mstoiht(consts(0.5, 0.5)) == pytest.approx(1.0, rel=1e-15)


def test_mstoiht_general_eta_matches_oracle():
    c = consts(0.2, 0.5, rho_plus=0.9, rho_plus_bar=0.8)
    got = contraction_mstoiht(c, gamma=0.7, eta=1.2)
    want = oracle_mstoiht(0.2, 0.8, 0.5, 0.7, 1.2)
    assert got == pytest.approx(want, rel=1e-14)


def test_mstoiht_regime_errors():
    # strong convexity with a small alpha pushes the first radicand
    # negative: 1 - 1*(2 - 0.1)*0.9 < 0
    with pytest.raises(RegimeError):
        contraction_mstoiht(consts(0.9, 0.1, rho_plus=1.0))
    with pytest.raises(RegimeError):
        contraction_mstoiht(consts(0.3, 0.5), eta=0.5)
    with pytest.raises(RegimeError, match="gamma"):
        contraction_mstoiht(consts(0.3, 0.5), gamma=0.0)


def test_cstoiht_substitution():
    # rho = 0.05, alpha = 0.06: kappa_j = 8 (1 - 0.1 + 0.003) = 7.224
    kappa_hat, kappa_j = contraction_cstoiht([consts(0.05, 0.06)])
    assert kappa_j[0] == pytest.approx(7.224, rel=1e-14)
    assert kappa_hat == pytest.approx(math.sqrt(7.224), rel=1e-14)


def test_cstoiht_is_sqrt2_times_mstoiht():
    # with equal per-column constants and gamma = eta = 1 the concatenated
    # coefficient is exactly sqrt(2) times the joint one
    for rho, alpha in [(0.05, 0.06), (0.2, 0.3), (0.45, 0.5)]:
        kappa = contraction_mstoiht(consts(rho, alpha))
        kappa_hat, _ = contraction_cstoiht([consts(rho, alpha)] * 4)
        assert kappa_hat == pytest.approx(math.sqrt(2) * kappa, rel=1e-12)


def test_cstoiht_takes_max_over_columns():
    cols = [consts(0.05, 0.06), consts(0.1, 0.2), consts(0.3, 0.4)]
    kappa_hat, kappa_j = contraction_cstoiht(cols)
    expected = [oracle_cstoiht_kj(c.rho_minus, c.rho_plus_bar, c.alpha, 1, 1) for c in cols]
    np.testing.assert_allclose(kappa_j, expected, rtol=1e-14)
    assert kappa_hat == pytest.approx(math.sqrt(max(expected)), rel=1e-14)


def test_cstoiht_requires_nonempty():
    with pytest.raises(ValueError):
        contraction_cstoiht([])


def test_mstogradmp_substitution():
    # uniform probabilities: kappa = 2 sqrt(0.4 * 0.1) / 0.4 = 1
    kappa = contraction_mstogradmp(consts(0.4, 0.4, rho_plus=0.5), M=7)
    assert kappa == pytest.approx(1.0, rel=1e-14)


def test_mstogradmp_zero_gap():
    assert contraction_mstogradmp(consts(0.4, 0.3, rho_plus=0.4)) == pytest.approx(0.0, abs=1e-15)


def test_mstogradmp_general_matches_oracle():
    c = consts(0.3, 0.5, rho_plus=0.8)
    got = contraction_mstogradmp(c, eta1=1.1, eta2=1.3, p_max=0.2, M=10)
    want = oracle_mstogradmp(0.3, 0.8, 0.5, 1.1, 1.3, 10 * 0.2)
    assert got == pytest.approx(want, rel=1e-14)


def test_cstogradmp_is_twice_mstogradmp_at_alpha_equals_rho():
    for rho, rho_plus in [(0.3, 0.5), (0.4, 0.41), (0.2, 0.9)]:
        c = consts(rho, rho, rho_plus=rho_plus)
        kappa = contraction_mstogradmp(c, M=5)
        result = contraction_cstogradmp(c, M=5)
        assert result.kappa == pytest.approx(2 * kappa, rel=1e-12)


def test_cstogradmp_zero_gap():
    c = consts(0.4, 0.3, rho_plus=0.4)
    assert contraction_cstogradmp(c).kappa == pytest.approx(0.0, abs=1e-15)


def test_cstogradmp_uniform_closed_form():
    # eta1 = eta2 = 1 with uniform probabilities collapses to
    # 4 sqrt(alpha (rho_plus - rho_minus) / (rho_minus (2 rho_minus - alpha)))
    for rho, alpha, rho_plus in [(0.4, 0.3, 0.7), (0.3, 0.25, 0.5)]:
        got = contraction_cstogradmp(consts(rho, alpha, rho_plus=rho_plus), M=9).kappa
        want = 4 * math.sqrt(alpha * (rho_plus - rho) / (rho * (2 * rho - alpha)))
        assert got == pytest.approx(want, rel=1e-13)


def test_cstogradmp_components():
    c = consts(0.3, 0.4, rho_plus=0.6)
    r = contraction_cstogradmp(c, eta1=1.2, eta2=1.1, p_max=0.3, M=6)
    beta1 = 0.4 / (2 * 0.3 - 0.4)
    beta2 = 4 * 6 * 0.3 * ((2 * 1.44 - 1) * 0.6 - 1.44 * 0.3) / (1.44 * 0.3) + 2 * 0.44 / 1.44
    assert r.beta1 == pytest.approx(beta1, rel=1e-14)
    assert r.beta2 == pytest.approx(beta2, rel=1e-14)
    assert r.kappa_j == pytest.approx((2 + 2 * 1.21) * beta1 * beta2, rel=1e-14)
    assert r.kappa == pytest.approx(math.sqrt(r.kappa_j), rel=1e-14)


def test_cstogradmp_pole_rejected():
    with pytest.raises(RegimeError):
        contraction_cstogradmp(consts(0.2, 0.5, rho_plus=0.6))


def test_mstoiht_kappa_increasing_in_alpha():
    # at eta = gamma = 1 the coefficient strictly increases with alpha
    for rho in (0.1, 0.3, 0.49):
        values = [
            contraction_mstoiht(consts(rho, a, rho_plus=2.0)) for a in np.linspace(0.05, 1.5, 12)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_constants_validation():
    with pytest.raises(ValueError):
        ConvexityConstants(rho_minus=0.0, rho_plus=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        ConvexityConstants(rho_minus=0.5, rho_plus=0.4, alpha=0.5)
    with pytest.raises(ValueError):
        ConvexityConstants(rho_minus=0.1, rho_plus=0.5, alpha=0.5, rho_plus_bar=0.6)
    with pytest.raises(ValueError):
        ConvexityConstants(rho_minus=0.1, rho_plus=0.5, alpha=-1.0)


def brute_force_tolerance_inner_max(obj, X_star, order):
    best = 0.0
    for i in range(obj.m):
        G = obj.batch_grad([i], X_star)
        norms_sq = row_norms(G) ** 2
        for combo in combinations(range(obj.n), min(order, obj.n)):
            best = max(best, math.sqrt(float(norms_sq[list(combo)].sum())))
    return best


def test_tolerance_vanishes_on_consistent_instance():
    rng = RngStream(31, (0,))
    A = gaussian_sensing_matrix(8, 12, rng)
    X_star = row_sparse_signal(12, 2, 3, rng)
    obj = MmvObjective(A, A @ X_star)
    c = consts(0.3, 0.5, rho_plus=0.8)
    assert tolerance_mstogradmp(obj, X_star, k=3, c=c) <= 1e-12


def test_tolerance_single_nonzero_row_gradient():
    # one measurement row with a one-hot sensing row: the component
    # gradient has a single nonzero row, so the inner max is its norm
    A = np.zeros((1, 4))
    A[0, 2] = 1.0
    Y = np.array([[1.0, -2.0]])
    obj = MmvObjective(A, Y)
    X = np.zeros((4, 2))
    c = consts(1.0, 1.0)
    got = tolerance_mstogradmp(obj, X, k=1, c=c)
    # sigma = (1+1)/1 * (2*sqrt(1)+3) * ||row|| = 10 * ||(−1, 2)||
    assert got == pytest.approx(10 * math.sqrt(5.0), rel=1e-12)
    with pytest.raises(ValueError, match="k must be"):
        tolerance_mstogradmp(obj, X, k=0, c=c)


def test_tolerance_matches_exhaustive_enumeration():
    rng = RngStream(33, (0,))
    A = gaussian_sensing_matrix(5, 9, rng)
    X_star = row_sparse_signal(9, 2, 2, rng)
    Y = A @ X_star + 0.1 * rng.standard_normal((5, 2))
    obj = MmvObjective(A, Y)
    c = consts(0.3, 0.5, rho_plus=0.8)
    k = 1
    got = tolerance_mstogradmp(obj, X_star, k=k, c=c)
    inner = brute_force_tolerance_inner_max(obj, X_star, 4 * k)
    # assemble the full formula independently (uniform probabilities, eta2 = 1)
    want = (1 + 1) / (c.rho_minus * 1.0) * (2 * 1.0 * math.sqrt(c.alpha / c.rho_minus) + 3.0) * inner
    assert got == pytest.approx(want, rel=1e-10)


def test_rip_orthonormal_columns_is_zero():
    Q, _ = np.linalg.qr(RngStream(35, (0,)).standard_normal((8, 4)))
    est = rip_constant(Q, 3)
    assert est.exhaustive
    assert est.delta <= 1e-12


def test_rip_diagonal_example():
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    est = rip_constant(A, 1)
    assert est.delta == pytest.approx(3.0, rel=1e-14)
    assert est.supports_checked == 2


def test_rip_nondecreasing_in_k():
    A = gaussian_sensing_matrix(10, 8, RngStream(37, (0,)))
    deltas = [rip_constant(A, k).delta for k in (1, 2, 3, 4)]
    assert all(b >= a - 1e-14 for a, b in zip(deltas, deltas[1:]))


def test_rip_sampled_covering_all_supports_matches_exhaustive():
    A = gaussian_sensing_matrix(10, 10, RngStream(39, (0,)))
    exact = rip_constant(A, 2)
    # 2000 draws over the 45 supports covers all of them w.h.p.
    sampled = rip_constant(A, 2, mode="sampled", samples=2000, rng=RngStream(1, (0,)))
    assert not sampled.exhaustive
    assert sampled.delta == pytest.approx(exact.delta, rel=1e-14)


def test_rip_sampled_is_a_lower_bound():
    A = gaussian_sensing_matrix(12, 14, RngStream(41, (0,)))
    exact = rip_constant(A, 2)
    sampled = rip_constant(A, 2, mode="sampled", samples=25, rng=RngStream(2, (0,)))
    assert sampled.delta <= exact.delta + 1e-14


def test_rip_exhaustive_cap():
    # C(40, 10) = 847660528 supports, past the 10^6 cap: refused before
    # the scan, which would take hours
    A = np.ones((3, 40))
    with pytest.raises(RegimeError, match="847660528 supports.*sampled"):
        rip_constant(A, 10)


def test_rip_k_range():
    with pytest.raises(ValueError):
        rip_constant(np.eye(3), 0)
    with pytest.raises(ValueError):
        rip_constant(np.eye(3), 4)
    with pytest.raises(ValueError, match="unknown mode"):
        rip_constant(np.eye(3), 1, mode="greedy")


def _count_calls(value):
    # every count the analysis functions take, each set to value
    c = consts(0.3, 0.5, rho_plus=0.8)
    rng = RngStream(51, (0,))
    A = gaussian_sensing_matrix(6, 5, rng)
    obj = MmvObjective(A, rng.standard_normal((6, 2)))
    X = np.zeros((5, 2))
    return {
        "M": [lambda: contraction_mstogradmp(c, p_max=0.5, M=value),
              lambda: contraction_cstogradmp(c, p_max=0.5, M=value)],
        "k": [lambda: rip_constant(A, value),
              lambda: verify_rsc_rss(obj, k=value, pairs=3),
              lambda: tolerance_mstogradmp(obj, X, k=value, c=c)],
        "samples": [lambda: rip_constant(A, 2, mode="sampled", samples=value)],
        "pairs": [lambda: verify_rsc_rss(obj, k=2, pairs=value)],
    }


@pytest.mark.parametrize("value", [11.9, 2.0, True, False])
def test_counts_must_be_integers(value):
    # a float is not truncated, nor a bool taken as 0 or 1
    for name, calls in _count_calls(value).items():
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                call()


def test_counts_take_numpy_integers():
    plain, numpy_ = _count_calls(2), _count_calls(np.int64(2))
    for name in plain:
        for call, same in zip(plain[name], numpy_[name]):
            assert same() == call()


def test_quadratic_convexity_gap_identity():
    # for the least-squares objective the convexity gap equals
    # (1/2m) ||A (X' - X)||_F^2 exactly
    rng = RngStream(43, (0,))
    A = gaussian_sensing_matrix(7, 10, rng)
    obj = MmvObjective(A, rng.standard_normal((7, 2)))
    for _ in range(10):
        X = rng.standard_normal((10, 2))
        Xp = rng.standard_normal((10, 2))
        gap = obj.value(Xp) - obj.value(X) - float(np.vdot(obj.full_grad(X), Xp - X))
        want = np.linalg.norm(A @ (Xp - X)) ** 2 / (2 * obj.m)
        assert gap == pytest.approx(want, rel=1e-10)


def test_verify_rsc_rss_no_violations():
    rng = RngStream(45, (0,))
    A = gaussian_sensing_matrix(8, 12, rng)
    obj = MmvObjective(A, rng.standard_normal((8, 3)))
    report = verify_rsc_rss(obj, k=3, pairs=300, rng=RngStream(46, (0,)))
    assert report.ok
    with pytest.raises(ValueError, match="pairs"):
        verify_rsc_rss(obj, k=3, pairs=0)
    assert report.convexity_violations == 0
    assert report.smoothness_violations == 0
    # the certified constants must not beat the observed extremes
    assert report.rho_minus_observed >= report.rho_minus * (1 - 1e-9)
    assert report.rho_plus_observed <= report.rho_plus * (1 + 1e-9)


def test_verify_rsc_rss_orthonormal_case():
    Q, _ = np.linalg.qr(RngStream(47, (0,)).standard_normal((10, 6)))
    obj = MmvObjective(Q, RngStream(48, (0,)).standard_normal((10, 2)))
    report = verify_rsc_rss(obj, k=2, pairs=200, rng=RngStream(49, (0,)))
    assert report.delta <= 1e-10
    assert report.ok
    # quadratic gap for orthonormal columns: exactly (1/2m) ||diff||^2,
    # twice the certified rho_minus = 1/(2m)
    assert report.rho_minus_observed == pytest.approx(1.0 / obj.m, rel=1e-9)
