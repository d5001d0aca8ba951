"""Convergence diagnostics: contraction coefficients, restricted isometry
estimation, restricted convexity/smoothness verification, and the error
metric used by the benchmarks.

The contraction formulas are pure arithmetic in the restricted convexity
and smoothness constants of the objective.  They are only meaningful in
the parameter regimes where the underlying bounds hold, so invalid
radicands or poles raise RegimeError instead of returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .linalg import RngStream, as_matrix, draw_index, row_norms
from .objective import MmvObjective

__all__ = [
    "RegimeError",
    "ConvexityConstants",
    "contraction_mstoiht",
    "contraction_cstoiht",
    "contraction_mstogradmp",
    "contraction_cstogradmp",
    "tolerance_mstogradmp",
    "RipEstimate",
    "rip_constant",
    "RestrictedPropertyReport",
    "verify_rsc_rss",
    "relative_error",
]


class RegimeError(ValueError):
    """Parameters fall outside the regime where a bound is defined."""


@dataclass(frozen=True)
class ConvexityConstants:
    """Restricted convexity/smoothness constants of an objective.

    rho_minus is the restricted strong convexity constant of the mean
    objective, rho_plus the largest per-component restricted smoothness
    constant, rho_plus_bar their mean (defaults to rho_plus), and alpha
    the largest probability-weighted smoothness ratio.  delta and m
    optionally record the isometry constant and row count they came from.
    """

    rho_minus: float
    rho_plus: float
    alpha: float
    rho_plus_bar: float | None = None
    delta: float | None = None
    m: int | None = None

    def __post_init__(self):
        if self.rho_plus_bar is None:
            object.__setattr__(self, "rho_plus_bar", float(self.rho_plus))
        for name in ("rho_minus", "rho_plus", "rho_plus_bar", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.rho_minus > 0:
            raise ValueError("rho_minus must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.rho_minus <= self.rho_plus_bar <= self.rho_plus:
            raise ValueError(
                "constants must satisfy rho_minus <= rho_plus_bar <= rho_plus"
            )
        if self.delta is not None and not 0 <= self.delta < 1:
            raise ValueError("delta must lie in [0, 1)")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be a positive count")


def _require_eta(eta: float, name: str = "eta") -> float:
    eta = float(eta)
    if eta < 1:
        raise RegimeError(f"{name} must be >= 1, got {eta}")
    return eta


def _sqrt_or_regime(value: float, what: str) -> float:
    if value < 0:
        raise RegimeError(
            f"{what} is negative ({value:.6g}); parameters are outside the "
            "regime where the bound is defined"
        )
    return math.sqrt(value)


def contraction_mstoiht(c: ConvexityConstants, gamma: float = 1.0, eta: float = 1.0) -> float:
    """Per-iteration contraction coefficient of the joint thresholding solver.

    2*sqrt(1 - gamma*(2 - gamma*alpha)*rho_minus)
      + sqrt((eta^2 - 1)*(1 + gamma^2*alpha*rho_plus_bar - 2*gamma*rho_minus));
    at eta = gamma = 1 this reduces to 2*sqrt(1 - 2*rho_minus + alpha*rho_minus).
    """
    gamma = float(gamma)
    eta = _require_eta(eta)
    if not gamma > 0:
        raise RegimeError("gamma must be positive")
    first = 1.0 - gamma * (2.0 - gamma * c.alpha) * c.rho_minus
    second = (eta**2 - 1.0) * (
        1.0 + gamma**2 * c.alpha * c.rho_plus_bar - 2.0 * gamma * c.rho_minus
    )
    return 2.0 * _sqrt_or_regime(first, "first radicand") + _sqrt_or_regime(
        second, "second radicand"
    )


def _cstoiht_kappa_j(c: ConvexityConstants, gamma: float, eta: float) -> float:
    return 8.0 * (1.0 - (2.0 * gamma - gamma**2 * c.alpha) * c.rho_minus) + 4.0 * (
        eta**2 - 1.0
    ) * (1.0 + gamma**2 * c.alpha * c.rho_plus_bar - 2.0 * gamma * c.rho_minus)


def contraction_cstoiht(per_column, gamma: float = 1.0, eta: float = 1.0):
    """Contraction of the concatenated thresholding solver.

    Takes one ConvexityConstants per signal column and returns
    (kappa_hat, kappa_j array) where kappa_hat = sqrt(max_j kappa_j) and
    kappa_j = 8*(1 - (2*gamma - gamma^2*alpha_j)*rho_minus_j)
              + 4*(eta^2 - 1)*(1 + gamma^2*alpha_j*rho_plus_bar_j - 2*gamma*rho_minus_j).
    """
    gamma = float(gamma)
    eta = _require_eta(eta)
    if not gamma > 0:
        raise RegimeError("gamma must be positive")
    cols = list(per_column)
    if not cols:
        raise ValueError("need at least one column's constants")
    kappa_j = np.array([_cstoiht_kappa_j(c, gamma, eta) for c in cols])
    kappa_hat = _sqrt_or_regime(float(kappa_j.max()), "max per-column coefficient")
    return kappa_hat, kappa_j


def _resolve_probability_range(p_min, p_max, M):
    M = int(M)
    if M < 1:
        raise ValueError("M must be a positive count")
    if p_min is None:
        p_min = 1.0 / M
    if p_max is None:
        p_max = 1.0 / M
    p_min, p_max = float(p_min), float(p_max)
    if not 0 < p_min <= p_max <= 1:
        raise ValueError("need 0 < p_min <= p_max <= 1")
    return p_min, p_max, M


def contraction_mstogradmp(
    c: ConvexityConstants,
    eta1: float = 1.0,
    eta2: float = 1.0,
    p_max: float | None = None,
    M: int = 1,
) -> float:
    """Contraction of the joint matching-pursuit solver.

    (1 + eta2) * sqrt(alpha/rho_minus) *
      ( sqrt(M*p_max) * sqrt(rho_plus*(2*eta1^2 - 1)/(rho_minus*eta2^2) - 1)
        + sqrt(eta1^2 - 1)/eta1 );
    at eta1 = eta2 = 1 with uniform probabilities this reduces to
    2*sqrt(alpha*(rho_plus - rho_minus))/rho_minus.
    """
    eta1 = _require_eta(eta1, "eta1")
    eta2 = _require_eta(eta2, "eta2")
    _, p_max, M = _resolve_probability_range(None, p_max, M)
    inner = c.rho_plus * (2.0 * eta1**2 - 1.0) / (c.rho_minus * eta2**2) - 1.0
    return (
        (1.0 + eta2)
        * math.sqrt(c.alpha / c.rho_minus)
        * (
            math.sqrt(M * p_max) * _sqrt_or_regime(inner, "matched-support radicand")
            + math.sqrt(eta1**2 - 1.0) / eta1
        )
    )


class CStoGradMpContraction(NamedTuple):
    kappa: float
    beta1: float
    beta2: float
    kappa_j: float


def contraction_cstogradmp(
    c: ConvexityConstants,
    eta1: float = 1.0,
    eta2: float = 1.0,
    p_max: float | None = None,
    M: int = 1,
) -> CStoGradMpContraction:
    """Contraction of the concatenated matching-pursuit solver.

    beta1 = alpha/(2*rho_minus - alpha) (requires 2*rho_minus > alpha),
    beta2 = 4*M*p_max*((2*eta1^2 - 1)*rho_plus - eta1^2*rho_minus)/(eta1^2*rho_minus)
            + 2*(eta1^2 - 1)/eta1^2,
    kappa_j = (2 + 2*eta2^2)*beta1*beta2, and kappa = sqrt(kappa_j).
    """
    eta1 = _require_eta(eta1, "eta1")
    eta2 = _require_eta(eta2, "eta2")
    _, p_max, M = _resolve_probability_range(None, p_max, M)
    gap = 2.0 * c.rho_minus - c.alpha
    if gap <= 0:
        raise RegimeError(
            f"need 2*rho_minus > alpha, got rho_minus={c.rho_minus}, alpha={c.alpha}"
        )
    beta1 = c.alpha / gap
    beta2 = 4.0 * M * p_max * (
        (2.0 * eta1**2 - 1.0) * c.rho_plus - eta1**2 * c.rho_minus
    ) / (eta1**2 * c.rho_minus) + 2.0 * (eta1**2 - 1.0) / eta1**2
    kappa_j = (2.0 + 2.0 * eta2**2) * beta1 * beta2
    kappa = _sqrt_or_regime(kappa_j, "per-column coefficient")
    return CStoGradMpContraction(kappa=kappa, beta1=beta1, beta2=beta2, kappa_j=kappa_j)


def tolerance_mstogradmp(
    obj: MmvObjective,
    X_star,
    k: int,
    c: ConvexityConstants,
    eta2: float = 1.0,
    p_min: float | None = None,
    p_max: float | None = None,
) -> float:
    """Noise-floor term of the matching-pursuit error bound at X_star.

    The inner maximum over row supports of size at most 4k is computed
    exactly as the square root of the sum of the 4k largest squared row
    norms of each component gradient at X_star, maximized over components.
    Vanishes on noise-free consistent instances.
    """
    eta2 = _require_eta(eta2, "eta2")
    p_min, p_max, M = _resolve_probability_range(p_min, p_max, obj.component_count)
    X_star = as_matrix(X_star, "X_star")
    if k < 1:
        raise ValueError("k must be >= 1")
    order = min(4 * k, obj.n)
    inner_max = 0.0
    for i in range(M):
        G = obj.batch_grad([i], X_star)
        sq = np.sort(row_norms(G) ** 2)[::-1]
        inner_max = max(inner_max, math.sqrt(float(sq[:order].sum())))
    factor = (1.0 + eta2) / (c.rho_minus * (M * p_min))
    bracket = 2.0 * (M * p_max) * math.sqrt(c.alpha / c.rho_minus) + 3.0
    return factor * bracket * inner_max


@dataclass(frozen=True)
class RipEstimate:
    """Estimated restricted isometry constant of a sensing matrix.

    exhaustive=False means the value is only a lower bound obtained from
    sampled supports.
    """

    delta: float
    k: int
    exhaustive: bool
    supports_checked: int


def _support_deviation(A, support) -> float:
    G = A[:, support].T @ A[:, support]
    w = np.linalg.eigvalsh(G)
    return max(float(w[-1]) - 1.0, 1.0 - float(w[0]))


def rip_constant(
    A,
    k: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    rng: RngStream | None = None,
    max_supports: int = 1_000_000,
) -> RipEstimate:
    """Largest deviation of A's k-column Gram blocks from the identity.

    Exhaustive mode enumerates every support of size k and is exact but
    refuses to run past max_supports candidate supports; sampled mode
    draws random supports and returns a lower bound flagged as such.
    """
    A = as_matrix(A, "A")
    n = A.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    if mode == "exhaustive":
        total = math.comb(n, k)
        if total > max_supports:
            raise RegimeError(
                f"exhaustive mode would scan {total} supports (cap {max_supports}); "
                "use sampled mode"
            )
        delta = 0.0
        for support in combinations(range(n), k):
            delta = max(delta, _support_deviation(A, list(support)))
        return RipEstimate(delta=delta, k=k, exhaustive=True, supports_checked=total)
    if mode == "sampled":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if rng is None:
            rng = RngStream(0, (0,))
        delta = 0.0
        for _ in range(samples):
            support = np.sort(rng.choice_without_replacement(n, k))
            delta = max(delta, _support_deviation(A, support))
        return RipEstimate(delta=delta, k=k, exhaustive=False, supports_checked=samples)
    raise ValueError(f"unknown mode {mode!r}, expected 'exhaustive' or 'sampled'")


@dataclass
class RestrictedPropertyReport:
    """Outcome of sampling-based restricted convexity/smoothness checks."""

    k: int
    delta: float
    rho_minus: float
    rho_plus: float
    pairs_checked: int
    convexity_violations: int
    smoothness_violations: int
    rho_minus_observed: float
    rho_plus_observed: float

    @property
    def ok(self) -> bool:
        return self.convexity_violations == 0 and self.smoothness_violations == 0


def verify_rsc_rss(
    obj: MmvObjective,
    k: int,
    pairs: int = 1000,
    rng: RngStream | None = None,
) -> RestrictedPropertyReport:
    """Check restricted strong convexity and smoothness on random pairs.

    The isometry constant is computed exhaustively, the mean objective is
    checked against rho_minus = (1 - delta)/(2m) and every sampled
    component against rho_plus = 1 + delta, on pairs of iterates with a
    common random support of size k.  Violations are reported, not raised.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    if rng is None:
        rng = RngStream(0, (0,))
    delta = rip_constant(obj.A, k).delta
    rho_minus = (1.0 - delta) / (2.0 * obj.m)
    rho_plus = 1.0 + delta

    # small relative slack so exact-arithmetic inequalities survive rounding
    slack = 1e-9
    convexity_violations = 0
    smoothness_violations = 0
    rho_minus_observed = math.inf
    rho_plus_observed = 0.0
    p_uniform = np.full(obj.component_count, 1.0 / obj.component_count)

    for _ in range(pairs):
        support = np.sort(rng.choice_without_replacement(obj.n, k))
        X = np.zeros((obj.n, obj.L))
        Xp = np.zeros((obj.n, obj.L))
        X[support] = rng.standard_normal((k, obj.L))
        Xp[support] = rng.standard_normal((k, obj.L))
        diff = Xp - X
        diff_sq = float(np.vdot(diff, diff))
        if diff_sq == 0.0:
            continue

        gap = obj.value(Xp) - obj.value(X) - float(np.vdot(obj.full_grad(X), diff))
        if gap < 0.5 * rho_minus * diff_sq * (1.0 - slack) - 1e-300:
            convexity_violations += 1
        rho_minus_observed = min(rho_minus_observed, 2.0 * gap / diff_sq)

        i = draw_index(p_uniform, rng)
        grad_gap = float(
            np.linalg.norm(obj.batch_grad([i], X) - obj.batch_grad([i], Xp))
        )
        diff_norm = math.sqrt(diff_sq)
        if grad_gap > rho_plus * diff_norm * (1.0 + slack):
            smoothness_violations += 1
        rho_plus_observed = max(rho_plus_observed, grad_gap / diff_norm)

    return RestrictedPropertyReport(
        k=k,
        delta=delta,
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        pairs_checked=pairs,
        convexity_violations=convexity_violations,
        smoothness_violations=smoothness_violations,
        rho_minus_observed=rho_minus_observed,
        rho_plus_observed=rho_plus_observed,
    )


def relative_error(X, X_star) -> float:
    """||X - X_star||_F / ||X_star||_F."""
    X = as_matrix(X, "X")
    X_star = as_matrix(X_star, "X_star")
    if X.shape != X_star.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {X_star.shape}")
    denom = float(np.linalg.norm(X_star))
    if denom == 0.0:
        raise ValueError("X_star must be nonzero")
    return float(np.linalg.norm(X - X_star)) / denom
