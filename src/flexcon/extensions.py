"""Generalizations of the core model: truncated-normal variation degrees,
truncated-normal realized demand, and a continuum of mean usages served by a
finite option menu, together with the randomized studies that measure how
much of the achievable gain each approximate design retains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost, profit
from ._integrate import bisect_root, golden_section_min
from .design import HIGH_PENALTY_FACTOR, DesignOutput, approx_delta, approx_menu, verify_ic
from .model import (
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
    VariationModel,
)

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def tn_cdf(x: float, mu: float, sigma: float) -> float:
    """CDF of a normal(mu, sigma^2) truncated to [0, 1], clipped outside."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lo = math.erf(-mu / (_SQRT2 * sigma))
    hi = math.erf((1.0 - mu) / (_SQRT2 * sigma))
    return (math.erf((x - mu) / (_SQRT2 * sigma)) - lo) / (hi - lo)


# ----------------------------------------------------------------------------
# truncated-normal variation degree
# ----------------------------------------------------------------------------


def tn_variation_profit_high(
    i: int,
    option: ContractOption,
    params: MarketParams,
    dist: TypeDistribution,
    mu: float,
    sigma: float,
) -> float:
    """Per-type high-penalty profit when the variation degree is truncated normal.

    Same structure as the uniform case with the subscription probability taken
    from the truncated-normal CDF at the (unchanged) participation threshold.
    """
    variation = VariationModel.truncated_normal(mu, sigma)
    return profit.profit_high(i, option, params, dist, variation).expected_profit


def _tn_delta_objective(m: float, m_max: float, mu: float, sigma: float):
    shift = 2.0 * m_max / m

    def objective(delta: float) -> float:
        return (1.0 + delta - shift) * tn_cdf(delta, mu, sigma)

    return objective


def tn_variation_menu(
    params: MarketParams, dist: TypeDistribution, mu: float, sigma: float, epsilon: float = 0.0
) -> ContractMenu:
    """Menu for truncated-normal variation at price p0 - epsilon.

    Each band width minimizes the expected-capacity objective by a bracketed
    one-dimensional search.
    """
    p_bar = HIGH_PENALTY_FACTOR * params.k
    opts = []
    for m in dist.means:
        delta, _ = golden_section_min(_tn_delta_objective(m, dist.m_max, mu, sigma), 0.0, 1.0)
        opts.append(ContractOption(params.p0 - epsilon, delta, p_bar, m))
    return ContractMenu(tuple(opts))


def tn_variation_approx_contract(
    params: MarketParams,
    dist: TypeDistribution,
    mu: float,
    sigma: float,
    epsilon: float = 0.0,
) -> DesignOutput:
    """Approximate menu for truncated-normal variation (tn_variation_menu).

    Prices sit at the baseline, or epsilon below it for the
    adverse-tie-breaking variant.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    variation = VariationModel.truncated_normal(mu, sigma)
    menu = tn_variation_menu(params, dist, mu, sigma, epsilon)
    mode = BehaviorMode.pessimistic(params) if epsilon > 0.0 else BehaviorMode.optimistic(params)
    value, caps = profit.evaluate_menu(menu, params, dist, mode, variation)
    top = tn_variation_super_optimal_profit(params, dist, mu, sigma)
    report = profit.evaluation_report(value, caps, params, dist, mode, top)
    ok, _ = verify_ic(menu, params, dist)
    return DesignOutput(menu, epsilon, ok, report)


def tn_variation_super_optimal_profit(
    params: MarketParams, dist: TypeDistribution, mu: float, sigma: float
) -> float:
    """Incentive-unconstrained optimum under truncated-normal variation.

    For a fixed threshold the inner band-width optimum matches the uniform
    case; the remaining one-dimensional threshold problem has no closed form
    and is solved by bracketed search per type.
    """
    if params.k <= params.c_hat:
        raise ValueError("super-optimal contract requires k > c_hat")
    k, ch = params.k, params.c_hat
    variation = VariationModel.truncated_normal(mu, sigma)
    total = 0.0
    for m, h in zip(dist.means, dist.probs):
        base = m * params.p0 - params.c0 * m - 2.0 * dist.m_max * ch

        def neg_gain(d_th: float) -> float:
            if d_th <= 0.0:
                return 0.0
            bracket = (2.0 * dist.m_max - m) - d_th * m * (k - ch) / k
            return -variation.cdf(d_th) * ch * bracket

        _, worst = golden_section_min(neg_gain, 0.0, 1.0)
        total += params.N * h * (base - worst)
    return total


# ----------------------------------------------------------------------------
# truncated-normal realized demand
# ----------------------------------------------------------------------------


def tn_demand_expected_cost(
    m: float, delta_cust: float, option: ContractOption, k: float, sigma: float
) -> float:
    """Expected own-option cost when demand is normal(m, sigma^2) truncated to
    the variation range [m(1-D), m(1+D)], in the high-penalty regime."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if option.p_bar <= k:
        raise ValueError("truncated-normal demand cost covers the high-penalty regime only")
    cost._check_delta(delta_cust)
    d = option.delta
    if delta_cust <= d:
        return m * option.p
    a = m * d / sigma
    b = m * delta_cust / sigma
    erf_a = math.erf(a / _SQRT2)
    erf_b = math.erf(b / _SQRT2)
    return (
        (2.0 * m * option.p - k * m * d) * (erf_b - erf_a) / 2.0
        + (k * sigma / _SQRT2PI) * (math.exp(-0.5 * a * a) - math.exp(-0.5 * b * b))
        + m * option.p * erf_a
    ) / erf_b


def tn_demand_threshold(option: ContractOption, params: MarketParams, sigma: float) -> float:
    """Participation threshold under truncated-normal demand.

    The unique variation degree at which the option's expected cost meets the
    baseline cost, found by bracketed bisection; 1 when the option stays
    cheaper across the whole range.
    """
    m = option.center
    if option.p >= params.p0:
        return option.delta

    def gap(d: float) -> float:
        return tn_demand_expected_cost(m, d, option, params.k, sigma) - m * params.p0

    if gap(1.0) < 0.0:
        return 1.0
    return bisect_root(gap, option.delta, 1.0, tol=1e-10)


def tn_demand_approx_contract(params: MarketParams, dist: TypeDistribution) -> DesignOutput:
    """Approximate menu under truncated-normal demand.

    The per-type profit shares its structure with the uniform-demand case, so
    the optimal restricted menu is the same closed form and is independent of
    the demand spread.
    """
    from .design import approx_contract

    return approx_contract(params, dist)


def tn_demand_profit_high(
    i: int,
    option: ContractOption,
    params: MarketParams,
    dist: TypeDistribution,
    sigma: float,
) -> float:
    """Per-type high-penalty profit with the threshold solved from the
    truncated-normal demand cost (variation degree stays uniform)."""
    if cost.regime(option, params.k) != cost.HIGH_PENALTY:
        raise ValueError("high-penalty option required")
    m, h = dist.means[i], dist.probs[i]
    d_th = tn_demand_threshold(option, params, sigma)
    revenue = m * option.p * d_th + m * params.p0 * (1.0 - d_th)
    capacity = option.band_hi * d_th + 2.0 * dist.m_max * (1.0 - d_th)
    return params.N * h * (revenue - params.c0 * m - params.c_hat * capacity)


def _tn_demand_shed_fraction(m: float, delta: float, d_th: float, sigma: float) -> float:
    """Expected shed amount per unit elasticity price for band width delta."""
    a = m * delta / sigma
    b = m * d_th / sigma
    erf_b = math.erf(b / _SQRT2)
    q = (erf_b - math.erf(a / _SQRT2)) / 2.0
    phi = (math.exp(-0.5 * a * a) - math.exp(-0.5 * b * b)) / _SQRT2PI
    return (-m * delta * q + sigma * phi) / erf_b


def tn_demand_super_optimal_profit(
    params: MarketParams, dist: TypeDistribution, sigma: float
) -> float:
    """Incentive-unconstrained optimum under truncated-normal demand.

    For each threshold the optimal band width equates the over-band tail mass
    with the capacity-to-elasticity price ratio (closed form via the inverse
    error function); the outer threshold search is one-dimensional.
    """
    from scipy.special import erfinv

    k, ch = params.k, params.c_hat
    total = 0.0
    for m, h in zip(dist.means, dist.probs):
        base = m * params.p0 - params.c0 * m - 2.0 * dist.m_max * ch

        def neg_gain(d_th: float) -> float:
            if d_th <= 1e-12:
                return 0.0
            b = m * d_th / sigma
            erf_b = math.erf(b / _SQRT2)
            a = _SQRT2 * erfinv(erf_b * (1.0 - 2.0 * ch / k))
            delta = min(d_th, sigma * a / m)
            shed = _tn_demand_shed_fraction(m, delta, d_th, sigma)
            bracket = -k * shed - ch * m * (1.0 + delta) + 2.0 * dist.m_max * ch
            return -d_th * bracket

        _, worst = golden_section_min(neg_gain, 0.0, 1.0)
        total += params.N * h * (base - worst)
    return total


# ----------------------------------------------------------------------------
# continuous mean usage
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousMeanConfig:
    """Uniform mean usage on [0, b] served by n equal buckets of one option each."""

    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError("b must be positive and finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def centers(self) -> tuple[float, ...]:
        return tuple((2 * i - 1) * self.b / (2 * self.n) for i in range(1, self.n + 1))


def continuous_mean_menu(cfg: ContinuousMeanConfig, params: MarketParams) -> ContractMenu:
    """Menu for a continuum of mean usages: one option per bucket midpoint,
    band widths from the discrete approximate rule against the top midpoint."""
    centers = cfg.centers
    p_bar = HIGH_PENALTY_FACTOR * params.k
    return ContractMenu(
        tuple(ContractOption(params.p0, approx_delta(m, centers[-1]), p_bar, m) for m in centers)
    )


def continuous_mean_profits(
    cfg: ContinuousMeanConfig, params: MarketParams
) -> tuple[float, float, float]:
    """Baseline, menu, and perfect-information profits for the continuum model.

    The menu profit for n >= 2 follows the capacity-savings sum with
    logarithmic bucket weights; for n = 1 it is recovered from the gain ratio,
    which is exact there.
    """
    b, n = cfg.b, cfg.n
    scale = params.N
    p0_profit = scale * (0.5 * (params.p0 - params.c0) * b - 2.0 * params.c_hat * b)
    perfect = scale * (0.5 * (params.p0 - params.c0) * b - 0.75 * params.c_hat * b)
    if n == 1:
        menu_profit = p0_profit + continuous_gain_ratio(1) * (perfect - p0_profit)
        return p0_profit, menu_profit, perfect
    centers = cfg.centers
    m_max = centers[-1]
    split = (4 * n + 1) // 6
    acc = 0.0
    for i in range(1, split + 1):
        m = centers[i - 1]
        acc += 2.0 * m * (2.0 * b - 2.0 * m) * math.log((2 * i) / (2 * i - 1))
    for i in range(split + 1, n + 1):
        m = centers[i - 1]
        acc -= (1.5 * m - m_max) * (2.0 * b - 0.5 * m - m_max) * math.log((2 * i - 1) / (2 * i - 2))
        acc -= (0.5 * m + m_max) * (0.5 * m + m_max - 2.0 * b) * math.log((2 * i) / (2 * i - 1))
    menu_profit = p0_profit + scale * (params.c_hat / b) * acc
    return p0_profit, menu_profit, perfect


def continuous_gain_ratio(n: int) -> float:
    """Share of the perfect-information gain captured with n options; depends
    only on n.

    The wide-band buckets contribute through their upper containment edge; the
    tuned buckets through both band edges of their own option.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return 0.8 * (-(5.0 / 16.0) * math.log(2.0) + (15.0 / 16.0) * math.log(1.5))
    split = (4 * n + 1) // 6
    acc = 0.0
    for i in range(1, split + 1):
        acc += (2 * i - 1) * (2 * n - 2 * i + 1) / n**2 * math.log((2 * i) / (2 * i - 1))
    for i in range(split + 1, n + 1):
        acc -= (
            (6 * i - 4 * n - 1) * (4 * n - 2 * i + 3) / (16 * n**2)
        ) * math.log((2 * i - 1) / (2 * i - 2))
        acc -= (
            (2 * i + 4 * n - 3) * (2 * i - 4 * n - 3) / (16 * n**2)
        ) * math.log((2 * i) / (2 * i - 1))
    return 0.8 * acc


# ----------------------------------------------------------------------------
# randomized gain-ratio studies
# ----------------------------------------------------------------------------


def _sample_types(rng: np.random.Generator, n_types: int, m_lo: float = 1.0, m_hi: float = 10.0):
    means = [rng.uniform(m_lo, m_hi)]
    for _ in range(n_types - 1):
        means.append(rng.uniform(means[-1] * 1.000001, means[-1] * 10.0))
    probs = rng.dirichlet(np.ones(n_types))
    return TypeDistribution(tuple(means), tuple(probs))


def study_tn_variation_optimistic(
    trials: int, seed: int, n_types: int = 3
) -> np.ndarray:
    """Gain ratios of the truncated-normal-variation menu against its
    super-optimal benchmark over randomized instances, optimistic choices."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ratios = np.empty(trials)
    for t in range(trials):
        dist = _sample_types(rng, n_types)
        p0 = rng.uniform(1.0, 100.0)
        params = MarketParams(
            p0=p0,
            k=rng.uniform(p0 * 1.000001, 10.0 * p0),
            c0=rng.uniform(0.0, p0 * 0.999),
            c_hat=rng.uniform(1e-6 * p0, 0.5 * p0),
            N=1,
        )
        mu = rng.uniform(0.0, 1.0)
        sigma = rng.uniform(1e-3, 10.0)
        variation = VariationModel.truncated_normal(mu, sigma)
        p0_profit = profit.baseline_profit(params, dist)
        menu = tn_variation_menu(params, dist, mu, sigma)
        mode = BehaviorMode.optimistic(params)
        menu_value = profit.total_profit(menu, params, dist, mode, variation)
        top = tn_variation_super_optimal_profit(params, dist, mu, sigma)
        ratios[t] = profit.gain_share(menu_value, p0_profit, top)
    return ratios


def study_tn_variation_pessimistic(trials: int, seed: int) -> np.ndarray:
    """Gain ratios of the discounted truncated-normal-variation menu under
    adverse tie-breaking, two customer types."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ratios = np.empty(trials)
    for t in range(trials):
        m1 = rng.uniform(1.0, 10.0)
        m2 = rng.uniform(1.1 * m1, 10.0 * m1)
        h1 = rng.uniform(0.0, 1.0)
        dist = TypeDistribution((m1, m2), (h1, 1.0 - h1))
        p0 = rng.uniform(1.0, 100.0)
        params = MarketParams(
            p0=p0,
            k=rng.uniform(p0 * 1.000001, 10.0 * p0),
            c0=rng.uniform(0.0, p0 * 0.999),
            c_hat=rng.uniform(0.001 * p0, 0.5 * p0),
            N=1,
        )
        mu = rng.uniform(0.0, 1.0)
        sigma = rng.uniform(1e-3, 10.0)
        variation = VariationModel.truncated_normal(mu, sigma)
        menu = tn_variation_menu(params, dist, mu, sigma, epsilon=0.001 * p0)
        mode = BehaviorMode.pessimistic(params)
        value = profit.total_profit(menu, params, dist, mode, variation)
        p0_profit = profit.baseline_profit(params, dist)
        top = tn_variation_super_optimal_profit(params, dist, mu, sigma)
        ratios[t] = profit.gain_share(value, p0_profit, top)
    return ratios


def study_tn_demand_optimistic(trials: int, seed: int) -> np.ndarray:
    """Gain ratios of the approximate menu under truncated-normal demand
    against its sigma-dependent super-optimal benchmark, two customer types."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ratios = np.empty(trials)
    for t in range(trials):
        m1 = rng.uniform(1.0, 10.0)
        m2 = rng.uniform(m1 * 1.000001, 10.0 * m1)
        h1 = rng.uniform(0.0, 1.0)
        dist = TypeDistribution((m1, m2), (h1, 1.0 - h1))
        p0 = rng.uniform(1.0, 10.0)
        params = MarketParams(
            p0=p0,
            k=rng.uniform(p0 * 1.000001, 10.0 * p0),
            c0=rng.uniform(0.0, p0 * 0.999),
            c_hat=rng.uniform(1e-6 * p0, 0.5 * p0),
            N=1,
        )
        sigma = rng.uniform(1e-3, 10.0)
        p0_profit = profit.baseline_profit(params, dist)
        menu_value = 0.0
        for i, opt in enumerate(approx_menu(params, dist)):
            menu_value += tn_demand_profit_high(i, opt, params, dist, sigma)
        top = tn_demand_super_optimal_profit(params, dist, sigma)
        ratios[t] = profit.gain_share(menu_value, p0_profit, top)
    return ratios
