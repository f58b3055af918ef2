"""Supplier-side analytics: baseline profit, per-type contract profits in both
penalty regimes, pessimistic worst-case capacities, menu profits and
capacities under each behavior mode (one evaluator, evaluate_menu), and gain
ratios against the super-optimal benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost
from ._integrate import ConvergenceError, bisect_root
from ._kernels import (cross_cost_case, cross_cost_table, own_cost_piece, own_cost_table,
                       quadratic_roots)
from .model import (
    BASELINE,
    OPTIMISTIC,
    UNIFORM,
    BehaviorMode,
    ContractMenu,
    ContractOption,
    EvaluationReport,
    MarketParams,
    PerCustomerAccount,
    TypeDistribution,
    VariationModel,
)


@dataclass(frozen=True)
class PerTypeProfit:
    type_index: int
    regime: str
    expected_profit: float
    capacity: float


def baseline_profit(params: MarketParams, dist: TypeDistribution) -> float:
    """Supplier profit under flat pricing: full revenue, worst-case capacity."""
    revenue = sum(params.N * h * m * params.p0 for m, h in zip(dist.means, dist.probs))
    energy = sum(params.N * h * params.c0 * m for m, h in zip(dist.means, dist.probs))
    capacity = 2.0 * params.N * dist.m_max * params.c_hat
    return revenue - capacity - energy


def option_capacity(option: ContractOption, params: MarketParams) -> float:
    """Capacity provisioned per subscriber of an option.

    High penalty: subscribers never exceed the band, so the band top suffices.
    Low penalty: subscribers may consume up to center*(1 + threshold).
    """
    if cost.regime(option, params.k) == cost.HIGH_PENALTY:
        return option.band_hi
    return option.center * (1.0 + cost.threshold(option, params))


def profit_high(
    i: int,
    option: ContractOption,
    params: MarketParams,
    dist: TypeDistribution,
    variation: VariationModel = VariationModel.uniform(),
) -> PerTypeProfit:
    """Expected profit from type i when its option carries a high penalty.

    Subscribers (variation below threshold, probability F) pay the discounted
    price and need band-top capacity; the rest stay on baseline terms.
    """
    if cost.regime(option, params.k) != cost.HIGH_PENALTY:
        raise ValueError("profit_high requires a high-penalty option (p_bar > k)")
    m, h = dist.means[i], dist.probs[i]
    f_sub = variation.cdf(cost.threshold(option, params))
    capacity = option.band_hi * f_sub + 2.0 * dist.m_max * (1.0 - f_sub)
    revenue = m * option.p * f_sub + m * params.p0 * (1.0 - f_sub)
    value = params.N * h * (revenue - params.c0 * m - params.c_hat * capacity)
    return PerTypeProfit(i, cost.HIGH_PENALTY, value, capacity)


def profit_low(
    i: int,
    option: ContractOption,
    params: MarketParams,
    dist: TypeDistribution,
) -> PerTypeProfit:
    """Expected profit from type i when its option carries a low penalty.

    Subscribers above the band width keep their overage and pay the penalty,
    so revenue gains a penalty integral, capacity is sized to the threshold,
    and generated energy exceeds the mean. Uniform variation only.
    """
    if cost.regime(option, params.k) != cost.LOW_PENALTY:
        raise ValueError("profit_low requires a low-penalty option (p_bar <= k)")
    m, h = dist.means[i], dist.probs[i]
    d = option.delta
    d_th = cost.threshold(option, params)

    # log term has a finite 0 limit as the band width vanishes
    log_term = 0.0 if d == 0.0 or d_th == d else (d * d / 4.0) * math.log(d_th / d)

    penalty_rev = (option.p_bar / 4.0) * (
        (d_th * d_th - d * d) / 2.0 - 2.0 * d * (d_th - d) + 4.0 * log_term
    )
    revenue = m * (option.p * d_th + penalty_rev) + m * params.p0 * (1.0 - d_th)
    capacity = m * (1.0 + d_th) * d_th + 2.0 * dist.m_max * (1.0 - d_th)
    energy_cost = m * params.c0 * (
        d
        + 1.0
        - d_th
        + (d_th * d_th - d * d) / 8.0
        + log_term
        + (1.0 - d / 2.0) * (d_th - d)
    )
    value = params.N * h * (revenue - params.c_hat * capacity - energy_cost)
    return PerTypeProfit(i, cost.LOW_PENALTY, value, capacity)


def per_customer_profit(
    m_i: float, choice: int, menu: ContractMenu, params: MarketParams
) -> float:
    """Supplier profit from one customer given its choice.

    For option choices this is the tie-situation form (whole demand range
    inside the chosen band): revenue m_i * p_j, capacity at the band top.
    """
    return cost._supplier_profit_for_choice(m_i, choice, menu, params)


def full_subscription_profit(
    menu: ContractMenu, params: MarketParams, dist: TypeDistribution
) -> float:
    """Profit when every customer commits to its dedicated option.

    This is the zero-variation scenario: each type pays its discounted price
    and needs only band-top capacity.
    """
    total = 0.0
    for m, h, opt in zip(dist.means, dist.probs, menu):
        total += params.N * h * (m * opt.p - params.c0 * m - params.c_hat * opt.band_hi)
    return total


def menu_prices_equal(menu: ContractMenu, tol: float = 0.0) -> bool:
    ps = [opt.p for opt in menu]
    return max(ps) - min(ps) <= tol


def pessimistic_capacity(
    i: int,
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    variation: VariationModel = VariationModel.uniform(),
    threshold_override: float | None = None,
) -> float:
    """Expected provisioned capacity for one type-i customer under worst-case ties.

    Valid for equal-price, high-penalty menus: on low variation the customer
    ties across every option whose band contains its whole demand range and is
    charged to the largest such band top; between the band width and the
    participation threshold it holds its own option; above that, baseline.
    """
    m = dist.means[i]
    opt_i = menu[i]
    d = opt_i.delta
    d_th = threshold_override if threshold_override is not None else cost.threshold(opt_i, params)

    expected = 2.0 * dist.m_max * (1.0 - variation.cdf(d_th))
    expected += opt_i.band_hi * (variation.cdf(d_th) - variation.cdf(d))

    # tie region: sweep containment bounds from below, worst band top first
    pts = []
    for opt in menu:
        bound = d if opt.center == m else cost._containment_delta_two_sided(m, opt)
        bound = min(bound, d)
        if bound > 0.0:
            pts.append((bound, opt.band_hi))
    lo = 0.0
    for v in sorted({b for b, _ in pts}):
        worst = max(cap for b, cap in pts if b >= v)
        expected += worst * (variation.cdf(v) - variation.cdf(lo))
        lo = v
    return expected


def _pessimistic_analytic(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    variation: VariationModel,
) -> tuple[float, list[float]]:
    total = 0.0
    caps = []
    for i, (m, h) in enumerate(zip(dist.means, dist.probs)):
        d_th = cost.threshold(menu[i], params)
        cap = pessimistic_capacity(i, menu, params, dist, variation, threshold_override=d_th)
        f_sub = variation.cdf(d_th)
        revenue = m * (menu[i].p * f_sub + params.p0 * (1.0 - f_sub))
        total += params.N * h * (revenue - params.c0 * m - params.c_hat * cap)
        caps.append(cap)
    return total, caps


def pessimistic_profit_limit(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    variation: VariationModel = VariationModel.uniform(),
) -> float:
    """Worst-case profit of an equal-price menu in the vanishing-discount limit.

    Prices tend to the baseline from below: thresholds collapse to the band
    widths, every subscriber pays m * p0, and ties stay among contract options
    (an infinitesimal discount keeps the baseline strictly dearer).
    """
    overrides = [opt.delta for opt in menu]
    total = 0.0
    for i, (m, h) in enumerate(zip(dist.means, dist.probs)):
        cap = pessimistic_capacity(
            i, menu, params, dist, variation, threshold_override=overrides[i]
        )
        total += params.N * h * (m * params.p0 - params.c0 * m - params.c_hat * cap)
    return total


# ----------------------------------------------------------------------------
# per-variation integration over choice spans (menus outside the equal-price
# high-penalty shape). smooth_choice_spans cuts exactly: at every band and case
# boundary and at every crossing of two choices' cost curves, so the choice is
# fixed on each span and its profit is exactly A*d + B/d + C there; under
# uniform variation the three-node _span_rule integrates it exactly.
# Truncated-normal weights use adaptive Gauss.
# ----------------------------------------------------------------------------


def account_for_choice(
    m: float, delta_cust: float, choice: int, menu: ContractMenu, params: MarketParams
) -> PerCustomerAccount:
    """Expected payment, adjusted energy, and provisioned capacity for one customer."""
    if choice == BASELINE:
        return PerCustomerAccount(m * params.p0, m, 2.0 * max(o.center for o in menu))
    opt = menu[choice]
    pay, en = cost.expected_payment_energy(m, delta_cust, opt, params.k)
    return PerCustomerAccount(pay, en, option_capacity(opt, params))


def profit_for_choice(
    m: float, delta_cust: float, choice: int, menu: ContractMenu, params: MarketParams
) -> float:
    """Supplier profit from one customer with the choice held fixed."""
    return _account_profit(account_for_choice(m, delta_cust, choice, menu, params), params)


def _account_profit(acct: PerCustomerAccount, params: MarketParams) -> float:
    return acct.revenue - params.c0 * acct.energy - params.c_hat * acct.capacity


def smooth_choice_spans(
    m: float, menu: ContractMenu, params: MarketParams, mode: BehaviorMode
) -> list[tuple[float, float]]:
    """Split [0, 1] into spans on which a type-m customer's choice is constant.

    The span ends are the demand-range/band case boundaries, where a cost or
    profit curve changes formula, and the choice switches. Between boundaries
    each choice costs A*d + B/d + C (the _kernels tables; m*p0 for the
    baseline), so a switch lies on a root of a pairwise difference
    dA*d**2 + dC*d + dB. Each interval is cut at those roots, bar double roots
    (a discriminant zero up to rounding: the curves touch), choose_option picks
    once per piece, and equal neighbours merge inside an interval only.
    """
    center, delta, p_bar, p = np.array([(o.center, o.delta, o.p_bar, o.p) for o in menu]).T
    lo_b, hi_b = center * (1.0 - delta) / m, center * (1.0 + delta) / m
    cand = [[0.0, 1.0], 1.0 - lo_b, lo_b - 1.0, hi_b - 1.0, 1.0 - hi_b, delta[center == m]]
    ends = np.unique(np.clip(np.concatenate(cand), 0.0, 1.0))
    mid = 0.5 * (ends[:-1] + ends[1:])[:, None]
    col = np.arange(len(menu))
    own = own_cost_table(m, p, delta, p_bar, params.k)[col, own_cost_piece(mid, delta)]
    cross = cross_cost_table(m, p, delta, p_bar, center, params.k)
    cross = cross[col, cross_cost_case(mid, m, delta, center)]
    base = np.broadcast_to([0.0, 0.0, m * params.p0], (len(mid), 1, 3))
    coef = np.concatenate([base, np.where((center == m)[:, None], own, cross)], axis=1)
    u, v = np.triu_indices(len(menu) + 1, 1)
    da, db, dc = np.moveaxis(coef[:, u] - coef[:, v], -1, 0)
    sa, sb, sc = np.moveaxis(abs(coef[:, u]) + abs(coef[:, v]), -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r0, r1, disc = quadratic_roots(da, dc, db)
    # a disc within 32 times its first-order rounding error is zero: a double root
    slack = 64.0 * np.finfo(float).eps * (abs(dc) * sc + 2.0 * (abs(da) * sb + abs(db) * sa))
    roots = np.where((disc <= slack)[..., None], np.nan, np.stack([r0, r1], axis=-1))

    spans: list[tuple[float, float]] = []
    for lo, hi, r in zip(ends[:-1].tolist(), ends[1:].tolist(), roots):
        pts = [lo, *np.unique(r[(r > lo) & (r < hi)]).tolist(), hi]
        prev = None
        for a, b in zip(pts, pts[1:]):
            choice = cost.choose_option(m, 0.5 * (a + b), menu, params, mode)
            if choice != prev:
                spans.append((a, b))
            spans[-1], prev = (spans[-1][0], b), choice  # the current span reaches b
    return spans


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gauss_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _adaptive_gauss(f, a: float, b: float, tol: float = 1e-9, depth: int = 24) -> float:
    whole = _gauss_panel(f, a, b)
    mid = 0.5 * (a + b)
    split = _gauss_panel(f, a, mid) + _gauss_panel(f, mid, b)
    if abs(split - whole) <= tol * (1.0 + abs(split)):
        return split
    if depth <= 0:
        raise ConvergenceError(
            f"adaptive Gauss did not converge on [{a}, {b}] (residual {split - whole:.3e})"
        )
    return _adaptive_gauss(f, a, mid, tol / 2.0, depth - 1) + _adaptive_gauss(
        f, mid, b, tol / 2.0, depth - 1
    )


def _span_rule(lo: float, hi: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights that integrate A*d + B/d + C exactly over [lo, hi].

    The nodes are lo + w/6, the midpoint and hi - w/6 (w = hi - lo); the
    weights solve the moment system for 1, d and 1/d. A span starting at 0
    has B = 0 (every band edge away from m lies beyond the first breakpoint),
    so two nodes exact for 1 and d suffice. A span narrower than 1e-3*hi
    takes Simpson's rule, whose error there is at most (w/d)^5 * |B| / 120.
    """
    w = hi - lo
    if lo == 0.0:
        return (w / 6.0, hi - w / 6.0), (0.5 * w, 0.5 * w)
    if w < 1e-3 * hi:
        return (lo, 0.5 * (lo + hi), hi), (w / 6.0, 2.0 * w / 3.0, w / 6.0)
    mid = 0.5 * (lo + hi)
    s = w / 3.0
    # weights (lam, w - 2*lam, lam) integrate 1 and d for any lam; lam fits 1/d
    lam = (math.log1p(w / lo) - w / mid) * mid * (mid * mid - s * s) / (2.0 * s * s)
    return (mid - s, mid, mid + s), (lam, w - 2.0 * lam, lam)


def variation_weight(variation: VariationModel):
    """Probability density of the variation degree on [0, 1]."""
    if variation.family == UNIFORM:
        return lambda d: 1.0
    z = variation.normaliser() * variation.sigma * math.sqrt(2.0 * math.pi)
    return lambda d: math.exp(-0.5 * ((d - variation.mu) / variation.sigma) ** 2) / z


def _profit_by_integration(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    mode: BehaviorMode,
    variation: VariationModel,
) -> tuple[float, list[float]]:
    """Menu profit and per-type capacities integrated over the per-variation
    choice profile, from one span scan per type.

    Ties are resolved exactly: the analytic equilibrium switches at
    thresholds, not across a tie-tolerance window.
    """
    mode0 = BehaviorMode(mode.mode, 0.0)
    pdf = None if variation.family == UNIFORM else variation_weight(variation)
    total = 0.0
    caps = []
    for m, h in zip(dist.means, dist.probs):
        acc = cap = 0.0
        for lo, hi in smooth_choice_spans(m, menu, params, mode0):
            choice = cost.choose_option(m, 0.5 * (lo + hi), menu, params, mode0)
            if pdf is None:
                nodes, weights = _span_rule(lo, hi)
                accts = [account_for_choice(m, d, choice, menu, params) for d in nodes]
                acc += sum(w * _account_profit(a, params) for a, w in zip(accts, weights))
                cap += sum(w * a.capacity for a, w in zip(accts, weights))
            else:
                acc += _adaptive_gauss(
                    lambda d: profit_for_choice(m, d, choice, menu, params) * pdf(d), lo, hi
                )
                cap += _adaptive_gauss(
                    lambda d: account_for_choice(m, d, choice, menu, params).capacity * pdf(d),
                    lo, hi,
                )
        total += params.N * h * acc
        caps.append(cap)
    return total, caps


def check_optimistic_variation(
    menu: ContractMenu, params: MarketParams, variation: VariationModel
) -> None:
    """Raise ValueError when an optimistic total needs the low-penalty closed
    form, which holds under uniform variation only."""
    if variation.family != UNIFORM and any(
        cost.regime(opt, params.k) == cost.LOW_PENALTY for opt in menu
    ):
        raise ValueError("low-penalty analytics require uniform variation")


def evaluate_menu(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    mode: BehaviorMode,
    variation: VariationModel = VariationModel.uniform(),
) -> tuple[float, list[float]]:
    """Expected supplier profit of a whole menu under the given behavior mode,
    and the expected provisioned capacity per type-i customer.

    Optimistic values are the per-type regime closed forms. Pessimistic values
    of equal-price high-penalty menus are exact piecewise evaluations (worst
    ties resolved against the supplier), or flat pricing at a baseline price.
    Other menus take _profit_by_integration: exact under uniform variation,
    adaptive Gauss (ConvergenceError when out of depth) under truncated normal.
    """
    if mode.mode == OPTIMISTIC:
        check_optimistic_variation(menu, params, variation)
        total = 0.0
        caps = []
        for i, opt in enumerate(menu):
            if cost.regime(opt, params.k) == cost.HIGH_PENALTY:
                part = profit_high(i, opt, params, dist, variation)
            else:
                part = profit_low(i, opt, params, dist)
            total += part.expected_profit
            caps.append(part.capacity)
        return total, caps

    all_high = all(cost.regime(o, params.k) == cost.HIGH_PENALTY for o in menu)
    if all_high and menu_prices_equal(menu, tol=mode.tie_tol):
        if menu[0].p >= params.p0 - mode.tie_tol:
            # baseline ties everywhere a contract would; the worst case is flat pricing
            return baseline_profit(params, dist), [2.0 * dist.m_max] * len(menu)
        return _pessimistic_analytic(menu, params, dist, variation)
    return _profit_by_integration(menu, params, dist, mode, variation)


def total_profit(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    mode: BehaviorMode,
    variation: VariationModel = VariationModel.uniform(),
) -> float:
    """Expected supplier profit from a whole menu (evaluate_menu)."""
    return evaluate_menu(menu, params, dist, mode, variation)[0]


def per_type_capacities(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    mode: BehaviorMode,
    variation: VariationModel = VariationModel.uniform(),
) -> list[float]:
    """Expected provisioned capacity per type-i customer (evaluate_menu)."""
    return evaluate_menu(menu, params, dist, mode, variation)[1]


# ----------------------------------------------------------------------------
# super-optimal benchmark and gain ratios
# ----------------------------------------------------------------------------


def super_optimal_per_type(
    i: int, params: MarketParams, dist: TypeDistribution
) -> tuple[float, float, float, float]:
    """Per-type super-optimal contract (p, delta, threshold) and profit.

    The benchmark drops incentive compatibility, so each type is optimized in
    isolation; closed forms split on how far the type sits below the largest.
    """
    if params.k <= params.c_hat:
        raise ValueError("super-optimal contract requires k > c_hat")
    m, h = dist.means[i], dist.probs[i]
    k, ch = params.k, params.c_hat
    ratio = dist.m_max / m
    if ratio <= (k - ch) / k + 0.5:
        p = params.p0 - ch * ch / (2.0 * (k - ch)) * (2.0 * ratio - 1.0)
        delta = (k - 2.0 * ch) / (2.0 * (k - ch)) * (2.0 * ratio - 1.0)
        d_th = k / (2.0 * (k - ch)) * (2.0 * ratio - 1.0)
        value = params.N * h * (
            m * params.p0
            - m * params.c0
            - 2.0 * dist.m_max * ch
            + k * ch * (2.0 * dist.m_max - m) ** 2 / (4.0 * m * (k - ch))
        )
    else:
        p = params.p0 - ch * ch / k
        delta = 1.0 - 2.0 * ch / k
        d_th = 1.0
        value = params.N * h * (
            m * params.p0 - m * params.c0 - 2.0 * m * ch + m * ch * ch / k
        )
    return p, delta, d_th, value


def super_optimal_profit(params: MarketParams, dist: TypeDistribution) -> float:
    """Profit of the incentive-unconstrained optimum; upper-bounds every menu."""
    return sum(super_optimal_per_type(i, params, dist)[3] for i in range(dist.n))


def gain_ratio(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    mode: BehaviorMode,
    variation: VariationModel = VariationModel.uniform(),
) -> EvaluationReport:
    """Fraction of the maximum profit improvement over baseline that a menu captures.

    The denominator uses the super-optimal profit, the optimum under uniform
    variation. Under uniform variation that profit bounds every menu, so the
    ratio is a conservative lower bound on the ratio against the true
    constrained optimum. Under truncated-normal variation it is no bound, and
    the ratio can exceed 1.
    """
    value, caps = evaluate_menu(menu, params, dist, mode, variation)
    return evaluation_report(value, caps, params, dist, mode, super_optimal_profit(params, dist))


def evaluation_report(
    value: float,
    caps,
    params: MarketParams,
    dist: TypeDistribution,
    mode: BehaviorMode,
    top: float,
) -> EvaluationReport:
    """The report of a menu with profit `value` and per-type capacities `caps`,
    measured against the flat-pricing baseline and the benchmark profit `top`."""
    p0_profit = baseline_profit(params, dist)
    ratio = gain_share(value, p0_profit, top)
    return EvaluationReport(p0_profit, value, top, ratio, tuple(caps), mode)


def gain_share(value: float, baseline: float, top: float) -> float | None:
    """(value - baseline) / (top - baseline): the share of the gain over the
    baseline that a profit captures; None when top <= baseline."""
    return (value - baseline) / (top - baseline) if top > baseline else None


def crossover_capacity_cost(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    tol: float = 1e-6,
) -> float:
    """Unit capacity cost at which full subscription starts beating baseline.

    Located by sign-change search in c_hat; both profits are linear in c_hat,
    so a single bracketed root gives the crossover.
    """

    def gap(c_hat: float) -> float:
        p = MarketParams(params.p0, params.k, params.c0, c_hat, params.N)
        return full_subscription_profit(menu, p, dist) - baseline_profit(p, dist)

    return bisect_root(gap, 0.0, params.p0 / 2.0, tol=tol)
