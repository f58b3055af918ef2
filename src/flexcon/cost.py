"""Customer-side analytics: billing, demand response, expected costs for own
and cross options, participation thresholds, and contract choice.

Expected costs are closed forms over a uniform realized demand on
[m(1-D), m(1+D)] given variation degree D; every formula here is certified
against the Monte Carlo oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels import CROSS_COST_FORMULAS, _cross_cases, own_cost_beyond_band
from .model import (
    BASELINE,
    OPTIMISTIC,
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
)

HIGH_PENALTY = "high_penalty"
LOW_PENALTY = "low_penalty"

CASE_A, CASE_B, CASE_C, CASE_D, CASE_E, CASE_F = "a", "b", "c", "d", "e", "f"


def regime(option: ContractOption, k: float) -> str:
    """High penalty when over-usage is dearer than curtailment (p_bar > k)."""
    return HIGH_PENALTY if option.p_bar > k else LOW_PENALTY


def effective_penalty(option: ContractOption, k: float) -> float:
    """Marginal cost of over-band demand: k when the customer sheds, else p_bar."""
    return k if option.p_bar > k else option.p_bar


@dataclass(frozen=True)
class CrossRangeGeometry:
    """Which of the six demand-range/band relations holds."""

    case: str


def containment_delta(m: float, option: ContractOption) -> float:
    """Largest variation D such that [m(1-D), m(1+D)] fits inside the option band.

    For an option anchored below m the upper band edge binds; anchored above,
    the lower edge binds; the dedicated option is bound by its own width.
    Negative when the band does not contain m at all.
    """
    if option.center == m:
        return option.delta
    if option.center < m:
        return option.band_hi / m - 1.0
    return 1.0 - option.band_lo / m


def _containment_delta_two_sided(m: float, option: ContractOption) -> float:
    return min(1.0 - option.band_lo / m, option.band_hi / m - 1.0)


#: case letters in the order of _kernels._cross_cases
_CASE_LETTERS = (CASE_B, CASE_A, CASE_F, CASE_E, CASE_C, CASE_D)


def _cross_case(m: float, delta_cust: float, lo_b: float, hi_b: float) -> int:
    """Index of the first kernel cross case that holds for the band [lo_b, hi_b];
    5 (upper straddle) when none does."""
    holds = _cross_cases(m * (1.0 - delta_cust), m * (1.0 + delta_cust), lo_b, hi_b)
    holds.append(True)
    return holds.index(True)


def classify_cross_range(m: float, delta_cust: float, option: ContractOption) -> CrossRangeGeometry:
    """Classify the demand range of a (m, delta_cust) customer against an option band."""
    _check_delta(delta_cust)
    case = _cross_case(m, delta_cust, option.band_lo, option.band_hi)
    return CrossRangeGeometry(_CASE_LETTERS[case])


def _check_delta(delta_cust: float) -> None:
    if not 0.0 <= delta_cust <= 1.0:
        raise ValueError(f"variation degree must lie in [0, 1], got {delta_cust}")


def billed_cost(x_prime: float, option: ContractOption) -> float:
    """Amount billed for adjusted demand x_prime under the option's band tariff."""
    if x_prime < 0.0:
        raise ValueError(f"demand must be nonnegative, got {x_prime}")
    lo, hi = option.band_lo, option.band_hi
    if x_prime < lo:
        return lo * option.p
    if x_prime <= hi:
        return x_prime * option.p
    return x_prime * option.p_bar + hi * (option.p - option.p_bar)


def demand_response(x: float, option: ContractOption, k: float) -> float:
    """Demand the customer actually requests after exercising elasticity.

    Over-band demand is shed down to the band edge only when shedding is
    cheaper than the penalty (k < p_bar); under-band demand is filled up to
    the lower edge at no cost.
    """
    if x < 0.0:
        raise ValueError(f"demand must be nonnegative, got {x}")
    lo, hi = option.band_lo, option.band_hi
    if x < lo:
        return lo
    if x > hi and k < option.p_bar:
        return hi
    return x


def expected_cost_own(m: float, delta_cust: float, option: ContractOption, k: float) -> float:
    """Expected total cost of a type-m customer on its dedicated option (center == m)."""
    _check_delta(delta_cust)
    if delta_cust <= option.delta:
        return m * option.p
    return own_cost_beyond_band(delta_cust, m, option.p, effective_penalty(option, k), option.delta)


def expected_cost_cross(m_i: float, delta_cust: float, option_j: ContractOption, k: float) -> float:
    """Expected total cost of a type-m_i customer on an option anchored elsewhere.

    Dispatches on the six demand-range/band cases; continuous in the variation
    degree across every case boundary.
    """
    _check_delta(delta_cust)
    o = option_j
    lo_b, hi_b = o.band_lo, o.band_hi
    formula = CROSS_COST_FORMULAS[_cross_case(m_i, delta_cust, lo_b, hi_b)]
    return formula(delta_cust, m_i, o.p, effective_penalty(o, k), o.delta, o.center, lo_b, hi_b)


def expected_cost_for(m: float, delta_cust: float, option: ContractOption, k: float) -> float:
    """Expected cost on an arbitrary option; own-cost form when it is dedicated."""
    if option.center == m:
        return expected_cost_own(m, delta_cust, option, k)
    return expected_cost_cross(m, delta_cust, option, k)


def threshold(option: ContractOption, params: MarketParams) -> float:
    """Participation threshold: variation below which the option beats baseline.

    Uses the elasticity coefficient in the high-penalty regime and the penalty
    price in the low-penalty regime; capped at 1 and never below the band width.
    """
    if option.p > params.p0:
        raise ValueError("option price above baseline price")
    q = effective_penalty(option, params.k)
    gap = 2.0 * (params.p0 - option.p)
    disc = (q * option.delta + gap) ** 2 - (q * option.delta) ** 2
    d_th = (math.sqrt(disc) + q * option.delta + gap) / q
    return min(1.0, max(option.delta, d_th))


def expected_payment_energy(
    m: float, delta_cust: float, option: ContractOption, k: float
) -> tuple[float, float]:
    """Expected supplier-side payment and adjusted energy for one customer.

    Exact: both quantities are piecewise-linear in realized demand, so the
    uniform average is a trapezoid sum over the band breakpoints.
    """
    _check_delta(delta_cust)

    def pay_en(x: float) -> tuple[float, float]:
        xp = demand_response(x, option, k)
        return billed_cost(xp, option), xp

    a, b = m * (1.0 - delta_cust), m * (1.0 + delta_cust)
    if a == b:
        return pay_en(m)
    cuts = sorted({a, b, min(max(option.band_lo, a), b), min(max(option.band_hi, a), b)})
    pay = en = 0.0
    for s0, s1 in zip(cuts, cuts[1:]):
        w = (s1 - s0) / (b - a)
        p0_, e0 = pay_en(s0)
        p1_, e1 = pay_en(s1)
        pay += 0.5 * (p0_ + p1_) * w
        en += 0.5 * (e0 + e1) * w
    return pay, en


def _supplier_profit_for_choice(
    m: float, choice: int, menu: ContractMenu, params: MarketParams
) -> float:
    """Per-customer supplier profit used for pessimistic tie-breaking.

    Valid for the tie situations (the customer's whole demand range inside the
    chosen option's band) and for the baseline.
    """
    m_max = max(opt.center for opt in menu)
    if choice == BASELINE:
        return m * params.p0 - 2.0 * m_max * params.c_hat - params.c0 * m
    opt = menu[choice]
    return m * opt.p - params.c_hat * opt.band_hi - params.c0 * m


def choose_option(
    m_i: float,
    delta_cust: float,
    menu: ContractMenu,
    params: MarketParams,
    mode: BehaviorMode,
) -> int:
    """Contract choice of a (m_i, delta_cust) customer; BASELINE (-1) or an option index.

    All candidates within mode.tie_tol of the cheapest expected cost form the
    tie set (the baseline included). Optimistic customers take their dedicated
    option when it ties, then the lowest-index tying option, then the baseline;
    pessimistic customers take the tying choice worst for the supplier.
    """
    _check_delta(delta_cust)
    costs = [m_i * params.p0]
    choices = [BASELINE]
    dedicated = None
    for j, opt in enumerate(menu):
        if dedicated is None and opt.center == m_i:
            dedicated = j
        costs.append(expected_cost_for(m_i, delta_cust, opt, params.k))
        choices.append(j)
    best = min(costs)
    tied = [c for c, v in zip(choices, costs) if v <= best + mode.tie_tol]

    if mode.mode == OPTIMISTIC:
        if dedicated is not None and dedicated in tied:
            return dedicated
        for c in tied:
            if c != BASELINE:
                return c
        return BASELINE
    return min(tied, key=lambda c: _supplier_profit_for_choice(m_i, c, menu, params))
