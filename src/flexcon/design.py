"""Contract synthesis: the approximate menu, the robust discounted menu with
automatic discount selection, the super-optimal benchmark, exact incentive
verification, and gain-ratio bound certification.

The incentive check is exact, not sampled: between known breakpoints every
expected-cost curve is A*d + B/d + C, so the largest capped cost gap of each
(type, foreign option) pair is found among finitely many closed-form points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import profit
from ._integrate import ConvergenceError
from ._kernels import (cross_cost_case, cross_cost_table, own_cost_piece, own_cost_table,
                       quadratic_roots)
from .model import (
    BehaviorMode,
    ContractMenu,
    ContractOption,
    EvaluationReport,
    MarketParams,
    TypeDistribution,
    VariationModel,
)

AUTO = "auto"

#: penalty price factor for menus that must sit in the high-penalty regime;
#: any fixed multiple above 1 works, 2k keeps audits simple.
HIGH_PENALTY_FACTOR = 2.0

#: certified gain-ratio floors: the approximate menu keeps half of the
#: available gain in the optimistic mode, the AUTO robust menu a third in the
#: pessimistic one (see check_floor); a fixed discount and `super` have none
APPROX_FLOOR = 0.5
ROBUST_FLOOR = 1.0 / 3.0


class BoundViolationError(Exception):
    """A certified lower bound failed; indicates an implementation bug."""


class ICViolation(NamedTuple):
    i: int
    j: int
    delta: float
    gap: float


@dataclass(frozen=True)
class DesignOutput:
    menu: ContractMenu
    epsilon: float
    ic_verified: bool
    report: EvaluationReport


@dataclass(frozen=True)
class BoundCertificate:
    optimistic_ratio: float
    pessimistic_ratio: float
    optimistic_menu: ContractMenu
    pessimistic_menu: ContractMenu
    epsilon: float


def approx_delta(m: float, m_max: float) -> float:
    """Band width of the approximate menu: wide-open for small types, tuned
    to balance capacity savings against participation for types near the top."""
    ratio = m_max / m
    return ratio - 0.5 if ratio <= 1.5 else 1.0


def approx_menu(params: MarketParams, dist: TypeDistribution, epsilon: float = 0.0) -> ContractMenu:
    """The approximate menu, optionally with every price discounted by epsilon."""
    p_bar = HIGH_PENALTY_FACTOR * params.k
    return ContractMenu(
        tuple(
            ContractOption(params.p0 - epsilon, approx_delta(m, dist.m_max), p_bar, m)
            for m in dist.means
        )
    )


def approx_contract(params: MarketParams, dist: TypeDistribution) -> DesignOutput:
    """Approximate contract: baseline prices, closed-form band widths.

    Depends only on the type support, never on the type probabilities, and is
    incentive compatible by construction.
    """
    menu = approx_menu(params, dist)
    mode = BehaviorMode.optimistic(params)
    report = profit.gain_ratio(menu, params, dist, mode)
    ok, _ = verify_ic(menu, params, dist)
    return DesignOutput(menu, 0.0, ok, report)


def super_optimal(params: MarketParams, dist: TypeDistribution) -> DesignOutput:
    """Incentive-unconstrained benchmark menu and its profit.

    Each type is optimized in isolation; the result upper-bounds every
    feasible menu's profit but is not claimed to satisfy the choice
    constraints, so ic_verified is never asserted.
    """
    opts = []
    for i, m in enumerate(dist.means):
        p, delta, _, _ = profit.super_optimal_per_type(i, params, dist)
        opts.append(ContractOption(p, delta, HIGH_PENALTY_FACTOR * params.k, m))
    menu = ContractMenu(tuple(opts))
    mode = BehaviorMode.optimistic(params)
    report = profit.gain_ratio(menu, params, dist, mode)
    return DesignOutput(menu, 0.0, False, report)


def robust_contract(
    params: MarketParams,
    dist: TypeDistribution,
    epsilon: float | str = AUTO,
) -> DesignOutput:
    """Robust menu: approximate band widths with every price cut by epsilon > 0.

    The strict discount keeps subscribing customers strictly better off than
    the baseline, so adverse tie-breaking can only shuffle them between
    contract options. AUTO searches the geometric grid p0 * 2**-t from above,
    down to the tie tolerance, for the largest discount that (a) passes the
    exact incentive check and (b) does not fall below the vanishing-discount
    worst-case profit. When no discount meets both, it returns the smallest
    one that passes (a) and certifies a pessimistic gain ratio of at least
    1/3, and raises ConvergenceError only when there is none.
    """
    mode = BehaviorMode.pessimistic(params)
    if epsilon != AUTO:
        eps = float(epsilon)
        if eps <= 0.0:
            raise ValueError("the robust discount must be strictly positive")
        menu = approx_menu(params, dist, epsilon=eps)
        ok = _ic_ok(menu, params, dist)
        value, caps = pessimistic_evaluation(menu, params, dist, ic_holds=ok)
        top = profit.super_optimal_profit(params, dist)
        report = profit.evaluation_report(value, caps, params, dist, mode, top)
        return DesignOutput(menu, eps, ok, report)

    base = approx_menu(params, dist)
    floor = profit.pessimistic_profit_limit(base, params, dist)
    top = profit.super_optimal_profit(params, dist)
    tried: list[tuple[float, str]] = []
    ic_passed: list[tuple[float, ContractMenu, float, list[float]]] = []
    for eps in _auto_discounts(params.p0, mode.tie_tol):
        menu = approx_menu(params, dist, epsilon=eps)
        if not _ic_ok(menu, params, dist):
            tried.append((eps, "incentive check failed"))
            continue
        value, caps = profit.evaluate_menu(menu, params, dist, mode)
        if value >= floor - 1e-9 * (1.0 + abs(floor)):
            report = profit.evaluation_report(value, caps, params, dist, mode, top)
            return DesignOutput(menu, eps, True, report)
        ic_passed.append((eps, menu, value, caps))
        tried.append((eps, f"worst-case profit {value:.12g} below limit {floor:.12g}"))
    # The profit condition is numerical: the worst-case profit approaches its
    # vanishing-discount limit linearly in eps and can stay below the rounding
    # slack down to the tie tolerance. The certificate is the 1/3 gain ratio.
    for eps, menu, value, caps in reversed(ic_passed):
        report = profit.evaluation_report(value, caps, params, dist, mode, top)
        if report.gain_ratio is not None and report.gain_ratio >= ROBUST_FLOOR:
            return DesignOutput(menu, eps, True, report)
    detail = "; ".join(f"eps={e:.3e}: {why}" for e, why in tried[-5:])
    raise ConvergenceError(
        f"no discount in the search grid passed both conditions (last attempts: {detail})"
    )


def _auto_discounts(p0: float, tie_tol: float):
    """The AUTO search grid p0 * 2**-t, t = 1, 2, ..., down to the last discount
    above the tie tolerance: a smaller one leaves every price tied with the
    baseline, where the worst-case profit collapses to the baseline profit."""
    eps = 0.5 * p0
    while eps > tie_tol:
        yield eps
        eps *= 0.5


@lru_cache(maxsize=32)
def _ic_pieces(means: tuple[float, ...], bands: tuple[tuple[float, float, float], ...], k: float):
    """The price-free part of the incentive check, shared by every discount the
    AUTO search tries on one menu geometry.

    For each (type i, foreign option j) pair, [0, 1] is cut at the own band
    width delta_i and the four demand-range/band case boundaries of option j.
    On every piece both the own-cost and the cross-cost curve are
    A*d + B/d + C with coefficients linear in the option's price, stored as
    coef0 + p*coef1. `bands` holds (delta, p_bar, center) per option.
    Returns i, j, m_i (P,), lo, hi (piece, P), coef0, coef1 (coefficient,
    curve, piece, P), and the curve's price index (curve, 1, P).
    """
    i, j = np.nonzero(~np.eye(len(bands), dtype=bool))
    delta, p_bar, center = np.array(bands).T
    m = np.asarray(means)[i]
    lo_b = center[j] * (1.0 - delta[j]) / m
    hi_b = center[j] * (1.0 + delta[j]) / m
    ends = np.broadcast_to([[0.0], [1.0]], (2, len(i)))
    cuts = np.vstack([ends, delta[i], 1.0 - lo_b, hi_b - 1.0, lo_b - 1.0, 1.0 - hi_b])
    cuts = np.sort(np.clip(cuts, 0.0, 1.0), axis=0)
    lo, hi = cuts[:-1], cuts[1:]
    mid = 0.5 * (lo + hi)
    pair = np.arange(len(i))

    p = np.array([[0.0], [1.0]])  # tables at prices 0 and 1
    own = own_cost_table(m, p, delta[i], p_bar[i], k)[:, pair, own_cost_piece(mid, delta[i])]
    cross = cross_cost_table(m, p, delta[j], p_bar[j], center[j], k)[
        :, pair, cross_cost_case(mid, m, delta[j], center[j])
    ]
    coef0, coef1 = np.moveaxis(np.stack([own, cross], axis=1), -1, 1)
    out = (i, j, m, lo, hi, coef0, coef1 - coef0, np.stack([i, j])[:, None])
    for a in out:
        a.flags.writeable = False
    return out


def _worst_gaps(menu: ContractMenu, params: MarketParams, dist: TypeDistribution):
    """Capped cost gap at every candidate worst point of every piece.

    Each piece of _ic_pieces is split again where a curve meets the baseline
    cost m_i*p0, so the capped gap min(own, cap) - min(cross, cap) has one
    closed form per sub-piece and peaks at an end of it or at a stationary
    point sqrt(B/A) of own, cross or own - cross. Returns i, j (P,) and the
    candidate points and their gaps, shape (candidate, sub-piece, piece, P);
    empty sub-pieces have gaps of -inf.
    """
    bands = tuple((o.delta, o.p_bar, o.center) for o in menu)
    i, j, m, lo, hi, coef0, coef1, which = _ic_pieces(dist.means, bands, params.k)
    price = np.array([o.p for o in menu])[which]
    a_, b_, c_ = coef0 + price * coef1  # A, B, C of own and cross, (curve, piece, P)
    cap = m * params.p0

    with np.errstate(divide="ignore", invalid="ignore"):
        # both roots of A*d**2 + (C - cap)*d + B = 0 (NaN or inf when absent)
        roots = _clip(np.concatenate(quadratic_roots(a_, c_ - cap, b_)[:2]), lo, hi)
        sub = np.sort(np.concatenate([lo[None], roots, hi[None]]), axis=0)
        a, b = sub[:-1], sub[1:]
        stationary = np.sqrt(np.concatenate([b_ / a_, [(b_[0] - b_[1]) / (a_[0] - a_[1])]]))
        cand = np.concatenate([a[None], b[None], _clip(stationary[:, None], a, b)])
        inv = 1.0 / np.where(cand > 0.0, cand, np.inf)
        a_, b_, c_ = (x[:, None, None] for x in (a_, b_, c_))
        own_cost, cross_cost = np.minimum(a_ * cand + b_ * inv + c_, cap)
    return i, j, cand, np.where(b > a, own_cost - cross_cost, -np.inf)


def _clip(x, lo, hi):
    """x clipped to [lo, hi]; NaN goes to lo."""
    return np.fmin(np.fmax(x, lo), hi)


def _ic_ok(menu: ContractMenu, params: MarketParams, dist: TypeDistribution) -> bool:
    """True when verify_ic finds no violation."""
    gaps = _worst_gaps(menu, params, dist)[3]
    return not np.any(gaps > 1e-9 * params.p0)


def verify_ic(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
) -> tuple[bool, list[ICViolation]]:
    """Check exactly that no type prefers another type's option at any variation.

    Costs are capped at the baseline cost on both sides. The variation range
    [0, 1] of each (type, foreign option) pair splits into pieces on which the
    capped gap has one closed form (see _worst_gaps); every piece whose worst
    gap exceeds 1e-9*p0 is reported once, as (type, option, variation, gap) at
    its worst point.
    """
    i, j, cand, gaps = _worst_gaps(menu, params, dist)
    at = np.argmax(gaps, axis=0)[None]
    # (sub-piece, piece, pair) -> (pair, piece, sub-piece): order of (i, j, variation)
    where, worst = (np.take_along_axis(x, at, 0)[0].T for x in (cand, gaps))
    bad = worst > 1e-9 * params.p0
    violations = [
        ICViolation(int(i[r]), int(j[r]), float(d), float(g))
        for r, d, g in zip(np.nonzero(bad)[0], where[bad], worst[bad])
    ]
    return (not violations, violations)


def pessimistic_evaluation(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    variation: VariationModel = VariationModel.uniform(),
    *,
    ic_holds: bool | None = None,
) -> tuple[float, list[float]]:
    """Worst-case profit and per-type capacities with an incentive guard.

    profit.evaluate_menu's piecewise forms assume no type strictly prefers a
    foreign option below its threshold; when _ic_ok (or `ic_holds`, its result
    if already known) fails, the choice profile is integrated instead.
    """
    mode = BehaviorMode.pessimistic(params)
    if ic_holds is None:
        ic_holds = _ic_ok(menu, params, dist)
    if ic_holds:
        return profit.evaluate_menu(menu, params, dist, mode, variation)
    return profit._profit_by_integration(menu, params, dist, mode, variation)


def pessimistic_profit(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    variation: VariationModel = VariationModel.uniform(),
) -> float:
    """Worst-case profit with an incentive guard (pessimistic_evaluation)."""
    return pessimistic_evaluation(menu, params, dist, variation)[0]


def check_floor(out: DesignOutput, floor: float) -> None:
    """Raise BoundViolationError when a design's gain ratio falls more than
    1e-9 below its certified floor (APPROX_FLOOR or ROBUST_FLOOR)."""
    ratio = out.report.gain_ratio
    if ratio is None or ratio < floor - 1e-9:
        raise BoundViolationError(f"{out.report.mode.mode} gain ratio {ratio} fell below {floor:.6g}")


def certify_bounds(params: MarketParams, dist: TypeDistribution) -> BoundCertificate:
    """Certify both gain-ratio lower bounds on one instance.

    The approximate menu must capture at least half of the available gain in
    the optimistic setting; the robust menu at least a third in the
    pessimistic one. Both bounds are guaranteed by construction, so a
    violation is a hard failure pointing at an implementation bug.
    """
    opt = approx_contract(params, dist)
    rob = robust_contract(params, dist, AUTO)
    check_floor(opt, APPROX_FLOOR)
    check_floor(rob, ROBUST_FLOOR)
    r_opt, r_pes = opt.report.gain_ratio, rob.report.gain_ratio
    return BoundCertificate(r_opt, r_pes, opt.menu, rob.menu, rob.epsilon)
