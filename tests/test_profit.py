import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_rng, sample_instance
from flexcon import cost, design, oracle, profit
from flexcon._integrate import ConvergenceError
from flexcon.model import (
    BASELINE,
    OPTIMISTIC,
    PESSIMISTIC,
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
    VariationModel,
)


def opt(p, delta, p_bar, center):
    return ContractOption(p=p, delta=delta, p_bar=p_bar, center=center)


# ---------------------------------------------------------------------------
# baseline and per-type profits
# ---------------------------------------------------------------------------


def test_baseline_profit_single_type():
    params = MarketParams(p0=10.0, k=12.0, c0=1.0, c_hat=1.0, N=1)
    dist = TypeDistribution((1.0,), (1.0,))
    assert profit.baseline_profit(params, dist) == pytest.approx(7.0)


def test_baseline_profit_no_capacity_cost():
    rng = make_rng(1)
    for _ in range(5):
        params, dist = sample_instance(rng)
        free = MarketParams(params.p0, params.k, params.c0, 0.0, params.N)
        expected = sum(
            params.N * h * m * (params.p0 - params.c0) for m, h in zip(dist.means, dist.probs)
        )
        assert profit.baseline_profit(free, dist) == pytest.approx(expected)


def test_motivating_example_profits():
    p0 = 1.0
    params = MarketParams(p0=p0, k=1.2 * p0, c0=0.2 * p0, c_hat=0.1 * p0, N=10)
    dist = TypeDistribution((1.0, 3.0), (0.9, 0.1))
    assert profit.baseline_profit(params, dist) == pytest.approx(3.6 * p0, rel=1e-12)
    menu = ContractMenu(tuple(opt(0.9 * p0, 0.1, 1000.0 * p0, m) for m in dist.means))
    assert profit.full_subscription_profit(menu, params, dist) == pytest.approx(7.08 * p0, rel=1e-12)


def test_profit_high_degenerate_thresholds():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=4)
    dist = TypeDistribution((1.0, 3.0), (0.5, 0.5))
    # price at baseline with zero width: threshold collapses, nobody gains
    none_sub = opt(10.0, 0.0, 50.0, 1.0)
    r = profit.profit_high(0, none_sub, params, dist)
    assert r.expected_profit == pytest.approx(
        params.N * 0.5 * (10.0 - 1.0 - 2.0 * 2.0 * 3.0)
    )
    assert r.capacity == pytest.approx(2.0 * 3.0)


def test_profit_high_full_subscription_form():
    # deep discount forces the threshold to 1 at k slightly above p0
    params = MarketParams(p0=10.0, k=10.5, c0=1.0, c_hat=2.0, N=4)
    dist = TypeDistribution((1.0, 3.0), (0.5, 0.5))
    o = opt(7.0, 0.2, 50.0, 1.0)
    assert cost.threshold(o, params) == 1.0
    r = profit.profit_high(0, o, params, dist)
    assert r.expected_profit == pytest.approx(params.N * 0.5 * (7.0 - 1.0 - 2.0 * 1.2))
    assert r.capacity == pytest.approx(1.2)


def test_profit_high_rejects_low_penalty_option():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((1.0,), (1.0,))
    with pytest.raises(ValueError):
        profit.profit_high(0, opt(9.0, 0.2, 5.0, 1.0), params, dist)
    with pytest.raises(ValueError):
        profit.profit_low(0, opt(9.0, 0.2, 50.0, 1.0), params, dist)


def test_profit_low_collapses_to_profit_high_at_band_edge():
    # price at baseline: threshold equals the band width in both regimes
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=2)
    dist = TypeDistribution((2.0,), (1.0,))
    low = opt(10.0, 0.35, 5.0, 2.0)
    high = opt(10.0, 0.35, 50.0, 2.0)
    assert profit.profit_low(0, low, params, dist).expected_profit == pytest.approx(
        profit.profit_high(0, high, params, dist).expected_profit
    )


def _lp_quadrature_profit(i, option, params, dist):
    """Independent check: integrate payment/energy expectations directly."""
    from flexcon._integrate import adaptive_simpson

    m, h = dist.means[i], dist.probs[i]
    d_th = cost.threshold(option, params)

    def integrand(d):
        pay, en = cost.expected_payment_energy(m, d, option, params.k)
        return pay - params.c0 * en

    sub = adaptive_simpson(integrand, 0.0, d_th, tol=1e-12)
    base = (m * params.p0 - params.c0 * m) * (1.0 - d_th)
    capacity = m * (1.0 + d_th) * d_th + 2.0 * dist.m_max * (1.0 - d_th)
    return params.N * h * (sub + base - params.c_hat * capacity)


def test_profit_low_matches_quadrature():
    rng = make_rng(2)
    for _ in range(15):
        params, dist = sample_instance(rng, n_types=1)
        o = opt(
            params.p0 * rng.uniform(0.6, 1.0),
            rng.uniform(0.0, 0.9),
            params.k * rng.uniform(0.2, 1.0),
            dist.means[0],
        )
        analytic = profit.profit_low(0, o, params, dist).expected_profit
        numeric = _lp_quadrature_profit(0, o, params, dist)
        assert analytic == pytest.approx(numeric, rel=1e-8)


def test_profit_low_matches_market_simulation():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=3)
    dist = TypeDistribution((2.0,), (1.0,))
    o = opt(8.0, 0.3, 15.0, 2.0)
    menu = ContractMenu((o,))
    mode = BehaviorMode.optimistic(params)
    analytic = profit.profit_low(0, o, params, dist).expected_profit
    sim = oracle.simulate_market(
        menu, params, dist, VariationModel.uniform(), oracle.SimConfig(400000, 21, mode)
    )
    assert abs(sim.mean_profit - analytic) <= 3.0 * sim.std_error


# ---------------------------------------------------------------------------
# per-customer profit and pessimistic capacity
# ---------------------------------------------------------------------------


def test_per_customer_profit_examples():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=1.0, N=1)
    single = ContractMenu((opt(10.0, 1.0, 50.0, 1.0),))
    assert profit.per_customer_profit(1.0, BASELINE, single, params) == pytest.approx(7.0)
    assert profit.per_customer_profit(1.0, 0, single, params) == pytest.approx(10.0 - 2.0 - 1.0)
    menu = ContractMenu((opt(10.0, 1.0, 50.0, 1.0), opt(10.0, 0.5, 50.0, 1.2)))
    assert profit.per_customer_profit(1.0, 1, menu, params) == pytest.approx(10.0 - 1.8 - 1.0)


def test_pessimistic_capacity_single_type():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((2.0,), (1.0,))
    menu = ContractMenu((opt(9.0, 0.4, 50.0, 2.0),))
    d_th = cost.threshold(menu[0], params)
    expected = 2.0 * 1.4 * d_th + 2.0 * 2.0 * (1.0 - d_th)
    assert profit.pessimistic_capacity(0, menu, params, dist) == pytest.approx(expected)


def test_pessimistic_capacity_two_type_example(two_type):
    params, dist = two_type
    menu = design.approx_menu(params, dist)
    cap = profit.pessimistic_capacity(0, menu, params, dist, threshold_override=menu[0].delta)
    assert cap == pytest.approx(1.8 * 0.4 + 1.7 * 0.3 + 2.4 * 0.3, rel=1e-12)


def test_pessimistic_capacity_matches_grid_integration():
    rng = make_rng(3)
    for _ in range(10):
        params, dist = sample_instance(rng)
        menu = design.approx_menu(params, dist, epsilon=params.p0 * rng.uniform(1e-4, 1e-2))
        i = int(rng.integers(0, dist.n))
        analytic = profit.pessimistic_capacity(i, menu, params, dist)
        # direct numerical integration of the per-variation worst choice
        m = dist.means[i]
        d_th = cost.threshold(menu[i], params)
        grid = np.linspace(0.0, 1.0, 200001)
        caps = np.empty_like(grid)
        bounds = [
            menu[j].delta if menu[j].center == m else cost._containment_delta_two_sided(m, menu[j])
            for j in range(dist.n)
        ]
        tops = [menu[j].band_hi for j in range(dist.n)]
        own_delta = menu[i].delta
        for t, d in enumerate(grid):
            if d > d_th:
                caps[t] = 2.0 * dist.m_max
            elif d > own_delta:
                caps[t] = menu[i].band_hi
            else:
                caps[t] = max(top for b, top in zip(bounds, tops) if b >= d)
        numeric = float(np.trapezoid(caps, grid))
        assert analytic == pytest.approx(numeric, abs=2e-4 * (1.0 + abs(numeric)))


# ---------------------------------------------------------------------------
# menu totals
# ---------------------------------------------------------------------------


def test_total_profit_all_baseline_menu():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=3)
    dist = TypeDistribution((1.0, 2.0), (0.4, 0.6))
    menu = ContractMenu(tuple(opt(10.0, 0.0, 50.0, m) for m in dist.means))
    mode = BehaviorMode.optimistic(params)
    assert profit.total_profit(menu, params, dist, mode) == pytest.approx(
        profit.baseline_profit(params, dist)
    )


def test_total_profit_pessimistic_at_baseline_price_collapses(two_type):
    params, dist = two_type
    menu = design.approx_menu(params, dist)
    mode = BehaviorMode.pessimistic(params)
    assert profit.total_profit(menu, params, dist, mode) == pytest.approx(
        profit.baseline_profit(params, dist)
    )


def test_pessimistic_profit_limit_example(two_type):
    params, dist = two_type
    menu = design.approx_menu(params, dist)
    c1 = profit.pessimistic_capacity(0, menu, params, dist, threshold_override=0.7)
    c2 = profit.pessimistic_capacity(1, menu, params, dist, threshold_override=0.5)
    manual = 0.5 * (10.0 - 1.0 - 2.0 * c1) + 0.5 * (12.0 - 1.2 - 2.0 * c2)
    assert profit.pessimistic_profit_limit(menu, params, dist) == pytest.approx(manual, rel=1e-12)


def test_pessimistic_never_exceeds_optimistic():
    rng = make_rng(4)
    for _ in range(20):
        params, dist = sample_instance(rng)
        eps = params.p0 * rng.uniform(0.0, 0.25)
        menu = design.approx_menu(params, dist, epsilon=eps)
        p_opt = profit.total_profit(menu, params, dist, BehaviorMode.optimistic(params))
        p_pes = design.pessimistic_profit(menu, params, dist)
        assert p_pes <= p_opt + 1e-9 * (1.0 + abs(p_opt))


def test_pessimistic_matches_market_simulation(two_type):
    params, dist = two_type
    out = design.robust_contract(params, dist)
    mode = BehaviorMode.pessimistic(params)
    analytic = profit.total_profit(out.menu, params, dist, mode)
    sim = oracle.simulate_market(
        out.menu, params, dist, VariationModel.uniform(), oracle.SimConfig(400000, 33, mode)
    )
    assert abs(sim.mean_profit - analytic) <= 3.0 * sim.std_error


# ---------------------------------------------------------------------------
# super-optimal benchmark and gain ratios
# ---------------------------------------------------------------------------


def test_super_optimal_value_examples():
    # vanishing capacity cost: every type is served at the baseline margin
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=1e-12, N=2)
    dist = TypeDistribution((1.0, 3.0), (0.5, 0.5))
    expected = sum(
        params.N * h * m * (params.p0 - params.c0) for m, h in zip(dist.means, dist.probs)
    )
    assert profit.super_optimal_profit(params, dist) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        profit.super_optimal_per_type(0, MarketParams(10.0, 2.0, 1.0, 3.0, 1), dist)


def test_super_optimal_branch_continuity():
    rng = make_rng(5)
    for _ in range(20):
        p0 = rng.uniform(1.0, 50.0)
        k = rng.uniform(1.01 * p0, 10.0 * p0)
        ch = rng.uniform(0.01 * p0, 0.5 * p0)
        boundary = (k - ch) / k + 0.5
        m = rng.uniform(1.0, 10.0)
        m_max = m * boundary
        params = MarketParams(p0, k, 0.0, ch, 1)
        lo = TypeDistribution((m, m_max * (1.0 - 1e-11)), (1.0, 0.0))
        hi = TypeDistribution((m, m_max * (1.0 + 1e-11)), (1.0, 0.0))
        v_lo = profit.super_optimal_per_type(0, params, lo)[3]
        v_hi = profit.super_optimal_per_type(0, params, hi)[3]
        assert v_lo == pytest.approx(v_hi, rel=1e-9)


def test_super_optimal_dominates_random_menus():
    rng = make_rng(6)
    for _ in range(30):
        params, dist = sample_instance(rng)
        top = profit.super_optimal_profit(params, dist)
        menu = ContractMenu(
            tuple(
                ContractOption(
                    p=params.p0 * rng.uniform(0.3, 1.0),
                    delta=rng.uniform(0.0, 1.0),
                    p_bar=params.k * rng.uniform(0.3, 3.0),
                    center=m,
                )
                for m in dist.means
            )
        )
        value = profit.total_profit(menu, params, dist, BehaviorMode.optimistic(params))
        assert value <= top + 1e-9 * (1.0 + abs(top))


def test_super_optimal_nonincreasing_in_k():
    rng = make_rng(7)
    for _ in range(10):
        params, dist = sample_instance(rng)
        prev = math.inf
        for k in np.linspace(1.000001 * params.p0, 10.0 * params.p0, 50):
            p = MarketParams(params.p0, float(k), params.c0, params.c_hat, params.N)
            value = profit.super_optimal_profit(p, dist)
            assert value <= prev + 1e-9 * (1.0 + abs(value))
            prev = value


def test_gain_ratio_of_super_optimal_menu_is_one():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=2)
    dist = TypeDistribution((1.0, 1.4), (0.5, 0.5))
    out = design.super_optimal(params, dist)
    assert out.report.gain_ratio == pytest.approx(1.0, abs=1e-9)
    assert out.report.menu_profit == pytest.approx(profit.super_optimal_profit(params, dist))


def test_gain_ratio_undefined_when_no_gain():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=0.0, N=1)
    dist = TypeDistribution((1.0, 2.0), (0.5, 0.5))
    menu = design.approx_menu(params, dist)
    report = profit.gain_ratio(menu, params, dist, BehaviorMode.optimistic(params))
    assert report.gain_ratio is None


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5),
    a_max=st.floats(0.1, 0.9),
)
def test_gain_decomposition_inequality(data, n, a_max):
    # weighted-average gain ratios never fall below the worst per-term ratio
    big = data.draw(st.floats(1.0, 100.0))
    xs = [data.draw(st.floats(1e-3, 1.0)) for _ in range(n)]
    total = sum(xs)
    xs = [x / total for x in xs]
    bs = [data.draw(st.floats(1e-3, 0.99)) * big for _ in range(n)]
    a_s = [data.draw(st.floats(1e-3, 2.0)) * big for _ in range(n)]
    denom = big - sum(x * b for x, b in zip(xs, bs))
    if denom <= 1e-9:
        return
    z = (big - sum(x * a for x, a in zip(xs, a_s))) / denom
    floor = min((big - a) / (big - b) for a, b in zip(a_s, bs))
    assert z >= floor - 1e-9 * (1.0 + abs(floor))


def test_menu_ordering_at_approx_contract():
    rng = make_rng(8)
    for _ in range(30):
        params, dist = sample_instance(rng)
        menu = design.approx_menu(params, dist)
        tops = [o.band_hi for o in menu]
        bottoms = [o.band_lo for o in menu]
        assert all(b > a for a, b in zip(tops, tops[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(bottoms, bottoms[1:]))


def test_crossover_capacity_cost_value():
    p0 = 1.0
    params = MarketParams(p0=p0, k=1.2 * p0, c0=0.2 * p0, c_hat=0.1 * p0, N=10)
    dist = TypeDistribution((1.0, 3.0), (0.9, 0.1))
    menu = ContractMenu(tuple(opt(0.9 * p0, 0.1, 1000.0 * p0, m) for m in dist.means))
    crossover = profit.crossover_capacity_cost(menu, params, dist)
    # the revenue sacrifice 0.1*p0*12 against the capacity saving 46.8
    assert crossover == pytest.approx(p0 / 39.0, abs=1e-6)


# ---------------------------------------------------------------------------
# integration path: the exact three-node span rule
# ---------------------------------------------------------------------------


def _span_rule_cases(seed, count):
    """Markets with approximate, fixed-discount, super-optimal and random menus;
    each random option has a high or a low penalty at random."""
    rng = make_rng(seed)
    for _ in range(count):
        params, dist = sample_instance(rng)
        yield params, dist, design.approx_menu(params, dist)
        eps = params.p0 * 2.0 ** -float(rng.integers(1, 8))
        yield params, dist, design.approx_menu(params, dist, epsilon=eps)
        yield params, dist, design.super_optimal(params, dist).menu
        opts = []
        for m in dist.means:
            if rng.random() < 0.5:
                p_bar = params.k * rng.uniform(1.1, 5.0)
            else:
                p_bar = rng.uniform(params.p0, params.k)
            opts.append(opt(params.p0 * rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.9), p_bar, m))
        yield params, dist, ContractMenu(tuple(opts))


def _curve_through(nodes, values, d):
    """Value at d of the A*d + B/d + C curve (A*d + C for two nodes) through the points."""
    if len(nodes) == 2:
        (x0, x1), (f0, f1) = nodes, values
        return f0 + (f1 - f0) * (d - x0) / (x1 - x0)
    # d * (A*d + B/d + C) is the quadratic through the points (x, x * f(x))
    q = 0.0
    for k, (xk, fk) in enumerate(zip(nodes, values)):
        basis = 1.0
        for j, xj in enumerate(nodes):
            if j != k:
                basis *= (d - xj) / (xk - xj)
        q += xk * fk * basis
    return q / d


BEHAVIORS = pytest.mark.parametrize("behavior", [OPTIMISTIC, PESSIMISTIC])


@BEHAVIORS
def test_fixed_choice_profit_is_exact_for_the_span_rule(behavior):
    mode0 = BehaviorMode(behavior, 0.0)
    spans = 0
    for params, dist, menu in _span_rule_cases(21, 6):
        for m in dist.means:
            for lo, hi in profit.smooth_choice_spans(m, menu, params, mode0):
                choice = cost.choose_option(m, 0.5 * (lo + hi), menu, params, mode0)
                nodes, _ = profit._span_rule(lo, hi)
                if len(set(nodes)) < len(nodes):
                    continue  # a span a few ulps wide: no curve to fit
                values = [profit.profit_for_choice(m, x, choice, menu, params) for x in nodes]
                scale = max(abs(v) for v in values) + m * params.p0
                for t in (0.29, 0.83):
                    d = lo + t * (hi - lo)
                    exact = profit.profit_for_choice(m, d, choice, menu, params)
                    assert _curve_through(nodes, values, d) == pytest.approx(
                        exact, abs=1e-12 * scale
                    )
                spans += 1
    assert spans > 200


@BEHAVIORS
def test_profit_by_integration_matches_quadrature(behavior):
    for params, dist, menu in _span_rule_cases(22, 4):
        mode = BehaviorMode(behavior, 1e-9 * params.p0)
        revenue = params.N * sum(h * m * params.p0 for m, h in zip(dist.means, dist.probs))
        value = profit._profit_by_integration(menu, params, dist, mode, VariationModel.uniform())[0]
        numeric = oracle.quadrature_profit(menu, params, dist, mode)
        assert value == pytest.approx(numeric, abs=1e-10 * revenue)


def test_span_rule_capacities_match_dense_grid():
    cells = 1000
    grid = (np.arange(cells) + 0.5) / cells
    for params, dist, menu in _span_rule_cases(23, 3):
        mode = BehaviorMode.pessimistic(params)
        caps = profit._profit_by_integration(menu, params, dist, mode, VariationModel.uniform())[1]
        mode0 = BehaviorMode(mode.mode, 0.0)
        for m, cap in zip(dist.means, caps):
            dense = np.mean([
                profit.account_for_choice(
                    m, d, cost.choose_option(m, d, menu, params, mode0), menu, params
                ).capacity
                for d in grid
            ])
            # capacity is constant on each span, so only the cells holding a switch err
            switches = len(profit.smooth_choice_spans(m, menu, params, mode0))
            assert cap == pytest.approx(dense, abs=switches * 2.0 * dist.m_max / cells)


def test_gain_ratio_total_and_capacities_read_one_evaluation():
    variations = (VariationModel.uniform(), VariationModel.truncated_normal(0.3, 0.4))
    checked = 0
    for params, dist, menu in _span_rule_cases(24, 4):
        for variation in variations:
            for mode in (BehaviorMode.optimistic(params), BehaviorMode.pessimistic(params)):
                args = (menu, params, dist, mode, variation)
                try:
                    report = profit.gain_ratio(*args)
                except ValueError:  # optimistic low-penalty analytics need uniform variation
                    with pytest.raises(ValueError):
                        profit.total_profit(*args)
                    with pytest.raises(ValueError):
                        profit.per_type_capacities(*args)
                    continue
                assert report.menu_profit == profit.total_profit(*args)
                assert report.per_type_capacity == tuple(profit.per_type_capacities(*args))
                checked += 1
    assert checked >= 56, checked


def _late_switch_case():
    """A pessimistic market with unequal prices and low penalties: type 0 moves
    from option 0 to option 2 at d ~ 0.98868, in the last 1/34 of its last
    breakpoint interval [0.5842, 1], where no midpoint of a 17-cell scan lies."""
    params = MarketParams(
        p0=49.504150590533996, k=450.42655132252094, c0=13.39296088059604,
        c_hat=14.078783671704329, N=7,
    )
    dist = TypeDistribution(
        (7.555137736812442, 9.701766067057452, 56.93746939365793),
        (0.6606165620125783, 0.2107360337368767, 0.12864740425054494),
    )
    prices = (36.98081023343361, 34.80318537259689, 43.3518813436096)
    deltas = (0.5841513618186014, 0.02768754272576368, 0.92968430393)
    menu = ContractMenu(
        tuple(opt(p, d, 225.21327566126047, m) for p, d, m in zip(prices, deltas, dist.means))
    )
    return params, dist, menu


def test_choice_spans_find_a_switch_near_an_interval_end():
    from flexcon._integrate import adaptive_simpson

    params, dist, menu = _late_switch_case()
    mode = BehaviorMode.pessimistic(params)
    mode0 = BehaviorMode(mode.mode, 0.0)
    # reference: the pointwise choice integrated over [0, 1] with no spans at all
    reference = 0.0
    for m, h in zip(dist.means, dist.probs):
        def pointwise(d, m=m):
            return profit.profit_for_choice(
                m, d, cost.choose_option(m, d, menu, params, mode0), menu, params
            )

        tol = 1e-12 * (1.0 + m * params.p0)
        reference += params.N * h * adaptive_simpson(pointwise, 0.0, 1.0, tol=tol)
    revenue = params.N * sum(h * m * params.p0 for m, h in zip(dist.means, dist.probs))
    assert revenue == pytest.approx(4976.302, abs=1e-3)
    assert profit.total_profit(menu, params, dist, mode) == pytest.approx(
        reference, abs=1e-9 * revenue
    )
    m0 = dist.means[0]
    (lo0, hi0), (lo, hi) = profit.smooth_choice_spans(m0, menu, params, mode0)[-2:]
    assert hi0 == lo == pytest.approx(0.98868, abs=1e-5) and hi == 1.0
    assert cost.choose_option(m0, 0.5 * (lo0 + hi0), menu, params, mode0) == 0
    assert cost.choose_option(m0, 0.5 * (lo + hi), menu, params, mode0) == 2


def test_adaptive_gauss_raises_when_depth_runs_out():
    def step(d):
        return 0.0 if d < 1.0 / 3.0 else 1.0

    with pytest.raises(ConvergenceError):
        profit._adaptive_gauss(step, 0.0, 1.0, depth=4)
    assert profit._adaptive_gauss(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# known defect: equal-price high-penalty menus that fail the incentive check
# ---------------------------------------------------------------------------


#: perfbench's 4-type pessimistic `cli` scenario for three seeds: the params,
#: the means and probabilities, the shared price and penalty, the band widths,
#: the `verify_ic` violation count and the quadrature profit
_FAILING_IC_CASES = {
    "cli-seed7": (
        (13.695164177359485, 22.93301324307804, 2.572197178251608, 3.090016716465051, 5),
        (1.6905227955382358, 2.6324078339603636, 3.337451322263798, 4.400574490489872),
        (0.13796706674125128, 0.28965873927234403, 0.12810140896083796, 0.44427278502556666),
        (12.839216416274517, 109.56131341887588),
        (0.6888925080899565, 0.667864691772035, 0.6304961256644138, 0.8900678399407855),
        6,
        44.9746,
    ),
    "cli-seed20240809": (
        (10.568739414769926, 19.42066108500665, 1.7365134813939935, 1.2465899845562434, 5),
        (2.765012412561388, 3.5312536011790914, 4.612507456672267, 5.529141239081869),
        (0.22907501835170602, 0.3832017521515001, 0.23546016805087788, 0.15226306144591595),
        (10.403602861414146, 84.5499153181594),
        (0.4405595268797036, 0.9850325454251052, 0.8585081018501002, 0.58444453046733),
        8,
        116.5644,
    ),
    "cli-seed4242": (
        (18.051887401497424, 53.193330701156924, 2.9677411452679108, 1.3747671944492246, 5),
        (2.602827205826034, 3.9269664617863373, 4.472414554255933, 6.613068869561268),
        (0.38597001907024764, 0.33527537988079825, 0.11922276464474085, 0.1595318364042133),
        (17.769826660849027, 144.4150992119794),
        (0.7577739132499325, 0.8509774075064216, 0.48304995214460417, 0.7411843196442294),
        9,
        221.8946,
    ),
}


def _equal_price_menu_failing_ic(case):
    """A 4-type pessimistic scenario with one price for every option and a
    high penalty, whose menu fails the exact incentive check."""
    p, means, probs, (price, p_bar), deltas, _, _ = _FAILING_IC_CASES[case]
    params = MarketParams(*p)
    dist = TypeDistribution(means, probs)
    menu = ContractMenu(tuple(opt(price, d, p_bar, m) for d, m in zip(deltas, dist.means)))
    return menu, params, dist


def test_equal_price_menu_failing_ic_references_agree():
    for case, (*_, violation_count, expected) in _FAILING_IC_CASES.items():
        menu, params, dist = _equal_price_menu_failing_ic(case)
        ok, violations = design.verify_ic(menu, params, dist)
        assert not ok and len(violations) == violation_count
        numeric = oracle.quadrature_profit(menu, params, dist, BehaviorMode.pessimistic(params))
        assert design.pessimistic_profit(menu, params, dist) == pytest.approx(numeric, rel=1e-10)
        assert numeric == pytest.approx(expected, abs=1e-4)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "total_profit takes the pessimistic analytic path for equal-price "
        "high-penalty menus that fail the incentive check, which is not exact "
        "for them: it gives 56.4846, 115.6490 and 221.4402 where quadrature "
        "gives 44.9746, 116.5644 and 221.8946"
    ),
)
@pytest.mark.parametrize("case", list(_FAILING_IC_CASES))
def test_total_profit_exact_for_equal_price_menu_failing_ic(case):
    menu, params, dist = _equal_price_menu_failing_ic(case)
    mode = BehaviorMode.pessimistic(params)
    numeric = oracle.quadrature_profit(menu, params, dist, mode)
    assert profit.total_profit(menu, params, dist, mode) == pytest.approx(numeric, rel=1e-8)
