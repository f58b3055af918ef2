import math

import numpy as np
import pytest

from conftest import make_rng, sample_instance
from flexcon import _kernels, cost, design, oracle
from flexcon.model import (
    BASELINE,
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    VariationModel,
)


def opt(p, delta, p_bar, center):
    return ContractOption(p=p, delta=delta, p_bar=p_bar, center=center)


# ---------------------------------------------------------------------------
# billing and demand response
# ---------------------------------------------------------------------------


def test_billed_cost_branches():
    o = opt(1.0, 0.5, 2.0, 1.0)
    assert cost.billed_cost(0.2, o) == pytest.approx(0.5)
    assert cost.billed_cost(2.0, o) == pytest.approx(2.0 * 2.0 + 1.5 * (1.0 - 2.0))
    degenerate = opt(1.0, 0.0, 2.0, 1.0)
    assert cost.billed_cost(1.0, degenerate) == pytest.approx(1.0)


def test_billed_cost_continuous_at_breakpoints():
    o = opt(3.0, 0.4, 7.0, 2.0)
    eps = 1e-9
    assert cost.billed_cost(o.band_lo - eps, o) == pytest.approx(cost.billed_cost(o.band_lo, o), abs=1e-7)
    assert cost.billed_cost(o.band_hi + eps, o) == pytest.approx(cost.billed_cost(o.band_hi, o), abs=1e-7)


def test_billed_cost_rejects_negative_demand():
    with pytest.raises(ValueError):
        cost.billed_cost(-0.1, opt(1.0, 0.5, 2.0, 1.0))


def test_demand_response_rules():
    o = opt(1.0, 0.5, 3.0, 1.0)
    assert cost.demand_response(2.0, o, 2.0) == pytest.approx(1.5)
    cheap_penalty = opt(1.0, 0.5, 1.5, 1.0)
    assert cost.demand_response(2.0, cheap_penalty, 2.0) == pytest.approx(2.0)
    assert cost.demand_response(0.3, o, 2.0) == pytest.approx(0.5)
    assert cost.demand_response(1.2, o, 2.0) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        cost.demand_response(-1.0, o, 2.0)


def test_demand_response_keeps_demand_at_penalty_tie():
    # shedding happens only when strictly cheaper than the penalty
    o = opt(1.0, 0.2, 2.0, 1.0)
    assert cost.demand_response(1.5, o, 2.0) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# expected costs
# ---------------------------------------------------------------------------


def test_expected_cost_own_examples():
    o = opt(1.0, 0.2, 10.0, 1.0)
    assert cost.expected_cost_own(1.0, 0.2, o, 4.0) == pytest.approx(1.0)
    assert cost.expected_cost_own(1.0, 0.6, o, 4.0) == pytest.approx(1.0 + (4.0 / 2.4) * 0.16)
    low = opt(1.0, 0.2, 3.0, 1.0)
    assert cost.expected_cost_own(1.0, 0.6, low, 4.0) == pytest.approx(1.0 + (3.0 / 2.4) * 0.16)
    with pytest.raises(ValueError):
        cost.expected_cost_own(1.0, 1.5, o, 4.0)


def test_expected_cost_cross_examples():
    assert cost.expected_cost_cross(1.0, 0.1, opt(1.0, 0.2, 5.0, 2.0), 2.0) == pytest.approx(1.6)
    assert cost.expected_cost_cross(1.0, 0.05, opt(1.0, 0.5, 5.0, 1.1), 2.0) == pytest.approx(1.0)
    assert cost.expected_cost_cross(3.0, 0.05, opt(1.0, 0.5, 10.0, 1.0), 2.0) == pytest.approx(4.5)


def test_cross_cost_continuous_at_case_boundaries():
    rng = make_rng(101)
    for _ in range(60):
        m = rng.uniform(0.5, 5.0)
        center = rng.uniform(0.5, 5.0)
        delta_j = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.5, 5.0)
        p_bar = rng.uniform(0.1, 20.0)
        k = rng.uniform(0.5, 10.0)
        o = opt(p, delta_j, p_bar, center)
        boundaries = [
            1.0 - o.band_lo / m,
            o.band_lo / m - 1.0,
            o.band_hi / m - 1.0,
            1.0 - o.band_hi / m,
        ]
        for b in boundaries:
            if not 1e-6 < b < 1.0 - 1e-6:
                continue
            left = cost.expected_cost_cross(m, b - 1e-10, o, k)
            right = cost.expected_cost_cross(m, b + 1e-10, o, k)
            assert abs(left - right) < 1e-6 * (1.0 + abs(left))


def test_cross_cost_monotonicity_claim():
    rng = make_rng(202)
    grid = np.linspace(0.0, 1.0, 201)
    for _ in range(40):
        center = rng.uniform(0.5, 4.0)
        delta_j = rng.uniform(0.05, 0.95)
        p = rng.uniform(0.5, 5.0)
        k = rng.uniform(p + 0.1, 10.0 * p)
        o = opt(p, delta_j, 2.0 * k, center)
        inside = rng.random() < 0.6
        if inside:
            m = rng.uniform(o.band_lo, o.band_hi)
        else:
            m = o.band_hi * rng.uniform(1.01, 2.0) if rng.random() < 0.5 else o.band_lo * rng.uniform(0.3, 0.99)
            if m <= 0:
                continue
        vals = [cost.expected_cost_cross(m, d, o, k) for d in grid]
        if inside:
            d_ij = cost.containment_delta(m, o)
            flat = [v for d, v in zip(grid, vals) if d <= d_ij + 1e-12]
            rising = [(d, v) for d, v in zip(grid, vals) if d >= d_ij]
            assert all(v == pytest.approx(m * p, rel=1e-12) for v in flat)
            for (d1, v1), (d2, v2) in zip(rising, rising[1:]):
                assert v2 > v1 - 1e-12
                if d1 > d_ij + 1e-9:
                    assert v2 > v1
        else:
            for v1, v2 in zip(vals, vals[1:]):
                assert v2 >= v1 - 1e-12
            assert all(v > m * p - 1e-12 for v in vals)
            assert vals[-1] > m * p


def test_classify_cross_range_cases():
    o = opt(1.0, 0.5, 5.0, 2.0)  # band [1, 3]
    assert cost.classify_cross_range(0.5, 0.2, o).case == cost.CASE_A
    assert cost.classify_cross_range(2.0, 0.2, o).case == cost.CASE_B
    assert cost.classify_cross_range(1.2, 0.5, o).case == cost.CASE_C
    assert cost.classify_cross_range(2.8, 0.5, o).case == cost.CASE_D
    assert cost.classify_cross_range(2.0, 0.9, o).case == cost.CASE_E
    assert cost.classify_cross_range(5.0, 0.2, o).case == cost.CASE_F


@pytest.mark.parametrize("p_bar", [5.0, 1.5])  # high (p_bar > k) and low penalty
def test_cross_cost_table_matches_kernel_in_every_case(p_bar):
    k, o = 2.5, opt(1.0, 0.5, p_bar, 2.0)  # band [1, 3]
    # the cost.classify_cross_range examples, one per case, in table row order
    examples = [(2.0, 0.2), (0.5, 0.2), (5.0, 0.2), (2.0, 0.9), (1.2, 0.5), (2.8, 0.5)]
    geometry = [cost.CASE_B, cost.CASE_A, cost.CASE_F, cost.CASE_E, cost.CASE_C, cost.CASE_D]
    for row, ((m, d), case) in enumerate(zip(examples, geometry)):
        assert cost.classify_cross_range(m, d, o).case == case
        assert _kernels.cross_cost_case(d, m, o.delta, o.center) == row
    # every case across a sweep of means and variations
    d = np.linspace(1e-3, 1.0, 400)
    seen = set()
    for m in np.linspace(0.3, 6.0, 58):
        case = _kernels.cross_cost_case(d, m, o.delta, o.center)
        a, b, c = _kernels.cross_cost_table(m, o.p, o.delta, o.p_bar, o.center, k)[case].T
        np.testing.assert_allclose(
            a * d + b / d + c,
            _kernels.cross_cost_curve(d, m, o.p, o.delta, o.p_bar, o.center, k),
            rtol=1e-12,
            atol=0.0,
        )
        seen.update(case.tolist())
    assert seen == set(range(6))


@pytest.mark.parametrize("p_bar", [5.0, 1.5])
def test_own_cost_table_matches_kernel_on_both_pieces(p_bar):
    k, m, p, delta = 2.5, 1.7, 1.0, 0.4
    d = np.linspace(1e-3, 1.0, 1000)
    table = _kernels.own_cost_table(m, p, delta, p_bar, k)
    piece = _kernels.own_cost_piece(d, delta)
    assert set(np.unique(piece)) == {0, 1}
    a, b, c = table[piece].T
    np.testing.assert_allclose(
        a * d + b / d + c, _kernels.own_cost_curve(d, m, p, delta, p_bar, k),
        rtol=1e-12, atol=0.0,
    )


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_examples():
    params = MarketParams(p0=10.0, k=2.0, c0=0.1, c_hat=0.5, N=1)
    at_baseline = opt(10.0, 0.3, 50.0, 1.0)
    assert cost.threshold(at_baseline, params) == pytest.approx(0.3)
    high = opt(9.9, 0.5, 5.0, 1.0)
    expected = (math.sqrt(1.2**2 - 1.0) + 1.2) / 2.0
    assert cost.threshold(high, params) == pytest.approx(expected)
    # 4*(p0-p) >= k clips at 1
    clipped = opt(9.5, 0.0, 50.0, 1.0)
    assert cost.threshold(clipped, params) == 1.0


def test_threshold_low_regime_uses_penalty_price():
    params = MarketParams(p0=10.0, k=50.0, c0=0.1, c_hat=0.5, N=1)
    o = opt(9.9, 0.5, 5.0, 1.0)  # p_bar < k
    expected = (math.sqrt((5 * 0.5 + 0.2) ** 2 - (5 * 0.5) ** 2) + 5 * 0.5 + 0.2) / 5.0
    assert cost.threshold(o, params) == pytest.approx(expected)


def test_threshold_nonincreasing_in_k():
    o = opt(9.0, 0.4, 1e6, 1.0)
    prev = 2.0
    for k in np.linspace(10.5, 100.0, 40):
        params = MarketParams(p0=10.0, k=float(k), c0=0.1, c_hat=0.5, N=1)
        th = cost.threshold(o, params)
        assert th <= prev + 1e-12
        prev = th


# ---------------------------------------------------------------------------
# payment / energy expectations
# ---------------------------------------------------------------------------


def test_expected_payment_energy_against_sampler():
    rng = make_rng(303)
    mode = BehaviorMode("optimistic", 0.0)
    for _ in range(8):
        m = rng.uniform(0.5, 4.0)
        d = rng.uniform(0.01, 1.0)
        o = opt(rng.uniform(1.0, 5.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 30.0), rng.uniform(0.5, 4.0))
        k = rng.uniform(1.0, 15.0)
        pay, en = cost.expected_payment_energy(m, d, o, k)
        cfg = oracle.SimConfig(trials=200000, seed=int(rng.integers(1 << 30)), mode=mode)
        sizes = oracle._chunk_sizes(cfg.trials)
        gens = oracle._chunk_generators(cfg.seed, len(sizes))
        pays, ens = [], []
        for n, g in zip(sizes, gens):
            x = oracle._sample_demand(g, n, m, d, None)
            from flexcon._kernels import payment_energy

            pj, ej = payment_energy(x, o.p, o.delta, o.p_bar, o.center, k)
            pays.append(pj)
            ens.append(ej)
        pays = np.concatenate(pays)
        ens = np.concatenate(ens)
        assert pay == pytest.approx(pays.mean(), abs=4.0 * pays.std() / math.sqrt(len(pays)) + 1e-12)
        assert en == pytest.approx(ens.mean(), abs=4.0 * ens.std() / math.sqrt(len(ens)) + 1e-12)


# ---------------------------------------------------------------------------
# contract choice
# ---------------------------------------------------------------------------


def test_choose_option_worst_case_ties(two_type):
    params, dist = two_type
    menu = design.approx_menu(params, dist, epsilon=1e-6 * params.p0)
    mode = BehaviorMode.pessimistic(params)
    assert cost.choose_option(1.0, 0.2, menu, params, mode) == 1
    assert cost.choose_option(1.0, 0.5, menu, params, mode) == 0


def test_choose_option_high_variation_goes_baseline(two_type):
    params, dist = two_type
    menu = design.approx_menu(params, dist, epsilon=1e-6 * params.p0)
    d_th = cost.threshold(menu[0], params)
    for mode in (BehaviorMode.optimistic(params), BehaviorMode.pessimistic(params)):
        assert cost.choose_option(1.0, min(1.0, d_th + 0.05), menu, params, mode) == BASELINE


def test_choose_option_optimistic_prefers_dedicated(two_type):
    params, dist = two_type
    menu = design.approx_menu(params, dist)  # exact baseline prices: everything ties
    mode = BehaviorMode.optimistic(params)
    assert cost.choose_option(1.0, 0.2, menu, params, mode) == 0
    assert cost.choose_option(1.2, 0.1, menu, params, mode) == 1


def test_choose_option_pessimistic_baseline_tie(two_type):
    # at exact baseline prices the flat scheme joins the tie set and is worst
    params, dist = two_type
    menu = design.approx_menu(params, dist)
    mode = BehaviorMode.pessimistic(params)
    assert cost.choose_option(1.0, 0.2, menu, params, mode) == BASELINE


def test_modes_agree_on_singleton_minimizer():
    rng = make_rng(404)
    for _ in range(50):
        params, dist = sample_instance(rng, n_types=int(rng.integers(1, 4)))
        menu = ContractMenu(
            tuple(
                ContractOption(
                    p=params.p0 * rng.uniform(0.5, 0.999),
                    delta=rng.uniform(0.0, 1.0),
                    p_bar=params.k * rng.uniform(0.5, 3.0),
                    center=m,
                )
                for m in dist.means
            )
        )
        m_i = float(rng.choice(dist.means))
        d = rng.uniform(0.0, 1.0)
        opt_mode = BehaviorMode.optimistic(params)
        pes_mode = BehaviorMode.pessimistic(params)
        costs = [m_i * params.p0] + [
            cost.expected_cost_for(m_i, d, o, params.k) for o in menu
        ]
        best = min(costs)
        if sum(1 for c in costs if c <= best + opt_mode.tie_tol) == 1:
            assert cost.choose_option(m_i, d, menu, params, opt_mode) == cost.choose_option(
                m_i, d, menu, params, pes_mode
            )


# ---------------------------------------------------------------------------
# Monte Carlo certification of the closed forms
# ---------------------------------------------------------------------------


def test_expected_costs_match_monte_carlo():
    rng = make_rng(505)
    mode = BehaviorMode("optimistic", 0.0)
    for trial in range(12):
        m = rng.uniform(0.5, 5.0)
        d = rng.uniform(0.01, 1.0)
        center = rng.uniform(0.5, 5.0)
        p = rng.uniform(0.5, 5.0)
        k = rng.uniform(1.0, 15.0)
        p_bar = rng.uniform(0.2, 2.5) * k
        o = opt(p, rng.uniform(0.0, 1.0), p_bar, center)
        analytic = cost.expected_cost_for(m, d, o, k)
        mean, se = oracle.oracle_expected_cost(
            m, d, o, k, oracle.SimConfig(trials=400000, seed=1000 + trial, mode=mode)
        )
        assert abs(mean - analytic) <= 3.0 * se + 1e-12
