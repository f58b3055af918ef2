import os

import numpy as np
import pytest

from conftest import make_rng, sample_instance
from flexcon import cost, design, oracle, profit
from flexcon.model import (
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
    VariationModel,
)


def opt_mode(params):
    return BehaviorMode.optimistic(params)


def test_sim_config_requires_trials():
    with pytest.raises(ValueError):
        oracle.SimConfig(trials=0, seed=1, mode=BehaviorMode("optimistic", 0.0))


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.delenv("FLEXCON_THREADS", raising=False)
    assert oracle.worker_count() == min(8, os.cpu_count() or 1)
    monkeypatch.setenv("FLEXCON_THREADS", "")
    assert oracle.worker_count() == min(8, os.cpu_count() or 1)
    monkeypatch.setenv("FLEXCON_THREADS", "3")
    assert oracle.worker_count() == 3
    for bad in ("0", "-2", "abc", "1.5"):
        monkeypatch.setenv("FLEXCON_THREADS", bad)
        with pytest.raises(ValueError, match="FLEXCON_THREADS"):
            oracle.worker_count()


def test_oracle_zero_variation_is_deterministic():
    o = ContractOption(p=2.0, delta=0.3, p_bar=10.0, center=1.5)
    mode = BehaviorMode("optimistic", 0.0)
    mean, se = oracle.oracle_expected_cost(1.5, 0.0, o, 4.0, oracle.SimConfig(5000, 9, mode))
    assert se == 0.0
    assert mean == pytest.approx(cost.billed_cost(1.5, o))


def test_oracle_matches_own_cost_formula():
    o = ContractOption(p=1.0, delta=0.2, p_bar=10.0, center=1.0)
    mode = BehaviorMode("optimistic", 0.0)
    mean, se = oracle.oracle_expected_cost(1.0, 0.6, o, 4.0, oracle.SimConfig(10**6, 7, mode))
    assert abs(mean - (1.0 + (4.0 / 2.4) * 0.16)) <= 3.0 * se


def test_oracle_matches_cross_cost_formula():
    o = ContractOption(p=1.0, delta=0.5, p_bar=10.0, center=1.0)
    mode = BehaviorMode("optimistic", 0.0)
    mean, se = oracle.oracle_expected_cost(3.0, 0.05, o, 2.0, oracle.SimConfig(10**6, 8, mode))
    assert abs(mean - 4.5) <= max(3.0 * se, 1e-12)


def test_oracle_determinism():
    o = ContractOption(p=2.0, delta=0.4, p_bar=30.0, center=1.2)
    mode = BehaviorMode("optimistic", 0.0)
    a = oracle.oracle_expected_cost(1.2, 0.5, o, 6.0, oracle.SimConfig(100000, 3, mode))
    b = oracle.oracle_expected_cost(1.2, 0.5, o, 6.0, oracle.SimConfig(100000, 3, mode))
    assert a == b


def test_stderr_scales_with_sample_size():
    o = ContractOption(p=2.0, delta=0.4, p_bar=30.0, center=1.2)
    mode = BehaviorMode("optimistic", 0.0)
    _, se4 = oracle.oracle_expected_cost(1.2, 0.5, o, 6.0, oracle.SimConfig(10**4, 5, mode))
    _, se6 = oracle.oracle_expected_cost(1.2, 0.5, o, 6.0, oracle.SimConfig(10**6, 5, mode))
    assert 5.0 <= se4 / se6 <= 20.0


def test_simulate_single_trial_reproduces_draws():
    # everyone lands on the flat scheme, so the one-trial profit can be
    # recomputed from the raw draws of the same substream
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=4)
    dist = TypeDistribution((1.0, 2.0), (0.3, 0.7))
    menu = ContractMenu(tuple(ContractOption(10.0, 0.0, 50.0, m) for m in dist.means))
    cfg = oracle.SimConfig(trials=1, seed=2024, mode=BehaviorMode.pessimistic(params))
    sim = oracle.simulate_market(menu, params, dist, VariationModel.uniform(), cfg)
    rng = oracle._chunk_generators(2024, 1)[0]
    types = np.minimum(
        np.searchsorted(np.cumsum(dist.probs), rng.random((1, 4))), dist.n - 1
    ).ravel()
    deltas = rng.random((1, 4)).ravel()
    u = rng.random((1, 4)).ravel()
    ms = np.asarray(dist.means)[types]
    x = ms * (1.0 - deltas) + u * 2.0 * ms * deltas
    expected = float(
        np.sum(params.p0 * x - params.c0 * x - params.c_hat * 2.0 * dist.m_max)
    )
    assert sim.mean_profit == pytest.approx(expected, rel=1e-12)
    assert sim.std_error == 0.0


def test_simulate_determinism_across_workers(monkeypatch, two_type):
    params, dist = two_type
    menu = design.robust_contract(params, dist).menu
    cfg = oracle.SimConfig(trials=50000, seed=99, mode=BehaviorMode.pessimistic(params))
    monkeypatch.setenv("FLEXCON_THREADS", "1")
    a = oracle.simulate_market(menu, params, dist, VariationModel.uniform(), cfg)
    monkeypatch.setenv("FLEXCON_THREADS", "8")
    b = oracle.simulate_market(menu, params, dist, VariationModel.uniform(), cfg)
    assert a == b


def test_simulate_matches_motivating_example_profit():
    p0 = 1.0
    params = MarketParams(p0=p0, k=1.2 * p0, c0=0.2 * p0, c_hat=0.1 * p0, N=10)
    dist = TypeDistribution((1.0, 3.0), (0.9, 0.1))
    # a deep-discount menu subscribing everyone reproduces the full-commitment profit
    k_soft = MarketParams(p0=p0, k=1.05 * p0, c0=0.2 * p0, c_hat=0.1 * p0, N=10)
    menu = ContractMenu(tuple(ContractOption(0.7 * p0, 0.1, 1000.0 * p0, m) for m in dist.means))
    assert all(cost.threshold(o, k_soft) == 1.0 for o in menu)
    analytic = profit.total_profit(menu, k_soft, dist, opt_mode(k_soft))
    assert analytic == pytest.approx(profit.full_subscription_profit(menu, k_soft, dist), rel=1e-12)
    sim = oracle.simulate_market(
        menu, k_soft, dist, VariationModel.uniform(), oracle.SimConfig(200000, 17, opt_mode(k_soft))
    )
    assert abs(sim.mean_profit - analytic) <= 3.0 * sim.std_error


def test_quadrature_exact_for_high_penalty_menu(two_type):
    params, dist = two_type
    menu = design.approx_menu(params, dist, epsilon=0.01 * params.p0)
    analytic = sum(
        profit.profit_high(i, o, params, dist).expected_profit for i, o in enumerate(menu)
    )
    numeric = oracle.quadrature_profit(menu, params, dist, opt_mode(params))
    assert numeric == pytest.approx(analytic, rel=1e-10)


def test_quadrature_matches_low_penalty_closed_form():
    rng = make_rng(21)
    for _ in range(8):
        params, dist = sample_instance(rng, n_types=1)
        o = ContractOption(
            p=params.p0 * rng.uniform(0.6, 0.999),
            delta=rng.uniform(0.0, 0.9),
            p_bar=params.k * rng.uniform(0.2, 0.999),
            center=dist.means[0],
        )
        menu = ContractMenu((o,))
        analytic = profit.total_profit(menu, params, dist, opt_mode(params))
        numeric = oracle.quadrature_profit(menu, params, dist, opt_mode(params))
        assert numeric == pytest.approx(analytic, rel=1e-8)


def test_quadrature_matches_pessimistic_closed_form():
    rng = make_rng(22)
    for _ in range(8):
        params, dist = sample_instance(rng)
        out = design.robust_contract(params, dist)
        mode = BehaviorMode.pessimistic(params)
        analytic = profit.total_profit(out.menu, params, dist, mode)
        numeric = oracle.quadrature_profit(out.menu, params, dist, mode)
        assert numeric == pytest.approx(analytic, rel=1e-8)


def test_truncated_normal_demand_sampler_moments():
    rng = oracle._chunk_generators(5, 1)[0]
    x = oracle._sample_demand(rng, 200000, 2.0, 0.5, 0.3)
    assert np.all(x >= 1.0 - 1e-12) and np.all(x <= 3.0 + 1e-12)
    assert x.mean() == pytest.approx(2.0, abs=0.005)
