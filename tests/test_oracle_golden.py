"""Golden values of the Monte Carlo market simulation.

Each case runs ``simulate_market`` on a fixed scenario and compares every
``SimResult`` field with ``==`` against values recorded before the per-type
rewrite of the chunk loop, so that a single changed bit fails. Every case runs
at one and at two worker threads.
"""

import pytest

from flexcon import design, oracle
from flexcon.model import (
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
    VariationModel,
)

#: two chunks: one full 16384-trial chunk and one partial
TWO_CHUNKS = oracle.CHUNK_TRIALS + 3001


def _pessimistic_fixed_discount():
    params = MarketParams(p0=10.0, k=25.0, c0=2.0, c_hat=1.5, N=3)
    dist = TypeDistribution((1.0, 1.6, 2.5), (0.5, 0.3, 0.2))
    menu = design.approx_menu(params, dist, epsilon=0.05 * params.p0)
    mode = BehaviorMode.pessimistic(params)
    return menu, params, dist, VariationModel.uniform(), oracle.SimConfig(TWO_CHUNKS, 11, mode)


def _optimistic_one_type_low_penalty():
    params = MarketParams(p0=10.0, k=25.0, c0=2.0, c_hat=1.5, N=2)
    dist = TypeDistribution((2.0,), (1.0,))
    menu = ContractMenu((ContractOption(p=8.5, delta=0.3, p_bar=12.0, center=2.0),))
    mode = BehaviorMode.optimistic(params)
    return menu, params, dist, VariationModel.uniform(), oracle.SimConfig(20000, 12, mode)


def _super_optimal_pessimistic():
    params = MarketParams(p0=40.0, k=90.0, c0=6.0, c_hat=9.0, N=2)
    dist = TypeDistribution((1.5, 2.2, 4.0, 9.0), (0.4, 0.3, 0.2, 0.1))
    menu = design.super_optimal(params, dist).menu
    mode = BehaviorMode.pessimistic(params)
    return menu, params, dist, VariationModel.uniform(), oracle.SimConfig(TWO_CHUNKS, 13, mode)


def _truncated_normal_variation():
    params = MarketParams(p0=10.0, k=25.0, c0=2.0, c_hat=1.5, N=4)
    dist = TypeDistribution((1.0, 1.3, 2.0), (0.2, 0.5, 0.3))
    menu = design.approx_menu(params, dist, epsilon=0.02 * params.p0)
    mode = BehaviorMode.pessimistic(params)
    variation = VariationModel.truncated_normal(0.3, 0.25)
    return menu, params, dist, variation, oracle.SimConfig(20000, 14, mode)


def _optimistic_equal_price_ties():
    params = MarketParams(p0=10.0, k=25.0, c0=2.0, c_hat=1.5, N=3)
    dist = TypeDistribution((1.0, 1.2, 1.5), (0.3, 0.3, 0.4))
    menu = design.approx_menu(params, dist, epsilon=0.1 * params.p0)
    mode = BehaviorMode.optimistic(params)
    return menu, params, dist, VariationModel.uniform(), oracle.SimConfig(TWO_CHUNKS, 15, mode)


CASES = {
    "pessimistic_fixed_discount": _pessimistic_fixed_discount,
    "optimistic_one_type_low_penalty": _optimistic_one_type_low_penalty,
    "super_optimal_pessimistic": _super_optimal_pessimistic,
    "truncated_normal_variation": _truncated_normal_variation,
    "optimistic_equal_price_ties": _optimistic_equal_price_ties,
}

#: recorded with the chunk loop that built a (draws x options) cost matrix
GOLDEN = {
    "optimistic_equal_price_ties": oracle.SimResult(
        mean_profit=16.965997986387006,
        std_error=0.04047105423648299,
        per_type_costs=(
            (9.00444300107598, 0.022743647658283045),
            (10.864498263380169, 0.027717543259576087),
            (13.913107452123342, 0.03194197263187326),
        ),
        per_type_capacity=(2.0, 2.100000000000001, 2.3422625446102248),
    ),
    "optimistic_one_type_low_penalty": oracle.SimResult(
        mean_profit=15.471588568907633,
        std_error=0.041583846820544994,
        per_type_costs=(
            (17.884541731144086, 0.02635346538695626),
        ),
        per_type_capacity=(4.0,),
    ),
    "pessimistic_fixed_discount": oracle.SimResult(
        mean_profit=18.178461457958107,
        std_error=0.07023821459387451,
        per_type_costs=(
            (9.513692354221101, 0.01851355187986057),
            (15.17723279369162, 0.038212414802057504),
            (24.239363650587247, 0.07626321001645067),
        ),
        per_type_capacity=(3.1999999999999993, 3.320913655777445, 4.077197708226441),
    ),
    "super_optimal_pessimistic": oracle.SimResult(
        mean_profit=73.89576349316808,
        std_error=0.6642704490230088,
        per_type_costs=(
            (58.68164575102733, 0.1567000210176215),
            (86.00174382442881, 0.26926412956581536),
            (156.27186084435564, 0.5993338324085207),
            (356.91971350332483, 1.9154809921212537),
        ),
        per_type_capacity=(5.098860150182916, 6.031158731530287, 7.200000000000002, 15.180088610893927),
    ),
    "truncated_normal_variation": oracle.SimResult(
        mean_profit=28.49770318202191,
        std_error=0.05430356916922217,
        per_type_costs=(
            (9.831990235632793, 0.017953577070110055),
            (12.759874417665413, 0.015024618901329695),
            (19.667062558853317, 0.030207499852078507),
        ),
        per_type_capacity=(2.6000000000000005, 2.7243112034233383, 3.091366756812981),
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_market_golden(name, threads, monkeypatch):
    monkeypatch.setenv("FLEXCON_THREADS", threads)
    sim = oracle.simulate_market(*CASES[name]())
    want = GOLDEN[name]
    assert sim.mean_profit == want.mean_profit
    assert sim.std_error == want.std_error
    assert sim.per_type_costs == want.per_type_costs
    assert sim.per_type_capacity == want.per_type_capacity
