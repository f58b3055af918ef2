import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_rng, sample_instance
from flexcon import _kernels, cost, design, profit
from flexcon._integrate import ConvergenceError
from flexcon.model import (
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
)


# ---------------------------------------------------------------------------
# approximate menu
# ---------------------------------------------------------------------------


def test_approx_contract_band_widths(two_type):
    params, dist = two_type
    out = design.approx_contract(params, dist)
    assert [o.delta for o in out.menu] == [pytest.approx(0.7), pytest.approx(0.5)]
    assert all(o.p == params.p0 for o in out.menu)
    assert all(o.p_bar > params.k for o in out.menu)
    assert out.ic_verified


def test_approx_contract_both_branches():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((1.0, 2.0), (0.5, 0.5))
    out = design.approx_contract(params, dist)
    assert [o.delta for o in out.menu] == [pytest.approx(1.0), pytest.approx(0.5)]


def test_approx_contract_single_type():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((3.0,), (1.0,))
    out = design.approx_contract(params, dist)
    assert out.menu[0].delta == pytest.approx(0.5)


def test_approx_contract_independent_of_probabilities():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    means = (1.0, 1.5, 4.0)
    a = design.approx_contract(params, TypeDistribution(means, (0.2, 0.3, 0.5)))
    b = design.approx_contract(params, TypeDistribution(means, (0.98, 0.01, 0.01)))
    assert a.menu == b.menu


def test_approx_contract_is_incentive_compatible_on_random_instances():
    rng = make_rng(11)
    for _ in range(25):
        params, dist = sample_instance(rng)
        menu = design.approx_menu(params, dist)
        ok, violations = design.verify_ic(menu, params, dist)
        assert ok, violations[:3]


# ---------------------------------------------------------------------------
# super-optimal benchmark
# ---------------------------------------------------------------------------


def test_super_optimal_near_minimal_elasticity():
    # k -> 2*c_hat from above: the top type gets a zero-width band at p0 - c/2
    p0 = 3.0
    ch = 0.5 * p0 * (1.0 - 1e-12)
    params = MarketParams(p0=p0, k=p0 * (1.0 + 1e-9), c0=0.5, c_hat=ch, N=1)
    dist = TypeDistribution((1.0, 1.2), (0.5, 0.5))
    out = design.super_optimal(params, dist)
    top = out.menu[-1]
    assert top.delta == pytest.approx(0.0, abs=1e-6)
    assert top.p == pytest.approx(p0 - ch / 2.0, rel=1e-6)
    assert not out.ic_verified


def test_super_optimal_far_type_branch():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((1.0, 100.0), (0.5, 0.5))
    out = design.super_optimal(params, dist)
    far = out.menu[0]
    assert far.delta == pytest.approx(1.0 - 2.0 * params.c_hat / params.k)
    assert far.p == pytest.approx(params.p0 - params.c_hat**2 / params.k)
    assert cost.threshold(far, params) == pytest.approx(1.0)


def test_super_optimal_rejects_small_elasticity():
    params = MarketParams(p0=10.0, k=1.5, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((1.0,), (1.0,))
    with pytest.raises(ValueError):
        design.super_optimal(params, dist)


# ---------------------------------------------------------------------------
# robust menu and discount search
# ---------------------------------------------------------------------------


def test_robust_contract_explicit_discount(two_type):
    params, dist = two_type
    eps = 0.001 * params.p0
    out = design.robust_contract(params, dist, eps)
    assert [o.p for o in out.menu] == [pytest.approx(0.999 * params.p0)] * 2
    assert [o.delta for o in out.menu] == [pytest.approx(0.7), pytest.approx(0.5)]
    assert out.epsilon == eps


def test_robust_contract_rejects_zero_discount(two_type):
    params, dist = two_type
    with pytest.raises(ValueError):
        design.robust_contract(params, dist, 0.0)


def test_robust_contract_accepts_large_fixed_discount(two_type):
    params, dist = two_type
    out = design.robust_contract(params, dist, 0.1 * params.p0)
    assert out.epsilon == pytest.approx(0.1 * params.p0)
    assert out.report.menu_profit == pytest.approx(
        design.pessimistic_profit(out.menu, params, dist), rel=1e-6
    )


def test_robust_contract_auto_conditions(two_type):
    params, dist = two_type
    out = design.robust_contract(params, dist)
    assert out.epsilon > 0.0
    assert out.ic_verified
    floor = profit.pessimistic_profit_limit(design.approx_menu(params, dist), params, dist)
    assert out.report.menu_profit >= floor - 1e-9 * (1.0 + abs(floor))


def test_auto_discount_never_below_vanishing_limit():
    rng = make_rng(12)
    for _ in range(10):
        params, dist = sample_instance(rng)
        out = design.robust_contract(params, dist)
        floor = profit.pessimistic_profit_limit(design.approx_menu(params, dist), params, dist)
        assert out.report.menu_profit >= floor - 1e-9 * (1.0 + abs(floor))


def test_small_discounts_never_fall_below_limit():
    # every sufficiently small strict discount (above the tie tolerance, so it
    # registers at all) keeps the worst-case profit at or above its
    # vanishing-discount value
    rng = make_rng(12)
    for _ in range(10):
        params, dist = sample_instance(rng)
        mode = BehaviorMode.pessimistic(params)
        floor = profit.pessimistic_profit_limit(design.approx_menu(params, dist), params, dist)
        for t in (20, 22, 24, 26, 28):
            menu = design.approx_menu(params, dist, epsilon=params.p0 * 2.0**-t)
            value = profit.total_profit(menu, params, dist, mode)
            assert value >= floor - 1e-9 * (1.0 + abs(floor))


# ---------------------------------------------------------------------------
# incentive verification
# ---------------------------------------------------------------------------


def test_verify_ic_passes_for_canonical_menus(two_type):
    params, dist = two_type
    ok, _ = design.verify_ic(design.approx_menu(params, dist), params, dist)
    assert ok
    rob = design.robust_contract(params, dist)
    ok, _ = design.verify_ic(rob.menu, params, dist)
    assert ok


def _inflated_band_menu(params):
    # the top band is inflated so the small type keeps fitting beyond its own width
    eps = 0.01 * params.p0
    return ContractMenu(
        (
            ContractOption(params.p0 - eps, 0.7, 2.0 * params.k, 1.0),
            ContractOption(params.p0 - eps, 0.9, 2.0 * params.k, 1.2),
        )
    )


def test_verify_ic_locates_inflated_band_violation(two_type):
    params, dist = two_type
    menu = _inflated_band_menu(params)
    d_12 = cost.containment_delta(1.0, menu[1])
    assert d_12 > menu[0].delta
    ok, violations = design.verify_ic(menu, params, dist)
    assert not ok
    # on (delta_0, d_th] the own cost rises to the baseline cost while the
    # foreign option still holds the whole demand range: the worst point is
    # the threshold itself, where the gap reaches m_0 * eps
    d_th = cost.threshold(menu[0], params)
    assert any(
        v.i == 0 and v.j == 1 and menu[0].delta < v.delta
        and v.delta == pytest.approx(d_th, rel=1e-12)
        for v in violations
    )
    worst = max(v.gap for v in violations if (v.i, v.j) == (0, 1))
    assert worst == pytest.approx(1.0 * (params.p0 - menu[0].p), rel=1e-12)


def _capped_gap(menu, params, dist, i, j, d):
    m, cap = dist.means[i], dist.means[i] * params.p0
    own = cost.expected_cost_for(m, d, menu[i], params.k)
    other = cost.expected_cost_for(m, d, menu[j], params.k)
    return min(own, cap) - min(other, cap)


def test_verify_ic_reports_the_capped_gap_at_its_point(two_type):
    params, dist = two_type
    menus = [(_inflated_band_menu(params), params, dist)]
    rng = make_rng(41)
    for _ in range(6):
        p, d = sample_instance(rng)
        menus.append((_deep_cut_menu(p, d, rng), p, d))
    reported = 0
    for menu, p, d in menus:
        _, violations = design.verify_ic(menu, p, d)
        for v in violations:
            assert v.gap > 1e-9 * p.p0
            assert v.gap == pytest.approx(
                _capped_gap(menu, p, d, v.i, v.j, v.delta), rel=1e-9, abs=1e-12 * p.p0
            )
        reported += len(violations)
    assert reported > len(menus)


# ---------------------------------------------------------------------------
# the exact incentive check against a dense grid
# ---------------------------------------------------------------------------

DENSE_POINTS = 100_001


def _grid_gaps(menu, params, dist, grid):
    """Capped cost gap of every (type, foreign option) pair on a variation grid."""
    k = params.k
    for i, m in enumerate(dist.means):
        own = _kernels.own_cost_curve(grid, m, menu[i].p, menu[i].delta, menu[i].p_bar, k)
        cap = m * params.p0
        for j, o in enumerate(menu):
            if j != i:
                other = _kernels.cross_cost_curve(grid, m, o.p, o.delta, o.p_bar, o.center, k)
                yield np.minimum(own, cap) - np.minimum(other, cap)


def _dense_pair_max(menu, params, dist):
    grid = np.linspace(0.0, 1.0, DENSE_POINTS)
    return np.array([g.max() for g in _grid_gaps(menu, params, dist, grid)])


def _deep_cut_menu(params, dist, rng):
    """Approximate menu with one option cut far below the others' price."""
    menu = list(design.approx_menu(params, dist))
    j = int(rng.integers(len(menu)))
    menu[j] = replace(menu[j], p=menu[j].p * rng.uniform(0.5, 0.9))
    return ContractMenu(tuple(menu))


def _random_menu(params, dist, rng):
    """Options on the type means with random prices, widths and penalty prices
    (either penalty regime)."""
    return ContractMenu(
        tuple(
            ContractOption(
                params.p0 * rng.uniform(0.7, 1.0),
                rng.uniform(0.0, 1.0),
                params.k * rng.uniform(0.3, 2.0),
                m,
            )
            for m in dist.means
        )
    )


def test_exact_ic_agrees_with_dense_grid():
    rng = make_rng(43)
    verdicts = []
    for _ in range(8):
        params, dist = sample_instance(rng)
        menus = [
            design.approx_menu(params, dist),
            design.approx_menu(params, dist, epsilon=params.p0 * rng.uniform(0.01, 0.5)),
            design.robust_contract(params, dist).menu,
            _deep_cut_menu(params, dist, rng),
            _random_menu(params, dist, rng),
        ]
        for menu in menus:
            # per (type, foreign option) pair, in the order of the exact check
            exact = design._worst_gaps(menu, params, dist)[3].max(axis=(0, 1, 2))
            dense = _dense_pair_max(menu, params, dist)
            assert np.all(exact >= dense - 1e-12 * params.p0 * dist.m_max)
            ok = design._ic_ok(menu, params, dist)
            assert ok == bool(np.all(dense <= 1e-9 * params.p0))
            assert ok == design.verify_ic(menu, params, dist)[0]
            verdicts.append(ok)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_exact_ic_finds_violation_between_old_grid_points():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((1.0, 1.11), (0.5, 0.5))
    # type 0 runs a low-penalty option; the price is tuned so that its gap to
    # option 1 peaks 3e-8 above zero, at an interior stationary point
    menu = ContractMenu(
        (
            ContractOption(8.53479643983336, 0.07, 15.6, 1.0),
            ContractOption(8.42, 0.08, 18.2, 1.11),
        )
    )
    ok, violations = design.verify_ic(menu, params, dist)
    assert not ok
    assert [(v.i, v.j) for v in violations] == [(0, 1)]
    (v,) = violations
    assert 347 < 1000 * v.delta < 348
    assert v.gap == pytest.approx(_capped_gap(menu, params, dist, 0, 1, v.delta), rel=1e-6)
    # the former grid: 1001 uniform points plus the analytic breakpoints
    old = set(np.linspace(0.0, 1.0, 1001).tolist())
    for i, m in enumerate(dist.means):
        old.update({min(1.0, cost.threshold(menu[i], params)), menu[i].delta})
        old.update(
            d for j, o in enumerate(menu) if j != i
            if 0.0 < (d := cost.containment_delta(m, o)) < 1.0
        )
    old = np.array(sorted(old))
    assert max(float(g.max()) for g in _grid_gaps(menu, params, dist, old)) <= 1e-9 * params.p0


def test_exact_ic_single_type_has_no_pairs():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((3.0,), (1.0,))
    menu = design.approx_menu(params, dist, epsilon=0.5 * params.p0)
    assert design._ic_ok(menu, params, dist)
    assert design.verify_ic(menu, params, dist) == (True, [])


# Two random market instances on which no grid discount meets the profit
# condition: at every step above the tie tolerance the worst-case profit
# stays just below its vanishing-discount limit (0.0044 short at the last one
# for the first), though the last steps all pass the incentive check.
STOPPING_RULE_NEVER_MET = [
    (
        MarketParams(
            p0=89.2942300900537, k=754.8933838803638, c0=11.34908618739162,
            c_hat=4.2587557259157105, N=19,
        ),
        TypeDistribution(
            (6.707674375458987, 44.659650176148986, 333.74706953299506, 1310.9971000558642,
             6271.843865834133, 25660.2558130084),
            (0.047272574091640304, 0.054444833431478205, 0.016506200882038368,
             0.7720179679736191, 0.10971185163894842, 4.657198227560236e-05),
        ),
        0.809,
    ),
    (
        MarketParams(
            p0=92.06795661419125, k=698.0702287392088, c0=21.163963616311875,
            c_hat=7.446678937698552, N=10,
        ),
        TypeDistribution(
            (7.2001834021956865, 32.66584979977163, 112.71578587229057),
            (0.5810705365090596, 0.4187066261594719, 0.00022283733146842853),
        ),
        0.843,
    ),
]


def test_auto_search_stops_at_the_tie_tolerance(monkeypatch):
    # with no gain-ratio certificate to fall back on, the search gives up at
    # the tie tolerance: smaller steps tie every price with the baseline and
    # are not tried
    params, dist, _ = STOPPING_RULE_NEVER_MET[0]
    real_gain_ratio = profit.gain_ratio

    def uncertified(*args):
        return replace(real_gain_ratio(*args), gain_ratio=0.3)

    monkeypatch.setattr(profit, "gain_ratio", uncertified)
    tie_tol = BehaviorMode.pessimistic(params).tie_tol
    with pytest.raises(ConvergenceError) as err:
        design.robust_contract(params, dist)
    tried = [float(e) for e in re.findall(r"eps=([-+.e0-9]+):", str(err.value))]
    assert tried == pytest.approx([params.p0 * 2.0**-t for t in range(25, 30)], rel=1e-3)
    assert all(e > tie_tol for e in tried)
    assert "incentive check failed" not in str(err.value)


@pytest.mark.parametrize("params, dist, ratio", STOPPING_RULE_NEVER_MET, ids=["608-179", "609-358"])
def test_auto_search_falls_back_to_smallest_certified_discount(params, dist, ratio):
    mode = BehaviorMode.pessimistic(params)
    grid = list(design._auto_discounts(params.p0, mode.tie_tol))
    floor = profit.pessimistic_profit_limit(design.approx_menu(params, dist), params, dist)
    for eps in grid[-5:]:
        menu = design.approx_menu(params, dist, epsilon=eps)
        assert design._ic_ok(menu, params, dist)
        assert profit.total_profit(menu, params, dist, mode) < floor - 1e-9 * (1.0 + abs(floor))
    out = design.robust_contract(params, dist)
    assert out.epsilon == grid[-1]
    assert out.ic_verified
    assert out.menu == design.approx_menu(params, dist, epsilon=grid[-1])
    assert out.report == profit.gain_ratio(out.menu, params, dist, mode)
    assert out.report.gain_ratio == pytest.approx(ratio, abs=5e-4)
    assert design.verify_ic(out.menu, params, dist)[0]


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------


def test_certify_bounds_on_random_instances():
    rng = make_rng(13)
    for _ in range(15):
        params, dist = sample_instance(rng)
        cert = design.certify_bounds(params, dist)
        assert 0.5 - 1e-9 <= cert.optimistic_ratio <= 1.0 + 1e-9
        assert 1.0 / 3.0 - 1e-9 <= cert.pessimistic_ratio <= 1.0 + 1e-9


def test_certify_bounds_near_extremal_elasticity():
    # k just above p0 with c_hat near p0/2 approaches the worst-case regime
    rng = make_rng(14)
    for _ in range(10):
        p0 = rng.uniform(1.0, 50.0)
        params = MarketParams(
            p0=p0,
            k=p0 * (1.0 + 1e-6),
            c0=rng.uniform(0.0, 0.9 * p0),
            c_hat=0.5 * p0 * (1.0 - 1e-9),
            N=int(rng.integers(1, 10)),
        )
        n = int(rng.integers(2, 5))
        means = [rng.uniform(1.0, 5.0)]
        for _ in range(n - 1):
            means.append(rng.uniform(means[-1] * 1.1, means[-1] * 4.0))
        dist = TypeDistribution(tuple(means), tuple(float(x) for x in rng.dirichlet(np.ones(n))))
        cert = design.certify_bounds(params, dist)
        assert cert.optimistic_ratio >= 0.5 - 1e-9
        assert cert.pessimistic_ratio >= 1.0 / 3.0 - 1e-9
