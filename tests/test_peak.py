import numpy as np
import pytest

from conftest import make_rng
from flexcon import design, peak, profit
from flexcon.model import BehaviorMode, MarketParams, TypeDistribution, VariationModel


def reference_slot_model(p_demand=5258.0):
    slot_probs = [(0.5, 0.5), (0.6, 0.4), (0.55, 0.45), (0.5, 0.5)]
    slot_m1 = [1.0, 2.0, 3.0, 4.0]
    dists = tuple(
        TypeDistribution((m, 2.0 * m), probs) for m, probs in zip(slot_m1, slot_probs)
    )
    return peak.SlotModel(hours_per_slot=168, per_slot_dist=dists, p_energy=49.0, p_demand=p_demand)


def test_slot_model_validation():
    with pytest.raises(ValueError):
        peak.SlotModel(168, (TypeDistribution((1.0,), (1.0,)),), p_energy=50.0, p_demand=40.0)
    with pytest.raises(ValueError):
        peak.SlotModel(0, (TypeDistribution((1.0,), (1.0,)),), p_energy=40.0, p_demand=50.0)


def test_zero_demand_pays_nothing():
    model = reference_slot_model()
    payment, adjusted = peak.peak_payment([0.0, 0.0, 0.0, 0.0], model, 75.0)
    assert payment == 0.0
    assert adjusted == [0.0, 0.0, 0.0, 0.0]


def test_negative_demand_rejected():
    with pytest.raises(ValueError):
        peak.peak_payment([1.0, -0.5, 2.0, 1.0], reference_slot_model(), 75.0)


def test_shaves_to_second_highest_in_middle_regime():
    model = reference_slot_model()
    k = 75.0
    # k - pE = 26 < pD/L = 31.3 < 2(k - pE) = 52
    assert k - model.p_energy < model.p_demand / model.hours_per_slot < 2 * (k - model.p_energy)
    _, adjusted = peak.peak_payment([1.0, 2.0, 3.0, 5.0], model, k)
    assert adjusted == pytest.approx([1.0, 2.0, 3.0, 3.0])


def test_no_shaving_when_demand_charge_is_cheap():
    model = reference_slot_model()
    k = 49.0 + 40.0  # pD/L = 31.3 < k - pE = 40
    x = [1.0, 2.0, 3.0, 5.0]
    payment, adjusted = peak.peak_payment(x, model, k)
    assert adjusted == pytest.approx(x)
    assert payment == pytest.approx(model.p_energy * 11.0 + model.p_demand * 5.0 / 168.0)


def test_shave_level_optimal_against_fine_grid():
    rng = make_rng(61)
    model = reference_slot_model()
    for _ in range(12):
        x = rng.uniform(0.0, 8.0, size=4)
        k = rng.uniform(50.0, 120.0)
        payment, adjusted = peak.peak_payment(list(x), model, k)
        chosen = (
            payment + k * float(np.sum(np.maximum(x - np.asarray(adjusted), 0.0)))
        )
        caps = np.linspace(0.0, float(x.max()), 20001)
        adj = np.minimum(x[None, :], caps[:, None])
        costs = (
            model.p_energy * adj.sum(axis=1)
            + model.p_demand * adj.max(axis=1) / model.hours_per_slot
            + k * (x[None, :] - adj).sum(axis=1)
        )
        assert chosen <= float(costs.min()) + 1e-9


def test_shaving_never_hurts_customer():
    rng = make_rng(62)
    model = reference_slot_model()
    for _ in range(30):
        x = rng.uniform(0.0, 10.0, size=4)
        k = rng.uniform(49.5, 200.0)
        payment, adjusted = peak.peak_payment(list(x), model, k)
        total = payment + k * float(np.sum(np.maximum(x - np.asarray(adjusted), 0.0)))
        no_shave = model.p_energy * x.sum() + model.p_demand * x.max() / model.hours_per_slot
        assert total <= no_shave + 1e-9


def test_compare_profits_reference_instance():
    model = reference_slot_model()
    p0 = 1.4 * model.p_energy
    params = MarketParams(p0=p0, k=75.0, c0=11.0, c_hat=10.0, N=10)
    rows = peak.compare_profits(
        model,
        params,
        epsilon=0.1 * p0,
        c_hat_grid=[4.0, 12.0, 20.0, 28.0],
        ratio_grid=[1.3, 2.0, 2.7],
        trials=8000,
        seed=71,
    )
    assert len(rows) == 12
    above = sum(1 for r in rows if r["profit_ratio"] > 1.0)
    assert above >= 0.9 * len(rows)
    by_ratio = {}
    for r in rows:
        by_ratio.setdefault(r["mean_ratio"], []).append((r["c_hat"], r["profit_ratio"]))
    for cells in by_ratio.values():
        cells.sort()
        assert all(b[1] >= a[1] - 1e-9 for a, b in zip(cells, cells[1:]))


def test_compare_profits_rows_are_plain_floats():
    model = reference_slot_model()
    p0 = 1.4 * model.p_energy
    params = MarketParams(p0=p0, k=75.0, c0=11.0, c_hat=10.0, N=10)
    rows = peak.compare_profits(model, params, 0.1 * p0, [10.0], [2.0], trials=2000, seed=3)
    assert all(type(v) is float for row in rows for v in row.values())


def test_flexible_profit_integrates_a_slot_that_fails_the_incentive_check():
    p0 = 1.4 * 49.0
    params = MarketParams(p0=p0, k=1.1 * p0, c0=0.2 * p0, c_hat=10.0, N=10)
    eps = 0.1 * p0
    failing = TypeDistribution((1.0, 2.0), (0.5, 0.5))
    passing = TypeDistribution((0.5, 1.5), (0.5, 0.5))
    model = peak.SlotModel(168, (failing, passing), p_energy=49.0, p_demand=5258.0)
    mode = BehaviorMode.pessimistic(params)
    margin, needs = 0.0, []
    for dist in model.per_slot_dist:
        menu = design.approx_menu(params, dist, epsilon=eps)
        value, caps = profit._profit_by_integration(
            menu, params, dist, mode, VariationModel.uniform()
        )
        need = params.N * sum(h * c for h, c in zip(dist.probs, caps))
        margin += value + params.c_hat * need
        needs.append(need)
        tie_caps = profit.per_type_capacities(menu, params, dist, mode)
        if dist is failing:
            assert not design._ic_ok(menu, params, dist)
            # the tie-based capacities overstate what the choice profile needs
            assert params.N * sum(h * c for h, c in zip(dist.probs, tie_caps)) > need + 0.5
        else:
            assert design._ic_ok(menu, params, dist)
    assert needs[0] > needs[1]  # the failing slot sizes the shared capacity
    expected = margin - params.c_hat * max(needs)
    assert peak._flexible_supplier_profit(model, params, eps) == pytest.approx(expected, rel=1e-12)
