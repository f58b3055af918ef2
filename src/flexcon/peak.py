"""Multi-slot peak-based pricing comparator: the customer's optimal peak
shaving under an energy-plus-demand-charge tariff, and the profit-ratio
experiment of flexible contract menus against that tariff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design
from .model import MarketParams, TypeDistribution


@dataclass(frozen=True)
class SlotModel:
    """Billing-period model: one type distribution per time slot, an energy
    price per unit, and a demand price per unit of the period's peak power."""

    hours_per_slot: int
    per_slot_dist: tuple[TypeDistribution, ...]
    p_energy: float
    p_demand: float

    def __post_init__(self):
        if self.p_demand <= self.p_energy:
            raise ValueError("the demand charge must exceed the energy price")
        if self.hours_per_slot < 1 or not self.per_slot_dist:
            raise ValueError("need at least one slot and one hour per slot")

    @property
    def slots(self) -> int:
        return len(self.per_slot_dist)


def _shave_batch(x: np.ndarray, model: SlotModel, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal peak cap per row of demand profiles.

    Total cost is piecewise linear in the cap level, so the optimum sits on an
    order statistic of the profile (or at zero); all candidates are evaluated.
    """
    rows, slots = x.shape
    candidates = np.concatenate([np.zeros((rows, 1)), np.sort(x, axis=1)], axis=1)
    best_cost = np.full(rows, np.inf)
    best_cap = np.zeros(rows)
    for c_idx in range(candidates.shape[1]):
        cap = candidates[:, c_idx]
        adj = np.minimum(x, cap[:, None])
        cost = (
            model.p_energy * adj.sum(axis=1)
            + model.p_demand * adj.max(axis=1) / model.hours_per_slot
            + k * (x - adj).sum(axis=1)
        )
        better = cost < best_cost - 1e-15
        best_cost = np.where(better, cost, best_cost)
        best_cap = np.where(better, cap, best_cap)
    adjusted = np.minimum(x, best_cap[:, None])
    payment = (
        model.p_energy * adjusted.sum(axis=1)
        + model.p_demand * adjusted.max(axis=1) / model.hours_per_slot
    )
    return payment, adjusted


def peak_payment(x, slot_model: SlotModel, k: float) -> tuple[float, list[float]]:
    """One customer's bill under peak-based pricing after optimal peak shaving.

    Returns the payment to the supplier (energy plus demand charge) and the
    adjusted per-slot profile; the shaving level minimizes the bill plus the
    elasticity cost of the shed energy.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("per-slot demand must be nonnegative")
    payment, adjusted = _shave_batch(arr.reshape(1, -1), slot_model, k)
    return float(payment[0]), adjusted[0].tolist()


def _worst_case_adjusted_peak(model: SlotModel, k: float) -> float:
    """Largest adjusted peak any customer can present after shaving.

    The supplier has no per-customer information under peak pricing, so it
    provisions for the componentwise-worst profile (top type, full variation).
    """
    worst = [2.0 * d.m_max for d in model.per_slot_dist]
    _, adjusted = peak_payment(worst, model, k)
    return max(adjusted)


def _peak_supplier_profit(
    model: SlotModel,
    params: MarketParams,
    trials: int,
    seed: int,
) -> float:
    """Monte Carlo expected profit per customer under peak-based pricing,
    minus the deterministic worst-case capacity charge."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    slots = model.slots
    x = np.empty((trials, slots))
    for t, dist in enumerate(model.per_slot_dist):
        cum = np.cumsum(dist.probs)
        types = np.minimum(np.searchsorted(cum, rng.random(trials)), dist.n - 1)
        means = np.asarray(dist.means)[types]
        deltas = rng.random(trials)
        lo = means * (1.0 - deltas)
        hi = means * (1.0 + deltas)
        x[:, t] = lo + rng.random(trials) * (hi - lo)
    payment, adjusted = _shave_batch(x, model, params.k)
    per_customer = float(np.mean(payment - params.c0 * adjusted.sum(axis=1)))
    capacity = _worst_case_adjusted_peak(model, params.k)
    return params.N * (per_customer - params.c_hat * capacity)


def _flexible_supplier_profit(
    model: SlotModel,
    params: MarketParams,
    epsilon: float,
) -> float:
    """Worst-case profit of per-slot robust menus sharing one capacity pool.

    Revenue and energy margins accrue per slot; capacity is provisioned once
    for the period, sized by the slot with the largest expected need.
    """
    margin = 0.0
    worst_capacity = 0.0
    for dist in model.per_slot_dist:
        menu = design.approx_menu(params, dist, epsilon=epsilon)
        value, caps = design.pessimistic_evaluation(menu, params, dist)
        expected = params.N * sum(h * c for h, c in zip(dist.probs, caps))
        margin += value + params.c_hat * expected
        worst_capacity = max(worst_capacity, expected)
    return margin - params.c_hat * worst_capacity


def compare_profits(
    slot_model: SlotModel,
    params: MarketParams,
    epsilon: float,
    c_hat_grid,
    ratio_grid,
    trials: int = 20000,
    seed: int = 20240901,
) -> list[dict]:
    """Profit of flexible contracts relative to peak-based pricing on a grid.

    Each cell rescales every slot's top type to ratio * m1 and sets the unit
    capacity cost, then evaluates both schemes; rows hold both profits and
    their ratio in grid order.
    """
    rows = []
    for ratio in ratio_grid:
        dists = []
        for d in slot_model.per_slot_dist:
            m1 = d.means[0]
            dists.append(TypeDistribution((m1, ratio * m1), d.probs))
        scaled = SlotModel(
            slot_model.hours_per_slot, tuple(dists), slot_model.p_energy, slot_model.p_demand
        )
        for c_hat in c_hat_grid:
            p = MarketParams(params.p0, params.k, params.c0, float(c_hat), params.N)
            flexible = _flexible_supplier_profit(scaled, p, epsilon)
            peak = _peak_supplier_profit(scaled, p, trials, seed)
            rows.append(
                {
                    "c_hat": float(c_hat),
                    "mean_ratio": float(ratio),
                    "flexible_profit": float(flexible),
                    "peak_profit": float(peak),
                    "profit_ratio": float(flexible / peak) if peak != 0.0 else float("inf"),
                }
            )
    return rows
