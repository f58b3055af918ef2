"""Independent brute-force validators: a seeded Monte Carlo market simulation
and numerical quadrature of the variation integrals. Every closed-form
expectation in the analytic layers is certified against these before use.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cost, profit
from ._integrate import adaptive_simpson
from ._kernels import cross_cost_curve, customer_cost, own_cost_curve, payment_energy
from .model import (
    BASELINE,
    OPTIMISTIC,
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
    VariationModel,
)

#: trials per RNG substream; fixed so results never depend on the worker count
CHUNK_TRIALS = 16384


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    mode: BehaviorMode

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class SimResult:
    mean_profit: float
    std_error: float
    per_type_costs: tuple[tuple[float, float], ...]
    per_type_capacity: tuple[float, ...]


def worker_count() -> int:
    """Worker threads from ``FLEXCON_THREADS``: unset or empty means
    min(8, CPU count), a positive integer is taken as given, anything else
    raises ValueError."""
    env = os.environ.get("FLEXCON_THREADS", "")
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"FLEXCON_THREADS must be a positive integer, got {env!r}")
    return workers


def _chunk_generators(seed: int, n_chunks: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    return [np.random.Generator(np.random.Philox(s)) for s in children]


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full
    if rest:
        sizes.append(rest)
    return sizes


def _sample_demand(
    rng: np.random.Generator, n: int, m: float, delta_cust: float, demand_sigma: float | None
) -> np.ndarray:
    lo, hi = m * (1.0 - delta_cust), m * (1.0 + delta_cust)
    u = rng.random(n)
    if demand_sigma is None:
        return lo + u * (hi - lo)
    if hi == lo:
        return np.full(n, m)
    from scipy.special import ndtr, ndtri

    a = ndtr((lo - m) / demand_sigma)
    b = ndtr((hi - m) / demand_sigma)
    return m + demand_sigma * ndtri(a + u * (b - a))


def oracle_expected_cost(
    m: float,
    delta_cust: float,
    option: ContractOption,
    k: float,
    cfg: SimConfig,
    demand_sigma: float | None = None,
) -> tuple[float, float]:
    """Sampled mean and standard error of a customer's total cost on one option.

    Draws realized demand (uniform, or normal truncated to the demand range
    when demand_sigma is given), applies the demand response, and bills the
    result plus the elasticity penalty. Deterministic given the seed.
    """
    sizes = _chunk_sizes(cfg.trials)
    gens = _chunk_generators(cfg.seed, len(sizes))
    sums = np.zeros(len(sizes))
    sqsums = np.zeros(len(sizes))
    for c, (n, rng) in enumerate(zip(sizes, gens)):
        x = _sample_demand(rng, n, m, delta_cust, demand_sigma)
        costs = customer_cost(x, option.p, option.delta, option.p_bar, option.center, k)
        sums[c] = np.sum(costs)
        sqsums[c] = np.sum(costs * costs)
    total, sq = float(np.sum(sums)), float(np.sum(sqsums))
    mean = total / cfg.trials
    if cfg.trials < 2:
        return mean, 0.0
    var = max(0.0, (sq - cfg.trials * mean * mean) / (cfg.trials - 1))
    return mean, (var / cfg.trials) ** 0.5


def _choice_priority(
    i: int, m: float, menu: ContractMenu, params: MarketParams, mode: BehaviorMode
) -> list[int]:
    """Choices of a type-i customer (mean m) in the order that wins a tie.

    Optimistic: the dedicated option i, then the options by index, then the
    baseline. Pessimistic: the supplier tie-profit is the same for every
    customer of the type, so the choices sort once by it, lowest first; equal
    profits go to the baseline, then to the lower option index.
    """
    if mode.mode == OPTIMISTIC:
        return [j for j in (i, *range(len(menu))) if j < len(menu)] + [BASELINE]
    choices = [BASELINE, *range(len(menu))]
    return sorted(
        choices, key=lambda c: (cost._supplier_profit_for_choice(m, c, menu, params), c)
    )


def _choices(
    d: np.ndarray,
    m: float,
    priority: list[int],
    menu: ContractMenu,
    params: MarketParams,
    tie_tol: float,
) -> list[tuple[int, np.ndarray]]:
    """(choice, positions in d) for type-m customers with variation d.

    Each customer takes the first choice in priority order whose expected
    cost is within tie_tol of its cheapest one; the baseline when none is,
    which happens only on NaN costs.
    """
    base = m * params.p0
    cols = [
        own_cost_curve(d, m, opt.p, opt.delta, opt.p_bar, params.k)
        if opt.center == m
        else cross_cost_curve(d, m, opt.p, opt.delta, opt.p_bar, opt.center, params.k)
        for opt in menu
    ]
    best = np.full(d.shape, base)
    for col in cols:
        np.minimum(best, col, out=best)
    limit = best + tie_tol
    undecided = np.ones(d.shape, dtype=bool)
    picks = []
    for choice in priority:
        tied = base <= limit if choice == BASELINE else cols[choice] <= limit
        sel = undecided & tied
        if sel.any():
            picks.append((choice, np.flatnonzero(sel)))
            undecided &= ~tied
            if not undecided.any():
                return picks
    picks.append((BASELINE, np.flatnonzero(undecided)))
    return picks


def simulate_market(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    variation: VariationModel,
    cfg: SimConfig,
) -> SimResult:
    """Agent-based estimate of the supplier's expected profit.

    Every trial draws a type and a variation degree for each of the N
    customers, lets each pick a contract under the configured tie-breaking
    mode, samples its realized demand, and books payment, generated energy,
    and provisioned capacity. Trials run in fixed-size chunks with independent
    RNG substreams, so results are byte-identical for any worker count.

    A chunk is worked one customer type at a time: the type's draws are
    gathered, one expected-cost column is built per choice, and each customer
    takes the first tied choice in a priority order that is fixed per type
    (see ``_choice_priority``). Demand, payment, capacity and the per-type
    sums are computed on the same block, and per-customer profit is put back
    in draw order for the per-trial sums. Each element sees the same float
    operations as in a whole-chunk evaluation, and every sum runs over the
    same values in the same order, so the result does not depend on this
    grouping.
    """
    n_types = dist.n
    cumprobs = np.cumsum(dist.probs)
    caps_by_choice = np.array(
        [2.0 * dist.m_max] + [profit.option_capacity(opt, params) for opt in menu]
    )
    priorities = [
        _choice_priority(i, m, menu, params, cfg.mode) for i, m in enumerate(dist.means)
    ]
    sizes = _chunk_sizes(cfg.trials)
    gens = _chunk_generators(cfg.seed, len(sizes))

    profit_sums = np.zeros(len(sizes))
    profit_sqsums = np.zeros(len(sizes))
    cost_sums = np.zeros((len(sizes), n_types))
    cost_sqsums = np.zeros((len(sizes), n_types))
    cap_sums = np.zeros((len(sizes), n_types))
    counts = np.zeros((len(sizes), n_types))

    def run_chunk(c: int) -> None:
        n, rng = sizes[c], gens[c]
        shape = (n, params.N)
        u_type = rng.random(shape).ravel()
        # the number of cumulative probabilities below the draw, capped at the
        # last type: searchsorted(cumprobs, u_type, "left") without the search
        types = np.zeros(u_type.shape, dtype=np.min_scalar_type(n_types))
        for edge in cumprobs[:-1]:
            types += u_type > edge
        deltas = np.asarray(variation.ppf(rng.random(shape))).ravel()
        u_demand = rng.random(shape).ravel()
        per_cust = np.empty(types.shape[0])

        for i, m in enumerate(dist.means):
            idx = np.flatnonzero(types == i)
            counts[c, i] = idx.size
            if idx.size == 0:
                continue
            d = deltas[idx]
            lo = m * (1.0 - d)
            x = lo + u_demand[idx] * (m * (1.0 + d) - lo)
            pay = np.empty_like(x)
            energy = np.empty_like(x)
            cap = np.empty_like(x)
            for choice, pos in _choices(d, m, priorities[i], menu, params, cfg.mode.tie_tol):
                xs = x[pos]
                if choice == BASELINE:
                    pay[pos] = params.p0 * xs
                    energy[pos] = xs
                else:
                    opt = menu[choice]
                    pay[pos], energy[pos] = payment_energy(
                        xs, opt.p, opt.delta, opt.p_bar, opt.center, params.k
                    )
                cap[pos] = caps_by_choice[choice + 1]

            per_cust[idx] = pay - params.c0 * energy - params.c_hat * cap
            cust_cost = pay + params.k * np.maximum(x - energy, 0.0)
            cost_sums[c, i] = cust_cost.sum()
            cost_sqsums[c, i] = np.sum(cust_cost**2)
            cap_sums[c, i] = cap.sum()

        per_trial = per_cust.reshape(n, params.N).sum(axis=1)
        profit_sums[c] = per_trial.sum()
        profit_sqsums[c] = np.sum(per_trial * per_trial)

    workers = worker_count()
    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, range(len(sizes))))
    else:
        for c in range(len(sizes)):
            run_chunk(c)

    trials = cfg.trials
    mean = float(np.sum(profit_sums)) / trials
    if trials > 1:
        var = max(0.0, (float(np.sum(profit_sqsums)) - trials * mean * mean) / (trials - 1))
        stderr = (var / trials) ** 0.5
    else:
        stderr = 0.0

    type_counts = counts.sum(axis=0)
    per_type_costs = []
    per_type_caps = []
    for i in range(n_types):
        cnt = type_counts[i]
        if cnt == 0:
            per_type_costs.append((float("nan"), float("nan")))
            per_type_caps.append(float("nan"))
            continue
        cmean = float(cost_sums[:, i].sum()) / cnt
        if cnt > 1:
            cvar = max(0.0, (float(cost_sqsums[:, i].sum()) - cnt * cmean * cmean) / (cnt - 1))
            cse = (cvar / cnt) ** 0.5
        else:
            cse = 0.0
        per_type_costs.append((cmean, cse))
        per_type_caps.append(float(cap_sums[:, i].sum()) / cnt)
    return SimResult(mean, stderr, tuple(per_type_costs), tuple(per_type_caps))


def quadrature_profit(
    menu: ContractMenu,
    params: MarketParams,
    dist: TypeDistribution,
    mode: BehaviorMode,
    variation: VariationModel = VariationModel.uniform(),
) -> float:
    """Adaptive-Simpson integration of the per-variation supplier profit.

    Integrates on the production choice spans (profit.smooth_choice_spans), so
    it checks the span rule but not the span cuts; tolerances scale with the
    per-type revenue magnitude so large-money instances stay reachable.
    """
    mode0 = BehaviorMode(mode.mode, 0.0)  # exact tie resolution, as in the closed forms
    pdf = profit.variation_weight(variation)
    total = 0.0
    for m, h in zip(dist.means, dist.probs):
        tol = 1e-10 * (1.0 + abs(m * params.p0))
        acc = 0.0
        for lo, hi in profit.smooth_choice_spans(m, menu, params, mode0):
            choice = cost.choose_option(m, 0.5 * (lo + hi), menu, params, mode0)
            acc += adaptive_simpson(
                lambda d: profit.profit_for_choice(m, d, choice, menu, params) * pdf(d),
                lo,
                hi,
                tol=tol,
            )
        total += params.N * h * acc
    return total
