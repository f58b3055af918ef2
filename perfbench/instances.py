"""Seeded instance generators for the benchmark workloads.

Every input the benchmark feeds to flexcon is drawn here from the run's seed,
before any timing starts. The market instances cover the ranges of the
acceptance bank (2-6 types, means growing by up to 10x, p0 in [1, 100],
k in (p0, 10 p0], c0 in [0, 0.99 p0), c_hat in [0.001 p0, 0.5 p0], N in
[1, 20]). The number of types and N are drawn in shuffled blocks, so every
prefix of a bank holds each value about equally often: a time-bounded run
that stops after any prefix still sees a balanced mix, which keeps
throughput comparable across seeds. The first instance of a bank is always
the largest (6 types, N = 20); it is the warm-up operation, so the peak
memory of a run does not depend on which instances the run reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flexcon import design, oracle
from flexcon.model import (
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
)

N_TYPES = (2, 3, 4, 5, 6)
N_CUSTOMERS = tuple(range(1, 21))


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream name); stable across runs."""
    tag = [ord(c) for c in stream]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *tag])))


def blocked(rng: np.random.Generator, values, count: int) -> list:
    """`count` values cycling through shuffled copies of `values`; the
    largest value comes first."""
    out: list = []
    while len(out) < count:
        out.extend(values[i] for i in rng.permutation(len(values)))
    top = out.index(max(values))
    out[0], out[top] = out[top], out[0]
    return out[:count]


def mirrored(rng: np.random.Generator, values, count: int) -> list:
    """Like `blocked`, but each shuffled block is laid out in pairs whose
    values add up to min + max (`values` is an arithmetic sequence of even
    length), so every even-length prefix has the mean value. The first pair
    is (max, min)."""
    values = sorted(values)
    pairs = [(values[-1 - j], values[j]) for j in range(len(values) // 2)]
    out: list = []
    while len(out) < count:
        order = rng.permutation(len(pairs))
        if not out:
            order = [0, *(j for j in order if j != 0)]
        for j in order:
            hi, lo = pairs[j]
            out.extend((hi, lo) if not out or rng.random() < 0.5 else (lo, hi))
    return out[:count]


def market(rng: np.random.Generator, n_types: int, n_customers: int):
    """One market instance over the acceptance-bank ranges."""
    means = [rng.uniform(1.0, 10.0)]
    for _ in range(n_types - 1):
        means.append(rng.uniform(means[-1] * 1.000001, means[-1] * 10.0))
    probs = rng.dirichlet(np.ones(n_types))
    dist = TypeDistribution(tuple(means), tuple(float(h) for h in probs))
    p0 = rng.uniform(1.0, 100.0)
    params = MarketParams(
        p0=p0,
        k=rng.uniform(p0 * 1.000001, 10.0 * p0),
        c0=rng.uniform(0.0, 0.99 * p0),
        c_hat=rng.uniform(0.001 * p0, 0.5 * p0),
        N=int(n_customers),
    )
    return params, dist


def market_bank(seed: int, stream: str, count: int) -> list[tuple[MarketParams, TypeDistribution]]:
    rng = rng_for(seed, stream)
    types = blocked(rng, N_TYPES, count)
    customers = blocked(rng, N_CUSTOMERS, count)
    return [market(rng, t, n) for t, n in zip(types, customers)]


# ----------------------------------------------------------------------------
# oracle-check: three menu kinds per market instance
# ----------------------------------------------------------------------------

#: Monte Carlo trials per check: two full chunks of CHUNK_TRIALS trials, so
#: every check hands both workers a 16384 x N array of customer-draws
MC_TRIALS = 2 * oracle.CHUNK_TRIALS


@dataclass(frozen=True)
class OracleCase:
    kind: str
    params: MarketParams
    dist: TypeDistribution
    menu: ContractMenu
    behavior: str
    trials: int
    sim_seed: int


def oracle_cases(seed: int, count: int) -> list[list[OracleCase]]:
    """Per market instance: a fixed-discount robust menu (pessimistic), a
    one-type low-penalty menu (optimistic) and the super-optimal menu
    (pessimistic), each in the mode whose analytic value the library claims
    to be exact."""
    rng = rng_for(seed, "oracle-check")
    types = blocked(rng, N_TYPES, count)
    # Monte Carlo time grows with N: mirrored pairs keep the mean N of any
    # stretch of operations a time-bounded run reaches at 10.5
    customers = mirrored(rng, N_CUSTOMERS, count)
    cases = []
    for t, n in zip(types, customers):
        params, dist = market(rng, t, n)
        trials = MC_TRIALS
        eps = params.p0 * 2.0 ** -int(rng.integers(2, 13))
        fixed = design.approx_menu(params, dist, epsilon=eps)
        # low-penalty closed forms are exact for a lone type on its own option
        m = dist.means[0]
        one = TypeDistribution((m,), (1.0,))
        low = ContractMenu(
            (
                ContractOption(
                    params.p0 * rng.uniform(0.6, 0.999),
                    rng.uniform(0.0, 0.9),
                    rng.uniform(params.p0, params.k),
                    m,
                ),
            )
        )
        sim_seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
        cases.append(
            [
                OracleCase("fixed", params, dist, fixed, "pessimistic", trials, sim_seeds[0]),
                OracleCase("low", params, one, low, "optimistic", trials, sim_seeds[1]),
                OracleCase(
                    "super", params, dist, design.super_optimal(params, dist).menu,
                    "pessimistic", trials, sim_seeds[2],
                ),
            ]
        )
    return cases


# ----------------------------------------------------------------------------
# cli: one 4-type pessimistic scenario
# ----------------------------------------------------------------------------


def cli_scenario(seed: int, trials: int) -> dict:
    """A 4-type pessimistic scenario config with an equal-price, high-penalty menu."""
    rng = rng_for(seed, "cli")
    means = [rng.uniform(1.0, 3.0)]
    for _ in range(3):
        means.append(means[-1] * rng.uniform(1.1, 1.6))
    probs = [float(h) for h in rng.dirichlet(np.ones(4))]
    probs[-1] = 1.0 - sum(probs[:-1])
    p0 = rng.uniform(5.0, 20.0)
    price = p0 * (1.0 - 2.0 ** -int(rng.integers(3, 9)))
    return {
        "schema": 1,
        "params": {
            "p0": p0,
            "k": rng.uniform(1.5 * p0, 3.0 * p0),
            "c0": rng.uniform(0.0, 0.3 * p0),
            "c_hat": rng.uniform(0.05 * p0, 0.3 * p0),
            "N": 5,
        },
        "dist": {"means": means, "probs": probs},
        "mode": {"behavior": "pessimistic"},
        "menu": {
            "options": [
                {"p": price, "delta": rng.uniform(0.3, 1.0), "p_bar": 8.0 * p0, "center": m}
                for m in means
            ]
        },
        "sim": {"trials": trials, "seed": int(rng.integers(0, 2**31))},
    }


def cli_sweep_axes(scenario: dict, cells: int) -> list[str]:
    """params.c_hat x params.k axes; k stays in (p0, p_bar) so the menu stays high-penalty."""
    p0 = scenario["params"]["p0"]
    return [
        f"params.c_hat={0.05 * p0!r}:{0.45 * p0!r}:{cells}",
        f"params.k={1.1 * p0!r}:{3.0 * p0!r}:{cells}",
    ]


# ----------------------------------------------------------------------------
# studies: seeds for the truncated-normal studies, and peak-pricing cells
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PeakCell:
    slot_means: tuple[float, ...]
    slot_probs: tuple[tuple[float, float], ...]
    hours_per_slot: int
    p_energy: float
    p_demand: float
    params: MarketParams
    epsilon: float
    c_hat: float
    mean_ratio: float
    trials: int
    mc_seed: int


@dataclass(frozen=True)
class StudyRound:
    tn_seeds: tuple[int, int, int]
    cell: PeakCell


def study_rounds(seed: int, count: int, peak_trials: int) -> list[StudyRound]:
    rng = rng_for(seed, "studies")
    rounds = []
    for _ in range(count):
        tn_seeds = tuple(int(s) for s in rng.integers(0, 2**31, 3))
        slot_means = tuple(float(m) for m in np.sort(rng.uniform(1.0, 4.0, 4)))
        slot_probs = tuple((h, 1.0 - h) for h in (float(v) for v in rng.uniform(0.4, 0.6, 4)))
        p_energy = rng.uniform(40.0, 60.0)
        p0 = 1.4 * p_energy
        cell = PeakCell(
            slot_means=slot_means,
            slot_probs=slot_probs,
            hours_per_slot=168,
            p_energy=p_energy,
            p_demand=rng.uniform(4000.0, 6000.0),
            params=MarketParams(p0=p0, k=rng.uniform(1.05 * p0, 1.5 * p0), c0=0.2 * p0, c_hat=0.0, N=10),
            epsilon=0.1 * p0,
            c_hat=rng.uniform(2.0, 32.0),
            mean_ratio=rng.uniform(1.2, 3.2),
            trials=peak_trials,
            mc_seed=int(rng.integers(0, 2**31)),
        )
        rounds.append(StudyRound(tn_seeds, cell))
    return rounds
