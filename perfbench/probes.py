"""Layer probes: single layers timed alone, on inputs drawn from the seed.

They run in every traced run, whatever the workload, after the traced
replay, and with the tracer off.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from time import perf_counter

import numpy as np

import instances
from workloads import ROOT, Cli, median
from flexcon import _kernels, cli, oracle
from flexcon.model import BehaviorMode, VariationModel

#: customers per market in the kernel chunk probe (a chunk is 16384 x N draws)
CHUNK_CUSTOMERS = 10


def _ns_per_point(fn, points: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times) / points * 1e9


def kernels(seed: int, tiny: bool) -> dict[str, float]:
    rng = instances.rng_for(seed, "probe-kernels")
    params, dist = instances.market(rng, 3, CHUNK_CUSTOMERS)
    m, mj = dist.means[0], dist.means[1]
    p, dj, p_bar, k = 0.99 * params.p0, 0.5, 2.0 * params.k, params.k
    small = np.sort(rng.random(1000))
    large = np.sort(rng.random(100_000 if tiny else 1_000_000))
    chunk = oracle.CHUNK_TRIALS * CHUNK_CUSTOMERS
    x = 2.0 * m * rng.random(chunk)
    batch = 100

    def small_calls():
        for _ in range(batch):
            _kernels.cross_cost_curve(small, m, p, dj, p_bar, mj, k)

    reps = 3 if tiny else 15
    return {
        "kernels.cross_cost_curve.ns_per_point_1k": _ns_per_point(small_calls, batch * small.size, reps),
        "kernels.cross_cost_curve.ns_per_point_1m": _ns_per_point(
            lambda: _kernels.cross_cost_curve(large, m, p, dj, p_bar, mj, k), large.size, reps
        ),
        "kernels.customer_cost.ns_per_point_chunk": _ns_per_point(
            lambda: _kernels.customer_cost(x, p, dj, p_bar, m, k), chunk, reps
        ),
        "kernels.payment_energy.ns_per_point_chunk": _ns_per_point(
            lambda: _kernels.payment_energy(x, p, dj, p_bar, m, k), chunk, reps
        ),
        "kernels.numba_backend": 1.0 if _kernels.BACKEND == "numba" else 0.0,
    }


def monte_carlo(seed: int, tiny: bool) -> dict[str, float]:
    """simulate_market at 1 and 2 workers on one fixed-discount menu."""
    case = instances.oracle_cases(seed, 1)[0][0]
    params = case.params
    trials = oracle.CHUNK_TRIALS * (2 if tiny else 8)
    cfg = oracle.SimConfig(trials, case.sim_seed, BehaviorMode.pessimistic(params))
    draws = trials * params.N
    saved = os.environ.get("FLEXCON_THREADS")
    rates: dict[str, list[float]] = {"1": [], "2": []}
    try:
        for _ in range(1 if tiny else 3):
            for workers in rates:
                os.environ["FLEXCON_THREADS"] = workers
                t0 = perf_counter()
                oracle.simulate_market(case.menu, params, case.dist, VariationModel.uniform(), cfg)
                rates[workers].append(draws / (perf_counter() - t0))
    finally:
        if saved is None:
            os.environ.pop("FLEXCON_THREADS", None)
        else:
            os.environ["FLEXCON_THREADS"] = saved
    one, two = median(rates["1"]), median(rates["2"])
    return {"oracle.mc_draws_per_s_1w": one, "oracle.scaling_eff_2w": two / (2.0 * one)}


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def startup(tiny: bool) -> dict[str, float]:
    """Self import time by top-level package, from `python -X importtime`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs: dict[str, list[float]] = {"numpy": [], "scipy": [], "flexcon": [], "other": []}
    for _ in range(1 if tiny else 3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import flexcon.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        totals = dict.fromkeys(runs, 0.0)
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                package = match.group(3).strip().split(".")[0]
                totals[package if package in totals else "other"] += int(match.group(1)) * 1e-6
        for package, seconds in totals.items():
            runs[package].append(seconds)
    return {f"startup.{package}_s": median(v) for package, v in runs.items()}


def cli_inproc(seed: int, tiny: bool) -> dict[str, float]:
    """Each CLI command through cli.main in this process (no start-up)."""
    work = Cli(seed, tiny)
    try:
        out = {}
        for command, argv in work.args.items():
            times = []
            for _ in range(1 if tiny else 3):
                sink = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
                times.append(perf_counter() - t0)
                if code != 0:
                    raise RuntimeError(f"cli {command} exited {code} in-process")
            out[f"cli.{command}.inproc_s"] = median(times)
        return out
    finally:
        work.close()


def run_all(seed: int, tiny: bool) -> dict[str, float]:
    out = {}
    out.update(kernels(seed, tiny))
    out.update(monte_carlo(seed, tiny))
    out.update(startup(tiny))
    out.update(cli_inproc(seed, tiny))
    return out
