"""The four benchmark workloads and their per-operation correctness gates.

Each workload builds a fixed list of operations from the seed in its
constructor, before any timing. ``op(i)`` runs operation i, closed loop
(the next operation starts when the previous one has returned), and returns
the number of gated checks it made and the checks that failed. A failed check
is counted and reported, never retried or replaced by other inputs. A timed
run goes through the whole list in order, and starts over while its time is
not up; a traced run replays a fixed prefix. The lists are sized so that one
pass takes about 80% of a 20-second run on the reference host (a 2-vCPU
x86_64 virtual machine), so every run sees all of its list.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import instances
from flexcon import design, extensions, oracle, peak, profit
from flexcon._integrate import ConvergenceError
from flexcon.model import BehaviorMode, MarketParams, TypeDistribution, VariationModel

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# -- gates ------------------------------------------------------------------

RATIO_SLACK = 1e-9
#: analytic vs quadrature, relative to the instance's revenue scale
EXACT_RTOL = 1e-8
#: Monte Carlo vs analytic, in standard errors; P(|z| > 5) is about 6e-7
MC_Z_MAX = 5.0


class Raised(str):
    """A failure message for a typed program fault the workload catches: the
    operation raised instead of returning a wrong value.

    It counts as failed, and its time is left out; unlike a gate failure, or
    any other exception, it is not a wrong output."""


def gate_ratio(label: str, ratio, floor: float):
    if ratio is None or not math.isfinite(ratio) or ratio < floor - RATIO_SLACK:
        return f"{label}: gain ratio {ratio} below {floor:.6f}"
    return None


def gate_exact(label: str, analytic: float, numeric: float, scale: float):
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return f"{label}: non-finite profit (analytic {analytic}, quadrature {numeric})"
    if abs(numeric - analytic) > EXACT_RTOL * max(abs(analytic), scale):
        return f"{label}: analytic {analytic!r} vs quadrature {numeric!r}"
    return None


def gate_mc(label: str, analytic: float, mean: float, std_error: float):
    if not math.isfinite(mean) or abs(mean - analytic) > MC_Z_MAX * std_error + 1e-12 * abs(analytic):
        return f"{label}: simulated {mean!r} +- {std_error!r} vs analytic {analytic!r}"
    return None


def gate_csv(label: str, returncode: int, stdout: str):
    """Exit 0 and every numeric-looking CSV field finite."""
    if returncode != 0:
        return f"{label}: exit code {returncode}"
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows:
        return f"{label}: empty output"
    for row in rows:
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return f"{label}: non-finite field {field!r}"
    return None


def gate_same(label: str, reference: str, other: str):
    if reference != other:
        return f"{label}: stdout differs from the reference run"
    return None


def _revenue_scale(params: MarketParams, dist: TypeDistribution) -> float:
    return params.N * params.p0 * sum(h * m for m, h in zip(dist.means, dist.probs))


def _failures(*checks) -> list[str]:
    return [c for c in checks if c]


class Workload:
    """A fixed list of operations, with the best time of each timed part."""

    name = ""
    #: operations in the list, and in the prefix a traced run replays: (full, tiny)
    OPS = (0, 0)
    TRACE_OPS = (0, 0)
    traced = False  # set for the traced replay of a --trace 1 run
    #: its work runs on every vCPU, so host speed is calibrated on all of them
    ALL_CPUS = False

    def __init__(self, seed: int, tiny: bool):
        self.ops = self.OPS[1] if tiny else self.OPS[0]
        self.trace_ops = self.TRACE_OPS[1] if tiny else self.TRACE_OPS[0]
        self.best: dict[str, dict] = defaultdict(dict)
        self.amount: dict[str, dict] = defaultdict(dict)

    @staticmethod
    def between() -> None:
        """Called between the steps of a long operation; the runner replaces
        it to time the calibration kernel."""

    def record(self, part: str, key, seconds: float) -> None:
        """Keep the fastest time seen for one timed part of one operation."""
        self.best[part][key] = min(seconds, self.best[part].get(key, math.inf))

    def op(self, i: int) -> tuple[int, list[str]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Let lazy imports and first-call set-up finish before timing."""
        self.op(0)

    def finish(self) -> tuple[int, list[str]]:
        """Checks run once after the timed loop."""
        return 0, []

    def close(self) -> None:
        pass

    def reset(self) -> None:
        self.best.clear()
        self.amount.clear()

    def named_metrics(self) -> list[tuple[str, float, str, int]]:
        """Workload-specific end-to-end figures: (name, value, unit, samples)."""
        return []

    def _rate(self, part: str, per_op: float = 1.0) -> tuple[float, int]:
        times = self.best[part].values()
        return per_op * len(times) / sum(times) if times else 0.0, len(times)


class DesignBank(Workload):
    """Robust (AUTO discount search) and approximate design over a random bank."""

    name = "design-bank"
    OPS = (650, 20)
    TRACE_OPS = (200, 4)

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.bank = instances.market_bank(seed, "design-bank", self.ops)

    def op(self, i):
        i %= self.ops
        params, dist = self.bank[i]
        t0 = perf_counter()
        try:
            rob = design.robust_contract(params, dist)
        except ConvergenceError as exc:
            rob, robust_fail = None, Raised(f"robust #{i}: ConvergenceError: {exc}")
        t1 = perf_counter()
        apx = design.approx_contract(params, dist)
        t2 = perf_counter()
        self.record("approx", i, t2 - t1)
        if rob is not None:
            self.record("robust", i, t1 - t0)
            self.amount["ic_checks"][i] = math.log2(params.p0 / rob.epsilon)
            robust_fail = gate_ratio(f"robust #{i}", rob.report.gain_ratio, 1.0 / 3.0) or (
                None if rob.ic_verified else f"robust #{i}: incentive check not verified"
            )
        approx_fail = gate_ratio(f"approx #{i}", apx.report.gain_ratio, 0.5) or (
            None if apx.ic_verified else f"approx #{i}: incentive check not verified"
        )
        return 2, _failures(robust_fail, approx_fail)

    def named_metrics(self):
        robust, n = self._rate("robust")
        approx, _ = self._rate("approx")
        out = [
            ("robust_designs_per_s", robust, "1/s", n),
            ("approx_designs_per_s", approx, "1/s", n),
        ]
        for part in ("robust", "approx"):
            ms = [t * 1e3 for t in self.best[part].values()]
            out += percentile_metrics(f"{part}_design_ms", ms, "ms")
        return out


class OracleCheck(Workload):
    """Analytic vs quadrature vs Monte Carlo on three menu kinds per instance."""

    name = "oracle-check"
    OPS = (18, 3)
    ALL_CPUS = True  # Monte Carlo chunks run on two worker threads
    TRACE_OPS = (10, 1)

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.cases = instances.oracle_cases(seed, 2 * self.ops)

    def op(self, i):
        """Instances 2i and 2i + 1, a mirrored pair (their N add up to 21),
        so every operation costs about the same."""
        i %= self.ops
        fails = []
        for j, case in ((j, c) for j in (2 * i, 2 * i + 1) for c in self.cases[j]):
            key = (j, case.kind)
            label = f"{case.kind} #{j}"
            params, dist, menu = case.params, case.dist, case.menu
            mode = (BehaviorMode.pessimistic if case.behavior == "pessimistic"
                    else BehaviorMode.optimistic)(params)
            t0 = perf_counter()
            if case.kind == "fixed":
                # total_profit's piecewise form assumes incentive compatibility,
                # which a fixed discount need not have; pessimistic_profit is
                # the library's exact entry point for such menus
                analytic = design.pessimistic_profit(menu, params, dist)
            else:
                analytic = profit.total_profit(menu, params, dist, mode)
            numeric = oracle.quadrature_profit(menu, params, dist, mode)
            t1 = perf_counter()
            sim = oracle.simulate_market(
                menu, params, dist, VariationModel.uniform(),
                oracle.SimConfig(case.trials, case.sim_seed, mode),
            )
            t2 = perf_counter()
            self.record("exact", key, t1 - t0)
            self.record("mc", key, t2 - t1)
            self.amount["draws"][key] = case.trials * params.N
            self.amount["chunks"][key] = -(-case.trials // oracle.CHUNK_TRIALS)
            fails.append(gate_exact(label, analytic, numeric, _revenue_scale(params, dist)))
            fails.append(gate_mc(label, analytic, sim.mean_profit, sim.std_error))
        return 6, _failures(*fails)

    def named_metrics(self):
        mc = self.best["mc"]
        draws = sum(self.amount["draws"][k] for k in mc)
        exact, n = self._rate("exact")
        return [
            ("mc_draws_per_s", draws / sum(mc.values()) if mc else 0.0, "1/s", len(mc)),
            ("exact_checks_per_s", exact, "1/s", n),
        ]


CLI_COMMANDS = ("import", "evaluate", "design", "simulate", "sweep")


class Cli(Workload):
    """The four CLI commands and a bare import, each as a fresh child process."""

    name = "cli"
    OPS = (1, 1)
    ALL_CPUS = True  # child processes run on any vCPU
    TRACE_OPS = (1, 1)

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.child_aggregates: list[dict] = []
        self.workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=HERE))
        scenario = instances.cli_scenario(seed, trials=20000 if tiny else 100000)
        config = self.workdir / "scenario.json"
        config.write_text(json.dumps(scenario), encoding="utf-8")
        self.sim_chunks = -(-scenario["sim"]["trials"] // oracle.CHUNK_TRIALS)
        cells = 3 if tiny else 20
        axes = [a for spec in instances.cli_sweep_axes(scenario, cells) for a in ("--axis", spec)]
        self.args = {
            "evaluate": ["evaluate", "--config", str(config)],
            "design": ["design", "--method", "robust", "--config", str(config)],
            "simulate": ["simulate", "--config", str(config)],
            "sweep": ["sweep", "--config", str(config), *axes],
        }
        self.reference: dict[str, str] = {}

    def _command(self, command: str, threads: str, trace_out: Path | None = None):
        if command == "import":
            argv = [sys.executable, "-c", "import flexcon.cli"]
        elif trace_out is None:
            argv = [sys.executable, "-m", "flexcon.cli", *self.args[command]]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *self.args[command]]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FLEXCON_THREADS=threads)
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=150, check=False)

    def op(self, i):
        fails = []
        threads = os.environ["FLEXCON_THREADS"]
        for command in CLI_COMMANDS:
            self.between()
            trace_out = self.workdir / f"trace-{command}.json" if self.traced else None
            t0 = perf_counter()
            proc = self._command(command, threads, trace_out)
            self.record(command, i, perf_counter() - t0)
            label = f"{command} #{i % self.ops}"
            if command == "import":
                fails.append(None if proc.returncode == 0 else f"{label}: exit {proc.returncode}")
                continue
            if command == "simulate":
                self.amount["chunks"][i] = self.sim_chunks
            fails.append(gate_csv(label, proc.returncode, proc.stdout))
            fails.append(gate_same(label, self.reference.setdefault(command, proc.stdout), proc.stdout))
            if trace_out is not None and trace_out.exists():
                self.child_aggregates.append(json.loads(trace_out.read_text(encoding="utf-8")))
                trace_out.unlink()
        return len(CLI_COMMANDS), _failures(*fails)

    def warm_up(self):
        self._command("import", os.environ["FLEXCON_THREADS"])

    def finish(self):
        """Every command once more on one worker: stdout must not change."""
        fails = []
        for command in CLI_COMMANDS[1:]:
            proc = self._command(command, "1")
            fails.append(gate_csv(f"{command} 1 worker", proc.returncode, proc.stdout))
            fails.append(gate_same(f"{command} 1 worker", self.reference[command], proc.stdout))
        return len(CLI_COMMANDS) - 1, _failures(*fails)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def reset(self):
        super().reset()
        self.child_aggregates.clear()

    def named_metrics(self):
        out = []
        for command in CLI_COMMANDS:
            times = list(self.best[command].values())
            name = "import_s" if command == "import" else f"cli_{command}_s"
            out.append((name, median(times), "s", len(times)))
        return out


class Studies(Workload):
    """TN_INSTANCES instances of each truncated-normal study plus one
    peak-pricing cell per op; the two halves take about the same time."""

    name = "studies"
    OPS = (420, 10)
    TRACE_OPS = (100, 3)
    TN_INSTANCES = 6
    #: looked up per call, so a traced replay goes through the tracer's wrappers
    STUDIES = (
        "study_tn_variation_optimistic",
        "study_tn_variation_pessimistic",
        "study_tn_demand_optimistic",
    )

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.rounds = instances.study_rounds(seed, self.ops, peak_trials=2000 if tiny else 5000)

    def op(self, i):
        i %= self.ops
        rnd = self.rounds[i]
        t0 = perf_counter()
        ratios = [
            (study, float(r))
            for study, s in zip(self.STUDIES, rnd.tn_seeds)
            for r in getattr(extensions, study)(self.TN_INSTANCES, s)
        ]
        t1 = perf_counter()
        cell = rnd.cell
        model = peak.SlotModel(
            hours_per_slot=cell.hours_per_slot,
            per_slot_dist=tuple(
                TypeDistribution((m, 2.0 * m), probs)
                for m, probs in zip(cell.slot_means, cell.slot_probs)
            ),
            p_energy=cell.p_energy,
            p_demand=cell.p_demand,
        )
        row = peak.compare_profits(
            model, cell.params, cell.epsilon, [cell.c_hat], [cell.mean_ratio],
            trials=cell.trials, seed=cell.mc_seed,
        )[0]
        t2 = perf_counter()
        self.record("tn", i, t1 - t0)
        self.record("peak", i, t2 - t1)
        self.amount["tn_instances"][i] = len(ratios)
        fails = [
            # each study's denominator is its super-optimal gain, an upper bound
            None if math.isfinite(ratio) and ratio <= 1.0 + 1e-6 else f"{study} #{i}: gain ratio {ratio}"
            for study, ratio in ratios
        ]
        values = (row["flexible_profit"], row["peak_profit"], row["profit_ratio"])
        if not all(math.isfinite(v) for v in values):
            fails.append(f"peak cell #{i}: non-finite {values}")
        return len(ratios) + 1, _failures(*fails)

    def named_metrics(self):
        per_op = 3 * self.TN_INSTANCES
        tn, n = self._rate("tn", per_op=per_op)
        cells, _ = self._rate("peak")
        return [
            ("tn_study_instances_per_s", tn, "1/s", per_op * n),
            ("peak_cells_per_s", cells, "1/s", n),
        ]


WORKLOADS = {w.name: w for w in (DesignBank, OracleCheck, Cli, Studies)}


# -- summary statistics -----------------------------------------------------


def median(values) -> float:
    s = sorted(values)
    if not s:
        return 0.0
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values: list[float]):
    """Highest standard percentile with at least ten samples beyond it
    (nearest-rank), or None when there are fewer than 20 samples."""
    n = len(values)
    s = sorted(values)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if 1 <= rank <= n - 10:
            return q, s[rank - 1]
    return None


def percentile_metrics(prefix: str, values: list[float], unit: str):
    out = [(f"{prefix}_p50", median(values), unit, len(values))]
    tail = tail_percentile(values)
    if tail is not None:
        q, v = tail
        out.append((f"{prefix}_p{q:g}", v, unit, len(values)))
    return out
