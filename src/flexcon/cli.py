"""Command-line front end: scenario configs in JSON, menu design, analytic
evaluation, Monte Carlo validation, and deterministic parameter sweeps with
CSV output.

Exit codes: 0 ok, 2 config error, 3 certified-bound violation, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import cost, design, extensions, oracle, peak, profit
from ._integrate import ConvergenceError
from .design import AUTO, BoundViolationError
from .model import (
    OPTIMISTIC,
    PESSIMISTIC,
    TRUNCATED_NORMAL,
    UNIFORM,
    BehaviorMode,
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
    VariationModel,
    validate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOUND = 3
EXIT_NUMERIC = 4

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


@dataclass
class ScenarioConfig:
    params: MarketParams
    dist: TypeDistribution
    variation: VariationModel
    mode: BehaviorMode
    menu: ContractMenu | None
    subscription: str
    sim: dict | None
    continuous_mean: extensions.ContinuousMeanConfig | None
    peak_block: PeakBlock | None
    raw: dict


@dataclass(frozen=True)
class PeakBlock:
    """The validated `peak` block of a sweep config."""

    model: peak.SlotModel
    mean_ratio: float
    epsilon: float
    trials: int
    seed: int


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field '{where}.{key}'")
    return section[key]


def _number(value, where: str, kind=float):
    """value converted by kind (float or int); a value it rejects is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'{where}' must be a number, got {value!r}") from exc


def _field(section: dict, key: str, where: str, kind=float):
    """The required number section[key]."""
    return _number(_require(section, key, where), f"{where}.{key}", kind)


def _numbers(section: dict, key: str, where: str) -> list[float]:
    """The required list of numbers section[key]."""
    return _number_list(_require(section, key, where), f"{where}.{key}")


def _number_list(values, where: str) -> list[float]:
    """values, which must be a list of numbers; `where` names it in errors."""
    if not isinstance(values, list):
        raise ConfigError(f"'{where}' must be a list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _parse_variation(v: dict) -> VariationModel:
    fam = v.get("family", UNIFORM)
    if fam == UNIFORM:
        return VariationModel.uniform()
    if fam != TRUNCATED_NORMAL:
        raise ConfigError(f"unknown variation family '{fam}'")
    mu = _field(v, "mu", "variation")
    sigma = _field(v, "sigma", "variation")
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ConfigError(f"'variation.mu' and 'variation.sigma' must be finite, got {mu}, {sigma}")
    if sigma <= 0.0:
        raise ConfigError(f"'variation.sigma' must be positive, got {sigma}")
    variation = VariationModel.truncated_normal(mu, sigma)
    if not variation.normaliser() > 0.0:
        raise ConfigError(
            f"truncated normal with mu={mu}, sigma={sigma} has no probability mass on [0, 1]"
        )
    return variation


def _parse_peak(pb, params: MarketParams) -> PeakBlock:
    if not isinstance(pb, dict):
        raise ConfigError("'peak' must be an object")
    ratio = _number(pb.get("mean_ratio", 2.0), "peak.mean_ratio")
    epsilon = _number(pb.get("epsilon", 0.1 * params.p0), "peak.epsilon")
    p_energy = _field(pb, "p_energy", "peak")
    p_demand = _field(pb, "p_demand", "peak")
    means = _numbers(pb, "slot_means_low", "peak")
    slot_probs = _require(pb, "slot_probs", "peak")
    if not isinstance(slot_probs, list) or len(slot_probs) != len(means):
        raise ConfigError("'peak.slot_probs' must be a list with one entry per slot mean")
    probs = [_number_list(row, f"peak.slot_probs[{t}]") for t, row in enumerate(slot_probs)]
    named = {"mean_ratio": ratio, "epsilon": epsilon, "p_energy": p_energy, "p_demand": p_demand}
    for name, value in named.items():
        if not math.isfinite(value):
            raise ConfigError(f"'peak.{name}' must be finite, got {value}")
    dists = tuple(TypeDistribution((m1, ratio * m1), tuple(row)) for m1, row in zip(means, probs))
    for t, dist in enumerate(dists):
        result = validate(params, dist)
        if not result.ok:
            raise ConfigError(f"invalid peak slot {t}: " + "; ".join(result.violations))
    trials = _number(pb.get("trials", 20000), "peak.trials", int)
    if trials < 1:
        raise ConfigError(f"'peak.trials' must be at least 1, got {trials}")
    seed = _number(pb.get("seed", 20240901), "peak.seed", int)
    try:
        model = peak.SlotModel(
            hours_per_slot=_field(pb, "hours_per_slot", "peak", int),
            per_slot_dist=dists,
            p_energy=p_energy,
            p_demand=p_demand,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid peak block: {exc}") from exc
    return PeakBlock(model, ratio, epsilon, trials, seed)


def parse_config(raw: dict) -> ScenarioConfig:
    if raw.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config must declare \"schema\": {SCHEMA_VERSION}")
    if "params" not in raw or "dist" not in raw:
        raise ConfigError("config requires 'params' and 'dist' sections")
    p = raw["params"]
    params = MarketParams(
        p0=_field(p, "p0", "params"),
        k=_field(p, "k", "params"),
        c0=_field(p, "c0", "params"),
        c_hat=_field(p, "c_hat", "params"),
        N=_field(p, "N", "params", int),
    )
    d = raw["dist"]
    probs = _numbers(d, "probs", "dist")
    dist = TypeDistribution(tuple(_numbers(d, "means", "dist")), tuple(probs))

    variation = _parse_variation(raw.get("variation", {"family": UNIFORM}))

    m = raw.get("mode", {})
    behavior = m.get("behavior", "optimistic")
    if behavior not in (OPTIMISTIC, PESSIMISTIC):
        raise ConfigError(f"unknown behavior mode '{behavior}'")
    tie_tol = _field(m, "tie_tol", "mode") if "tie_tol" in m else 1e-9 * params.p0
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ConfigError(f"'mode.tie_tol' must be finite and nonnegative, got {tie_tol}")
    mode = BehaviorMode(behavior, tie_tol)

    menu = None
    subscription = "equilibrium"
    if "menu" in raw:
        mm = raw["menu"]
        opts = []
        for i, o in enumerate(_require(mm, "options", "menu")):
            where = f"menu.options[{i}]"
            opts.append(
                ContractOption(
                    p=_field(o, "p", where),
                    delta=_field(o, "delta", where),
                    p_bar=_field(o, "p_bar", where),
                    center=_field(o, "center", where),
                )
            )
        menu = ContractMenu(tuple(opts))
        subscription = mm.get("subscription", "equilibrium")
        if subscription not in ("equilibrium", "full"):
            raise ConfigError(f"unknown subscription kind '{subscription}'")

    cm = None
    if "continuous_mean" in raw:
        c = raw["continuous_mean"]
        b, n = _field(c, "b", "continuous_mean"), _field(c, "n", "continuous_mean", int)
        try:
            cm = extensions.ContinuousMeanConfig(b=b, n=n)
        except ValueError as exc:
            raise ConfigError(f"invalid continuous_mean: {exc}") from exc

    result = validate(params, dist, menu)
    if not result.ok:
        raise ConfigError("invalid scenario: " + "; ".join(result.violations))
    if menu is not None and behavior == OPTIMISTIC:
        try:
            profit.check_optimistic_variation(menu, params, variation)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return ScenarioConfig(
        params=params,
        dist=dist,
        variation=variation,
        mode=mode,
        menu=menu,
        subscription=subscription,
        sim=raw.get("sim"),
        continuous_mean=cm,
        peak_block=None if raw.get("peak") is None else _parse_peak(raw["peak"], params),
        raw=raw,
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(raw)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy scalars included
    return str(value)


def write_csv(stream, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _emit(header, rows, out_path):
    write_csv(sys.stdout, header, rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)


def _menu_rows(menu: ContractMenu, cfg: ScenarioConfig) -> list[list]:
    return [
        [i, opt.center, opt.p, opt.delta, opt.p_bar, cost.threshold(opt, cfg.params)]
        for i, opt in enumerate(menu)
    ]


#: the columns every evaluation prints first
_PROFIT_COLUMNS = ["baseline_profit", "menu_profit", "super_optimal_profit", "gain_ratio"]


def _report_rows(report) -> tuple[list[str], list]:
    header = [*_PROFIT_COLUMNS, "mode"]
    row = [
        report.baseline_profit,
        report.menu_profit,
        report.super_optimal_profit,
        report.gain_ratio,
        report.mode.mode,
    ]
    for i, cap in enumerate(report.per_type_capacity):
        header.append(f"capacity_{i}")
        row.append(cap)
    return header, row


def cmd_design(args) -> int:
    cfg = load_config(args.config)
    if args.method == "approx":
        out = design.approx_contract(cfg.params, cfg.dist)
        design.check_floor(out, design.APPROX_FLOOR)
    elif args.method == "super":
        out = design.super_optimal(cfg.params, cfg.dist)
    elif args.method == "robust":
        eps = AUTO if args.epsilon in (None, "auto") else _number(args.epsilon, "--epsilon")
        if eps != AUTO and not (math.isfinite(eps) and eps > 0.0):
            raise ConfigError(f"'--epsilon' must be positive and finite, got {eps}")
        out = design.robust_contract(cfg.params, cfg.dist, eps)
        if eps == AUTO:
            design.check_floor(out, design.ROBUST_FLOOR)
    else:
        raise ConfigError(f"unknown design method '{args.method}'")

    header = ["i", "m", "p", "delta", "p_bar", "delta_th"]
    rows = _menu_rows(out.menu, cfg)
    rep_header, rep_row = _report_rows(out.report)
    rows_report = [rep_row + [out.epsilon, out.ic_verified]]
    _emit(header, rows, args.out)
    _emit(rep_header + ["epsilon", "ic_verified"], rows_report, None)
    return EXIT_OK


def _menu_profit(cfg: ScenarioConfig) -> float:
    if cfg.subscription == "full":
        return profit.full_subscription_profit(cfg.menu, cfg.params, cfg.dist)
    return profit.total_profit(cfg.menu, cfg.params, cfg.dist, cfg.mode, cfg.variation)


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    if cfg.menu is None:
        raise ConfigError("evaluate requires an explicit 'menu' section")
    if cfg.subscription == "full":
        # every customer holds its own option and is provisioned at the band top
        value = profit.full_subscription_profit(cfg.menu, cfg.params, cfg.dist)
        caps = [opt.band_hi for opt in cfg.menu]
    else:
        value, caps = profit.evaluate_menu(cfg.menu, cfg.params, cfg.dist, cfg.mode, cfg.variation)
    top = profit.super_optimal_profit(cfg.params, cfg.dist)
    report = profit.evaluation_report(value, caps, cfg.params, cfg.dist, cfg.mode, top)
    header, row = _report_rows(report)
    _emit(header, [row], args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg.menu is None:
        raise ConfigError("simulate requires an explicit 'menu' section")
    sim_raw = cfg.sim or {}
    trials = args.trials
    if trials is None:
        trials = _number(sim_raw.get("trials", 0), "sim.trials", int)
    seed = args.seed if args.seed is not None else _number(sim_raw.get("seed", 0), "sim.seed", int)
    if trials < 1:
        raise ConfigError("simulate requires 'sim.trials' (or --trials)")
    sim_cfg = oracle.SimConfig(trials=trials, seed=seed, mode=cfg.mode)
    _worker_count()  # a bad FLEXCON_THREADS is a config error, before any work
    result = oracle.simulate_market(cfg.menu, cfg.params, cfg.dist, cfg.variation, sim_cfg)
    analytic = profit.total_profit(cfg.menu, cfg.params, cfg.dist, cfg.mode, cfg.variation)
    gap = abs(result.mean_profit - analytic)
    three_sigma = 3.0 * result.std_error
    header = [
        "trials",
        "seed",
        "mean_profit",
        "std_error",
        "analytic_profit",
        "abs_gap",
        "three_sigma",
        "flag",
    ]
    row = [
        trials,
        seed,
        result.mean_profit,
        result.std_error,
        analytic,
        gap,
        three_sigma,
        "PASS" if gap <= three_sigma else "FAIL",
    ]
    _emit(header, [row], args.out)
    return EXIT_OK


def _worker_count() -> int:
    try:
        return oracle.worker_count()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _valid_paths(raw: dict) -> list[str]:
    paths = ["params.p0", "params.k", "params.c0", "params.c_hat", "params.N"]
    n = len(raw.get("dist", {}).get("means", []))
    for i in range(n):
        paths.append(f"dist.means[{i}]")
        paths.append(f"dist.probs[{i}]")
    paths += ["variation.mu", "variation.sigma"]
    if "menu" in raw:
        for i in range(len(raw["menu"].get("options", []))):
            for f in ("p", "delta", "p_bar", "center"):
                paths.append(f"menu.options[{i}].{f}")
    if "continuous_mean" in raw:
        paths += ["continuous_mean.b", "continuous_mean.n"]
    if "peak" in raw:
        paths += ["peak.mean_ratio", "peak.epsilon"]
    return paths


_INT_PATHS = {"params.N", "continuous_mean.n"}


def _set_path(raw: dict, path: str, value: float) -> None:
    try:
        parts = []
        for chunk in path.split("."):
            if "[" in chunk:
                name, idx = chunk[:-1].split("[")
                parts += [name, int(idx)]
            else:
                parts.append(chunk)
        node = raw
        for part in parts[:-1]:
            node = node[part]
        last = parts[-1]
        _ = node[last]  # the field must exist
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"unknown field path '{path}'; valid paths: " + ", ".join(_valid_paths(raw))
        ) from exc
    node[last] = int(round(value)) if path in _INT_PATHS else value
    if path.startswith("dist.probs["):
        # the other probabilities keep their proportions and make up the rest
        probs = _number_list(node, "dist.probs")
        rest = sum(v for i, v in enumerate(probs) if i != last)
        target = 1.0 - probs[last]
        for i in range(len(probs)):
            if i != last:
                probs[i] = probs[i] * target / rest if rest > 0 else target / (len(probs) - 1)
        raw["dist"]["probs"] = probs


def _parse_axis(spec: str) -> tuple[str, list[float]]:
    try:
        path, rng = spec.split("=", 1)
        lo_s, hi_s, count_s = rng.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"bad axis spec '{spec}'; expected path=lo:hi:count") from exc
    if count < 1:
        raise ConfigError("axis count must be at least 1")
    if count == 1:
        return path, [lo]
    step = (hi - lo) / (count - 1)
    return path, [lo + i * step for i in range(count)]


def _sweep_cell(raw: dict, assignments: list[tuple[str, float]]) -> list:
    cell_raw = copy.deepcopy(raw)
    for path, value in assignments:
        _set_path(cell_raw, path, value)
    cfg = parse_config(cell_raw)
    if cfg.continuous_mean is not None:
        p0_profit, menu_profit, top = extensions.continuous_mean_profits(
            cfg.continuous_mean, cfg.params
        )
        ratio = extensions.continuous_gain_ratio(cfg.continuous_mean.n)
    else:
        p0_profit = profit.baseline_profit(cfg.params, cfg.dist)
        if cfg.menu is not None:
            menu_profit = _menu_profit(cfg)
        else:
            menu = design.approx_menu(cfg.params, cfg.dist)
            menu_profit = profit.total_profit(menu, cfg.params, cfg.dist, cfg.mode, cfg.variation)
        top = profit.super_optimal_profit(cfg.params, cfg.dist)
        ratio = profit.gain_share(menu_profit, p0_profit, top)
    row = [v for _, v in assignments] + [p0_profit, menu_profit, top, ratio]
    if cfg.peak_block is not None:
        row.append(_peak_ratio(cfg))
    return row


def _peak_ratio(cfg: ScenarioConfig) -> float:
    pb = cfg.peak_block
    rows = peak.compare_profits(
        pb.model,
        cfg.params,
        pb.epsilon,
        [cfg.params.c_hat],
        [pb.mean_ratio],
        trials=pb.trials,
        seed=pb.seed,
    )
    return rows[0]["profit_ratio"]


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    axes = [_parse_axis(spec) for spec in (args.axis or [])]
    if len(axes) > 2:
        raise ConfigError("at most two sweep axes are supported")
    if sum(path.startswith("dist.probs[") for path, _ in axes) > 1:
        raise ConfigError("at most one dist.probs axis: each rescales the other probabilities")
    for path, _ in axes:
        _set_path(copy.deepcopy(cfg.raw), path, 0.0)  # path check up front

    if not axes:
        cells = [[]]
    elif len(axes) == 1:
        path, values = axes[0]
        cells = [[(path, v)] for v in values]
    else:
        (p1, v1s), (p2, v2s) = axes
        cells = [[(p1, v1), (p2, v2)] for v1 in v1s for v2 in v2s]

    workers = _worker_count()
    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda cell: _sweep_cell(cfg.raw, cell), cells))
    else:
        rows = [_sweep_cell(cfg.raw, cell) for cell in cells]

    header = [path for path, _ in axes] + _PROFIT_COLUMNS
    if cfg.peak_block is not None:
        header.append("peak_ratio")
    _emit(header, rows, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexcon",
        description="Design, evaluate, and stress-test flexible electricity contracts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="construct a menu and report its gain ratio")
    p_design.add_argument("--config", required=True)
    p_design.add_argument("--method", default="approx", choices=["approx", "robust", "super"])
    p_design.add_argument("--epsilon", default=None, help="discount for robust menus, or 'auto'")
    p_design.add_argument("--out", default=None)
    p_design.set_defaults(func=cmd_design)

    p_eval = sub.add_parser("evaluate", help="analytic profits for an explicit menu")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of the analytic profit")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="evaluate over a 1- or 2-axis parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", action="append", help="path=lo:hi:count (repeatable, max 2)")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
