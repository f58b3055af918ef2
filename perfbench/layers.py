"""Per-layer metrics from the traced replay, the workload's own records and
the layer probes; and the trace file written at the end of a traced run.

A time or ratio whose layer did not run in the workload is reported as 0.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracer import PATHS, merge

HERE = Path(__file__).resolve().parent

#: layer name in metric names -> prefix of its entry points in the tracer
LAYERS = ("cost", "kernels", "design", "profit", "oracle", "integrate", "extensions", "peak", "cli")

#: probe metric -> unit
PROBE_UNITS = {
    "kernels.cross_cost_curve.ns_per_point_1k": "ns",
    "kernels.cross_cost_curve.ns_per_point_1m": "ns",
    "kernels.customer_cost.ns_per_point_chunk": "ns",
    "kernels.payment_energy.ns_per_point_chunk": "ns",
    "kernels.numba_backend": "flag",
    "oracle.mc_draws_per_s_1w": "1/s",
    "oracle.scaling_eff_2w": "ratio",
    "startup.numpy_s": "s",
    "startup.scipy_s": "s",
    "startup.flexcon_s": "s",
    "startup.other_s": "s",
    "cli.evaluate.inproc_s": "s",
    "cli.design.inproc_s": "s",
    "cli.simulate.inproc_s": "s",
    "cli.sweep.inproc_s": "s",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def aggregates(work, tracer) -> dict[str, list]:
    agg = tracer.aggregate()
    for child in getattr(work, "child_aggregates", ()):
        merge(agg, child)
    return agg


def ic_share_of_robust(tracer) -> float:
    """Time in design._ic_ok called from design.robust_contract, as a share
    of robust_contract's time, in this process."""
    ic = sum(
        end - start for name, _, start, end, parent in tracer.spans
        if name == "design._ic_ok" and parent == "design.robust_contract"
    )
    return _div(ic, tracer.aggregate().get("design.robust_contract", (0, 0.0, 0.0))[1])


def derive(work, tracer, traced_s: float, probe_values: dict,
           ic_tracer=None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; `ic_tracer`, when given, traced only
    IC_ENTRY_POINTS and sets design.ic_share_of_robust."""
    agg = aggregates(work, tracer)

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    out: dict[str, tuple[float, str]] = {}

    # design: the incentive check inside the robust discount search
    ic_runs = list(work.amount["ic_checks"].values())
    robust = calls("design.robust_contract")
    out["design.ic_checks_per_robust"] = (_div(sum(ic_runs), len(ic_runs)), "count")
    out["design.ic_pass_ratio"] = (_div(robust, calls("design._ic_ok")), "ratio")
    out["design.ic_ms_per_check"] = (_div(total("design._ic_ok"), calls("design._ic_ok")) * 1e3, "ms")
    out["design.ic_share_of_robust"] = (ic_share_of_robust(ic_tracer or tracer), "share")
    out["design.verify_ic_ms_per_menu"] = (
        _div(total("design.verify_ic"), calls("design.verify_ic")) * 1e3, "ms"
    )

    for name in PROBE_UNITS:
        if name.startswith("kernels."):
            out[name] = (probe_values[name], PROBE_UNITS[name])

    out["cost.choose_option.calls"] = (calls("cost.choose_option"), "count")
    out["cost.choose_option.us_per_call"] = (
        _div(total("cost.choose_option"), calls("cost.choose_option")) * 1e6, "us"
    )

    # profit: one entry per total_profit path
    all_paths = sum(calls(f"profit.total_profit[{p}]") for p in PATHS)
    for path in PATHS:
        key = f"profit.total_profit[{path}]"
        out[f"profit.total_profit.us.{path}"] = (_div(total(key), calls(key)) * 1e6, "us")
    for path in PATHS:
        out[f"profit.path_share.{path}"] = (
            _div(calls(f"profit.total_profit[{path}]"), all_paths), "share"
        )
    out["profit.gauss_panels"] = (calls("profit._gauss_panel"), "count")

    for name in ("oracle.mc_draws_per_s_1w", "oracle.scaling_eff_2w"):
        out[name] = (probe_values[name], PROBE_UNITS[name])
    out["oracle.chunks"] = (sum(work.amount["chunks"].values()), "count")
    out["oracle.quadrature_ms_per_menu"] = (
        _div(total("oracle.quadrature_profit"), calls("oracle.quadrature_profit")) * 1e3, "ms"
    )
    out["oracle.integrand_evals"] = (calls("profit.profit_for_choice"), "count")

    for name, unit in PROBE_UNITS.items():
        if name.startswith(("startup.", "cli.")):
            out[name] = (probe_values[name], unit)

    study_instances = sum(work.amount["tn_instances"].values())
    out["extensions.tn_cdf.calls_per_instance"] = (
        _div(calls("extensions.tn_cdf"), study_instances), "count"
    )
    out["extensions.golden_section_ms_per_instance"] = (
        _div(total("integrate.golden_section_min"), study_instances) * 1e3, "ms"
    )
    out["peak.flexible_ms_per_cell"] = (
        _div(total("peak._flexible_supplier_profit"), calls("peak._flexible_supplier_profit")) * 1e3,
        "ms",
    )
    out["peak.peak_mc_ms_per_cell"] = (
        _div(total("peak._peak_supplier_profit"), calls("peak._peak_supplier_profit")) * 1e3, "ms"
    )

    # busy (self) time of each layer's traced entry points, as a share of the replay
    for layer in LAYERS:
        own = sum(rec[2] for name, rec in agg.items()
                  if name.split(".", 1)[0] == layer and "[" not in name)
        out[f"{layer}.self_share"] = (_div(own, traced_s), "share")
    return out


def write_trace(args, work, tracer, metrics: dict) -> Path:
    """Spans and aggregates of the traced replay, as one JSON file."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "op", "start_s", "end_s", "parent"],
        "spans": tracer.spans,
        "aggregates": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(aggregates(work, tracer).items())},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    print(f"trace written to {path.relative_to(HERE.parent)}")
    return path
