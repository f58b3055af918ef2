"""In-memory spans and counts around flexcon's module-level entry points.

The tracer wraps functions from the outside: it rebinds each entry point in
every loaded flexcon module that holds it (so `from ._kernels import
cross_cost_curve` copies are wrapped too) and restores the originals on
`uninstall`. Nothing under `src/` changes. Three kinds of wrapper keep the
cost proportional to what the per-layer metrics need:

- ``span``:  timed; aggregated and kept as a span record (name, op, start,
  end, parent) for the trace file;
- ``timed``: timed and aggregated only (hot scalar functions);
- ``count``: counted only (the hottest scalar functions).

Self time is a span's duration minus the time its traced children cover on
the same thread. Work that flexcon runs on its own worker threads is
recorded on those threads, with no parent.
"""

from __future__ import annotations

import importlib
import sys
import threading
from time import perf_counter

#: layer module -> [(function name, wrapper kind)]
ENTRY_POINTS = {
    "cost": [("choose_option", "timed")],
    "_kernels": [
        ("cross_cost_curve", "span"),
        ("own_cost_curve", "span"),
        ("customer_cost", "span"),
        ("payment_energy", "span"),
    ],
    "design": [
        ("robust_contract", "span"),
        ("approx_contract", "span"),
        ("super_optimal", "span"),
        ("pessimistic_profit", "span"),
        ("_ic_ok", "span"),
        ("verify_ic", "span"),
    ],
    "profit": [
        ("total_profit", "span"),
        ("gain_ratio", "span"),
        ("per_type_capacities", "span"),
        ("pessimistic_profit_limit", "span"),
        ("baseline_profit", "span"),
        ("_pessimistic_analytic", "span"),
        ("_profit_by_integration", "span"),
        ("profit_for_choice", "count"),
        ("_gauss_panel", "count"),
    ],
    "oracle": [
        ("simulate_market", "span"),
        ("quadrature_profit", "span"),
    ],
    "_integrate": [
        ("golden_section_min", "span"),
        ("adaptive_simpson", "span"),
        ("bisect_root", "span"),
    ],
    "extensions": [
        ("study_tn_variation_optimistic", "span"),
        ("study_tn_variation_pessimistic", "span"),
        ("study_tn_demand_optimistic", "span"),
        ("tn_cdf", "count"),
    ],
    "peak": [
        ("compare_profits", "span"),
        ("_flexible_supplier_profit", "span"),
        ("_peak_supplier_profit", "span"),
    ],
    "cli": [
        ("main", "span"),
        ("parse_config", "span"),
        ("cmd_design", "span"),
        ("cmd_evaluate", "span"),
        ("cmd_simulate", "span"),
        ("cmd_sweep", "span"),
        ("_sweep_cell", "span"),
    ],
}

#: the two spans design.ic_share_of_robust needs; traced alone they add
#: little time, so the share is close to the untraced one
IC_ENTRY_POINTS = {"design": [("robust_contract", "span"), ("_ic_ok", "span")]}

#: children of total_profit that identify the path it took
_PATH_CHILDREN = (
    ("profit._profit_by_integration", "integration"),
    ("profit._pessimistic_analytic", "pessimistic_analytic"),
    ("profit.baseline_profit", "baseline_collapse"),
)
PATHS = ("closed_form", "pessimistic_analytic", "baseline_collapse", "integration")


def _qualname(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Collects per-name [calls, total_s, self_s] and span records in memory."""

    def __init__(self, entry_points: dict = ENTRY_POINTS):
        self.entry_points = entry_points
        self.op = -1  # id of the workload operation in progress
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._per_thread: list[dict] = []
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- per-thread state ---------------------------------------------------

    def _stats(self) -> dict:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = {}
            self._local.stack = []
            with self._lock:
                self._per_thread.append(stats)
        return stats

    def _add(self, name: str, dur: float, self_dur: float) -> None:
        stats = self._stats()
        rec = stats.get(name)
        if rec is None:
            rec = stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += self_dur

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, kind: str, func):
        tracer = self

        if kind == "count":

            def counted(*args, **kwargs):
                tracer._add(name, 0.0, 0.0)
                return func(*args, **kwargs)

            return counted

        keep = kind == "span"
        is_total_profit = name == "profit.total_profit"

        def timed(*args, **kwargs):
            tracer._stats()
            stack = tracer._local.stack
            frame = [0.0, set() if is_total_profit else None, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                    if parent[1] is not None:
                        parent[1].add(name)
                tracer._add(name, dur, dur - frame[0])
                if is_total_profit:
                    path = next((p for c, p in _PATH_CHILDREN if c in frame[1]), "closed_form")
                    tracer._add(f"{name}[{path}]", dur, dur - frame[0])
                if keep:
                    tracer.spans.append((name, tracer.op, t0, t1, parent[2] if parent else None))

        return timed

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"flexcon.{name}") for name in self.entry_points}
        loaded = [m for n, m in sys.modules.items() if n.startswith("flexcon") and m is not None]
        for module_name, funcs in self.entry_points.items():
            for func_name, kind in funcs:
                original = getattr(modules[module_name], func_name)
                wrapper = self._wrap(_qualname(module_name, func_name), kind, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            merge(out, table)
        return out


def merge(into: dict[str, list], other: dict[str, list]) -> None:
    """Add another aggregate (e.g. from a traced child process) into `into`."""
    for name, (calls, total, own) in other.items():
        rec = into.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += own
