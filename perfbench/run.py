"""flexcon benchmark: one workload, closed loop, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload design-bank --seed 7 --seconds 20 --trace 0

--trace 0 runs the workload for --seconds and reports the end-to-end metrics;
--trace 1 replays a fixed prefix of operations untraced, traced and untraced
again, runs the layer probes, and reports the per-layer metrics.
Human-readable lines (host record, every metric with its unit and sample
count) come first; the last line of stdout is one JSON object with keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the benchmark always runs flexcon with this many worker threads
WORKERS = min(2, os.cpu_count() or 1)

#: --trace 0 metrics, as listed in BENCHMARK.json: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 5
#: a timed run stops after this long even when its list has not run once
PASS_CAP_S = 100.0


def _import_flexcon():
    """Put the checkout's src/ first on the path and insist that flexcon comes from it."""
    sys.path.insert(0, str(SRC))
    os.environ["FLEXCON_THREADS"] = str(WORKERS)
    import flexcon

    if Path(flexcon.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"flexcon imported from {flexcon.__file__}, not from {SRC}")


def host_record() -> dict:
    import numpy
    import scipy

    from flexcon import _kernels

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.BACKEND,
        "workers": WORKERS,
        "workers_source": "FLEXCON_THREADS set by the benchmark",
        "numba": "present" if find_spec("numba") else "absent",
        "machine": platform.machine(),
        "note": "figures from different hosts are not comparable",
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tally:
    """Checks of the distinct operations of a run, and the failures among them.

    A timed run goes through its operation list more than once when there is
    time left, and a traced run replays a prefix several times. An operation
    is counted by its first run only; a later run of it must fail exactly the
    same checks, or the difference counts as one more failed check (a wrong
    output). So `attempted` and `failed` depend on the seed alone, not on how
    many operations fit into the time."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[int, list[str]] = {}

    def add(self, result: tuple[int, list[str]], key: int | None = None) -> None:
        """The checks of one operation; `key` names an operation that may run
        again (None: checks that run once)."""
        attempted, failures = result
        if key is not None and key in self._first:
            if failures != self._first[key]:
                self.attempted += 1
                self.failures.append(
                    f"op #{key}: a repeat failed {failures!r}, its first run {self._first[key]!r}"
                )
            return
        if key is not None:
            self._first[key] = failures
        self.attempted += attempted
        self.failures.extend(failures)

    @property
    def wrong(self) -> list[str]:
        """Failures that are wrong outputs, not typed errors the workload
        caught and reported (`Raised`)."""
        from workloads import Raised

        return [f for f in self.failures if not isinstance(f, Raised)]


def run_op(work, i: int, tally: Tally) -> bool:
    """One operation. An exception that escapes it does not stop the run: it
    counts as a wrong output. Returns whether the operation completed without
    raising, typed errors the workload caught included, so its time counts."""
    from workloads import Raised

    key = i % work.ops
    try:
        attempted, failures = work.op(i)
    except Exception as exc:  # noqa: BLE001 - a crashing operation is a wrong output
        tally.add((1, [f"op #{key}: {type(exc).__name__}: {exc}"]), key)
        return False
    tally.add((attempted, failures), key)
    return not any(isinstance(f, Raised) for f in failures)


def run_timed(work, seconds: float, tally: Tally, cal) -> list[tuple[float, float, float]]:
    """Operations in order, closed loop, until `seconds` have passed and the
    whole list has run once (starting over while time is left, and giving up
    on a full pass after PASS_CAP_S); returns (start, end, seconds outside
    calibration) for each operation that completed without raising."""
    work.between = cal.maybe
    cal.run()
    spans = []
    start = perf_counter()
    deadline = start + seconds
    cap = start + max(seconds, PASS_CAP_S)
    i = 0
    while True:
        now = perf_counter()
        if i > 0 and (now >= cap or (now >= deadline and i >= work.ops)):
            break
        spent = cal.spent
        t0 = perf_counter()
        completed = run_op(work, i, tally)
        t1 = perf_counter()
        if completed:
            spans.append((t0, t1, t1 - t0 - (cal.spent - spent)))
        cal.maybe()
        i += 1
    cal.run()
    del work.between
    if i < work.ops:
        print(f"note: only {i} of {work.ops} operations ran within {PASS_CAP_S:g} s")
    return spans


def run_prefix(work, tally: Tally, tracer=None) -> float:
    """The first `work.trace_ops` operations once; returns their total time."""
    total = 0.0
    for i in range(work.trace_ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        run_op(work, i, tally)
        total += perf_counter() - t0
    return total


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import flexcon and build the
    workload's inputs from the seed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, check=True, timeout=170, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def print_metric(name: str, value: float, unit: str, n: int | None = None) -> None:
    count = "" if n is None else f"  n={n}"
    print(f"metric {name} = {value:.6g} {unit}{count}")


def end_to_end(args, work, tally: Tally) -> dict:
    from calibrate import Calibrator
    from workloads import median, percentile_metrics

    setups = measure_setup(args)
    with Calibrator(all_cpus=work.ALL_CPUS) as cal:
        spans = run_timed(work, args.seconds, tally, cal)
    tally.add(work.finish())

    measured = [d for _, _, d in spans]
    scaled = [d * cal.scale(t0, t1) for t0, t1, d in spans]
    ops = len(spans)
    if not ops:  # every operation raised: no time to report, and not correct
        measured = scaled = [math.nan]
    values = {
        "setup_s": (median(setups), SETUP_REPEATS),
        "ops_per_s": (ops / sum(scaled), ops),
        "op_ms_p50": (median(scaled) * 1e3, ops),
        "peak_rss_mb": (peak_rss_mb(), None),
    }
    for name, (value, n) in values.items():
        print_metric(name, value, END_TO_END[name], n)
    for name, value, unit, n in percentile_metrics("op_ms", [t * 1e3 for t in scaled], "ms")[1:]:
        print_metric(name, value, unit, n)
    print_metric("host_speed", cal.speed(), "ratio", len(cal.seconds))
    print_metric("ops_per_s_measured", ops / sum(measured), "1/s", ops)
    print_metric("op_ms_p50_measured", median(measured) * 1e3, "ms", ops)
    for name, value, unit, n in work.named_metrics():
        print_metric(name, value, unit, n)
    return {name: {"value": v, "unit": END_TO_END[name]} for name, (v, _) in values.items()}


def per_layer(args, work, tally: Tally) -> dict:
    import layers
    import probes
    from tracer import IC_ENTRY_POINTS, Tracer

    # untraced, traced, untraced: the mean of the two untraced replays
    # cancels a linear drift of the host's speed
    untraced = run_prefix(work, tally)
    work.reset()
    tracer = Tracer()
    work.traced = True
    with tracer:
        traced = run_prefix(work, tally, tracer)
    work.traced = False
    untraced = 0.5 * (untraced + run_prefix(work, tally))
    ic_tracer = None
    if "design.robust_contract" in tracer.aggregate():
        # the incentive check's share of robust design, with only the two
        # spans it needs traced (a few microseconds on each check of a few
        # milliseconds), so tracing barely changes the share
        ic_tracer = Tracer(IC_ENTRY_POINTS)
        with ic_tracer:
            run_prefix(work, tally, ic_tracer)
        print_metric("design.ic_share_of_robust_full_trace", layers.ic_share_of_robust(tracer), "share")
    tally.add(work.finish())
    probe_values = probes.run_all(args.seed, args.tiny)

    metrics = layers.derive(work, tracer, traced, probe_values, ic_tracer)
    metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    layers.write_trace(args, work, tracer, metrics)
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["design-bank", "oracle-check", "cli", "studies"])
    parser.add_argument("--seed", type=int, default=20240809)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and short probes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_flexcon()
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        if args.setup_only:
            return 0
        work.warm_up()
        work.reset()
        print("host " + json.dumps(host_record(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace} closed-loop clients 1 workers {WORKERS}")
        tally = Tally()
        if args.trace:
            metrics = per_layer(args, work, tally)
        else:
            metrics = end_to_end(args, work, tally)
    finally:
        work.close()

    failed = len(tally.failures)
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    print_metric("failed_share", failed / tally.attempted if tally.attempted else 1.0, "share",
                 tally.attempted)
    correct = not tally.wrong and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
