"""Host-speed calibration for timings on a host whose speed drifts.

On the reference host (a 2-vCPU x86_64 virtual machine) the same work runs
up to ±20% faster or slower from one stretch of seconds to the next, and the
two vCPUs do not drift together. A fixed reference kernel that does not call
flexcon is timed every quarter second, between the workload's operations.
It runs in a helper process of its own (this file run as a script), so it
shares no heap, garbage collector, allocator or threads with flexcon: a
change that slows flexcon's process slows only flexcon. Before each timing
the helper is pinned to the vCPU the runner's main thread is on, because for
single-threaded work a kernel timed on the other vCPU tracked the runner's
speed worse than no kernel at all. A workload whose work runs on every vCPU
(worker threads, child processes) is calibrated with the mean kernel time
over all of them instead: on `oracle-check`, eight seeds in one stretch, that
cut the spread of ops_per_s from 13% to 9% and of op_ms_p50 from 19% to
10%. Each operation's time is scaled by REFERENCE_S over the median kernel
time measured around it, which gives its duration at the reference speed.

    python3 perfbench/calibrate.py   # helper: one kernel time per input line
"""

from __future__ import annotations

import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

import numpy as np

#: median kernel time on the reference host; a speed factor of 1 means that speed
REFERENCE_S = 4.0e-3
PERIOD_S = 0.25
#: kernel samples within this many seconds of an operation set its speed
WINDOW_S = 1.0

_GRID = np.linspace(0.0, 1.0, 1001)
_DRAWS = np.random.default_rng(0).random(65536)


def _kernel() -> float:
    """Work shaped like flexcon's own, written out here so it never changes:
    select/where chains on 1001-point grids, a 65536-element array pass and
    small Python objects."""
    acc = 0.0
    for j in range(12):
        m, dj, p, q = 1.0 + 0.1 * j, 0.3, 9.0, 20.0
        lo, hi = m * (1.0 - _GRID), m * (1.0 + _GRID)
        ds = np.where(_GRID > 0.0, _GRID, 1.0)
        a = m * p + 0.0 * _GRID
        b = (q * m * m * _GRID + (q * (1 + dj) ** 2 - 4 * dj * p) / ds) / (4.0 * m)
        c = (p / (4.0 * m)) * (m * m * _GRID + (m - lo) ** 2 / ds)
        r = np.select([(lo >= 0.7) & (hi <= 1.3), hi < 0.7, lo > 1.3], [a, b, c], default=a)
        acc += float(np.max(np.minimum(r, 20.0) - np.minimum(a, 20.0)))
    y = np.maximum(_DRAWS * 1.3, 0.2)
    acc += float(np.sum(np.where(y > 1.0, y * 2.0 - 1.0, y)))
    return acc + len(sorted({round(v * 0.001, 6) for v in range(2000)}))


def _current_cpu() -> int | None:
    """The CPU the calling thread last ran on (Linux), or None."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            stat = fh.read()
        return int(stat[stat.rindex(")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class Calibrator:
    """Times the kernel in the helper process on request, on the main
    thread's vCPU or, with `all_cpus`, on each vCPU this process may use; a
    context manager that stops the helper and waits for it on exit."""

    def __init__(self, all_cpus: bool = False):
        self.all_cpus = all_cpus
        self.times: list[float] = []  # midpoints of kernel runs, on this process's clock
        self.seconds: list[float] = []  # kernel times (mean over vCPUs), as the helper measured them
        self.spent = 0.0  # total time spent waiting for the helper
        self._last = -float("inf")
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()

    def _time_on(self, cpu: int | None) -> float:
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(self._helper.pid, {cpu})
        self._helper.stdin.write("\n")
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def run(self) -> None:
        t0 = perf_counter()
        cpu = _current_cpu()
        cpus = [cpu]
        if self.all_cpus and cpu is not None and hasattr(os, "sched_getaffinity"):
            cpus += sorted(os.sched_getaffinity(0) - {cpu})
        seconds = [self._time_on(c) for c in cpus]
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.seconds.append(sum(seconds) / len(seconds))
        self.spent += t1 - t0
        self._last = t1

    def maybe(self) -> None:
        """Run the kernel if a period has passed since the last run."""
        if perf_counter() - self._last >= PERIOD_S:
            self.run()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time near [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_left(self.times, end + WINDOW_S)
        near = self.seconds[lo:hi]
        if len(near) < 3:
            mid = bisect_left(self.times, 0.5 * (start + end))
            near = self.seconds[max(0, mid - 2): mid + 2]
        near = sorted(near)
        return REFERENCE_S / near[len(near) // 2]

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference host."""
        s = sorted(self.seconds)
        return REFERENCE_S / s[len(s) // 2] if s else 0.0


def _serve() -> None:
    """Helper loop: time the kernel once per line read, until end of input."""
    _kernel()
    for _ in sys.stdin:
        t0 = perf_counter()
        _kernel()
        print(repr(perf_counter() - t0), flush=True)


if __name__ == "__main__":
    _serve()
