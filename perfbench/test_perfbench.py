"""Tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: workload-specific end-to-end figures printed (not gated) by each workload
NAMED = {
    "design-bank": ["robust_designs_per_s", "approx_designs_per_s", "robust_design_ms_p50"],
    "oracle-check": ["mc_draws_per_s", "exact_checks_per_s"],
    "cli": ["import_s", "cli_evaluate_s", "cli_design_s", "cli_simulate_s", "cli_sweep_s"],
    "studies": ["tn_study_instances_per_s", "peak_cells_per_s"],
}


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _check_metrics(result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result, text = _run(workload, 0)
    _check_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in NAMED[workload] + ["failed_share"]:
        line = next(ln for ln in text.splitlines() if ln.startswith(f"metric {name} = "))
        assert " n=" in line
    assert text.startswith("host ")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    result, _ = _run(workload, 1)
    _check_metrics(result, SPEC["per_layer"])


def test_gates_reject_wrong_values():
    assert workloads.gate_ratio("r", 0.5, 0.5) is None
    assert workloads.gate_ratio("r", 0.33, 1.0 / 3.0) is not None
    assert workloads.gate_ratio("r", None, 0.5) is not None
    assert workloads.gate_exact("e", 100.0, 100.0 + 1e-7, 100.0) is None
    assert workloads.gate_exact("e", 100.0, 100.01, 100.0) is not None
    assert workloads.gate_exact("e", 100.0, float("nan"), 100.0) is not None
    assert workloads.gate_mc("m", 10.0, 10.4, 0.1) is None
    assert workloads.gate_mc("m", 10.0, 10.6, 0.1) is not None
    assert workloads.gate_csv("c", 0, "a,b\n1.5,ok\n") is None
    assert workloads.gate_csv("c", 0, "a,b\nnan,ok\n") is not None
    assert workloads.gate_csv("c", 4, "a\n1\n") is not None
    assert workloads.gate_same("s", "x\n", "x\n") is None
    assert workloads.gate_same("s", "x\n", "y\n") is not None


def test_oracle_gate_catches_a_wrong_analytic_value(monkeypatch):
    work = workloads.OracleCheck(3, True)
    attempted, fails = work.op(0)
    assert attempted == 6 and fails == []
    real = workloads.profit.total_profit
    monkeypatch.setattr(
        workloads.profit, "total_profit", lambda *a, **k: real(*a, **k) * (1.0 + 1e-6)
    )
    _, fails = work.op(0)
    assert {f.split()[0] for f in fails} >= {"low", "super"}


def test_design_gate_catches_a_bound_violation(monkeypatch):
    work = workloads.DesignBank(3, True)
    real = workloads.design.approx_contract

    def below_half(params, dist):
        out = real(params, dist)
        return replace(out, report=replace(out.report, gain_ratio=0.49))

    monkeypatch.setattr(workloads.design, "approx_contract", below_half)
    _, fails = work.op(0)
    assert len(fails) == 1 and fails[0].startswith("approx #0")


def test_an_operation_that_raises_is_a_wrong_output(monkeypatch):
    work = workloads.DesignBank(3, True)

    def crash(params, dist):
        raise TypeError("crash")

    monkeypatch.setattr(workloads.design, "approx_contract", crash)
    tally = run.Tally()
    assert run.run_op(work, 0, tally) is False
    assert len(tally.failures) == 1 and tally.wrong == tally.failures


def test_a_caught_convergence_error_fails_but_is_not_wrong(monkeypatch):
    work = workloads.DesignBank(3, True)

    def no_convergence(params, dist):
        raise workloads.ConvergenceError("no discount reached the limit")

    monkeypatch.setattr(workloads.design, "robust_contract", no_convergence)
    tally = run.Tally()
    assert run.run_op(work, 0, tally) is False  # its time is left out
    assert len(tally.failures) == 1 and tally.wrong == []
    assert "robust" not in work.best


def test_a_repeated_operation_counts_once_unless_it_changes():
    tally = run.Tally()
    tally.add((2, [workloads.Raised("robust #1: ConvergenceError")]), 1)
    tally.add((2, [workloads.Raised("robust #1: ConvergenceError")]), 1)
    tally.add((2, []), 2)
    assert tally.attempted == 4 and len(tally.failures) == 1 and tally.wrong == []
    tally.add((2, ["approx #2: gain ratio 0.4 below 0.500000"]), 2)
    assert tally.attempted == 5 and len(tally.failures) == 2 and len(tally.wrong) == 1


def test_a_timed_run_goes_through_the_whole_list(monkeypatch):
    import calibrate

    work = workloads.DesignBank(3, True)
    seen = []
    monkeypatch.setattr(work, "op", lambda i: seen.append(i) or (2, []))
    tally = run.Tally()
    with calibrate.Calibrator() as cal:
        spans = run.run_timed(work, 0.0, tally, cal)
    assert seen == list(range(work.ops)) and len(spans) == work.ops
    assert tally.attempted == 2 * work.ops


def test_calibration_helper_is_stopped():
    import calibrate

    with calibrate.Calibrator() as cal:
        cal.run()
        cal.run()
    assert len(cal.seconds) == 2 and all(t > 0 for t in cal.seconds)
    assert cal._helper.returncode == 0
    with calibrate.Calibrator(all_cpus=True) as cal:
        cal.run()
    assert len(cal.seconds) == 1 and cal.seconds[0] > 0


def test_oracle_checks_run_full_chunks_on_both_workers():
    cases = instances.oracle_cases(3, 4)
    assert all(c.trials == 2 * workloads.oracle.CHUNK_TRIALS for pair in cases for c in pair)
    n = [pair[0].params.N for pair in cases]
    assert n[0] == 20 and n[0] + n[1] == 21 and n[2] + n[3] == 21


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert instances.market_bank(5, "design-bank", 10) == instances.market_bank(5, "design-bank", 10)
    assert instances.market_bank(5, "design-bank", 10) != instances.market_bank(6, "design-bank", 10)
    bank = instances.market_bank(5, "design-bank", 40)
    assert bank[0][1].n == 6 and bank[0][0].N == 20
    assert sorted(p.N for p, _ in bank[:20]) == list(range(1, 21))
