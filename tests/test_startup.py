"""scipy stays off the start-up path: only truncated-normal work loads it.

Each check runs in a fresh interpreter, since this test process may already
have imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexcon

SRC = str(Path(flexcon.__file__).resolve().parent.parent)

# Runs cli.main on the given arguments (if any), then prints its exit code and
# the scipy modules loaded by then, as one JSON line.
CHILD = """
import json, sys
import flexcon.cli
argv = json.loads(sys.argv[1])
code = flexcon.cli.main(argv) if argv else 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}))
"""

SCENARIO = {
    "schema": 1,
    "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 3},
    "dist": {"means": [1.0, 1.2, 1.5], "probs": [0.3, 0.5, 0.2]},
    "menu": {
        "options": [
            {"p": 9.99, "delta": 0.7, "p_bar": 40.0, "center": 1.0},
            {"p": 9.99, "delta": 0.5, "p_bar": 40.0, "center": 1.2},
            {"p": 9.99, "delta": 0.4, "p_bar": 40.0, "center": 1.5},
        ]
    },
    "mode": {"behavior": "pessimistic"},
    "sim": {"trials": 2000, "seed": 1},
}


def _run(argv, tmp_path):
    env = dict(os.environ, FLEXCON_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if argv:
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_import_leaves_scipy_unloaded(tmp_path):
    assert _run([], tmp_path) == {"code": 0, "scipy": []}


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate"],
        ["design", "--method", "robust"],
        ["simulate"],
        ["sweep", "--axis", "params.c_hat=1:2:2", "--axis", "params.k=15:25:2"],
    ],
    ids=["evaluate", "design-robust", "simulate", "sweep"],
)
def test_uniform_commands_leave_scipy_unloaded(tmp_path, command):
    config = _config(tmp_path, SCENARIO)
    assert _run([*command, "--config", config], tmp_path) == {"code": 0, "scipy": []}


def test_truncated_normal_evaluate_loads_scipy_special(tmp_path):
    payload = dict(SCENARIO, variation={"family": "truncated_normal", "mu": 0.3, "sigma": 0.5})
    result = _run(["evaluate", "--config", _config(tmp_path, payload)], tmp_path)
    assert result["code"] == 0
    assert "scipy.special" in result["scipy"]
