import csv
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from flexcon import cli, extensions as ext


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def two_type_config(tmp_path):
    return write_config(
        tmp_path,
        "two_type.json",
        {
            "schema": 1,
            "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 1},
            "dist": {"means": [1.0, 1.2], "probs": [0.5, 0.5]},
        },
    )


@pytest.fixture
def motivating_config(tmp_path):
    return write_config(
        tmp_path,
        "motivating.json",
        {
            "schema": 1,
            "params": {"p0": 1.0, "k": 1.2, "c0": 0.2, "c_hat": 0.1, "N": 10},
            "dist": {"means": [1.0, 3.0], "probs": [0.9, 0.1]},
            "menu": {
                "options": [
                    {"p": 0.9, "delta": 0.1, "p_bar": 1000.0, "center": 1.0},
                    {"p": 0.9, "delta": 0.1, "p_bar": 1000.0, "center": 3.0},
                ],
                "subscription": "full",
            },
        },
    )


@pytest.fixture
def sim_config(tmp_path):
    return write_config(
        tmp_path,
        "sim.json",
        {
            "schema": 1,
            "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 3},
            "dist": {"means": [1.0, 1.2], "probs": [0.5, 0.5]},
            "menu": {
                "options": [
                    {"p": 9.99, "delta": 0.7, "p_bar": 40.0, "center": 1.0},
                    {"p": 9.99, "delta": 0.5, "p_bar": 40.0, "center": 1.2},
                ]
            },
            "sim": {"trials": 20000, "seed": 42},
        },
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_design_approx_menu_rows(two_type_config):
    code, out = run_cli(["design", "--config", two_type_config, "--method", "approx"])
    assert code == 0
    lines = out.splitlines()
    header, r0, r1 = lines[0].split(","), lines[1].split(","), lines[2].split(",")
    assert header == ["i", "m", "p", "delta", "p_bar", "delta_th"]
    assert float(r0[3]) == pytest.approx(0.7)
    assert float(r1[3]) == pytest.approx(0.5)


def test_design_super_near_minimal_elasticity(tmp_path):
    p0, ch = 3.0, 1.4999999999
    cfg = write_config(
        tmp_path,
        "super.json",
        {
            "schema": 1,
            "params": {"p0": p0, "k": p0 * (1 + 1e-9), "c0": 0.5, "c_hat": ch, "N": 1},
            "dist": {"means": [1.0, 1.2], "probs": [0.5, 0.5]},
        },
    )
    code, out = run_cli(["design", "--config", cfg, "--method", "super"])
    assert code == 0
    top_row = out.splitlines()[2].split(",")
    assert float(top_row[2]) == pytest.approx(p0 - ch / 2.0, rel=1e-6)


def test_design_robust_auto_reports_discount(two_type_config):
    code, out = run_cli(["design", "--config", two_type_config, "--method", "robust"])
    assert code == 0
    lines = out.splitlines()
    rep_header = lines[3].split(",")
    rep_row = lines[4].split(",")
    eps = float(rep_row[rep_header.index("epsilon")])
    assert eps > 0.0
    assert rep_row[rep_header.index("ic_verified")] == "True"


def test_evaluate_motivating_example(motivating_config):
    code, out = run_cli(["evaluate", "--config", motivating_config])
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["baseline_profit"]) == pytest.approx(3.6, rel=1e-12)
    assert float(row["menu_profit"]) == pytest.approx(7.08, rel=1e-12)


def test_full_subscription_capacities_are_the_band_tops(motivating_config):
    with open(motivating_config) as fh:
        raw = json.load(fh)
    code, out = run_cli(["evaluate", "--config", motivating_config])
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    p, dist, options = raw["params"], raw["dist"], raw["menu"]["options"]
    caps = [float(row[f"capacity_{i}"]) for i in range(len(options))]
    assert caps == [o["center"] * (1.0 + o["delta"]) for o in options]
    booked = sum(
        p["N"] * h * (m * o["p"] - p["c0"] * m - p["c_hat"] * cap)
        for m, h, o, cap in zip(dist["means"], dist["probs"], options, caps)
    )
    assert float(row["menu_profit"]) == pytest.approx(booked, rel=1e-12)


def test_evaluate_requires_menu(two_type_config):
    code, _ = run_cli(["evaluate", "--config", two_type_config])
    assert code == cli.EXIT_CONFIG


def test_evaluate_csv_roundtrip(motivating_config, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out = run_cli(["evaluate", "--config", motivating_config, "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out
    header, rows = parse_csv(out)
    reparsed = [float(v) for v in rows[0][:4]]
    again_header, again_rows = parse_csv(out_path.read_text())
    assert [float(v) for v in again_rows[0][:4]] == reparsed


def test_simulate_deterministic_output(sim_config, tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("FLEXCON_THREADS", "1")
    code, _ = run_cli(["simulate", "--config", sim_config, "--out", str(a)])
    assert code == 0
    monkeypatch.setenv("FLEXCON_THREADS", "8")
    code, _ = run_cli(["simulate", "--config", sim_config, "--out", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("threads", ["abc", "0"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_bad_thread_count_is_a_config_error(command, threads, sim_config, monkeypatch, capsys):
    monkeypatch.setenv("FLEXCON_THREADS", threads)
    argv = [command, "--config", sim_config]
    if command == "sweep":
        argv += ["--axis", "params.c_hat=0.5:1.5:3"]
    code, out = run_cli(argv)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: FLEXCON_THREADS") and err.count("\n") == 1
    assert "Traceback" not in err


TN = "truncated_normal"


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("variation", {"family": TN, "mu": float("nan"), "sigma": 0.2}, "must be finite"),
        ("variation", {"family": TN, "mu": 0.3, "sigma": float("inf")}, "must be finite"),
        ("variation", {"family": TN, "mu": 0.3, "sigma": 0.0}, "'variation.sigma' must be positive"),
        ("variation", {"family": TN, "mu": 0.3, "sigma": -0.2}, "'variation.sigma' must be positive"),
        ("variation", {"family": TN, "mu": 40.0, "sigma": 0.5}, "no probability mass on [0, 1]"),
        ("variation", {"family": TN, "sigma": 0.2}, "missing required field 'variation.mu'"),
        ("variation", {"family": TN, "mu": 0.3}, "missing required field 'variation.sigma'"),
        ("mode", {"tie_tol": -1.0}, "'mode.tie_tol' must be finite and nonnegative"),
        ("mode", {"tie_tol": float("nan")}, "'mode.tie_tol' must be finite and nonnegative"),
        ("mode", {"tie_tol": float("inf")}, "'mode.tie_tol' must be finite and nonnegative"),
    ],
    ids=[
        "mu-nan", "sigma-inf", "sigma-zero", "sigma-negative", "no-mass",
        "mu-missing", "sigma-missing", "tie_tol-negative", "tie_tol-nan", "tie_tol-inf",
    ],
)
def test_bad_variation_or_mode_is_a_config_error(tmp_path, capsys, section, value, message):
    payload = {
        "schema": 1,
        "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 3},
        "dist": {"means": [1.0, 1.2], "probs": [0.5, 0.5]},
        "menu": {
            "options": [
                {"p": 9.99, "delta": 0.7, "p_bar": 40.0, "center": 1.0},
                {"p": 9.99, "delta": 0.5, "p_bar": 40.0, "center": 1.2},
            ]
        },
        "variation": {"family": TN, "mu": 0.3, "sigma": 0.2},
        "mode": {"behavior": "pessimistic"},
    }
    code, _ = run_cli(["evaluate", "--config", write_config(tmp_path, "ok.json", payload)])
    assert code == 0
    payload[section] = value
    code, out = run_cli(["evaluate", "--config", write_config(tmp_path, "bad.json", payload)])
    assert code == cli.EXIT_CONFIG
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


def _scenario():
    return {
        "schema": 1,
        "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 3},
        "dist": {"means": [1.0, 1.2], "probs": [0.5, 0.5]},
        "menu": {
            "options": [
                {"p": 9.99, "delta": 0.7, "p_bar": 40.0, "center": 1.0},
                {"p": 9.99, "delta": 0.5, "p_bar": 40.0, "center": 1.2},
            ]
        },
        "mode": {"behavior": "pessimistic"},
        "sim": {"trials": 2000, "seed": 1},
    }


def _set(payload, path, value):
    *parents, last = path
    node = payload
    for part in parents:
        node = node[part]
    node[last] = value


NAN, INF = float("nan"), float("inf")
SWEEP = ["--axis", "params.c_hat=1.0:2.0:2"]


@pytest.mark.parametrize(
    "command, path, value, message",
    [
        (["design", "--method", "approx"], ("dist", "means", 1), NAN, "means and probs finite"),
        (["design", "--method", "robust"], ("dist", "means", 1), NAN, "means and probs finite"),
        (["sweep", *SWEEP], ("dist", "means", 1), NAN, "means and probs finite"),
        (["evaluate"], ("params", "k"), INF, "params finite"),
        (["evaluate"], ("params", "N"), NAN, "'params.N' must be a number, got nan"),
        (["evaluate"], ("params", "N"), INF, "'params.N' must be a number, got inf"),
        (["evaluate"], ("params", "p0"), "abc", "'params.p0' must be a number, got 'abc'"),
        (["evaluate"], ("params", "c0"), None, "'params.c0' must be a number, got None"),
        (["evaluate"], ("dist", "probs", 0), "x", "'dist.probs[0]' must be a number"),
        (["evaluate"], ("dist", "means"), 1.0, "'dist.means' must be a list of numbers"),
        (["evaluate"], ("menu", "options", 0, "p_bar"), INF, "option 0: fields finite"),
        (["evaluate"], ("menu", "options", 1, "p"), -INF, "option 1: fields finite"),
        (["evaluate"], ("menu", "options", 1, "p"), [9.0], "'menu.options[1].p' must be a number"),
        (["simulate"], ("sim", "trials"), "many", "'sim.trials' must be a number"),
    ],
    ids=[
        "approx-mean-nan", "robust-mean-nan", "sweep-mean-nan", "k-inf", "N-nan", "N-inf",
        "p0-text", "c0-null", "prob-text", "means-scalar", "p_bar-inf", "p-minus-inf",
        "p-list", "trials-text",
    ],
)
def test_non_finite_or_malformed_number_is_a_config_error(
    tmp_path, capsys, command, path, value, message
):
    payload = _scenario()
    code, _ = run_cli([*command, "--config", write_config(tmp_path, "ok.json", payload)])
    assert code == 0
    _set(payload, path, value)
    code, out = run_cli([*command, "--config", write_config(tmp_path, "bad.json", payload)])
    assert code == cli.EXIT_CONFIG
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", [["evaluate"], ["simulate"], ["sweep", *SWEEP]], ids=["evaluate", "simulate", "sweep"]
)
def test_optimistic_low_penalty_menu_needs_uniform_variation(tmp_path, capsys, command):
    payload = _scenario()
    for o in payload["menu"]["options"]:
        o["p_bar"] = 15.0  # below k: low penalty
    payload["variation"] = {"family": TN, "mu": 0.3, "sigma": 0.5}
    code, _ = run_cli([*command, "--config", write_config(tmp_path, "pes.json", payload)])
    assert code == 0  # the pessimistic mode integrates the choice profile
    payload["mode"] = {"behavior": "optimistic"}
    code, out = run_cli([*command, "--config", write_config(tmp_path, "opt.json", payload)])
    assert code == cli.EXIT_CONFIG
    assert out == ""
    err = capsys.readouterr().err
    assert err == "config error: low-penalty analytics require uniform variation\n"


@pytest.mark.parametrize("epsilon", ["abc", "nan", "inf", "-1", "0"])
def test_bad_robust_discount_is_a_config_error(two_type_config, capsys, epsilon):
    argv = ["design", "--method", "robust", "--epsilon", epsilon, "--config", two_type_config]
    code, out = run_cli(argv)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: '--epsilon' must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "method, target",
    [(["--method", "approx"], "approx_contract"), (["--method", "robust"], "robust_contract")],
)
def test_design_below_its_certified_floor_exits_3(
    two_type_config, capsys, monkeypatch, method, target
):
    real = getattr(cli.design, target)

    def below_floor(*args):
        out = real(*args)
        return replace(out, report=replace(out.report, gain_ratio=0.3))

    monkeypatch.setattr(cli.design, target, below_floor)
    code, out = run_cli(["design", *method, "--config", two_type_config])
    assert code == cli.EXIT_BOUND
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("bound violation: ") and err.count("\n") == 1


def test_fixed_robust_discount_and_super_have_no_floor(two_type_config, monkeypatch):
    for target in ("robust_contract", "super_optimal"):
        real = getattr(cli.design, target)

        def below_floor(*args, real=real):
            out = real(*args)
            return replace(out, report=replace(out.report, gain_ratio=0.1))

        monkeypatch.setattr(cli.design, target, below_floor)
    argv = ["design", "--method", "robust", "--epsilon", "0.5", "--config", two_type_config]
    assert run_cli(argv)[0] == 0
    assert run_cli(["design", "--method", "super", "--config", two_type_config])[0] == 0


def test_probs_renormalize_is_not_a_config_field(tmp_path, capsys):
    payload = {
        "schema": 1,
        "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 1},
        "dist": {"means": [1.0, 1.2], "probs": [0.3, 0.3], "probs_renormalize": 0},
    }
    code, out = run_cli(["design", "--config", write_config(tmp_path, "renorm.json", payload)])
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "sum(probs) == 1" in capsys.readouterr().err


def test_simulate_reports_pass_flag(sim_config):
    code, out = run_cli(["simulate", "--config", sim_config])
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["flag"] == "PASS"
    assert float(row["abs_gap"]) <= float(row["three_sigma"])


def test_simulate_rejects_invalid_menu_before_running(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "schema": 1,
            "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 3},
            "dist": {"means": [1.0, 1.2], "probs": [0.5, 0.5]},
            "menu": {
                "options": [
                    {"p": 11.0, "delta": 0.7, "p_bar": 40.0, "center": 1.0},
                    {"p": 9.0, "delta": 0.5, "p_bar": 40.0, "center": 1.2},
                ]
            },
            "sim": {"trials": 1000, "seed": 1},
        },
    )
    code, out = run_cli(["simulate", "--config", cfg])
    assert code == cli.EXIT_CONFIG
    assert out == ""


def test_malformed_json_exits_with_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,, }')
    code, _ = run_cli(["simulate", "--config", str(path)])
    assert code == cli.EXIT_CONFIG


def test_sweep_probability_axis_renormalizes(motivating_config):
    code, out = run_cli(
        ["sweep", "--config", motivating_config, "--axis", "dist.probs[0]=0:1:15"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    i_h = header.index("dist.probs[0]")
    i_base = header.index("baseline_profit")
    i_menu = header.index("menu_profit")
    crossover = 1.0 / 14.0
    for row in rows:
        h1 = float(row[i_h])
        gap = float(row[i_menu]) - float(row[i_base])
        if h1 > crossover + 1e-9:
            assert gap > 0.0
        elif h1 < crossover - 1e-9:
            assert gap < 0.0


def test_sweep_continuous_mean_matches_closed_form(tmp_path):
    cfg = write_config(
        tmp_path,
        "cont.json",
        {
            "schema": 1,
            "params": {"p0": 10.0, "k": 20.0, "c0": 1.0, "c_hat": 2.0, "N": 1},
            "dist": {"means": [1.0], "probs": [1.0]},
            "continuous_mean": {"b": 1.0, "n": 1},
        },
    )
    code, out = run_cli(["sweep", "--config", cfg, "--axis", "continuous_mean.n=1:30:30"])
    assert code == 0
    header, rows = parse_csv(out)
    i_ratio = header.index("gain_ratio")
    for n, row in enumerate(rows, start=1):
        assert float(row[i_ratio]) == ext.continuous_gain_ratio(n)


def test_sweep_without_axes_equals_evaluate(motivating_config):
    code_s, out_s = run_cli(["sweep", "--config", motivating_config])
    code_e, out_e = run_cli(["evaluate", "--config", motivating_config])
    assert code_s == code_e == 0
    _, sweep_rows = parse_csv(out_s)
    eval_header, eval_rows = parse_csv(out_e)
    assert sweep_rows[0][:4] == eval_rows[0][:4]


def test_sweep_unknown_field_lists_valid_paths(motivating_config, capsys):
    code, _ = run_cli(["sweep", "--config", motivating_config, "--axis", "params.bogus=0:1:3"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "params.p0" in err and "dist.probs[0]" in err


def test_sweep_deterministic_bytes(motivating_config, tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("FLEXCON_THREADS", "1")
    run_cli(["sweep", "--config", motivating_config, "--axis", "params.c_hat=0.01:0.4:7", "--out", str(a)])
    monkeypatch.setenv("FLEXCON_THREADS", "8")
    run_cli(["sweep", "--config", motivating_config, "--axis", "params.c_hat=0.01:0.4:7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _peak_scenario():
    return {
        "schema": 1,
        "params": {"p0": 1.4 * 49.0, "k": 75.0, "c0": 11.0, "c_hat": 10.0, "N": 10},
        "dist": {"means": [1.0, 2.0], "probs": [0.5, 0.5]},
        "peak": {
            "hours_per_slot": 168,
            "p_energy": 49.0,
            "p_demand": 5258.0,
            "slot_means_low": [1.0, 2.0, 3.0, 4.0],
            "slot_probs": [[0.5, 0.5], [0.6, 0.4], [0.55, 0.45], [0.5, 0.5]],
            "mean_ratio": 2.0,
            "trials": 4000,
            "seed": 5,
        },
    }


def test_sweep_with_peak_block(tmp_path):
    cfg = write_config(tmp_path, "peak.json", _peak_scenario())
    code, out = run_cli(["sweep", "--config", cfg, "--axis", "params.c_hat=5:25:3"])
    assert code == 0
    header, rows = parse_csv(out)
    i_peak = header.index("peak_ratio")
    ratios = [float(r[i_peak]) for r in rows]
    assert all(v > 1.0 for v in ratios)
    assert ratios == sorted(ratios)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("slot_means_low", [1.0, "x", 3.0, 4.0], "'peak.slot_means_low[1]' must be a number"),
        ("slot_probs", [[0.5, 0.5], [0.6, None], [0.5, 0.5], [0.5, 0.5]],
         "'peak.slot_probs[1][1]' must be a number, got None"),
        ("slot_means_low", [1.0, 2.0], "'peak.slot_probs' must be a list with one entry per"),
        ("hours_per_slot", None, "missing required field 'peak.hours_per_slot'"),
        ("slot_probs", None, "missing required field 'peak.slot_probs'"),
        ("p_energy", INF, "'peak.p_energy' must be finite, got inf"),
        ("mean_ratio", NAN, "'peak.mean_ratio' must be finite, got nan"),
        ("slot_means_low", [1.0, INF, 3.0, 4.0], "invalid peak slot 1: means and probs finite"),
        ("trials", "many", "'peak.trials' must be a number, got 'many'"),
    ],
    ids=[
        "mean-text", "prob-null", "slot-count", "hours-missing", "probs-missing", "p_energy-inf",
        "ratio-nan", "mean-inf", "trials-text",
    ],
)
def test_bad_peak_block_is_a_config_error(tmp_path, capsys, key, value, message):
    payload = _peak_scenario()
    axis = ["--axis", "params.c_hat=5:10:2"]
    if value is None:
        del payload["peak"][key]
    else:
        payload["peak"][key] = value
    code, out = run_cli(["sweep", "--config", write_config(tmp_path, "bad.json", payload), *axis])
    assert code == cli.EXIT_CONFIG
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err
