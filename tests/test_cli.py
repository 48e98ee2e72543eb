import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltisec
import ltisec.cli
from ltisec import Tol
from ltisec.cli import main
from ltisec.reports import fmt, repro_aircraft
from ltisec.scenario import aircraft_path


@pytest.fixture()
def aircraft_file():
    return str(aircraft_path())


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exited:  # a usage error, reported by argparse
        code = exited.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repro_aircraft_passes(capsys):
    code, out, _ = run_cli(capsys, "repro-aircraft")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_repro_aircraft_loose_tolerance_same_decisions(capsys):
    code1, out1, _ = run_cli(capsys, "repro-aircraft")
    code2, out2, _ = run_cli(capsys, "repro-aircraft", "--tol", "1e-2")
    assert code1 == code2 == 0

    def decisions(text):
        return [ln for ln in text.splitlines() if "epoch" in ln or "decision" in ln]

    assert decisions(out1) == decisions(out2)


def test_repro_aircraft_zero_scale_flips_expectations(capsys):
    code, out, _ = run_cli(capsys, "repro-aircraft", "--scale", "0")
    assert code == 0


def test_repro_aircraft_writes_series(tmp_path, capsys):
    out_dir = tmp_path / "series"
    code, _, _ = run_cli(capsys, "repro-aircraft", "--out", str(out_dir))
    assert code == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert len(files) >= 2
    for f in out_dir.iterdir():
        head = f.read_text().splitlines()[0]
        assert head == "k,decision,residual"


def test_analyze_deterministic(aircraft_file, capsys):
    code1, out1, _ = run_cli(capsys, "analyze", "--scenario", aircraft_file,
                             "--lambda-hint", "0.9779")
    code2, out2, _ = run_cli(capsys, "analyze", "--scenario", aircraft_file,
                             "--lambda-hint", "0.9779")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "0.9779" in out1


def test_synthesize_zero_state_then_certify(aircraft_file, tmp_path, capsys):
    attack_file = tmp_path / "attack.json"
    code, _, _ = run_cli(capsys, "synthesize", "--scenario", aircraft_file,
                         "--kind", "zero-state", "--horizon", "10",
                         "--out", str(attack_file))
    assert code == 0
    assert attack_file.exists()
    code, out, _ = run_cli(capsys, "certify", "--scenario", aircraft_file,
                           "--attack", str(attack_file))
    assert code == 0
    assert "undetectable" in out.lower()


def test_synthesize_zero_dynamics_then_certify_detectable(aircraft_file, tmp_path, capsys):
    attack_file = tmp_path / "attack.json"
    code, _, _ = run_cli(capsys, "synthesize", "--scenario", aircraft_file,
                         "--kind", "zero-dynamics", "--horizon", "30",
                         "--scale", "10", "--lambda-hint", "0.9779",
                         "--out", str(attack_file))
    assert code == 0
    # the scenario pins x(0) through side information, so this one is caught
    code, _, _ = run_cli(capsys, "certify", "--scenario", aircraft_file,
                         "--attack", str(attack_file), "--tol", "5e-3")
    assert code == 2


def test_simulate_then_detect_round_trip(aircraft_file, tmp_path, capsys):
    log_file = tmp_path / "log.jsonl"
    # bundled attack, zero x0: detectable through the side channel
    code, _, _ = run_cli(capsys, "simulate", "--scenario", aircraft_file,
                         "--out", str(log_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "detect", "--scenario", aircraft_file,
                           "--log", str(log_file), "--tol", "5e-3")
    assert code == 2
    assert "Attack" in out


def test_detect_clean_log(aircraft_file, tmp_path, capsys):
    # the scenario bundles an attack, so a clean run needs an explicit
    # all-zero attack file
    zero_attack = tmp_path / "zero.json"
    zero_attack.write_text(json.dumps({"T": 12, "frames": [[0.0] * 4] * 13}))
    log_file = tmp_path / "clean.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", aircraft_file,
                         "--attack", str(zero_attack), "--out", str(log_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "detect", "--scenario", aircraft_file,
                           "--log", str(log_file))
    assert code == 0
    assert "NoAttack" in out


def test_detect_writes_csv(aircraft_file, tmp_path, capsys):
    log_file = tmp_path / "log.jsonl"
    csv_file = tmp_path / "trace.csv"
    run_cli(capsys, "simulate", "--scenario", aircraft_file, "--out", str(log_file))
    code, _, _ = run_cli(capsys, "detect", "--scenario", aircraft_file,
                         "--log", str(log_file), "--tol", "5e-3",
                         "--out", str(csv_file))
    assert code == 2
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "k,decision,residual"
    # decisions are encoded 0/1 so the series plots directly
    first = lines[1].split(",")
    assert first[0] == "4"
    assert first[1] == "1"
    assert all(ln.split(",")[1] == "0" for ln in lines[2:])


def test_synthesize_extend_pipeline(aircraft_file, tmp_path, capsys):
    first = tmp_path / "first.json"
    longer = tmp_path / "longer.json"
    run_cli(capsys, "synthesize", "--scenario", aircraft_file,
            "--kind", "zero-state", "--horizon", "8", "--out", str(first))
    code, _, _ = run_cli(capsys, "synthesize", "--scenario", aircraft_file,
                         "--kind", "extend", "--attack", str(first),
                         "--horizon", "12", "--out", str(longer))
    assert code == 0
    frames_first = np.asarray(json.loads(first.read_text())["frames"])
    frames_longer = np.asarray(json.loads(longer.read_text())["frames"])
    assert frames_longer.shape == (13, 4)
    assert np.array_equal(frames_longer[:9], frames_first)
    code, _, _ = run_cli(capsys, "certify", "--scenario", aircraft_file,
                         "--attack", str(longer))
    assert code == 0


def test_analyze_runs_the_isa_once(tmp_path, capsys, isa_runs, validation_runs):
    # the dimension lines and the eigenproblem of the mode search (s <= p)
    # share one V, and loading the scenario and the report share one
    # validation per Tol
    square = _plant_file(tmp_path, "square.json", [[0.1, 1.0]], [[0.0]])
    code, out, _ = run_cli(capsys, "analyze", "--scenario", square)
    assert code == 0
    assert "lambda=0.4" in out
    assert len(isa_runs) == 1
    assert validation_runs == [Tol()]
    validation_runs.clear()
    code, out, _ = run_cli(capsys, "analyze", "--scenario", square, "--tol", "1e-6")
    assert code == 0
    assert "observable: true" in out
    assert validation_runs == [Tol(residual_rel=1e-6)]


def test_synthesize_extend_runs_the_isa_once(aircraft_file, tmp_path, capsys, isa_runs):
    # certification and the extension share one V
    first = tmp_path / "first.json"
    run_cli(capsys, "synthesize", "--scenario", aircraft_file,
            "--kind", "zero-state", "--horizon", "8", "--out", str(first))
    isa_runs.clear()
    code, _, _ = run_cli(capsys, "synthesize", "--scenario", aircraft_file,
                         "--kind", "extend", "--attack", str(first), "--horizon", "12")
    assert code == 0
    assert len(isa_runs) == 1


def test_analyze_relative_degree_2_plant(tmp_path, capsys):
    # B = e1, C = e2^T, D = 0 under a fixed rotation of the state: V = {0},
    # and no zero-state attack exists
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))
    obj = {"n": 2, "p": 1, "s": 1, "q": 1,
           "A": (q @ np.array([[0.5, 0.2], [0.7, 0.3]]) @ q.T).tolist(),
           "B": (q @ np.array([[1.0], [0.0]])).tolist(),
           "C": (np.array([[0.0, 1.0]]) @ q.T).tolist(), "D": [[0.0]],
           "Omega": [[1.0, 0.0]]}
    path = tmp_path / "reldeg2.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "analyze", "--scenario", str(path))
    assert code == 0
    assert "dim_weakly_unobservable: 0\n" in out
    assert "zero_state_attack_exists: false\n" in out


def test_from_theta_requires_theta(aircraft_file, capsys):
    code, _, err = run_cli(capsys, "synthesize", "--scenario", aircraft_file,
                           "--kind", "from-theta", "--horizon", "8")
    assert code == 1
    assert err.strip() != ""


@pytest.mark.parametrize("theta, message", [("1,0,0", "theta has length 3, expected 4"),
                                            ("0,nan,0,0", "NaN or infinite"),
                                            ("0,inf,0,0", "NaN or infinite"),
                                            ("1,x,0,0", "theta is not a numeric array")])
def test_from_theta_rejects_malformed_theta(aircraft_file, capsys, theta, message):
    code, out, err = run_cli(capsys, "synthesize", "--scenario", aircraft_file,
                             "--kind", "from-theta", "--horizon", "8", "--theta", theta)
    assert code == 1
    assert out == ""
    assert "theta" in err and message in err


@pytest.mark.parametrize("kind", ["zero-dynamics", "zero-state"])
@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_synthesize_rejects_a_non_finite_scale(aircraft_file, capsys, kind, scale):
    code, out, err = run_cli(capsys, "synthesize", "--scenario", aircraft_file, "--kind", kind,
                             "--horizon", "8", "--scale", scale, "--lambda-hint", "0.9779")
    assert code == 1
    assert out == ""
    assert "scale" in err


def test_certify_attack_whose_norm_overflows_exits_1(tmp_path, capsys):
    # finite frames whose stacked norm overflows: no certificate can be
    # decided against an infinite scale
    a, b = np.array([[5.0, 1.0], [0.0, 0.5]]), np.eye(2)
    c, d = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    frames = ltisec.zero_state_synthesize(ltisec.LtiSystem(a, b, c, d), 300).frames.copy()
    frames[-1] = 1e200
    scenario = tmp_path / "unstable.json"
    scenario.write_text(json.dumps({"n": 2, "p": 1, "s": 2, "q": 1, "A": a.tolist(),
                                    "B": b.tolist(), "C": c.tolist(), "D": d.tolist(),
                                    "Omega": [[0.0, 1.0]]}))
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps({"T": 300, "frames": frames.tolist()}))
    # the typed error is the one line on stderr: no numpy warning escapes
    code, out, err = run_cli(capsys, "certify", "--scenario", str(scenario), "--attack", str(attack))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: the scale of a feasibility decision is not finite (a norm overflowed)"]


def test_certify_whose_observability_matrix_overflows_exits_1(tmp_path, capsys):
    # C A^T overflows at T = 499: a typed error naming O_t, and no numpy warning
    scenario = tmp_path / "unstable.json"
    scenario.write_text(json.dumps({"n": 2, "p": 1, "s": 2, "q": 1, "A": [[5.0, 0.0], [0.0, 0.5]],
                                    "B": [[0.0, 0.0], [1.0, 0.0]], "C": [[1.0, 1.0]], "D": [[0.0, 1.0]],
                                    "Omega": [[0.0, 0.0]]}))
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps({"T": 499, "frames": [[0.0, 0.0]] * 500}))
    code, out, err = run_cli(capsys, "certify", "--scenario", str(scenario), "--attack", str(attack))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: O_t overflows at t = 499"]


@pytest.mark.parametrize("argv", [
    ["detect", "--scenario", "AIRCRAFT", "--log", "log.jsonl", "--windw", "5"],
    ["certify", "--scenario", "AIRCRAFT", "--tol", "abc"],
    ["analyze", "--scenario", "AIRCRAFT", "--lambda-hint", "abc"],
    [],
    # simulate reads no residual threshold, so it takes no --tol
    ["simulate", "--scenario", "AIRCRAFT", "--tol", "1e-3"],
    # --theta is parsed into floats here, so no library call receives text
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "from-theta", "--theta", "1,,0,0"],
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "from-theta", "--theta", "1,0x1,0,0"],
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "from-theta", "--theta", "1,2j,0,0"],
    # each synthesize option only with the kinds that read it
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "zero-state", "--attack", "/nonexistent.json"],
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "from-theta", "--theta", "0,0,0,0", "--scale", "7"],
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "zero-state", "--lambda-hint", "0.5"],
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "extend", "--attack", "a.json", "--allow-unstable"],
    ["synthesize", "--scenario", "AIRCRAFT", "--kind", "zero-dynamics", "--theta", "0,0,0,0"],
    # simulate reads --horizon only when no attack is given
    ["simulate", "--scenario", "AIRCRAFT", "--horizon", "3"],
    ["simulate", "--scenario", "AIRCRAFT", "--attack", "/nonexistent.json", "--horizon", "3"],
], ids=["unknown_option", "bad_tol", "bad_lambda_hint", "no_command", "simulate_tol", "empty_theta_entry",
        "hex_theta_entry", "complex_theta_entry", "zero_state_attack", "from_theta_scale",
        "zero_state_lambda_hint", "extend_allow_unstable", "zero_dynamics_theta",
        "simulate_horizon_with_scenario_attack", "simulate_horizon_with_attack"])
def test_a_usage_error_exits_1(aircraft_file, capsys, argv):
    # exit 2 reports a detection, so argparse's usage exit must not reach it
    with pytest.raises(SystemExit) as exited:
        main([aircraft_file if a == "AIRCRAFT" else a for a in argv])
    assert exited.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: ltisec") and lines[-1].startswith("ltisec")
    assert ": error: " in lines[-1]


@pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"]], ids=["top", "subcommand"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ltisec")


@pytest.mark.parametrize("argv, message", [
    (["detect", "--scenario", "AIRCRAFT", "--log", "log.jsonl", "--window", "4"],
     "window_len_l is 4, must be at least 5"),
    (["synthesize", "--scenario", "AIRCRAFT", "--kind", "zero-state", "--horizon", "0"],
     "t is 0, must be at least 1"),
    (["simulate", "--scenario", "NOATTACK", "--horizon", "-2"], "horizon_t is -2, must be at least 0"),
    (["repro-aircraft", "--tol", "2"], "residual_rel must lie strictly between 0 and 1, got 2.0"),
], ids=["window", "horizon", "zero_attack_horizon", "tol"])
def test_a_refused_count_or_tolerance_exits_1(aircraft_file, tmp_path, capsys, argv, message):
    # each is an LtisecError, the one family main catches besides OSError;
    # simulate reads --horizon only for a scenario without an attack
    obj = json.loads(Path(aircraft_file).read_text())
    del obj["attack"]
    (tmp_path / "no_attack.json").write_text(json.dumps(obj))
    files = {"AIRCRAFT": aircraft_file, "NOATTACK": str(tmp_path / "no_attack.json")}
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


def test_missing_scenario_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--scenario", "/nonexistent/file.json")
    assert code == 1
    assert err.strip() != ""


def test_certify_missing_attack_uses_bundled(aircraft_file, capsys):
    # without --attack the scenario's own attack object is used
    code, out, _ = run_cli(capsys, "certify", "--scenario", aircraft_file,
                           "--tol", "5e-3")
    assert code == 2


def test_detect_rejects_nan_in_log(aircraft_file, tmp_path, capsys):
    # a clean log with one record set to NaN must be an input error (exit
    # 1), not an attack verdict
    zero_attack = tmp_path / "zero.json"
    zero_attack.write_text(json.dumps({"T": 40, "frames": [[0.0] * 4] * 41}))
    log_file = tmp_path / "clean.jsonl"
    run_cli(capsys, "simulate", "--scenario", aircraft_file,
            "--attack", str(zero_attack), "--out", str(log_file))
    lines = log_file.read_text().splitlines()
    lines[21] = json.dumps({"k": 20, "y": [float("nan"), 0.0, 0.0]})
    log_file.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "detect", "--scenario", aircraft_file,
                             "--log", str(log_file), "--tol", "5e-3")
    assert code == 1
    assert out == ""
    assert "k=20" in err


def test_detect_window_whose_norm_overflows_exits_1(aircraft_file, tmp_path, capsys):
    # 1e200 is a finite output, but every window holding it overflows its
    # norm; a numpy warning before the typed error would fail this test
    zero_attack = tmp_path / "zero.json"
    zero_attack.write_text(json.dumps({"T": 12, "frames": [[0.0] * 4] * 13}))
    log_file = tmp_path / "clean.jsonl"
    run_cli(capsys, "simulate", "--scenario", aircraft_file,
            "--attack", str(zero_attack), "--out", str(log_file))
    lines = log_file.read_text().splitlines()
    lines[10] = json.dumps({"k": 9, "y": [1e200, 0.0, 0.0]})
    log_file.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "detect", "--scenario", aircraft_file,
                             "--log", str(log_file))
    assert code == 1
    assert out == ""
    assert err == "error: the window ending at k=9 is finite but its norm overflows\n"


def test_detect_header_only_log_exits_1(aircraft_file, tmp_path, capsys):
    log_file = tmp_path / "empty.jsonl"
    log_file.write_text(json.dumps({"y_omega": [0.0]}) + "\n")
    code, out, err = run_cli(capsys, "detect", "--scenario", aircraft_file,
                             "--log", str(log_file))
    assert code == 1
    assert out == ""
    assert err == "error: stream shorter than the window length 5\n"


def test_scenario_with_nan_x0_exits_1(tmp_path, capsys):
    # analyze never reads x0, so only the load boundary can reject it
    obj = json.loads(aircraft_path().read_text())
    obj["x0"] = [0.0, float("nan"), 0.0, 0.0]
    path = tmp_path / "nan_x0.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "analyze", "--scenario", str(path))
    assert code == 1
    assert "x0" in err


# Runs each argv (a JSON list) through the CLI in one fresh interpreter and
# prints the exit codes and the scipy modules loaded, as the last line.
_NO_SCIPY_PROBE = """
import json, sys
from ltisec.cli import main
codes = [main(json.loads(argv)) for argv in sys.argv[1:]]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _plant_file(tmp_path, name, c, d):
    # transfer function (z - 0.4) / ((z - 0.5)(z - 0.3)) on the first output
    obj = {"n": 2, "p": len(c), "s": 1, "q": 1,
           "A": [[0.5, 1.0], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": c, "D": d,
           "Omega": [[1.0, 0.0]]}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_mode_search_runs_without_scipy(tmp_path):
    square = _plant_file(tmp_path, "square.json", [[0.1, 1.0]], [[0.0]])
    tall = _plant_file(tmp_path, "tall.json", [[0.1, 1.0], [1.0, 10.0]], [[0.0], [0.0]])
    argvs = [["analyze", "--scenario", square], ["analyze", "--scenario", tall],
             ["synthesize", "--scenario", square, "--kind", "zero-dynamics"]]
    env = dict(os.environ)
    src = str(Path(ltisec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE] + [json.dumps(a) for a in argvs],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert "lambda=0.4" in run.stdout
    assert loaded == []


def test_detect_log_with_an_integer_beyond_float_range_exits_1(aircraft_file, tmp_path, capsys):
    log_file = tmp_path / "big.jsonl"
    log_file.write_text('{"y_omega": [0.0]}\n{"k": 0, "y": [1, 2, 1%s]}\n' % ("0" * 400))
    code, out, err = run_cli(capsys, "detect", "--scenario", aircraft_file,
                             "--log", str(log_file))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: malformed log record in {log_file}: ")


def _no_attack_file(aircraft_file, tmp_path):
    obj = json.loads(Path(aircraft_file).read_text())
    del obj["attack"]
    path = tmp_path / "no_attack.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_simulate_without_out_prints_the_log(aircraft_file, capsys):
    # the same numbers as the golden log, at 12 significant digits
    code, out, err = run_cli(capsys, "simulate", "--scenario", aircraft_file)
    assert (code, err) == (0, "")
    golden = [json.loads(ln) for ln in (Path(__file__).parent / "golden" / "simulate.jsonl").open()]
    want = ["y_omega = " + " ".join(fmt(v) for v in golden[0]["y_omega"])]
    want += [f"y({rec['k']}) = " + " ".join(fmt(v) for v in rec["y"]) for rec in golden[1:]]
    assert out.splitlines() == want


def test_simulate_without_an_attack_runs_the_zero_attack(aircraft_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", _no_attack_file(aircraft_file, tmp_path),
                           "--horizon", "3")
    assert code == 0
    assert out.splitlines() == ["y_omega = 0"] + [f"y({k}) = 0 0 0" for k in range(4)]


@pytest.mark.parametrize("argv, message", [
    (["synthesize", "--scenario", "AIRCRAFT", "--kind", "extend"], "--attack is required for kind extend"),
    (["certify", "--scenario", "NOATTACK"], "no attack given: pass --attack or embed one in the scenario"),
], ids=["extend", "certify"])
def test_a_missing_attack_exits_1(aircraft_file, tmp_path, capsys, argv, message):
    files = {"AIRCRAFT": aircraft_file, "NOATTACK": _no_attack_file(aircraft_file, tmp_path)}
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, given", [
    ([], {}),
    (["--tol", "1e-2"], {"residual_rel": 1e-2}),
    (["--window", "6", "--scale", "3"], {"window": 6, "scale": 3.0}),
], ids=["none", "tol", "window_scale"])
def test_repro_aircraft_passes_only_the_options_given(capsys, monkeypatch, argv, given):
    # the defaults are repro_aircraft's own
    calls = []

    def recorded(**kwargs):
        calls.append(kwargs)
        return repro_aircraft(**kwargs)

    monkeypatch.setattr(ltisec.cli, "repro_aircraft", recorded)
    run_cli(capsys, "repro-aircraft", *argv)
    assert calls == [given]


def test_theta_reaches_the_library_as_floats(aircraft_file, capsys, monkeypatch):
    received = []

    def recorded(sys, side, theta, t, tol):
        received.append(theta)
        return ltisec.AttackSequence.zeros(sys.s, t)

    monkeypatch.setattr(ltisec.cli, "undetectable_from_theta", recorded)
    code, _, _ = run_cli(capsys, "synthesize", "--scenario", aircraft_file, "--kind", "from-theta",
                         "--horizon", "3", "--theta=-1, 2.5e-1 ,.5,+3.")
    assert code == 0
    assert received == [[-1.0, 0.25, 0.5, 3.0]] and all(type(x) is float for x in received[0])


@pytest.mark.parametrize("field, value, message", [
    ("Omega", [["1", "0", "0", "0"]], "error: Omega is not a numeric array: it holds text"),
    ("x0", [0.0, 0.0, "0", 0.0], "error: x0 is not a numeric array: it holds text"),
], ids=["Omega", "x0"])
def test_a_scenario_with_numbers_as_strings_exits_1(aircraft_file, tmp_path, capsys, field, value,
                                                    message):
    obj = json.loads(Path(aircraft_file).read_text())
    obj[field] = value
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "certify", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [message]


def test_a_log_with_numbers_as_strings_exits_1(aircraft_file, tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    run_cli(capsys, "simulate", "--scenario", aircraft_file, "--out", str(log))
    lines = log.read_text().splitlines()
    lines[3] = json.dumps({"k": 2, "y": ["0", "0", "0"]})
    log.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "detect", "--scenario", aircraft_file, "--log", str(log))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: malformed log record in {log}: y is not a numeric array: it holds text"]
