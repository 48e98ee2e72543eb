"""Byte-for-byte locks on the default text output of the CLI.

The files under ``golden/`` were written by the CLI on the bundled aircraft
scenario.  Reports render floats at 12 significant digits, so a change in
how the stacked products are evaluated that moves any printed residual
shows up here.  Some printed values are rounding noise (the unattacked
floor near 1e-14, pencil residuals near 1e-16); they are tied to the
numpy/BLAS build the files were written with.
"""

from pathlib import Path

import pytest

from ltisec.cli import main
from ltisec.scenario import aircraft_path

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("repro_aircraft.txt", ["repro-aircraft"], 0),
        ("analyze.txt", ["analyze", "--lambda-hint", "0.9779"], 0),
        ("certify.txt", ["certify"], 2),
    ],
)
def test_cli_stdout_matches_golden(capsys, name, argv, code):
    if argv[0] != "repro-aircraft":
        argv = [argv[0], "--scenario", str(aircraft_path()), *argv[1:]]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_simulate_log_matches_golden(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    assert main(["simulate", "--scenario", str(aircraft_path()), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "simulate.jsonl").read_bytes()


def test_detect_matches_golden(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    argv = ["detect", "--scenario", str(aircraft_path()), "--log",
            str(GOLDEN / "simulate.jsonl"), "--tol", "5e-3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == (GOLDEN / "detect.txt").read_text()
    # the run of repro-aircraft's detector with side information: the bundled
    # aircraft, x0 = 0, the bundled attack, l = 5 and tol 5e-3
    assert out.read_bytes() == (GOLDEN / "detect_side.csv").read_bytes()


def test_repro_aircraft_csvs_match_golden(tmp_path, capsys):
    assert main(["repro-aircraft", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "repro_aircraft.txt").read_text()
    for name in ("detect_no_side.csv", "detect_side.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
