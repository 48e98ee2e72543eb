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
