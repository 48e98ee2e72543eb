"""Scenario, attack, and measurement-log files.

A scenario is one JSON object holding the system quadruple, the side
information matrix, and optionally an initial state and an attack:

    {"n": ..., "p": ..., "s": ..., "q": ...,
     "A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]],
     "Omega": [[...]],
     "x0": [...],                      # optional
     "attack": {"T": ..., "frames": [[...], ...]}}   # optional

Matrices are row-major: either nested lists of rows or one flat list of
rows*cols entries.  Attack files carry just the {"T", "frames"} object.
Measurement logs are JSON lines: a header {"y_omega": [...]} followed by
one {"k": i, "y": [...]} record per time step, every "y" of one length.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch, NonFinite, ParseError
from .model import AttackSequence, LtiSystem, SideInformation, Trajectory, validate
from .numlin import DEFAULT_TOL, Tol, _as_floats, _finite

__all__ = [
    "Scenario",
    "load_scenario",
    "load_attack",
    "save_attack",
    "load_log",
    "save_log",
    "aircraft_path",
]


@dataclass(frozen=True, eq=False)
class Scenario:
    system: LtiSystem
    side: SideInformation
    x0: np.ndarray | None
    attack: AttackSequence | None


def _matrix(raw, rows: int, cols: int, name: str) -> np.ndarray:
    try:
        arr = _as_floats(name, raw)
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from exc
    if arr.ndim == 1:
        if arr.size != rows * cols:
            raise DimensionMismatch(
                f"{name} has {arr.size} entries, expected {rows}x{cols}"
            )
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {(rows, cols)}")
    return _finite(name, arr)


def _integer(value, name: str) -> int:
    """A JSON integer; 30.0 is accepted, 30.7, "30", booleans and integers
    beyond the range of a float are not."""
    # an int compares with a float exactly, so no float() overflows here
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if not finite or not float(value).is_integer():
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _attack_from_obj(obj, s: int) -> AttackSequence:
    try:
        t = _integer(obj["T"], "attack T")
        frames = _as_floats("attack frames", obj["frames"])
    except (KeyError, TypeError, DimensionMismatch) as exc:
        raise ParseError(f"malformed attack object: {exc}") from exc
    if frames.ndim != 2 or frames.shape != (t + 1, s):
        raise DimensionMismatch(
            f"attack frames have shape {frames.shape}, expected {(t + 1, s)}"
        )
    return AttackSequence(frames)


def load_scenario(path, tol: Tol = DEFAULT_TOL) -> Scenario:
    """Load and validate a scenario file.

    Raises
    ------
    ParseError
        On unreadable or structurally invalid files, non-numeric entries
        and non-integer dimensions or horizon.
    DimensionMismatch
        On shape inconsistencies.
    NonFinite
        On NaN or infinite entries.
    AssumptionViolated
        When the system fails observability or input injectivity.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        n, p, s, q = (_integer(raw[k], k) for k in ("n", "p", "s", "q"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"scenario {path} is missing dimension fields: {exc}") from exc
    if min(n, p, s, q) < 1:
        raise ParseError(f"scenario {path} has nonpositive dimensions")
    missing = [k for k in ("A", "B", "C", "D", "Omega") if k not in raw]
    if missing:
        raise ParseError(f"scenario {path} is missing matrices: {', '.join(missing)}")
    system = LtiSystem(
        a=_matrix(raw["A"], n, n, "A"),
        b=_matrix(raw["B"], n, s, "B"),
        c=_matrix(raw["C"], p, n, "C"),
        d=_matrix(raw["D"], p, s, "D"),
    )
    report = validate(system, tol)
    if not report.observable:
        raise AssumptionViolated("observability: (A, C) is not an observable pair")
    if not report.bd_injective:
        raise AssumptionViolated("input injectivity: [B; D] loses column rank")
    side = SideInformation(_matrix(raw["Omega"], q, n, "Omega"))
    x0 = None if raw.get("x0") is None else _matrix(raw["x0"], n, 1, "x0")[:, 0]
    attack = None
    if raw.get("attack") is not None:
        attack = _attack_from_obj(raw["attack"], s)
    return Scenario(system=system, side=side, x0=x0, attack=attack)


def load_attack(path, s: int) -> AttackSequence:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read attack {path}: {exc}") from exc
    return _attack_from_obj(raw, s)


def save_attack(path, attack: AttackSequence) -> None:
    obj = {"T": attack.horizon_t, "frames": attack.frames.tolist()}
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def load_log(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a measurement log; returns (y_omega, outputs), the outputs as an
    (N, p) array in time order, (0, 0) for a log with no records.

    Raises
    ------
    ParseError
        On unreadable files, malformed records, outputs of unequal lengths,
        or missing or duplicate time indices.
    NonFinite
        When y_omega or any output holds NaN or an infinity (JSON lines
        written by Python may spell them ``NaN`` and ``Infinity``).
    """
    path = Path(path)
    try:
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read log {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"log {path} is empty")
    try:
        header = json.loads(lines[0])
        y_omega = _as_floats("y_omega", header["y_omega"]).reshape(-1)
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"log {path} lacks a y_omega header: {exc}") from exc
    if not np.all(np.isfinite(y_omega)):
        raise NonFinite(f"log {path} has a non-finite y_omega")
    records = _records_at_once(lines[1:])
    if records is None:
        ks, ys = [], []
        for ln in lines[1:]:
            try:
                rec = json.loads(ln)
                ks.append(_integer(rec["k"], f"record index k in log {path}"))
                ys.append(_as_floats("y", rec["y"]).reshape(-1))
            except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
                raise ParseError(f"malformed log record in {path}: {exc}") from exc
        lengths = sorted({y.shape[0] for y in ys})
        if len(lengths) > 1:
            raise ParseError(f"log {path} has outputs of unequal lengths {lengths}")
        records = ks, np.stack(ys) if ys else np.empty((0, 0))
    ks, ys = records
    if sorted(ks) != list(range(len(ks))):
        raise ParseError(f"log {path} has missing or duplicate time indices")
    outputs = np.empty_like(ys)
    outputs[ks] = ys
    finite = np.isfinite(outputs).all(axis=1)
    if not finite.all():
        raise NonFinite(f"log {path} has a non-finite output at k={np.argmin(finite)}")
    return y_omega, outputs


def _records_at_once(lines: list[str]) -> tuple[list[int], np.ndarray] | None:
    """The indices and the (N, p) outputs of the log's record lines, from one
    parse of all of them, or None when they must be read line by line.

    The lines are joined into one JSON array.  When every line starts with
    "{", no other "{" occurs and the array holds one object per line, no
    object can nest another or reach past its line, so each object is one
    whole line and equals what parsing that line alone gives.  Indices that
    are not integers within the float range, unequal outputs and malformed
    records are left to the line-by-line reading, which reports them.
    """
    n = len(lines)
    text = "[" + ",\n".join(lines) + "]"
    if not (text.startswith("[{") and text.count("{") == n and text.count("\n{") == n - 1):
        return None
    try:
        recs = json.loads(text)
        ks = [rec["k"] for rec in recs]
        ys = _as_floats("y", [rec["y"] for rec in recs]).reshape(n, -1)
    except (KeyError, TypeError, ValueError, DimensionMismatch):
        return None
    if len(ks) != n or not all(type(k) is int for k in ks):
        return None
    return (ks, ys) if max(map(abs, ks), default=0) <= sys.float_info.max else None


def save_log(path, trajectory: Trajectory) -> None:
    lines = [json.dumps({"y_omega": trajectory.side_value.tolist()})]
    # json.dumps spells a list of finite floats, which a Trajectory holds,
    # as its repr, which is cheaper
    lines += ['{"k": %d, "y": %r}' % (k, y) for k, y in enumerate(trajectory.outputs.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def aircraft_path() -> Path:
    """Path of the bundled aircraft scenario."""
    return Path(resources.files("ltisec").joinpath("data", "aircraft.json"))
