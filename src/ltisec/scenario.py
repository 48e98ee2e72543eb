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
one {"k": i, "y": [...]} record per time step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch, NonFinite, ParseError
from .model import AttackSequence, LtiSystem, SideInformation, Trajectory, validate
from .numlin import DEFAULT_TOL, Tol

__all__ = [
    "Scenario",
    "load_scenario",
    "load_attack",
    "save_attack",
    "load_log",
    "save_log",
    "aircraft_path",
]


@dataclass(frozen=True)
class Scenario:
    system: LtiSystem
    side: SideInformation
    x0: np.ndarray | None
    attack: AttackSequence | None


def _matrix(raw, rows: int, cols: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} is not a numeric array: {exc}") from exc
    if arr.ndim == 1:
        if arr.size != rows * cols:
            raise DimensionMismatch(
                f"{name} has {arr.size} entries, expected {rows}x{cols}"
            )
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {(rows, cols)}")
    return arr


def _attack_from_obj(obj, s: int) -> AttackSequence:
    try:
        t = int(obj["T"])
        frames = np.asarray(obj["frames"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
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
        On unreadable or structurally invalid files.
    DimensionMismatch
        On shape inconsistencies.
    AssumptionViolated
        When the system fails observability or input injectivity.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        n, p, s, q = (int(raw[k]) for k in ("n", "p", "s", "q"))
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
    side = SideInformation(_matrix(raw["Omega"], q, n, "Omega"), tol)
    x0 = None
    if raw.get("x0") is not None:
        x0 = np.asarray(raw["x0"], dtype=float).reshape(-1)
        if x0.shape[0] != n:
            raise DimensionMismatch(f"x0 has length {x0.shape[0]}, expected {n}")
    attack = None
    if raw.get("attack") is not None:
        attack = _attack_from_obj(raw["attack"], s)
    return Scenario(system=system, side=side, x0=x0, attack=attack)


def load_attack(path, s: int) -> AttackSequence:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read attack {path}: {exc}") from exc
    return _attack_from_obj(raw, s)


def save_attack(path, attack: AttackSequence) -> None:
    obj = {"T": attack.horizon_t, "frames": attack.frames.tolist()}
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def load_log(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read a measurement log; returns (y_omega, outputs in time order).

    Raises
    ------
    ParseError
        On unreadable files, malformed records, or missing or duplicate
        time indices.
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
        y_omega = np.asarray(header["y_omega"], dtype=float).reshape(-1)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"log {path} lacks a y_omega header: {exc}") from exc
    if not np.all(np.isfinite(y_omega)):
        raise NonFinite(f"log {path} has a non-finite y_omega")
    records = []
    for ln in lines[1:]:
        try:
            rec = json.loads(ln)
            records.append((int(rec["k"]), np.asarray(rec["y"], dtype=float).reshape(-1)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed log record in {path}: {exc}") from exc
    records.sort(key=lambda r: r[0])
    if [k for k, _ in records] != list(range(len(records))):
        raise ParseError(f"log {path} has missing or duplicate time indices")
    outputs = [y for _, y in records]
    if outputs and not np.all(np.isfinite(np.concatenate(outputs))):
        k = next(k for k, y in records if not np.all(np.isfinite(y)))
        raise NonFinite(f"log {path} has a non-finite output at k={k}")
    return y_omega, outputs


def save_log(path, trajectory: Trajectory) -> None:
    lines = [json.dumps({"y_omega": trajectory.side_value.tolist()})]
    for k, y in enumerate(trajectory.outputs):
        lines.append(json.dumps({"k": k, "y": y.tolist()}))
    Path(path).write_text("\n".join(lines) + "\n")


def aircraft_path() -> Path:
    """Path of the bundled aircraft scenario."""
    return Path(resources.files("ltisec").joinpath("data", "aircraft.json"))
