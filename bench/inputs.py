"""Seeded benchmark inputs: random plants, scenario, attack and log files.

Only numpy and json are used here, so the files the program reads are
produced independently of it.  Every random draw comes from
``numpy.random.default_rng([seed, stream])``, so one seed gives the same
inputs on every machine.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from oracle import Plant

AIRCRAFT_LAMBDA = 0.9779


def rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def aircraft(root: Path) -> tuple[Plant, np.ndarray]:
    """The bundled aircraft model and its published 4-digit attack."""
    raw = json.loads((root / "src" / "ltisec" / "data" / "aircraft.json").read_text())
    pl = Plant(*(np.array(raw[k], dtype=float) for k in ("A", "B", "C", "D", "Omega")))
    return pl, np.array(raw["attack"]["frames"], dtype=float)


def random_plant(g: np.random.Generator, n: int, shape: str) -> Plant:
    """A well-conditioned random plant of one of three shapes.

    A is 0.95 (0.9 for square) times a random orthogonal matrix, so powers
    neither blow up nor die out over the short horizons and O_n stays well
    conditioned.
      * ``wide``  (p=2, s=3, D=0): V = ker C, dim n-2, found in few ISA steps;
        a pencil null vector exists at every lambda.
      * ``square`` (p=s=2, D=I): invariant zeros are eig(A - BC), kept
        inside radius 0.95 by scaling ||BC|| to 0.05, so the plant is
        minimum phase and theta-based attacks stay bounded.
      * ``tall``  (p=3, s=2, D=0): V = {0}, reached after about n ISA steps.
    """
    q, _ = np.linalg.qr(g.standard_normal((n, n)))
    scale = np.sqrt(n)
    if shape == "wide":
        a, p, s = 0.95 * q, 2, 3
        b = g.standard_normal((n, s)) / scale
        c = g.standard_normal((p, n)) / scale
        d = np.zeros((p, s))
    elif shape == "square":
        a = 0.9 * q
        b = g.standard_normal((n, 2))
        c = g.standard_normal((2, n)) / scale
        b *= 0.05 / np.linalg.norm(b @ c, 2)
        d = np.eye(2)
    elif shape == "tall":
        a, p, s = 0.95 * q, 3, 2
        b = g.standard_normal((n, s)) / scale
        c = g.standard_normal((p, n)) / scale
        d = np.zeros((p, s))
    else:
        raise ValueError(f"unknown plant shape {shape!r}")
    omega = g.standard_normal((1, n)) / scale
    return Plant(a, b, c, d, omega)


def _rows(m: np.ndarray) -> list:
    return np.asarray(m, dtype=float).tolist()


def write_scenario(path: Path, pl: Plant, x0=None, frames=None) -> Path:
    obj = {
        "n": pl.n, "p": pl.p, "s": pl.s, "q": pl.omega.shape[0],
        "A": _rows(pl.a), "B": _rows(pl.b), "C": _rows(pl.c), "D": _rows(pl.d),
        "Omega": _rows(pl.omega),
    }
    if x0 is not None:
        obj["x0"] = np.asarray(x0, dtype=float).tolist()
    if frames is not None:
        obj["attack"] = {"T": len(frames) - 1, "frames": _rows(frames)}
    path.write_text(json.dumps(obj))
    return path


def write_attack(path: Path, frames) -> Path:
    path.write_text(json.dumps({"T": len(frames) - 1, "frames": _rows(frames)}))
    return path


def write_log(path: Path, y_omega, ys) -> Path:
    lines = [json.dumps({"y_omega": np.asarray(y_omega, dtype=float).reshape(-1).tolist()})]
    lines += [json.dumps({"k": k, "y": y}) for k, y in enumerate(_rows(ys))]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_attack(path: Path) -> np.ndarray:
    return np.array(json.loads(Path(path).read_text())["frames"], dtype=float)


def read_log(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    y_omega = np.array(json.loads(lines[0])["y_omega"], dtype=float)
    recs = sorted((json.loads(ln) for ln in lines[1:] if ln.strip()), key=lambda r: r["k"])
    return y_omega, np.array([r["y"] for r in recs], dtype=float)
