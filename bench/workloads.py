"""The four workloads: seeded inputs, one round of in-process calls, one
round of CLI calls, and the independent check attached to every call.

A round is a fixed list of operations whose families (analyze, certify,
classify, synthesize, detect) are interleaved.  Every expected value is
computed here, once per run, by ``oracle`` from the generated arrays; the
timed phase only compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
from oracle import Plant

import ltisec as lt
from ltisec import reports

FAMILIES = ("analyze", "certify", "classify", "synthesize", "detect")
UNKNOWN = "unknown"


class Inconclusive(Exception):
    """A generated input sits too close to a decision threshold to be
    checked against an independent computation."""


@dataclass
class Op:
    family: str
    label: str
    fn: Callable[[], object]
    check: Callable[[object], bool]
    epochs: int = 0


@dataclass
class CliCall:
    sub: str
    label: str
    argv: list[str]
    check: Callable[[int, str], bool]
    # files the call writes; removed before each call so a check never
    # reads an earlier round's output
    outputs: tuple[Path, ...] = ()


@dataclass
class Workload:
    ops: list[Op]
    cli: list[CliCall]
    scenario_files: list[Path]
    makeup: list[str] = field(default_factory=list)
    # Share of the measured time given to in-process rounds; the rest goes
    # to CLI rounds.  Chosen so that both kinds get enough rounds for a
    # steady median: an aircraft in-process round takes ~0.1 s against
    # ~4.5 s for a CLI round, a long-horizon one ~2.5 s against ~2 s.
    inproc_share: float = 0.5


@dataclass
class Case:
    """One plant: oracle arrays, the scenario as the program loaded it, and
    the oracle's geometry."""

    label: str
    pl: Plant
    path: Path
    tol: lt.Tol
    x0: np.ndarray

    def __post_init__(self) -> None:
        self.sc = lt.load_scenario(self.path, self.tol)
        self.sys = self.sc.system
        self.geo = oracle.geometry(self.pl)

    def side(self, tol: lt.Tol, with_omega: bool) -> lt.SideInformation:
        if with_omega:
            return lt.SideInformation(self.pl.omega, tol)
        return lt.SideInformation.none(self.pl.n, tol)


def _guard(value: float, thresh: float, what: str) -> None:
    if thresh / 3.0 < value < thresh * 3.0:
        raise Inconclusive(f"{what}: {value:.3e} within a factor 3 of {thresh:.1e}")


def _raises(exc_type, fn, *args):
    try:
        return fn(*args)
    except exc_type as exc:
        return exc


def _geometric(pl: Plant, lam: complex, t: int, scale: float = 1.0):
    theta, g = oracle.pencil_mode(pl, lam)
    frames = scale * np.real(np.outer(np.asarray(lam, complex) ** np.arange(t + 1), g))
    return frames, scale * np.real(theta)


def _form(lam: complex) -> str:
    return "pair" if abs(complex(lam).imag) > 1e-9 else "real"


def _unit(v: np.ndarray) -> np.ndarray:
    return v / float(np.linalg.norm(v))


def parse_report(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


class Builder:
    """Collects operations per family and interleaves them into a round."""

    def __init__(self) -> None:
        self.groups: dict[str, list[Op]] = {f: [] for f in FAMILIES}
        self.cli: list[CliCall] = []

    def op(self, family, label, fn, check, epochs=0) -> None:
        self.groups[family].append(Op(family, label, fn, check, epochs))

    def round(self) -> list[Op]:
        queues = [list(self.groups[f]) for f in FAMILIES]
        ops: list[Op] = []
        while any(queues):
            for q in queues:
                if q:
                    ops.append(q.pop(0))
        return ops

    # -- expected verdicts ------------------------------------------------

    @staticmethod
    def verdict(case: Case, frames, with_omega: bool, tol: lt.Tol):
        fit = oracle.best_shift(case.pl, frames, case.pl.omega if with_omega else None)
        _guard(fit.rel_residual, tol.residual_rel, f"{case.label} certificate residual")
        return fit.rel_residual <= tol.residual_rel, fit

    # -- families ---------------------------------------------------------

    def analyze(self, case: Case, hints=None) -> None:
        geo = case.geo

        def check(rep) -> bool:
            info = dict(rep.info)
            return (
                info["observable"] == "true"
                and info["bd_injective"] == "true"
                and int(info["dim_weakly_unobservable"]) == geo.dim_v
                and info["zero_state_attack_exists"] == str(geo.zero_state).lower()
                and int(info["dim_null_omega_meet_v"]) == geo.null_omega_v.shape[1]
                and (info["modes"] != "none") == (geo.dim_v > 0)
            )

        self.op("analyze", f"{case.label}/analyze_report",
                lambda: reports.analyze_report(case.sc, case.tol, hints), check)

    def certify(self, case: Case, label, frames, with_omega: bool, tol: lt.Tol,
                extension: bool = False) -> None:
        pl = case.pl
        attack = lt.AttackSequence(frames)
        side = case.side(tol, with_omega)
        und, fit = self.verdict(case, frames, with_omega, tol)
        rtol = max(1e-6, 3.0 * tol.residual_rel)

        def check(cert) -> bool:
            if cert.undetectable != und:
                return False
            if not und:
                return cert.induced_state is None
            th = cert.induced_state
            in_null = float(np.linalg.norm(pl.omega @ th)) <= 1e-6 * max(1.0, float(np.linalg.norm(th)))
            return oracle.shift_explains(pl, frames, th, case.x0, rtol) and (in_null or not with_omega)

        self.op("certify", f"{case.label}/{label}/certify",
                lambda: lt.certify_undetectable(case.sys, side, attack, tol), check)
        if not (und and extension):
            return
        cert = lt.certify_undetectable(case.sys, side, attack, tol)
        w = oracle.final_state(pl, fit.theta, frames)
        gap = oracle.outside(case.geo.v, w)
        _guard(gap, tol.residual_rel, f"{case.label}/{label} extension gap")
        extensible = gap <= tol.residual_rel

        def check_ext(v) -> bool:
            near = float(np.linalg.norm(v.test_vector - w)) <= 1e-6 * max(1.0, float(np.linalg.norm(w)))
            return v.extensible_forever == extensible and near

        self.op("certify", f"{case.label}/{label}/extension_verdict",
                lambda: lt.extension_verdict(case.sys, side, attack, cert, tol), check_ext)

    def classify(self, case: Case, label, frames, tol: lt.Tol, form=UNKNOWN) -> None:
        attack = lt.AttackSequence(frames)
        side = case.side(tol, True)
        und_side, _ = self.verdict(case, frames, True, tol)
        und_none, _ = self.verdict(case, frames, False, tol)
        y0 = oracle.outputs(case.pl, np.zeros(case.pl.n), frames)
        rel = float(np.linalg.norm(y0)) / max(1.0, float(np.linalg.norm(frames)))
        # the program compares against residual_rel * ||M_T||_2; outside
        # this band the verdict does not depend on ||M_T||_2 for these plants
        if 1e-10 < rel < 1e-5:
            raise Inconclusive(f"{case.label}/{label}: output from rest {rel:.2e}")
        zero_state = rel <= 1e-10

        def check(c) -> bool:
            return (
                c.undetectable_under_omega == und_side
                and c.undetectable_under_zero_omega == und_none
                and c.zero_state_inducing == zero_state
                and (form == UNKNOWN or c.zero_dynamics_form == form)
            )

        self.op("classify", f"{case.label}/{label}/classify",
                lambda: lt.classify(case.sys, side, attack, tol), check)

    def modes(self, case: Case, t: int, hints=None) -> None:
        pl, x0 = case.pl, case.x0

        def run():
            try:
                modes = lt.find_zero_dynamics_modes(case.sys, case.tol, hints)
            except lt.NoModes as exc:
                return exc
            return modes[0], lt.zero_dynamics_attack(modes[0], t)

        def check(r) -> bool:
            if case.geo.dim_v == 0:
                # a mode's theta lies in V, so V = {0} admits none
                return isinstance(r, lt.NoModes)
            if isinstance(r, lt.NoModes):
                return False
            mode, attack = r
            top = np.hstack([mode.lam * np.eye(pl.n) - pl.a, -pl.b])
            pencil = np.vstack([top, np.hstack([pl.c, pl.d])])
            v = np.concatenate([mode.theta, mode.g])
            null = float(np.linalg.norm(pencil @ v)) <= 1e-6 * float(np.linalg.norm(v))
            return (
                null
                and attack.frames.shape == (t + 1, pl.s)
                and oracle.geometric_frames(attack.frames, mode.lam, mode.g, 1e-9)
                and oracle.shift_explains(pl, attack.frames, np.real(mode.theta), x0, 1e-6)
            )

        self.op("synthesize", f"{case.label}/modes+zero_dynamics_attack(T={t})", run, check)

    def zero_state(self, case: Case, t: int) -> None:
        pl = case.pl

        def check(r) -> bool:
            if not case.geo.zero_state:
                return isinstance(r, lt.NotSynthesizable)
            if isinstance(r, lt.NotSynthesizable):
                return False
            f = r.frames
            return (
                f.shape == (t + 1, pl.s)
                and abs(float(np.linalg.norm(f[0])) - 1.0) <= 1e-9
                and oracle.zero_from_rest(pl, f, 1e-8)
            )

        self.op("synthesize", f"{case.label}/zero_state_synthesize(T={t})",
                lambda: _raises(lt.NotSynthesizable, lt.zero_state_synthesize, case.sys, t, case.tol),
                check)

    def from_theta(self, case: Case, theta, t: int) -> None:
        pl = case.pl
        side = case.side(case.tol, True)

        def check(a) -> bool:
            return a.frames.shape == (t + 1, pl.s) and oracle.shift_explains(
                pl, a.frames, theta, case.x0, 1e-6
            )

        self.op("synthesize", f"{case.label}/undetectable_from_theta(T={t})",
                lambda: lt.undetectable_from_theta(case.sys, side, theta, t, case.tol), check)

    def extend(self, case: Case, frames, t_prime: int) -> None:
        pl = case.pl
        attack = lt.AttackSequence(frames)
        side = case.side(case.tol, False)
        cert = lt.certify_undetectable(case.sys, side, attack, case.tol)
        und, fit = self.verdict(case, frames, False, case.tol)
        if not und:
            raise Inconclusive(f"{case.label}: extension input is detectable")
        t = frames.shape[0] - 1

        def check(ext) -> bool:
            f = ext.frames
            return (
                f.shape == (t_prime + 1, pl.s)
                and np.array_equal(f[: t + 1], frames)
                and oracle.shift_explains(pl, f, fit.theta, case.x0, 1e-6)
            )

        self.op("synthesize", f"{case.label}/extend_attack({t}->{t_prime})",
                lambda: lt.extend_attack(case.sys, side, attack, cert, t_prime, case.tol), check)

    def detect(self, case: Case, label, log_path: Path, window: int, with_omega: bool) -> int | None:
        """Streams and batches one log; returns the expected first firing epoch."""
        pl, tol = case.pl, case.tol
        y_omega, frames = lt.load_log(log_path)
        if not with_omega:
            y_omega = np.zeros(1)
        ys = np.array(frames)
        first_k, quiet, res = oracle.window_decisions(
            pl, window, y_omega, ys, tol.residual_rel, pl.omega if with_omega else None
        )
        if quiet > tol.residual_rel / 3.0:
            raise Inconclusive(f"{case.label}/{label}: quiet residual {quiet:.2e}")
        if first_k is not None:
            _guard(res[first_k - window + 1], tol.residual_rel, f"{case.label}/{label} firing residual")
        cfg = lt.DetectorConfig(window, case.side(tol, with_omega), tol)
        traj = lt.Trajectory(ys, np.zeros(pl.n), y_omega)
        epochs = ys.shape[0] - window + 1
        tag = f"{case.label}/{label}/{'omega' if with_omega else 'no-omega'}"

        def stream():
            session = lt.DetectorSession(case.sys, cfg, y_omega)
            first = None
            for y in frames:
                e = session.push(y)
                if first is None and e is not None and e.decision is lt.Decision.ATTACK:
                    first = e.k
            return first

        def check_batch(r) -> bool:
            verdict, trace = r
            return (
                len(trace.epochs) == epochs
                and trace.first_detection() == first_k
                and (verdict is lt.Decision.ATTACK) == (first_k is not None)
            )

        self.op("detect", f"{tag}/push", stream, lambda k: k == first_k, epochs)
        self.op("detect", f"{tag}/batch_decide",
                lambda: lt.batch_decide(case.sys, cfg, y_omega, traj), check_batch, epochs)
        return first_k

    # -- CLI --------------------------------------------------------------

    def run_cli(self, sub, label, argv, check, outputs=()) -> None:
        self.cli.append(CliCall(sub, label, [sub] + [str(a) for a in argv], check, tuple(outputs)))

    def cli_analyze(self, case: Case, hints=()) -> None:
        geo = case.geo
        extra = [x for h in hints for x in ("--lambda-hint", repr(h))]

        def check(rc, out) -> bool:
            r = parse_report(out)
            return (
                rc == 0
                and int(r["dim_weakly_unobservable"]) == geo.dim_v
                and r["zero_state_attack_exists"] == str(geo.zero_state).lower()
                and int(r["dim_null_omega_meet_v"]) == geo.null_omega_v.shape[1]
                and (r["modes"] != "none") == (geo.dim_v > 0)
                and all(any(v.startswith(f"lambda={h!r}+0j") for v in r.values()) for h in hints)
            )

        self.run_cli("analyze", f"analyze {case.path.name}",
                     ["--scenario", case.path] + extra, check)

    def cli_certify(self, case: Case, frames, attack_path: Path | None) -> None:
        und, _ = self.verdict(case, frames, True, lt.Tol())

        def check(rc, out) -> bool:
            r = parse_report(out)
            if r.get("undetectable") != str(und).lower() or rc != (0 if und else 2):
                return False
            if not und:
                return "theta" not in r
            theta = np.array([float(x) for x in r["theta"].split()])
            return oracle.shift_explains(case.pl, frames, theta, case.x0, 1e-6)

        argv = ["--scenario", case.path]
        if attack_path is not None:
            argv += ["--attack", attack_path]
        self.run_cli("certify", f"certify {case.path.name} T={len(frames) - 1}", argv, check)

    def cli_detect(self, case: Case, log_path: Path, window: int, tol: float | None = None,
                   ys=None, y_omega=None) -> None:
        """``ys``/``y_omega`` give the log's expected content when the log is
        written by an earlier call of the same round."""
        if ys is None:
            y_omega, ys = inputs.read_log(log_path)
        rtol = tol if tol is not None else lt.Tol().residual_rel
        first_k, quiet, res = oracle.window_decisions(case.pl, window, y_omega, ys, rtol, case.pl.omega)
        if quiet > rtol / 3.0:
            raise Inconclusive(f"{log_path.name}: quiet residual {quiet:.2e}")
        epochs = len(ys) - window + 1

        def check(rc, out) -> bool:
            r = parse_report(out)
            want = "none" if first_k is None else str(first_k)
            return (
                rc == (0 if first_k is None else 2)
                and r["first_detection"] == want
                and int(r["epochs"]) == epochs
            )

        argv = ["--scenario", case.path, "--log", log_path, "--window", window]
        if tol is not None:
            argv += ["--tol", repr(tol)]
        self.run_cli("detect", f"detect {log_path.name}", argv, check)

    def cli_simulate(self, case: Case, out_path: Path, x0, frames) -> None:
        want = oracle.outputs(case.pl, x0, frames)

        def check(rc, _out) -> bool:
            y_omega, ys = inputs.read_log(out_path)
            scale = max(1.0, float(np.linalg.norm(want)))
            return (
                rc == 0
                and ys.shape == want.shape
                and float(np.linalg.norm(ys - want)) <= 1e-9 * scale
                and np.allclose(y_omega, case.pl.omega @ x0, rtol=1e-12, atol=1e-12)
            )

        self.run_cli("simulate", f"simulate {case.path.name} -> {out_path.name}",
                     ["--scenario", case.path, "--out", out_path], check, [out_path])


def _stealthy_log(pl: Plant, x0, lam, t: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    frames, theta = _geometric(pl, lam, t, scale)
    if float(np.linalg.norm(pl.omega @ theta)) < 1e-3 * float(np.linalg.norm(theta)):
        raise Inconclusive("stealthy attack is invisible to Omega as well")
    return oracle.outputs(pl, x0, frames), frames


def _switched(case: Case, g: np.random.Generator, t: int, window: int, rtols=(1e-8,)):
    """Frames, outputs and switch-on step of a log whose dense attack starts
    at a seeded step in the middle third.  A draw whose first attacked
    windows sit near a detector threshold is redrawn (from the same seeded
    stream), so that every tolerance in ``rtols`` decides the log with a
    margin of at least 3 and the expected first epoch is unambiguous."""
    pl, x0 = case.pl, case.x0
    for _ in range(20):
        k_on = int(g.integers(t // 3, 2 * t // 3))
        frames = np.zeros((t + 1, pl.s))
        frames[k_on:] = g.standard_normal((t + 1 - k_on, pl.s))
        ys = oracle.outputs(pl, x0, frames)
        for rtol in rtols:
            first_k, quiet, res = oracle.window_decisions(pl, window, pl.omega @ x0, ys, rtol, pl.omega)
            if first_k is None or quiet > rtol / 3.0 or res[first_k - window + 1] < 3.0 * rtol:
                break
        else:
            return frames, ys, k_on
    raise Inconclusive(f"{case.label}: no well-decided switched log in 20 draws")


def _logs(b: Builder, case: Case, tmp: Path, g, t: int, window: int, lam, tag: str,
          rtols=(1e-8,)) -> list[str]:
    """Clean, switched-on and stealthy logs of t+1 records, each decided by
    streaming and by batch; the stealthy one with and without Omega."""
    pl, x0 = case.pl, case.x0
    _, switched, k_on = _switched(case, g, t, window, rtols)
    stealthy, _ = _stealthy_log(pl, x0, lam, t, 10.0)
    logs = {
        "clean": oracle.free_response(pl, x0, t),
        "switched": switched,
        "stealthy": stealthy,
    }
    # what each kind of log must show, by construction
    want = {"clean": lambda k: k is None, "switched": lambda k: k is not None and k >= k_on,
            "stealthy": lambda k: k == window - 1}
    for kind, ys in logs.items():
        path = inputs.write_log(tmp / f"{tag}_{kind}.jsonl", pl.omega @ x0, ys)
        if not want[kind](b.detect(case, kind, path, window, True)):
            raise Inconclusive(f"{tag}/{kind}: the window projection contradicts the construction")
        if kind == "stealthy" and b.detect(case, kind, path, window, False) is not None:
            raise Inconclusive(f"{tag}/stealthy: fires without side information")
    return [f"{tag}: logs clean/switched(k_on={k_on})/stealthy of {t + 1} records, window {window}"]


def _aircraft_case(root: Path, tmp: Path, g) -> tuple[Case, np.ndarray]:
    pl, bundled = inputs.aircraft(root)
    path = inputs.write_scenario(tmp / "aircraft.json", pl, frames=bundled)
    return Case("aircraft", pl, path, lt.Tol(), g.standard_normal(pl.n)), bundled


def _shift_in(case: Case, g) -> np.ndarray:
    nv = case.geo.null_omega_v
    return _unit(nv @ g.standard_normal(nv.shape[1]))


# ---------------------------------------------------------------------------


def build_aircraft(root: Path, tmp: Path, seed: int) -> Workload:
    g = inputs.rng(seed, "aircraft")
    b = Builder()
    case, bundled = _aircraft_case(root, tmp, g)
    pl, lam = case.pl, inputs.AIRCRAFT_LAMBDA
    printed = lt.Tol(residual_rel=5e-3)
    t = 30
    zd, _ = _geometric(pl, lam, t)
    rand = g.standard_normal((t + 1, pl.s))
    theta = _shift_in(case, g)
    ft = oracle.attack_for_shift(pl, theta, t)
    zs = oracle.zero_state_frames(pl, t)

    b.analyze(case, [lam])
    b.certify(case, "bundled", bundled, True, printed)
    b.certify(case, "bundled", bundled, False, printed)
    b.certify(case, "zero-dynamics", zd, False, case.tol, extension=True)
    b.certify(case, "zero-dynamics", zd, True, case.tol)
    b.certify(case, "random", rand, True, case.tol)
    b.certify(case, "from-theta", ft, True, case.tol, extension=True)
    b.classify(case, "bundled", bundled, printed, "real")
    b.classify(case, "zero-dynamics", zd, case.tol, "real")
    b.classify(case, "random", rand, case.tol, None)
    b.classify(case, "zero-state", zs, case.tol)
    b.modes(case, t, [lam])
    b.zero_state(case, t)
    b.from_theta(case, theta, t)
    b.extend(case, zd, 2 * t)
    # the switched log is also the CLI's `detect --tol 5e-3` input
    makeup = _logs(b, case, tmp, g, 299, 5, lam, "aircraft", rtols=(1e-8, 5e-3))

    # CLI round: the user-facing pipelines of the paper's experiment.
    repro_first = {}
    y0 = oracle.outputs(pl, np.zeros(pl.n), bundled)
    for side in (False, True):
        k, quiet, _ = oracle.window_decisions(pl, 5, np.zeros(1), y0, 5e-3, pl.omega if side else None)
        if quiet > 5e-3 / 3.0:
            raise Inconclusive(f"aircraft repro quiet residual {quiet:.2e}")
        repro_first[side] = k

    def check_repro(rc, out) -> bool:
        series = {}
        for line in out.splitlines():
            if line.startswith("series "):
                name, _, rest = line[len("series "):].partition(": ")
                series[name] = [tuple(x.split(":")[:2]) for x in rest.split()]

        def first(rows):
            return next((int(k) for k, d in rows if d == "1"), None)

        return (
            rc == 0
            and first(series["detect_no_side"]) == repro_first[False]
            and first(series["detect_side"]) == repro_first[True]
        )

    b.run_cli("repro-aircraft", "repro-aircraft", [], check_repro)
    b.cli_analyze(case, [lam])
    zs_out, zd_out = tmp / "cli_zero_state.json", tmp / "cli_zero_dynamics.json"

    def check_zs(rc, _out) -> bool:
        f = inputs.read_attack(zs_out)
        return (rc == 0 and f.shape == (t + 1, pl.s)
                and abs(float(np.linalg.norm(f[0])) - 1.0) <= 1e-9
                and oracle.zero_from_rest(pl, f, 1e-8))

    def check_zd(rc, _out) -> bool:
        f = inputs.read_attack(zd_out)
        return (rc == 0 and f.shape == (t + 1, pl.s) and float(np.linalg.norm(f[0])) > 0.0
                and oracle.best_shift(pl, f, None).rel_residual <= 1e-9)

    b.run_cli("synthesize", "synthesize zero-state",
              ["--scenario", case.path, "--kind", "zero-state", "--horizon", t, "--out", zs_out],
              check_zs, [zs_out])
    b.run_cli("synthesize", "synthesize zero-dynamics",
              ["--scenario", case.path, "--kind", "zero-dynamics", "--lambda-hint", repr(lam),
               "--horizon", t, "--out", zd_out], check_zd, [zd_out])
    b.cli_certify(case, bundled, None)
    sim_x0 = g.standard_normal(pl.n)
    sim_path = inputs.write_scenario(tmp / "aircraft_sim.json", pl, x0=sim_x0, frames=bundled)
    sim_case = Case("aircraft-sim", pl, sim_path, case.tol, case.x0)
    b.cli_simulate(sim_case, tmp / "cli_sim.jsonl", sim_x0, bundled)
    b.cli_detect(case, tmp / "aircraft_switched.jsonl", 5, 5e-3)
    makeup = [
        "aircraft: n=4 p=3 s=4 q=1; attacks bundled/zero-dynamics/random/from-theta/"
        f"zero-state at T={t}; extension to T={2 * t}",
    ] + makeup
    return Workload(b.round(), b.cli, [case.path], makeup, inproc_share=0.25)


def build_long_horizon(root: Path, tmp: Path, seed: int) -> Workload:
    g = inputs.rng(seed, "long-horizon")
    b = Builder()
    air, _ = _aircraft_case(root, tmp, g)
    wide_pl = inputs.random_plant(inputs.rng(seed, "long-horizon/wide10"), 10, "wide")
    wide = Case("wide10", wide_pl, inputs.write_scenario(tmp / "wide10.json", wide_pl),
                lt.Tol(), g.standard_normal(10))
    lam = inputs.AIRCRAFT_LAMBDA
    lam_w = float(g.uniform(0.9, 0.98))
    t_short, t_long = 300, 1000
    air300, _ = _geometric(air.pl, lam, t_short)
    air1000, _ = _geometric(air.pl, lam, t_long)
    wide300, _ = _geometric(wide_pl, lam_w, t_short)
    theta_w = _shift_in(wide, g)

    # analyze and detect are light here; repeating them keeps their
    # per-round medians steady without making the round much longer
    for _ in range(4):
        b.analyze(air, [lam])
        b.analyze(wide)
    b.certify(air, "zero-dynamics", air300, False, air.tol, extension=True)
    b.certify(air, "zero-dynamics", air1000, True, air.tol)
    b.certify(wide, "zero-dynamics", wide300, False, wide.tol, extension=True)
    b.classify(air, "zero-dynamics", air300, air.tol, "real")
    b.from_theta(wide, theta_w, t_short)
    b.extend(air, air300, 2 * t_short)
    b.zero_state(air, t_long)
    b.modes(air, t_long, [lam])
    air_stealthy, _ = _stealthy_log(air.pl, air.x0, lam, t_long, 10.0)
    stealthy_path = inputs.write_log(tmp / "aircraft_stealthy.jsonl", air.pl.omega @ air.x0,
                                     air_stealthy)
    _, ys, k_on = _switched(wide, g, t_long, 11)
    switched_path = inputs.write_log(tmp / "wide10_switched.jsonl", wide_pl.omega @ wide.x0, ys)
    for _ in range(2):
        if (b.detect(air, "stealthy", stealthy_path, 5, True) != 4
                or b.detect(air, "stealthy", stealthy_path, 5, False) is not None):
            raise Inconclusive("aircraft stealthy log: the window projection contradicts the construction")
        b.detect(wide, "switched", switched_path, 11, True)

    no_omega = np.zeros((1, 4))
    noside_pl = Plant(air.pl.a, air.pl.b, air.pl.c, air.pl.d, no_omega)
    noside = Case("aircraft-noside", noside_pl,
                  inputs.write_scenario(tmp / "aircraft_noside.json", noside_pl), air.tol, air.x0)
    attack_path = inputs.write_attack(tmp / "aircraft_zd1000.json", air1000)
    b.cli_certify(noside, air1000, attack_path)
    ft_out = tmp / "cli_from_theta.json"

    def check_ft(rc, _out) -> bool:
        f = inputs.read_attack(ft_out)
        return rc == 0 and f.shape == (t_short + 1, wide_pl.s) and oracle.shift_explains(
            wide_pl, f, theta_w, wide.x0, 1e-6)

    b.run_cli("synthesize", "synthesize from-theta wide10 T=300",
              ["--scenario", wide.path, "--kind", "from-theta", "--horizon", t_short,
               # "--theta=" form: a value starting with "-" would be read as an option
               "--theta=" + ",".join(repr(float(x)) for x in theta_w), "--out", ft_out], check_ft,
              [ft_out])
    makeup = [
        "aircraft: n=4 p=3 s=4 q=1; zero-dynamics attack (lambda=0.9779) at T=300 and T=1000; "
        "extension 300->600; zero-state synthesis at T=1000; stealthy log of 1001 records",
        f"wide10: n=10 p=2 s=3 q=1; zero-dynamics attack (lambda={lam_w:.4f}) at T=300; "
        f"from-theta at T=300; switched-on log (k_on={k_on}) of 1001 records, window 11",
    ]
    return Workload(b.round(), b.cli, [air.path, wide.path], makeup, inproc_share=0.6)


def build_plant_sweep(root: Path, tmp: Path, seed: int) -> Workload:
    b = Builder()
    files, makeup = [], []
    for n in (20, 60):
        for shape in ("wide", "square", "tall"):
            tag = f"{shape}{n}"
            g = inputs.rng(seed, f"plant-sweep/{tag}")
            pl = inputs.random_plant(g, n, shape)
            t = n
            rand = g.standard_normal((t + 1, pl.s))
            x0 = g.standard_normal(n)
            # theta-based synthesis only on wide or minimum-phase plants
            nv = oracle.geometry(pl).null_omega_v
            theta = _unit(nv @ g.standard_normal(nv.shape[1])) if nv.shape[1] else None
            ft = oracle.attack_for_shift(pl, theta, t) if theta is not None else None
            embedded = ft if ft is not None else rand
            case = Case(tag, pl, inputs.write_scenario(tmp / f"{tag}.json", pl, frames=embedded),
                        lt.Tol(), x0)
            files.append(case.path)
            if shape == "wide":
                lam = float(g.uniform(0.9, 0.98))
            elif shape == "square":
                zeros = np.linalg.eigvals(pl.a - pl.b @ np.linalg.solve(pl.d, pl.c))
                lam = complex(zeros[int(g.integers(zeros.size))])
                lam = complex(lam.real, abs(lam.imag))
            else:
                lam = None
            b.analyze(case)
            b.certify(case, "random", rand, True, case.tol)
            b.classify(case, "random", rand, case.tol, None)
            b.modes(case, t)
            b.zero_state(case, t)
            if ft is not None:
                b.certify(case, "from-theta", ft, True, case.tol, extension=True)
                b.classify(case, "from-theta", ft, case.tol)
                b.from_theta(case, theta, t)
            if lam is not None:
                zd, _ = _geometric(pl, lam, t)
                b.certify(case, "zero-dynamics", zd, False, case.tol, extension=True)
                b.classify(case, "zero-dynamics", zd, case.tol, _form(lam))
                b.extend(case, zd, 2 * t)
            _, ys, k_on = _switched(case, g, 4 * n, n + 1)
            path = inputs.write_log(tmp / f"{tag}_switched.jsonl", pl.omega @ x0, ys)
            b.detect(case, "switched", path, n + 1, True)
            if n == 60:
                b.cli_analyze(case)
                b.cli_certify(case, embedded, None)
            makeup.append(
                f"{tag}: n={n} p={pl.p} s={pl.s} q=1 T={t}; dim V={case.geo.dim_v}; attacks "
                f"random{'/from-theta' if ft is not None else ''}"
                f"{'/zero-dynamics' if lam is not None else ''}; switched log of {4 * n + 1} "
                f"records (k_on={k_on}), window {n + 1}"
            )
    return Workload(b.round(), b.cli, files[3:], makeup)


STREAM_RECORDS = 4000
CLI_RECORDS = 20000


def build_log_stream(root: Path, tmp: Path, seed: int) -> Workload:
    g = inputs.rng(seed, "log-stream")
    b = Builder()
    air, _ = _aircraft_case(root, tmp, g)
    wide_pl = inputs.random_plant(inputs.rng(seed, "log-stream/wide20"), 20, "wide")
    wide = Case("wide20", wide_pl, inputs.write_scenario(tmp / "wide20.json", wide_pl),
                lt.Tol(), g.standard_normal(20))
    lam_w = float(g.uniform(0.9, 0.98))
    makeup = []
    for case, lam, window, t in ((air, inputs.AIRCRAFT_LAMBDA, 5, 30), (wide, lam_w, 21, 20)):
        hints = [lam] if case is air else None
        for _ in range(4):  # light: repeated to steady the per-round median
            b.analyze(case, hints)
        for horizon in (t, 2 * t):
            zd, _ = _geometric(case.pl, lam, horizon)
            b.certify(case, "zero-dynamics", zd, False, case.tol, extension=True)
            b.certify(case, "zero-dynamics", zd, True, case.tol)
            b.classify(case, "zero-dynamics", zd, case.tol, "real")
            b.modes(case, horizon, hints)
            b.zero_state(case, horizon)
            b.from_theta(case, _shift_in(case, g), horizon)
        makeup += _logs(b, case, tmp, g, STREAM_RECORDS - 1, window, lam, case.label)

    # CLI: simulate a 20 000-record log, then detect over it and over a
    # bench-written clean log of the wide plant.
    t = CLI_RECORDS - 1
    x0 = g.standard_normal(air.pl.n)
    sim_path = tmp / "aircraft_stream.json"
    sim = Case("aircraft-stream", air.pl, inputs.write_scenario(sim_path, air.pl), air.tol, x0)
    frames, ys, k_on = _switched(sim, g, t, 5)
    inputs.write_scenario(sim_path, air.pl, x0=x0, frames=frames)
    log_path = tmp / "cli_stream.jsonl"
    b.cli_simulate(sim, log_path, x0, frames)
    b.cli_detect(sim, log_path, 5, ys=ys, y_omega=air.pl.omega @ x0)
    clean = inputs.write_log(tmp / "wide20_clean_cli.jsonl", wide_pl.omega @ wide.x0,
                             oracle.free_response(wide_pl, wide.x0, t))
    b.cli_detect(wide, clean, 21)
    makeup.append(f"CLI: simulate + detect over {CLI_RECORDS} aircraft records (k_on={k_on}); "
                  f"detect over {CLI_RECORDS} clean wide20 records, window 21")
    return Workload(b.round(), b.cli, [air.path, wide.path, sim_path], makeup)


BUILDERS = {
    "aircraft": build_aircraft,
    "long-horizon": build_long_horizon,
    "plant-sweep": build_plant_sweep,
    "log-stream": build_log_stream,
}
