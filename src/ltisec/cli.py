"""Command-line entry point, the one layer that reads text.

Subcommands: analyze, synthesize, certify, simulate, detect, repro-aircraft.
Exit codes: 0 clean/pass, 2 attack detected or certificate/expectation
mismatch, 1 usage and input errors.
"""

from __future__ import annotations

import argparse
import re
import sys as _sys
from pathlib import Path

import numpy as np

from .analysis import certify_undetectable
from .detector import Decision, DetectorConfig, run_detector
from .errors import LtisecError
from .model import AttackSequence, simulate
from .numlin import Tol
from .reports import (Report, analyze_report, certify_report, fmt, repro_aircraft, trace_series,
                      write_series_csv)
from .scenario import load_attack, load_log, load_scenario, save_attack, save_log
from .synthesis import (extend_attack, find_zero_dynamics_modes, undetectable_from_theta,
                        zero_dynamics_attack, zero_state_synthesize)

# a number as float() reads it, less digit separators
_NUMBER = re.compile(r"\s*[+-]?(\d+\.?\d*(e[+-]?\d+)?|\.\d+(e[+-]?\d+)?|nan|inf(inity)?)\s*", re.I)


def _floats(text: str) -> list[float]:
    """``--theta``: comma-separated numbers, as floats."""
    bad = [x for x in text.split(",") if not _NUMBER.fullmatch(x)]
    if bad:
        raise argparse.ArgumentTypeError(f"theta is not a numeric array: {bad[0]!r} is not a number")
    return [float(x) for x in text.split(",")]


def _horizon(args, sys) -> int:
    return 2 * sys.n if args.horizon is None else args.horizon


# the synthesize options each --kind reads; the others are refused
_READ_BY = {"scale": ("zero-dynamics", "zero-state"), "lambda_hint": ("zero-dynamics",),
            "allow_unstable": ("zero-dynamics",), "theta": ("from-theta",), "attack": ("extend",)}


def _unread(args, scenario) -> str | None:
    """Why an option given decides nothing for this call, or None."""
    if args.command == "synthesize":
        return next((f"--{opt.replace('_', '-')} is not read by --kind {args.kind}"
                     for opt, kinds in _READ_BY.items()
                     if opt in args and args.kind not in kinds), None)
    given = args.command == "simulate" and (args.attack or scenario.attack is not None)
    if given and args.horizon is not None:
        return "--horizon is read only when neither --attack nor the scenario gives an attack"
    return None


def _attack(args, scenario) -> AttackSequence | None:
    """The attack of ``--attack``, else the scenario's, else None."""
    return load_attack(args.attack, scenario.system.s) if args.attack else scenario.attack


def _cmd_analyze(args, scenario, tol) -> int:
    print(analyze_report(scenario, tol, args.lambda_hint, args.allow_unstable).render(), end="")
    return 0


def _cmd_synthesize(args, scenario, tol) -> int:
    sys = scenario.system
    horizon = _horizon(args, sys)
    # the options of _READ_BY are in args only where given (argparse.SUPPRESS)
    if args.kind == "zero-dynamics":
        modes = find_zero_dynamics_modes(sys, tol, getattr(args, "lambda_hint", None),
                                         "allow_unstable" in args)
        attack = zero_dynamics_attack(modes[0], horizon, getattr(args, "scale", 1.0))
    elif args.kind == "zero-state":
        attack = zero_state_synthesize(sys, horizon, tol, getattr(args, "scale", 1.0))
    elif args.kind == "from-theta":
        if "theta" not in args:
            raise LtisecError("--theta is required for kind from-theta")
        attack = undetectable_from_theta(sys, scenario.side, args.theta, horizon, tol)
    else:  # extend
        if "attack" not in args:
            raise LtisecError("--attack is required for kind extend")
        base = load_attack(args.attack, sys.s)
        cert = certify_undetectable(sys, scenario.side, base, tol)
        attack = extend_attack(sys, scenario.side, base, cert, horizon, tol)
    if args.out:
        save_attack(args.out, attack)
        print(f"wrote attack horizon_t={attack.horizon_t} to {args.out}")
    else:
        for k, frame in enumerate(attack.frames):
            print(f"a({k}) = " + " ".join(fmt(x) for x in frame))
    return 0


def _cmd_certify(args, scenario, tol) -> int:
    attack = _attack(args, scenario)
    if attack is None:
        raise LtisecError("no attack given: pass --attack or embed one in the scenario")
    rep, undetectable = certify_report(scenario, attack, tol)
    print(rep.render(), end="")
    return 0 if undetectable else 2


def _cmd_simulate(args, scenario, tol) -> int:
    sys = scenario.system
    attack = _attack(args, scenario) or AttackSequence.zeros(sys.s, _horizon(args, sys))
    x0 = scenario.x0 if scenario.x0 is not None else np.zeros(sys.n)
    traj = simulate(sys, x0, attack, scenario.side)
    if args.out:
        save_log(args.out, traj)
        print(f"wrote log with {traj.horizon_t + 1} records to {args.out}")
    else:
        print(f"y_omega = " + " ".join(fmt(v) for v in traj.side_value))
        for k, y in enumerate(traj.outputs):
            print(f"y({k}) = " + " ".join(fmt(v) for v in y))
    return 0


def _cmd_detect(args, scenario, tol) -> int:
    sys = scenario.system
    window = args.window if args.window is not None else sys.n + 1
    config = DetectorConfig(window_len_l=window, omega=scenario.side, tol=tol)
    y_omega, outputs = load_log(args.log)
    trace = run_detector(sys, config, y_omega, outputs)
    rows = trace_series(trace)
    if args.out:
        write_series_csv(args.out, rows)
    rep = Report("detection")
    rep.add("window", str(window))
    rep.add("epochs", str(len(rows)))
    rep.add("verdict", trace.verdict.value)
    first = trace.first_detection()
    rep.add("first_detection", "none" if first is None else str(first))
    rep.series["detect"] = rows
    print(rep.render(), end="")
    return 0 if trace.verdict is Decision.NO_ATTACK else 2


def _cmd_repro_aircraft(args) -> int:
    # options left out are not in args (argparse.SUPPRESS): repro_aircraft's defaults hold
    rep = repro_aircraft(**{k: v for k, v in vars(args).items() if k in ("window", "residual_rel", "scale")})
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, rows in sorted(rep.series.items()):
            write_series_csv(out / f"{name}.csv", rows)
    print(rep.render(), end="")
    return 0 if rep.passed else 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1, since exit 2 reports a
    detection; subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ltisec",
        description="stealthy-attack analysis, synthesis, and detection for "
        "discrete-time linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="residual tolerance")

    def modes(p):
        p.add_argument("--lambda-hint", action="append", type=complex,
                       help="candidate lambda (repeatable); used only where the pencil is scanned: "
                       "wide plants (s > p) and plants with redundant outputs")
        p.add_argument("--allow-unstable", action="store_true", help="keep modes with |lambda| > 1")

    p = sub.add_parser("analyze", help="subspace dimensions and attack existence")
    common(p)
    modes(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="construct an attack sequence",
                       argument_default=argparse.SUPPRESS)
    common(p)
    p.add_argument("--kind", required=True,
                   choices=["zero-dynamics", "zero-state", "from-theta", "extend"])
    p.add_argument("--horizon", type=int, default=None, help="attack horizon T")
    p.add_argument("--scale", type=float,
                   help="attack magnitude, default 1 (kinds zero-dynamics and zero-state)")
    modes(p)
    p.add_argument("--theta", type=_floats, help="comma-separated initial-state shift (kind from-theta)")
    p.add_argument("--attack", help="attack JSON file (kind extend)")
    p.add_argument("--out", default=None, help="output attack JSON file")
    p.set_defaults(func=_cmd_synthesize, refuse=p.error)

    p = sub.add_parser("certify", help="undetectability certificate for an attack")
    common(p)
    p.add_argument("--attack", default=None, help="attack JSON file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("simulate", help="run the recursion and write a log")
    common(p, tol=False)
    p.add_argument("--attack", default=None, help="attack JSON file")
    p.add_argument("--horizon", type=int, default=None,
                   help="horizon for the zero attack, when no attack is given")
    p.add_argument("--out", default=None, help="output log file")
    p.set_defaults(func=_cmd_simulate, refuse=p.error)

    p = sub.add_parser("detect", help="run the windowed detector over a log")
    common(p)
    p.add_argument("--log", required=True, help="measurement log file")
    p.add_argument("--window", type=int, default=None, help="window length l")
    p.add_argument("--out", default=None, help="output trace CSV")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("repro-aircraft", help="re-run the bundled aircraft experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--tol", dest="residual_rel", metavar="TOL", type=float, help="detection tolerance")
    p.add_argument("--window", type=int, help="window length l")
    p.add_argument("--scale", type=float, help="attack magnitude")
    p.add_argument("--out", default=None, help="directory for CSV series")
    p.set_defaults(func=_cmd_repro_aircraft)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "repro-aircraft":
            return args.func(args)
        tol = Tol() if getattr(args, "tol", None) is None else Tol(residual_rel=args.tol)
        scenario = load_scenario(args.scenario, tol)
        if (unread := _unread(args, scenario)) is not None:
            args.refuse(unread)  # a usage error: exit 1
        return args.func(args, scenario, tol)
    except (LtisecError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
