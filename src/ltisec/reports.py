"""Deterministic text reports for the command-line pipelines.

All floats are rendered at 12 significant digits and every collection is
emitted in a fixed order, so identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import certify_undetectable
from .detector import Decision, DetectionTrace, DetectorConfig, run_detector
from .errors import NoModes
from .model import AttackSequence, SideInformation, simulate, validate
from .numlin import Tol, _as_scalar
from .scenario import Scenario, aircraft_path, load_scenario
from .subspaces import _null_omega_meet_v, _nulling_factors, weakly_unobservable, zero_state_attack_exists
from .synthesis import find_zero_dynamics_modes

__all__ = [
    "Expectation",
    "Report",
    "fmt",
    "analyze_report",
    "certify_report",
    "repro_aircraft",
    "trace_series",
    "write_series_csv",
    "AIRCRAFT_MODE_LAMBDA",
    "AIRCRAFT_MODE_G",
]

# Published parameters of the bundled aircraft experiment: the attack decays
# with this base along this channel direction (4-digit precision).
AIRCRAFT_MODE_LAMBDA = 0.9779
AIRCRAFT_MODE_G = (0.0324, 0.0, -0.6396, 0.3007)

# The published values are rounded to 4 digits, which leaves windowed
# residuals up to 1.21e-3 relative on the unattacked-looking side (the worst
# epoch is where the window norm dips near its minimum).  The default
# decision tolerance sits a factor 4 above that and a factor 70 below the
# side-information detection residual, so both outcomes are robust.
PRINT_PRECISION_REL = 5e-3


def fmt(x) -> str:
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class Expectation:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    info: list[tuple[str, str]] = field(default_factory=list)
    expectations: list[Expectation] = field(default_factory=list)
    series: dict[str, list[tuple[int, int, float]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.expectations)

    def add(self, key: str, value) -> None:
        self.info.append((key, value if isinstance(value, str) else fmt(value)))

    def expect(self, name: str, passed: bool, detail: str = "") -> None:
        self.expectations.append(Expectation(name, bool(passed), detail))

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        for key, value in self.info:
            lines.append(f"{key}: {value}")
        for name, rows in sorted(self.series.items()):
            flat = " ".join(f"{k}:{d}:{fmt(r)}" for k, d, r in rows)
            lines.append(f"series {name}: {flat}")
        for e in self.expectations:
            tag = "PASS" if e.passed else "FAIL"
            suffix = f" ({e.detail})" if e.detail else ""
            lines.append(f"{tag} {e.name}{suffix}")
        if self.expectations:
            lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"


def trace_series(trace: DetectionTrace) -> list[tuple[int, int, float]]:
    return list(zip(trace.k.tolist(), trace.attack.view(np.int8).tolist(),
                    trace.residual.tolist()))


def write_series_csv(path, rows: list[tuple[int, int, float]]) -> None:
    lines = ["k,decision,residual"]
    lines += [f"{k},{d},{fmt(r)}" for k, d, r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def analyze_report(
    scenario: Scenario,
    tol: Tol,
    lambda_hints: list[complex] | None = None,
    allow_unstable: bool = False,
) -> Report:
    """Subspace dimensions, attack-existence verdicts, and mode list."""
    sys = scenario.system
    rep = Report("analysis")
    rep.add("n", str(sys.n))
    rep.add("p", str(sys.p))
    rep.add("s", str(sys.s))
    check = validate(sys, tol)
    rep.add("observable", str(check.observable).lower())
    rep.add("bd_injective", str(check.bd_injective).lower())
    nulling = _nulling_factors(sys, tol)
    rep.add("dim_weakly_unobservable", str(weakly_unobservable(sys, tol).dim))
    # B maps ker D (N_0) onto W_1 and the free inputs kept with V (N_inf)
    # onto W_1 meet V, one to one as a loaded scenario's [B; D] is injective
    rep.add("dim_output_nulling_w1", str(nulling[0][1].shape[1]))
    rep.add("dim_w1_meet_v", str(nulling[-1][1].shape[1]))
    rep.add("zero_state_attack_exists", str(zero_state_attack_exists(sys, tol)).lower())
    rep.add("dim_null_omega_meet_v", str(_null_omega_meet_v(sys, scenario.side, tol).dim))
    try:
        modes = find_zero_dynamics_modes(sys, tol, lambda_hints, allow_unstable)
    except NoModes:
        rep.add("modes", "none")
        return rep
    rep.add("modes", str(len(modes)))
    for i, m in enumerate(modes):
        rep.add(
            f"mode_{i}",
            f"lambda={fmt(m.lam.real)}{'+' if m.lam.imag >= 0 else '-'}{fmt(abs(m.lam.imag))}j "
            f"abs={fmt(abs(m.lam))} residual={fmt(m.pencil_residual)}",
        )
    return rep


def certify_report(
    scenario: Scenario, attack: AttackSequence, tol: Tol
) -> tuple[Report, bool]:
    """Certificate report; the flag is the undetectability verdict."""
    cert = certify_undetectable(scenario.system, scenario.side, attack, tol)
    rep = Report("certificate")
    rep.add("horizon_t", str(attack.horizon_t))
    rep.add("undetectable", str(cert.undetectable).lower())
    rep.add("residual", cert.residual)
    rep.add("theta_in_null_omega", str(cert.theta_in_null_omega).lower())
    rep.add("theta_in_v", str(cert.theta_in_v).lower())
    if cert.induced_state is not None:
        rep.add("theta", " ".join(fmt(x) for x in cert.induced_state))
    return rep, cert.undetectable


def _aircraft_attack(scale: float, horizon_t: int = 30) -> AttackSequence:
    g = np.array(AIRCRAFT_MODE_G)
    frames = np.array(
        [scale * AIRCRAFT_MODE_LAMBDA**k * g for k in range(horizon_t + 1)]
    )
    return AttackSequence(frames)


def repro_aircraft(
    window: int = 5,
    residual_rel: float = PRINT_PRECISION_REL,
    scale: float = 10.0,
) -> Report:
    """Re-run the bundled aircraft experiment against both detectors.

    The attack frames are rebuilt from the published 4-digit parameters, so
    the default decision tolerance is set at print precision rather than at
    the machine-precision default.  Checked outcomes: the detector without
    side information never fires over the whole horizon; the detector with
    side information fires at its first decision epoch with a residual at
    least a thousand times the unattacked floor; the certificates agree
    with both outcomes.  ``scale`` is one finite number.
    """
    tol = Tol(residual_rel=residual_rel)
    scale = _as_scalar(scale, "scale")
    scenario = load_scenario(aircraft_path(), tol)
    sys = scenario.system
    attack = _aircraft_attack(scale)
    x0 = np.zeros(sys.n)

    side = scenario.side
    no_side = SideInformation.none(sys.n)
    cfg_side = DetectorConfig(window_len_l=window, omega=side, tol=tol)
    cfg_none = DetectorConfig(window_len_l=window, omega=no_side, tol=tol)
    # Omega changes only the side value, so each initial state is simulated
    # once.  The report prints every residual and the noise-level floor at
    # 12 digits; run_detector's residuals are the streamed ones bit for bit.
    ys = simulate(sys, x0, attack, side).outputs
    trace_none = run_detector(sys, cfg_none, no_side.value_for(x0), ys)
    trace_side = run_detector(sys, cfg_side, side.value_for(x0), ys)
    verdict_none = trace_none.verdict

    # Unattacked residual floor from a fixed reference initial state.
    x_ref = np.array([1.0, -1.0, 0.5, 2.0])
    quiet = AttackSequence.zeros(sys.s, attack.horizon_t)
    ys_ref = simulate(sys, x_ref, quiet, side).outputs
    floor_side = run_detector(sys, cfg_side, side.value_for(x_ref), ys_ref)
    floor_none = run_detector(sys, cfg_none, no_side.value_for(x_ref), ys_ref)
    floor = max(floor_side.residual.max(), floor_none.residual.max())

    rep = Report("aircraft reproduction")
    rep.add("window", str(window))
    rep.add("residual_rel", residual_rel)
    rep.add("scale", scale)
    rep.add("unattacked_floor", floor)
    rep.series["detect_no_side"] = trace_series(trace_none)
    rep.series["detect_side"] = trace_series(trace_side)

    first_k, first_residual = int(trace_side.k[0]), trace_side.residual[0]
    rep.add("side_first_epoch", str(first_k))
    rep.add("side_first_residual", first_residual)

    rep.expect(
        "no_side_never_fires",
        verdict_none is Decision.NO_ATTACK,
        f"max residual {fmt(trace_none.residual.max())}",
    )
    attacked = scale != 0.0
    rep.expect(
        "side_first_epoch_decision",
        bool(trace_side.attack[0]) == attacked,
        f"k={first_k} residual={fmt(first_residual)}",
    )
    if attacked:
        ratio = first_residual / max(floor, 1e-300)
        rep.expect("side_residual_ratio_1e3", ratio >= 1e3, f"ratio {fmt(ratio)}")
    cert_none = certify_undetectable(sys, no_side, attack, tol)
    cert_side = certify_undetectable(sys, side, attack, tol)
    rep.expect(
        "certificate_no_side_undetectable",
        cert_none.undetectable,
        f"residual {fmt(cert_none.residual)}",
    )
    rep.expect(
        "certificate_side_detectable",
        cert_side.undetectable == (not attacked),
        f"residual {fmt(cert_side.residual)}",
    )
    return rep
