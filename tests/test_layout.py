"""Layout rules of the package source.

Each rule is one row of ``RULES``: a pattern, the file of ``src/ltisec`` it
is confined to (every ``.py`` file when None), the lines exempt from it (a
pattern over ``<file>:<line>``), how many matching lines it allows, one
sample line it must flag, and why it exists.  The sample keeps a rule from
passing because its pattern matches nothing: added to a file the rule
covers, it must break the rule.
"""

import re
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ltisec"


class Rule(NamedTuple):
    pattern: str
    files: str | None
    exempt: str | None
    allowed: int
    sample: str
    message: str


RULES = {
    "thresholds_only_in_numlin": Rule(
        r"tol\.(residual_rel|rank_rel) \*|sv [<>]|rcond=", None, r"^numlin\.py:", 0,
        "    ok = res <= tol.residual_rel * max(1.0, norm)",
        "residual thresholds belong in numlin.feasible, rank cuts in numlin.rank_cut and "
        "numlin.solve_min_norm"),
    "no_dense_io_or_ctrl_operator": Rule(
        r"(io_matrix|ctrl_matrix)\(", None, r"^model\.py:", 0,
        "    m = io_matrix(sys, t)",
        "io_matrix and ctrl_matrix are O(T^2) references; the verdicts run the recursion"),
    "synthesis_verifies_by_runs": Rule(
        r"obs_matrix\(", "synthesis.py", None, 0,
        "    ot = obs_matrix(sys, t)",
        "synthesis verifies by runs alone"),
    "classify_runs_from_rest_once": Rule(
        r"propagate\(sys, np\.zeros", "analysis.py", None, 1,
        "    y_rest, _ = propagate(sys, np.zeros(sys.n), attack)",
        "the verdicts share one run from rest (analysis._from_rest), and h_T is read from O_T"),
    "side_information_keys_its_own_kept_results": Rule(
        r"tobytes\(", None, r"^model\.py:", 0,
        "    key = omega.tobytes()",
        "results kept per Omega are keyed by the SideInformation value, which takes Omega's bytes "
        "in model.py"),
    "no_scipy_in_the_package": Rule(
        r"scipy", None, None, 0,
        "import scipy.linalg",
        "ltisec depends on numpy only; scipy belongs in tests/oracles.py"),
    "whole_log_results_are_read_as_columns": Rule(
        r"\.epochs", None, None, 0,
        "    for e in trace.epochs:",
        "DetectionTrace is columnar; read trace.k, .attack, .residual and .window_norm, not "
        "per-epoch records"),
    "ker_omega_meet_v_from_omega_v": Rule(
        r"(intersect|projector)\(|null_basis", None, r"^numlin\.py:def (intersect|projector)\(", 0,
        "    meet = intersect(null_space(omega.omega), v)",
        "ker(Omega) meet V is V times ker(Omega V), kept per plant by subspaces._null_omega_meet_v; "
        "no verdict forms a projector"),
    "side_information_takes_no_tol": Rule(
        r"SideInformation(\.none)?\(([^()]|\([^()]*\))*\btol\b", None, r"^model\.py:", 0,
        "    side = SideInformation(omega, tol=tol)",
        "SideInformation's tol decides nothing; ker(Omega) meet V takes the Tol of the call"),
    "each_public_name_declared_once": Rule(
        r"import \(", "__init__.py", None, 0,
        "from .model import (LtiSystem, simulate)",
        "the package re-exports each module's __all__ with a star import; declare names there only"),
    "read_only_copies_in_numlin": Rule(
        r"flags\.writeable", None, r"^numlin\.py:", 0,
        "    m.flags.writeable = False",
        "read-only copies are numlin._frozen"),
    "finite_checks_in_numlin": Rule(
        r"def _finite", None, r"^numlin\.py:", 0,
        "def _finite(name, m):",
        "finite checks are numlin._finite"),
    "omega_width_check_in_model": Rule(
        r"columns, state dim", None, r"^model\.py:", 0,
        '        raise DimensionMismatch(f"Omega has {q} columns, state dim is {n}")',
        "the Omega-width check is model._same_state"),
    "matrix_rule_in_numlin": Rule(
        r"np\.atleast_2d\(", None, r"^numlin\.py:", 0,
        "    a = np.atleast_2d(m)",
        "matrices, length-n vectors and counts pass numlin._as_matrix, _as_vector and _as_count"),
    "no_private_vector_rules": Rule(
        r"def (_state|markov_column)\b", None, None, 0,
        "def _state(x0, n):",
        "matrices, length-n vectors and counts pass numlin._as_matrix, _as_vector and _as_count"),
    "refusals_are_typed": Rule(
        r"raise (ValueError|TypeError)", None, None, 0,
        '        raise ValueError("horizon must be nonnegative")',
        "every refusal is an LtisecError"),
    "cli_catches_no_value_error": Rule(
        r"ValueError", "cli.py", None, 0,
        "    except (LtisecError, OSError, ValueError) as exc:",
        "the CLI catches LtisecError and OSError only"),
    "scale_passes_the_scalar_rule": Rule(
        r'_finite\("scale"', None, None, 0,
        '    scale = _finite("scale", scale)',
        "numbers pass numlin._as_scalar, counts and their lower bounds numlin._as_count"),
    "synthesis_decides_through_analysis": Rule(
        r"HorizonTooShort\(|propagate\(|omega\.omega @", "synthesis.py", None, 0,
        "    _, w = propagate(sys, theta, attack)",
        "the horizon, theta's admissibility and the run from theta are rules of analysis; "
        "synthesis only builds frames"),
    "results_kept_on_a_plant_go_through_one_keeping_rule": Rule(
        r"_factorizations", None, r"^model\.py:", 0,
        "    kept = sys._factorizations",
        "results kept on an LtiSystem are computed, extended and read through model._memo alone"),
    "synthesis_has_one_frame_loop": Rule(
        r"\bx = .*(@ x\b|\.dot\(x\))", "synthesis.py", None, 1,
        "            x = closed @ x",
        "every synthesized frame comes from the forward loop of _nulling_frames; frames that must "
        "keep the state in V are cut from a longer horizon (_frames_in_v)"),
    "cli_loads_the_scenario_once": Rule(
        r"load_scenario\(", "cli.py", None, 1,
        "    scenario = load_scenario(args.scenario, tol)",
        "main builds the Tol and loads the scenario once, and passes both to the subcommand"),
}


def _lines(rule: Rule) -> list[tuple[str, str]]:
    """(file name, line) for every line of the files the rule covers."""
    paths = sorted(SRC.rglob("*.py"))
    return [(p.name, line) for p in paths if rule.files in (None, p.name)
            for line in p.read_text().splitlines()]


def _hits(rule: Rule, lines) -> list[str]:
    return [f"{name}: {line.strip()}" for name, line in lines
            if re.search(rule.pattern, line)
            and not (rule.exempt and re.search(rule.exempt, f"{name}:{line}"))]


@pytest.mark.parametrize("name", RULES)
def test_layout_rule_holds(name):
    rule = RULES[name]
    hits = _hits(rule, _lines(rule))
    assert len(hits) <= rule.allowed, "\n".join([rule.message] + hits)


@pytest.mark.parametrize("name", RULES)
def test_layout_rule_flags_its_sample(name):
    rule = RULES[name]
    covered = rule.files or "analysis.py"
    lines = [(n, line) for n, line in _lines(rule) if n == covered] + [(covered, rule.sample)]
    assert len(_hits(rule, lines)) > rule.allowed
