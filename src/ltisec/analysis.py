"""Certificates and classification of attack sequences.

The central question: given side information Omega, can any consistent
detector distinguish the attacked trajectory from some unattacked one?  An
attack E(T) is undetectable exactly when a state shift theta exists with

    M_T E(T) = -O_T theta,    theta in ker(Omega) [intersect] V

and theta is unique because O_T is injective for observable systems.  The
set ker(Omega) [intersect] V is V times the kernel of the small matrix
Omega V, kept on the system per (``SideInformation``, ``Tol``) by
``subspaces``.  The certificate carries theta, the achieved residual, and
the membership flags so borderline decisions stay auditable.

Every product with M_T or C_T is a run of the state recursion
(``model.propagate``): M_T E(T) is the output from rest, and the state the
attack leaves behind is the final state of a run from theta.  Certification
therefore costs O(T) time and memory.

``classify`` answers its three questions from one run from rest and one
O_T: both certificates and the zero-state decision are the private rules
that ``certify_undetectable`` and ``is_zero_state_inducing`` call, so its
flags equal those verdicts by construction.  Every decision about an attack
is one private rule here; ``synthesis`` only builds frames and asks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, NonFinite, NotUndetectable
from .model import (
    AttackSequence,
    LtiSystem,
    SideInformation,
    _markov_from_obs,
    _same_state,
    obs_matrix,
    propagate,
)
from .numlin import DEFAULT_TOL, Tol, _as_count, _as_vector, feasible, solve_min_norm
from .subspaces import _null_omega_meet_v, weakly_unobservable

__all__ = [
    "UndetectabilityCertificate",
    "ExtensionVerdict",
    "AttackClass",
    "certify_undetectable",
    "is_zero_state_inducing",
    "extension_verdict",
    "classify",
]

# The frame shape is a descriptive label, not a feasibility decision: its fit
# accepts misfits up to a millionth of the largest frame, far above the
# rounding of any computed geometric sequence, independently of ``Tol``.
_SHAPE_FIT_REL = 1e-6


@dataclass(frozen=True, eq=False)
class UndetectabilityCertificate:
    undetectable: bool
    induced_state: np.ndarray | None
    residual: float
    theta_in_null_omega: bool
    theta_in_v: bool


@dataclass(frozen=True, eq=False)
class ExtensionVerdict:
    extensible_forever: bool
    test_vector: np.ndarray
    membership_residual: float


@dataclass(frozen=True)
class AttackClass:
    undetectable_under_omega: bool
    undetectable_under_zero_omega: bool
    zero_state_inducing: bool
    zero_dynamics_form: str | None


def certify_undetectable(
    sys: LtiSystem,
    omega: SideInformation,
    attack: AttackSequence,
    tol: Tol = DEFAULT_TOL,
) -> UndetectabilityCertificate:
    """Decide undetectability under the given side information.

    The shift is solved in the coordinates of a basis of
    ker(Omega) [intersect] V, so both membership constraints hold by
    construction and a single residual threshold remains.  The zero attack
    is undetectable with theta = 0 regardless of Omega.

    Raises
    ------
    HorizonTooShort
        If the attack horizon is below n - 1.
    DimensionMismatch
        If Omega does not have n columns, the zero attack included.
    """
    _require_horizon(sys, attack.horizon_t)
    _same_state(sys, omega)
    return _certificate(sys, omega, _from_rest(sys, attack), None, tol)


def _require_horizon(sys: LtiSystem, t) -> int:
    """The horizon t as an int, if it is at least n - 1."""
    t = _as_count(t, "t")
    if t < sys.n - 1:
        raise HorizonTooShort(f"horizon {t} < {sys.n - 1}; undetectability needs T >= n-1")
    return t


def _admissible(sys: LtiSystem, omega: SideInformation, theta: np.ndarray, tol: Tol) -> tuple[bool, bool]:
    """Whether theta lies in ker(Omega), and whether in V, against ||theta||."""
    in_null = feasible(float(np.linalg.norm(omega.omega @ theta)), float(np.linalg.norm(theta)), tol)
    return in_null, weakly_unobservable(sys, tol).contains(theta, tol)


def _from_rest(sys: LtiSystem, attack: AttackSequence) -> np.ndarray:
    """M_T E(T): the outputs of the run from rest, one row per step."""
    return propagate(sys, np.zeros(sys.n), attack)[0]


@np.errstate(over="ignore")  # an overflowed norm raises NonFinite in feasible
def _certificate(
    sys: LtiSystem,
    omega: SideInformation,
    y_rest: np.ndarray,
    ot: np.ndarray | None,
    tol: Tol,
) -> UndetectabilityCertificate:
    """The certificate for the attack whose output from rest is ``y_rest``.
    ``ot`` is O_T if the caller holds it; otherwise O_T is built here, and
    only when ker(Omega) [intersect] V is not {0}."""
    n = sys.n
    rhs = -y_rest.reshape(-1)
    rhs_norm = float(np.linalg.norm(rhs))
    cands = _null_omega_meet_v(sys, omega, tol)
    if cands.dim == 0:
        # Only theta = 0 is admissible: undetectable iff the attack never
        # touches the output at all.
        theta = np.zeros(n)
        residual = rhs_norm
    else:
        if ot is None:
            ot = obs_matrix(sys, y_rest.shape[0] - 1)
        xi, residual = solve_min_norm(ot @ cands.basis, rhs, tol)
        theta = cands.basis @ xi
    und = feasible(residual, rhs_norm, tol)
    in_null, in_v = _admissible(sys, omega, theta, tol)
    return UndetectabilityCertificate(
        undetectable=und,
        induced_state=theta if und else None,
        residual=residual,
        theta_in_null_omega=in_null,
        theta_in_v=in_v,
    )


def is_zero_state_inducing(
    sys: LtiSystem, attack: AttackSequence, tol: Tol = DEFAULT_TOL
) -> bool:
    """Whether the attack leaves the output identically zero from rest.

    The output from rest, M_T E(T), is thresholded against
    ``residual_rel * max(1, ||E(T)|| * ||h_T||_2)``, where
    h_T = [D; CB; ...; CA^{T-1}B] is the first block column of M_T, read
    from O_T as h_T = [D; O_{T-1} B].  Every block column of M_T is a
    truncated shift of h_T, so

        ||h_T||_2 <= ||M_T||_2 <= sqrt(T+1) * ||h_T||_2,

    and the scale is never looser than ``||E(T)|| * ||M_T||_2`` and at most
    sqrt(T+1) times tighter.  It costs O(T) instead of an SVD of M_T.
    """
    y_rest = _from_rest(sys, attack)
    return _zero_state(sys, attack, y_rest, obs_matrix(sys, attack.horizon_t), tol)


@np.errstate(over="ignore")  # an overflowed norm raises NonFinite in feasible
def _zero_state(
    sys: LtiSystem, attack: AttackSequence, y_rest: np.ndarray, ot: np.ndarray, tol: Tol
) -> bool:
    """The zero-state rule of ``is_zero_state_inducing``, given the output
    from rest and O_T."""
    h = _markov_from_obs(sys, ot)
    scale = float(np.linalg.norm(attack.stacked)) * float(np.linalg.norm(h, 2))
    return feasible(float(np.linalg.norm(y_rest)), scale, tol)


@np.errstate(over="ignore")  # an overflowed norm is refused below or in feasible
def _nulls_from(sys: LtiSystem, theta: np.ndarray, attack: AttackSequence, tol: Tol) -> bool:
    """Whether the run from theta under the attack nulls the output, scaled
    as certification scales it: by the output from rest M E, not by
    ||O theta||, which extension frames can dwarf by orders of magnitude."""
    try:
        res = float(np.linalg.norm(propagate(sys, theta, attack)[0]))
    except NonFinite:  # a run that overflows nulls nothing
        return False
    return np.isfinite(res) and feasible(res, float(np.linalg.norm(_from_rest(sys, attack))), tol)


@np.errstate(over="ignore")  # an overflowed norm raises NonFinite in feasible
def extension_verdict(
    sys: LtiSystem,
    omega: SideInformation,
    attack: AttackSequence,
    cert: UndetectabilityCertificate,
    tol: Tol = DEFAULT_TOL,
) -> ExtensionVerdict:
    """Decide whether undetectable extensions exist for every longer horizon.

    The deciding quantity is where the attack has driven the shifted state
    by the end of the horizon:

        w = C_T E(T) + A^{T+1} theta,

    the final state of the recursion run from theta under the attack.
    Extensions of every length exist exactly when w lies in V, in which case
    frames appended inside the output-nulling recursion keep the extended
    attack undetectable.

    Raises
    ------
    NotUndetectable
        If the certificate reports a detectable attack, or carries no theta.
    DimensionMismatch
        If Omega does not have n columns.
    """
    _same_state(sys, omega)
    if not cert.undetectable:
        raise NotUndetectable("extension analysis applies to undetectable attacks only")
    if cert.induced_state is None:
        raise NotUndetectable("the certificate carries no induced state theta")
    _, w = propagate(sys, _as_vector(cert.induced_state, sys.n, "theta"), attack)
    residual = weakly_unobservable(sys, tol).residual_outside(w)
    ok = feasible(residual, float(np.linalg.norm(w)), tol)
    return ExtensionVerdict(extensible_forever=ok, test_vector=w, membership_residual=residual)


def _geometric_form(frames: np.ndarray, tol: Tol) -> str | None:
    """Match frames against a(k) = lambda^k g, real lambda or conjugate pair.

    Returns "real", "pair", or None.  The fit is scale-relative: residuals
    are compared against ``_SHAPE_FIT_REL`` times the largest frame norm.
    """
    t1 = frames.shape[0]
    scale = float(np.max(np.linalg.norm(frames, axis=1)))
    if scale == 0.0:
        return None
    thresh = _SHAPE_FIT_REL * scale
    if np.linalg.norm(frames[0]) <= thresh:
        # a(0) = g must carry the direction; a zero head with a nonzero tail
        # fits no geometric sequence.
        return None
    if t1 == 1:
        return "real"
    # First-order fit: a(k+1) = lam a(k) with a shared real ratio.
    num = float(np.sum(frames[1:] * frames[:-1]))
    den = float(np.sum(frames[:-1] * frames[:-1]))
    lam = num / den if den else 0.0
    if float(np.max(np.linalg.norm(frames[1:] - lam * frames[:-1], axis=1))) <= thresh:
        return "real"
    if t1 < 3:
        return None
    # Second-order fit: a(k+2) = c1 a(k+1) + c0 a(k); a conjugate mode pair
    # satisfies this with complex roots.
    lhs = np.hstack([frames[1:-1].reshape(-1, 1), frames[:-2].reshape(-1, 1)])
    rhs = frames[2:].reshape(-1)
    coef, residual = solve_min_norm(lhs, rhs, tol)
    if residual > thresh * np.sqrt(t1 - 2):
        return None
    c1, c0 = float(coef[0]), float(coef[1])
    disc = c1 * c1 + 4.0 * c0
    return "pair" if disc < 0.0 else None


def classify(
    sys: LtiSystem,
    omega: SideInformation,
    attack: AttackSequence,
    tol: Tol = DEFAULT_TOL,
) -> AttackClass:
    """Stealth flags for one attack: detectability with and without side
    information, output invisibility, and geometric frame shape.

    One run from rest and one O_T serve all three verdicts; each flag is
    the one ``certify_undetectable`` or ``is_zero_state_inducing`` gives.

    Raises
    ------
    HorizonTooShort
        If the attack horizon is below n - 1.
    """
    _require_horizon(sys, attack.horizon_t)
    y_rest = _from_rest(sys, attack)
    ot = obs_matrix(sys, attack.horizon_t)
    no_info = SideInformation.none(sys.n)
    return AttackClass(
        undetectable_under_omega=_certificate(sys, omega, y_rest, ot, tol).undetectable,
        undetectable_under_zero_omega=_certificate(sys, no_info, y_rest, ot, tol).undetectable,
        zero_state_inducing=_zero_state(sys, attack, y_rest, ot, tol),
        zero_dynamics_form=_geometric_form(attack.frames, tol),
    )
