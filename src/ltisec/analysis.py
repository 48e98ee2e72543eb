"""Certificates and classification of attack sequences.

The central question: given side information Omega, can any consistent
detector distinguish the attacked trajectory from some unattacked one?  An
attack E(T) is undetectable exactly when a state shift theta exists with

    M_T E(T) = -O_T theta,    theta in ker(Omega) [intersect] V

and theta is unique because O_T is injective for observable systems.  The
set ker(Omega) [intersect] V is V times the kernel of the small matrix
Omega V, kept on the system per (Omega, ``Tol``) by ``subspaces``.  The
certificate carries theta, the achieved residual, and the membership flags
so borderline decisions stay auditable.

Every product with M_T or C_T is a run of the state recursion
(``model.propagate``): M_T E(T) is the output from rest, and the state the
attack leaves behind is the final state of a run from theta.  Certification
therefore costs O(T) time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, NotUndetectable
from .model import (
    AttackSequence,
    LtiSystem,
    SideInformation,
    markov_column,
    obs_matrix,
    propagate,
)
from .numlin import DEFAULT_TOL, Tol, feasible, solve_min_norm
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


@dataclass(frozen=True)
class UndetectabilityCertificate:
    undetectable: bool
    induced_state: np.ndarray | None
    residual: float
    theta_in_null_omega: bool
    theta_in_v: bool


@dataclass(frozen=True)
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
    """
    n = sys.n
    if attack.horizon_t < n - 1:
        raise HorizonTooShort(
            f"horizon {attack.horizon_t} < {n - 1}; undetectability needs T >= n-1"
        )
    if attack.is_zero:
        return UndetectabilityCertificate(True, np.zeros(n), 0.0, True, True)
    t = attack.horizon_t
    y_rest, _ = propagate(sys, np.zeros(n), attack)
    rhs = -y_rest.reshape(-1)
    rhs_norm = float(np.linalg.norm(rhs))
    cands = _null_omega_meet_v(sys, omega, tol)
    if cands.dim == 0:
        # Only theta = 0 is admissible: undetectable iff the attack never
        # touches the output at all.
        theta = np.zeros(n)
        residual = rhs_norm
    else:
        ot = obs_matrix(sys, t) @ cands.basis
        xi, residual = solve_min_norm(ot, rhs, tol)
        theta = cands.basis @ xi
    und = feasible(residual, rhs_norm, tol)
    in_null = feasible(
        float(np.linalg.norm(omega.omega @ theta)), float(np.linalg.norm(theta)), tol
    )
    in_v = weakly_unobservable(sys, tol).contains(theta, tol)
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
    h_T = [D; CB; ...; CA^{T-1}B] is the first block column of M_T.  Every
    block column of M_T is a truncated shift of h_T, so

        ||h_T||_2 <= ||M_T||_2 <= sqrt(T+1) * ||h_T||_2,

    and the scale is never looser than ``||E(T)|| * ||M_T||_2`` and at most
    sqrt(T+1) times tighter.  It costs O(T) instead of an SVD of M_T.
    """
    y_rest, _ = propagate(sys, np.zeros(sys.n), attack)
    h = markov_column(sys, attack.horizon_t)
    scale = float(np.linalg.norm(attack.stacked)) * float(np.linalg.norm(h, 2))
    return feasible(float(np.linalg.norm(y_rest)), scale, tol)


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
        If the certificate reports a detectable attack.
    """
    if not cert.undetectable:
        raise NotUndetectable("extension analysis applies to undetectable attacks only")
    theta = cert.induced_state
    if theta is None:
        theta = np.zeros(sys.n)
    _, w = propagate(sys, theta, attack)
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
    information, output invisibility, and geometric frame shape."""
    under_omega = certify_undetectable(sys, omega, attack, tol).undetectable
    no_info = SideInformation.none(sys.n, tol)
    under_zero = certify_undetectable(sys, no_info, attack, tol).undetectable
    zs = is_zero_state_inducing(sys, attack, tol)
    form = _geometric_form(attack.frames, tol)
    return AttackClass(
        undetectable_under_omega=under_omega,
        undetectable_under_zero_omega=under_zero,
        zero_state_inducing=zs,
        zero_dynamics_form=form,
    )
