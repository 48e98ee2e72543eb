"""Constructions of stealthy attack families.

Four constructions, each returning concrete attack frames:

* geometric-mode attacks a(k) = lambda^k g built from null vectors of the
  system pencil [lambda I - A, -B; C, D];
* arbitrarily long attacks from rest that never touch the output, built
  through the intersection of the one-step output-nulling image with the
  weakly unobservable subspace;
* minimum-norm attacks realizing a prescribed admissible initial-state
  shift theta;
* extensions of undetectable attacks to longer horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import UndetectabilityCertificate, extension_verdict
from .errors import HorizonTooShort, NoModes, NotExtensible, NotSynthesizable, ThetaNotFeasible
from .model import AttackSequence, LtiSystem, SideInformation, io_matrix, obs_matrix, propagate
from .numlin import DEFAULT_TOL, Tol, feasible, intersect, solve_min_norm
from .subspaces import output_nulling_reachable, weakly_unobservable

__all__ = [
    "ZeroDynamicsMode",
    "find_zero_dynamics_modes",
    "zero_dynamics_attack",
    "zero_state_synthesize",
    "undetectable_from_theta",
    "extend_attack",
]

# Candidates beyond this magnitude behave like directions at infinity of the
# pencil: their null spaces are dominated by the lambda*I block and carry no
# usable attack, so they are dropped before verification.
_LAMBDA_CAP = 1e6

# Unit-norm pencil null vectors must show both blocks: a vanishing g block
# cannot drive an attack, and a vanishing theta block contradicts [B; D]
# injectivity.
_BLOCK_FLOOR = 1e-8


@dataclass(frozen=True)
class ZeroDynamicsMode:
    """A verified pencil null vector: frames a(k) = lambda^k g null the
    output when the initial state is shifted by theta."""

    lam: complex
    g: np.ndarray
    theta: np.ndarray
    pencil_residual: float


def _pencil(sys: LtiSystem, lam: complex) -> np.ndarray:
    top = np.hstack([lam * np.eye(sys.n) - sys.a, -sys.b])
    bot = np.hstack([sys.c, sys.d]).astype(complex)
    return np.vstack([top, bot])


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is positive real."""
    i = int(np.argmax(np.abs(v)))
    piv = v[i]
    if piv == 0:
        return v
    return v * (np.conj(piv) / np.abs(piv))


def _modes_at(sys: LtiSystem, lam: complex, tol: Tol) -> list[ZeroDynamicsMode]:
    n = sys.n
    p = _pencil(sys, lam)
    _, sv, vh = np.linalg.svd(p)
    smax = sv[0] if sv.size else 0.0
    if smax == 0.0:
        return []
    rank = int(np.sum(sv > tol.rank_rel * smax))
    out = []
    for col in vh[rank:].conj():
        v = _canonical_phase(col)
        if np.max(np.abs(v.imag)) <= 1e-12 and abs(lam.imag) <= 1e-12:
            v = v.real.astype(complex)
            lam_use = complex(lam.real)
        else:
            lam_use = lam
        theta, g = v[:n], v[n:]
        if np.linalg.norm(g) <= _BLOCK_FLOOR or np.linalg.norm(theta) <= _BLOCK_FLOOR:
            continue
        resid = float(np.linalg.norm(_pencil(sys, lam_use) @ v))
        if resid <= tol.residual_rel * (np.linalg.norm(theta) + np.linalg.norm(g)):
            out.append(ZeroDynamicsMode(lam_use, g, theta, resid))
    return out


def _finite_gen_eigvals(f: np.ndarray, e: np.ndarray) -> list[complex]:
    # Imported here, its only use: loading scipy.linalg roughly doubles the
    # start-up time of commands that never search a square or tall pencil.
    import scipy.linalg

    alpha, beta = scipy.linalg.eigvals(f, e, homogeneous_eigvals=True)
    vals = []
    for al, be in zip(alpha, beta):
        if abs(be) <= 1e-9 * max(abs(al), abs(be), 1e-300):
            continue
        lam = complex(al / be)
        if abs(lam) <= _LAMBDA_CAP:
            vals.append(lam)
    return vals


def _candidate_lambdas(
    sys: LtiSystem, lambda_hints: list[complex] | None, tol: Tol
) -> list[complex]:
    n, p, s = sys.n, sys.p, sys.s
    cands: list[complex] = [complex(h) for h in (lambda_hints or [])]
    if p == s:
        # Square pencil: the finite generalized eigenvalues of
        # ([A, B; -C, -D], blkdiag(I, 0)) are exactly the rank-drop points.
        f = np.block([[sys.a, sys.b], [-sys.c, -sys.d]])
        e = np.zeros((n + p, n + s))
        e[:n, :n] = np.eye(n)
        cands += _finite_gen_eigvals(f, e)
    elif p > s:
        # Tall pencil: rank drops are isolated; compress the rows with fixed
        # random maps and verify every generalized eigenvalue that appears.
        cands += [complex(l) for l in np.linalg.eigvals(sys.a)]
        f = np.block([[sys.a, sys.b], [-sys.c, -sys.d]])
        e = np.zeros((n + p, n + s))
        e[:n, :n] = np.eye(n)
        for seed in (0, 1):
            w = np.random.default_rng(seed).standard_normal((n + s, n + p))
            cands += _finite_gen_eigvals(w @ f, w @ e)
    else:
        # Wide pencil: a null vector exists for generic lambda, so only
        # caller hints and the eigenvalues of A are scanned.
        cands += [complex(l) for l in np.linalg.eigvals(sys.a)]
    # Fold conjugates onto the closed upper half plane and deduplicate.
    folded = []
    for lam in cands:
        if abs(lam.imag) <= 1e-12 * (1.0 + abs(lam)):
            lam = complex(lam.real)
        elif lam.imag < 0:
            lam = lam.conjugate()
        folded.append(lam)
    folded.sort(key=lambda z: (z.real, z.imag))
    merged: list[complex] = []
    for lam in folded:
        if merged and abs(lam - merged[-1]) <= 1e-9 * (1.0 + abs(lam)):
            continue
        merged.append(lam)
    return merged


def find_zero_dynamics_modes(
    sys: LtiSystem,
    tol: Tol = DEFAULT_TOL,
    lambda_hints: list[complex] | None = None,
    allow_unstable: bool = False,
) -> list[ZeroDynamicsMode]:
    """Find verified geometric attack modes of the system pencil.

    Conjugate pairs are reported once, with nonnegative imaginary part.
    For wide systems (more attack channels than outputs) candidates with
    |lambda| > 1 are rejected unless ``allow_unstable`` is set, because the
    resulting frames grow without bound over long horizons.

    Raises
    ------
    NoModes
        If no candidate produces a verified null vector.
    """
    modes: list[ZeroDynamicsMode] = []
    wide = sys.s > sys.p
    for lam in _candidate_lambdas(sys, lambda_hints, tol):
        if wide and not allow_unstable and abs(lam) > 1.0 + tol.residual_rel:
            continue
        modes.extend(_modes_at(sys, lam, tol))
    if not modes:
        raise NoModes("no lambda produced a verified pencil null vector")
    modes.sort(key=lambda m: (m.lam.real, m.lam.imag))
    return modes


def zero_dynamics_attack(mode: ZeroDynamicsMode, t: int, scale: float = 1.0) -> AttackSequence:
    """Frames a(k) = scale * Re(lambda^k g) for k = 0..t.

    Real modes give exactly the geometric sequence; conjugate-pair modes
    give its real canonical form.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    powers = mode.lam ** np.arange(t + 1)
    frames = scale * np.real(np.outer(powers, mode.g))
    return AttackSequence(frames)


def zero_state_synthesize(
    sys: LtiSystem, t: int, tol: Tol = DEFAULT_TOL, scale: float = 1.0
) -> AttackSequence:
    """Attack from rest with a nonzero first frame and identically zero output.

    The first frame lands the state on a direction shared by the one-step
    output-nulling image and the weakly unobservable subspace; subsequent
    frames are solved step by step to keep the output at zero while the
    state stays inside that subspace.  The result is normalized so
    ``||a(0)|| == scale``.

    Raises
    ------
    NotSynthesizable
        If the required intersection is trivial.
    """
    if t < 1:
        raise ValueError("horizon must be at least 1")
    v = weakly_unobservable(sys, tol)
    w1 = output_nulling_reachable(sys, 1, tol)
    shared = intersect(w1, v, tol)
    if shared.dim == 0:
        raise NotSynthesizable("one-step output-nulling image does not meet the "
                               "weakly unobservable subspace")
    x1 = shared.basis[:, 0]
    a0, res = solve_min_norm(
        np.vstack([sys.b, sys.d]), np.concatenate([x1, np.zeros(sys.p)]), tol
    )
    if not feasible(res, float(np.linalg.norm(x1)), tol):
        raise NotSynthesizable("first frame cannot realize the intersection direction")
    n = sys.n
    perp = np.eye(n) - v.basis @ v.basis.T
    lhs = np.vstack([sys.d, perp @ sys.b])
    frames = [a0]
    x = x1.copy()
    for _ in range(t):
        rhs = -np.concatenate([sys.c @ x, perp @ (sys.a @ x)])
        u, _ = solve_min_norm(lhs, rhs, tol)
        frames.append(u)
        x = sys.a @ x + sys.b @ u
    arr = np.array(frames)
    a0_norm = float(np.linalg.norm(arr[0]))
    if a0_norm > 0.0:
        arr *= scale / a0_norm
    return AttackSequence(arr)


def undetectable_from_theta(
    sys: LtiSystem,
    omega: SideInformation,
    theta: np.ndarray,
    t: int,
    tol: Tol = DEFAULT_TOL,
) -> AttackSequence:
    """Minimum-norm attack whose output matches an unattacked trajectory
    started from x(0) - theta.

    Raises
    ------
    HorizonTooShort
        If t < n - 1.
    ThetaNotFeasible
        If theta violates a membership requirement or the solve fails.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if t < sys.n - 1:
        raise HorizonTooShort(f"horizon {t} < {sys.n - 1}")
    tn = float(np.linalg.norm(theta))
    if float(np.linalg.norm(omega.omega @ theta)) > tol.residual_rel * max(1.0, tn):
        raise ThetaNotFeasible("theta is visible to the side information")
    v = weakly_unobservable(sys, tol)
    if v.residual_outside(theta) > tol.residual_rel * max(1.0, tn):
        raise ThetaNotFeasible("theta lies outside the weakly unobservable subspace")
    if tn == 0.0:
        return AttackSequence.zeros(sys.s, t)
    rhs = -(obs_matrix(sys, t) @ theta)
    e, res = solve_min_norm(io_matrix(sys, t), rhs, tol)
    if not feasible(res, float(np.linalg.norm(rhs)), tol):
        raise ThetaNotFeasible("no attack realizes this theta at the given horizon")
    return AttackSequence.from_stacked(e, sys.s)


def extend_attack(
    sys: LtiSystem,
    omega: SideInformation,
    attack: AttackSequence,
    cert: UndetectabilityCertificate,
    t_prime: int,
    tol: Tol = DEFAULT_TOL,
) -> AttackSequence:
    """Extend an undetectable attack to horizon ``t_prime``, keeping it
    undetectable with the same induced state.

    The appended frames solve the trailing block of the stacked identity:
    writing w for where the original attack left the shifted state, the
    tail must null the output of the recursion started at w.

    Raises
    ------
    NotUndetectable
        If the certificate reports a detectable attack.
    NotExtensible
        If no undetectable extension exists at this horizon.
    """
    if t_prime <= attack.horizon_t:
        raise ValueError("t_prime must exceed the attack horizon")
    verdict = extension_verdict(sys, omega, attack, cert, tol)
    if not verdict.extensible_forever:
        raise NotExtensible("the attack parks the shifted state outside the "
                            "weakly unobservable subspace")
    theta = cert.induced_state
    if theta is None:
        theta = np.zeros(sys.n)
    m = t_prime - attack.horizon_t - 1
    w = verdict.test_vector
    tail_rhs = -(obs_matrix(sys, m) @ w)
    tail, _ = solve_min_norm(io_matrix(sys, m), tail_rhs, tol)
    frames = np.vstack([attack.frames, tail.reshape(m + 1, sys.s)])
    ext = AttackSequence(frames)
    # re-verify at the full horizon, scaled the same way certification is:
    # against the output from rest M E, not against ||O theta|| (the attack
    # frames can dwarf theta by orders of magnitude); the run from theta
    # gives O theta + M E
    y_rest, _ = propagate(sys, np.zeros(sys.n), ext)
    y_theta, _ = propagate(sys, theta, ext)
    full_res = float(np.linalg.norm(y_theta))
    if not feasible(full_res, float(np.linalg.norm(y_rest)), tol):
        raise NotExtensible("appended frames fail to keep the attack undetectable")
    return ext
