"""Constructions of stealthy attack families.

Four constructions, each returning concrete attack frames:

* geometric-mode attacks a(k) = lambda^k g built from null vectors of the
  system pencil [lambda I - A, -B; C, D]: for s <= p from the spectrum of
  A + BG restricted to the weakly unobservable subspace (G the nulling
  gain; Basile & Marro, 1992), otherwise by scanning candidate lambdas;
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
from .model import AttackSequence, LtiSystem, SideInformation, obs_matrix, propagate
from .numlin import DEFAULT_TOL, SubspaceBasis, Tol, feasible, intersect, rank_cut, solve_min_norm
from .subspaces import output_nulling_reachable, weakly_unobservable, weakly_unobservable_iterates

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

# Imaginary parts at or below this (absolute for null-vector entries,
# relative to 1 + |lambda| for candidates) are rounding noise of a real value.
_IMAG_NOISE = 1e-12

# Scanned candidates closer than this, relative to 1 + |lambda|, are one
# eigenvalue found twice (as an eigenvalue of A and as a hint); one is kept.
_MERGE_REL = 1e-9


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


def _mode(sys: LtiSystem, lam: complex, v: np.ndarray, tol: Tol) -> ZeroDynamicsMode | None:
    """Verify a unit-norm candidate null vector v = [theta; g] at lam."""
    v = _canonical_phase(v)
    if np.max(np.abs(v.imag)) <= _IMAG_NOISE and abs(lam.imag) <= _IMAG_NOISE:
        v = v.real.astype(complex)
        lam = complex(lam.real)
    theta, g = v[: sys.n], v[sys.n :]
    if np.linalg.norm(g) <= _BLOCK_FLOOR or np.linalg.norm(theta) <= _BLOCK_FLOOR:
        return None
    resid = float(np.linalg.norm(_pencil(sys, lam) @ v))
    # v has unit norm, so the scale ||theta|| + ||g|| is at least 1
    if feasible(resid, float(np.linalg.norm(theta) + np.linalg.norm(g)), tol):
        return ZeroDynamicsMode(lam, g, theta, resid)
    return None


def _real_if_noise(lam: complex) -> complex:
    return complex(lam.real) if abs(lam.imag) <= _IMAG_NOISE * (1.0 + abs(lam)) else lam


def _restricted_candidates(sys: LtiSystem, tol: Tol) -> list[tuple[complex, np.ndarray]] | None:
    """Candidate (lambda, [theta; g]) pairs of a plant with s <= p: the
    eigenpairs (lambda, z) of A + BG restricted to V, theta = Vz, g = G theta.
    None when the nulling inputs are not unique and the pencil is scanned."""
    v = weakly_unobservable(sys, tol)
    if v.dim == 0:
        raise NoModes("the weakly unobservable subspace is {0}")
    gain, null = _nulling_factor(sys, v, tol)
    if null.shape[1]:
        return None
    lams, zs = np.linalg.eig(v.basis.T @ (sys.a + sys.b @ gain) @ v.basis)
    thetas = v.basis @ zs
    vecs = np.vstack([thetas, gain @ thetas])
    # conjugate pairs are reported once, from the upper half plane
    return [(_real_if_noise(complex(lam)), w / np.linalg.norm(w))
            for lam, w in zip(lams, vecs.T) if lam.imag >= 0 and abs(lam) <= _LAMBDA_CAP]


def _null_vectors(sys: LtiSystem, lam: complex, tol: Tol) -> list[tuple[complex, np.ndarray]]:
    _, sv, vh = np.linalg.svd(_pencil(sys, lam))
    return [(lam, col) for col in vh[rank_cut(sv, tol):].conj()]


def _candidate_lambdas(sys: LtiSystem, lambda_hints: list[complex] | None) -> list[complex]:
    """Hints and eig(A), folded onto the closed upper half plane and merged."""
    cands = [complex(h) for h in (lambda_hints or [])]
    cands += [complex(l) for l in np.linalg.eigvals(sys.a)]
    folded = [lam if lam.imag >= 0 else lam.conjugate() for lam in map(_real_if_noise, cands)]
    folded.sort(key=lambda z: (z.real, z.imag))
    merged: list[complex] = []
    for lam in folded:
        if merged and abs(lam - merged[-1]) <= _MERGE_REL * (1.0 + abs(lam)):
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

    A plant with s <= p whose nulling inputs are unique has finitely many
    modes, all from one eigenproblem on V; hints are ignored.  A wide plant
    (s > p), or one with redundant outputs, has a pencil null vector at every
    lambda, so the pencil is scanned at the hints and the eigenvalues of A.
    On every scanned pencil, candidates with |lambda| > 1 are rejected unless
    ``allow_unstable`` is set: their frames grow without bound over long
    horizons.  Conjugate pairs are reported once, with nonnegative imaginary
    part.

    Raises
    ------
    NoModes
        If no candidate produces a verified null vector.
    """
    cands = _restricted_candidates(sys, tol) if sys.s <= sys.p else None
    if cands is None:
        cands = [c for lam in _candidate_lambdas(sys, lambda_hints)
                 if allow_unstable or abs(lam) <= 1.0 + tol.residual_rel
                 for c in _null_vectors(sys, lam, tol)]
    modes = [m for m in (_mode(sys, lam, v, tol) for lam, v in cands) if m is not None]
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


def _nulling_factor(
    sys: LtiSystem, v: SubspaceBasis, tol: Tol
) -> tuple[np.ndarray, np.ndarray]:
    """Inputs u with Cx + Du = 0 and Ax + Bu in span(v), for every x that
    admits one: u = gain @ x + null @ z for free z.

    ``gain`` is the minimum-norm solution -[D; RB]^+ [C; RA] with
    R = I - vv^T, and ``null`` an orthonormal basis of ker [D; RB].
    """
    r = np.eye(sys.n) - v.basis @ v.basis.T
    lhs = np.vstack([sys.d, r @ sys.b])
    u, sv, vh = np.linalg.svd(lhs)
    k = rank_cut(sv, tol)
    rhs = np.vstack([sys.c, r @ sys.a])
    gain = -vh[:k].T @ ((u[:, :k].T @ rhs) / sv[:k, None])
    return gain, vh[k:].T


def _nulling_frames(
    sys: LtiSystem, iterates: list[SubspaceBasis], x0: np.ndarray, t: int, tol: Tol
) -> np.ndarray | None:
    """Minimum-norm frames a(0..t) that null the outputs y(0..t) of the
    recursion started at x0, or None if the solve overflows.

    Minimizing sum ||a(k)||^2 under y(k) = 0 is a strictly convex
    equality-constrained LQ problem, solved exactly by dynamic programming.
    The states that admit t - k more nulled outputs after step k form the
    iterate V_{t-k} of ``weakly_unobservable_iterates``, so step k solves

        min ||u||^2 + ||Ax + Bu||_P^2  s.t.  Cx + Du = 0,  Ax + Bu in V_{t-k}

    with P the cost-to-go of step k+1 (zero after step t).  Writing
    u = Gx + Nz with (G, N) from ``_nulling_factor`` gives the gain
    K = G - N S^{-1} (BN)^T P (A + BG), S = I + (BN)^T P BN, since G x is
    orthogonal to range(N); then P <- (A+BK)^T P (A+BK) + K^T K.  A
    forward pass a(k) = K_k x(k) yields the frames.  Each distinct iterate
    is factorized once, so the cost is O(t (n+p+s)^3) time and O(t n s)
    memory.
    """
    a, b = sys.a, sys.b
    last = len(iterates) - 1
    factors = []
    for v in iterates[: min(t, last) + 1]:
        gain, null = _nulling_factor(sys, v, tol)
        factors.append((gain, null, a + b @ gain, b @ null, np.eye(null.shape[1])))
    gains = np.empty((t + 1, sys.s, sys.n))
    p = np.zeros((sys.n, sys.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t, -1, -1):
            gain, null, closed, bn, eye = factors[min(t - k, last)]
            if null.shape[1]:
                pbn = p @ bn
                z = np.linalg.solve(eye + bn.T @ pbn, pbn.T @ closed)
                gain = gain - null @ z
                closed = closed - bn @ z
            p = closed.T @ p @ closed + gain.T @ gain
            if not np.isfinite(p).all():
                return None
            gains[k] = gain
        frames = np.empty((t + 1, sys.s))
        x = np.asarray(x0, dtype=float)
        for k in range(t + 1):
            frames[k] = gains[k] @ x
            x = a @ x + b @ frames[k]
    return frames if np.isfinite(frames).all() else None


def zero_state_synthesize(
    sys: LtiSystem, t: int, tol: Tol = DEFAULT_TOL, scale: float = 1.0
) -> AttackSequence:
    """Attack from rest with a nonzero first frame and identically zero output.

    The first frame lands the state on a direction shared by the one-step
    output-nulling image and the weakly unobservable subspace; subsequent
    frames come from one minimum-norm feedback gain that keeps the output at
    zero while the state stays inside that subspace.  The result is
    normalized so ``||a(0)|| == scale``.

    Raises
    ------
    NotSynthesizable
        If the required intersection is trivial, or the frames overflow.
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
    gain, _ = _nulling_factor(sys, v, tol)
    closed = sys.a + sys.b @ gain
    arr = np.empty((t + 1, sys.s))
    arr[0] = a0
    x = x1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, t + 1):
            arr[k] = gain @ x
            x = closed @ x
        a0_norm = float(np.linalg.norm(arr[0]))
        if a0_norm > 0.0:
            arr *= scale / a0_norm
    if not np.isfinite(arr).all():
        raise NotSynthesizable(f"the frames overflow before horizon {t}")
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
        If theta violates a membership requirement, or the minimum-norm
        frames overflow or fail verification at this horizon.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if t < sys.n - 1:
        raise HorizonTooShort(f"horizon {t} < {sys.n - 1}")
    tn = float(np.linalg.norm(theta))
    if not feasible(float(np.linalg.norm(omega.omega @ theta)), tn, tol):
        raise ThetaNotFeasible("theta is visible to the side information")
    iterates = weakly_unobservable_iterates(sys, tol)
    if not iterates[-1].contains(theta, tol):
        raise ThetaNotFeasible("theta lies outside the weakly unobservable subspace")
    if tn == 0.0:
        return AttackSequence.zeros(sys.s, t)
    frames = _nulling_frames(sys, iterates, theta, t, tol)
    if frames is not None:
        attack = AttackSequence(frames)
        y, _ = propagate(sys, theta, attack)
        res = float(np.linalg.norm(y))
        if np.isfinite(res) and feasible(res, float(np.linalg.norm(obs_matrix(sys, t) @ theta)), tol):
            return attack
    raise ThetaNotFeasible("no attack realizes this theta at the given horizon")


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
    tail is the minimum-norm sequence that nulls the output of the
    recursion started at w.

    Raises
    ------
    NotUndetectable
        If the certificate reports a detectable attack.
    NotExtensible
        If no undetectable extension exists at this horizon.
    """
    if t_prime <= attack.horizon_t:
        raise ValueError("t_prime must exceed the attack horizon")
    iterates = weakly_unobservable_iterates(sys, tol)
    verdict = extension_verdict(sys, omega, attack, cert, tol)
    if not verdict.extensible_forever:
        raise NotExtensible("the attack parks the shifted state outside the "
                            "weakly unobservable subspace")
    theta = cert.induced_state
    if theta is None:
        theta = np.zeros(sys.n)
    m = t_prime - attack.horizon_t - 1
    tail = _nulling_frames(sys, iterates, verdict.test_vector, m, tol)
    if tail is not None:
        ext = AttackSequence(np.vstack([attack.frames, tail]))
        # re-verify at the full horizon, scaled the same way certification
        # is: against the output from rest M E, not against ||O theta|| (the
        # attack frames can dwarf theta by orders of magnitude); the run from
        # theta gives O theta + M E
        y_rest, _ = propagate(sys, np.zeros(sys.n), ext)
        y_theta, _ = propagate(sys, theta, ext)
        full_res = float(np.linalg.norm(y_theta))
        if np.isfinite(full_res) and feasible(full_res, float(np.linalg.norm(y_rest)), tol):
            return ext
    raise NotExtensible("appended frames fail to keep the attack undetectable")
