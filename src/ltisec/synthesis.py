"""Constructions of stealthy attack families.

Four constructions, each returning concrete attack frames:

* geometric-mode attacks a(k) = lambda^k g built from null vectors of the
  system pencil [lambda I - A, -B; C, D], from one eigendecomposition of
  A + BG on the weakly unobservable subspace V (G the nulling gain kept
  with V; Basile & Marro, 1992), at its eigenvalues or at candidate lambdas;
* arbitrarily long attacks from rest that never touch the output, whose
  first frame is a free input kept with V (it nulls the output and lands
  the state in V) and whose later frames come from V's nulling gain;
* minimum-norm attacks realizing a prescribed admissible initial-state
  shift theta;
* extensions of undetectable attacks to longer horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .analysis import UndetectabilityCertificate, extension_verdict
from .errors import (DimensionMismatch, HorizonTooShort, NoModes, NotExtensible, NotSynthesizable,
                     ThetaNotFeasible)
from .model import AttackSequence, LtiSystem, SideInformation, _finite, obs_matrix, propagate
from .numlin import DEFAULT_TOL, Tol, feasible, rank_cut
from .subspaces import _nulling_factors, weakly_unobservable

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


def _real_if_noise(lam: np.ndarray) -> np.ndarray:
    """Each lambda, made real where its imaginary part is rounding noise."""
    return np.where(np.abs(lam.imag) <= _IMAG_NOISE * (1.0 + np.abs(lam)), lam.real.astype(complex), lam)


def _verified(sys: LtiSystem, lam: np.ndarray, w: np.ndarray, tol: Tol) -> list[ZeroDynamicsMode | None]:
    """Verify unit-norm candidate null vectors, the columns [theta; g] of
    ``w`` at the entries of ``lam``, all at once: the mode of each column,
    or None where a block vanishes or the pencil residual is infeasible.

    Each column is rotated so its largest entry is positive real
    (``_canonical_phase``), and made real with its lambda where both
    imaginary parts are rounding noise.  One product with [A B; C D] gives
    every residual ||[lambda theta - A theta - B g; C theta + D g]||.
    """
    n = sys.n
    w = np.array(w)  # a copy, rotated in place below; real columns turn by exactly +-1
    piv = w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])]
    mag = np.abs(piv)
    turn = mag > 0
    w[:, turn] *= np.conj(piv[turn]) / mag[turn]
    w = w.astype(complex, copy=False)
    real = (np.max(np.abs(w.imag), axis=0) <= _IMAG_NOISE) & (np.abs(lam.imag) <= _IMAG_NOISE)
    w.imag[:, real] = 0.0
    lam = np.where(real, lam.real.astype(complex), lam)
    theta_norm, g_norm = np.linalg.norm(w[:n], axis=0), np.linalg.norm(w[n:], axis=0)
    r = np.block([[sys.a, sys.b], [sys.c, sys.d]]) @ w
    r[:n] = lam * w[:n] - r[:n]
    resid = np.linalg.norm(r, axis=0)
    # w has unit columns, so the scale ||theta|| + ||g|| is at least 1
    ok = feasible(resid, theta_norm + g_norm, tol) & (theta_norm > _BLOCK_FLOOR) & (g_norm > _BLOCK_FLOOR)
    return [ZeroDynamicsMode(complex(lam[j]), w[n:, j].copy(), w[:n, j].copy(), float(resid[j]))
            if ok[j] else None for j in range(w.shape[1])]


def _scanned_modes(sys: LtiSystem, lams: list[complex], basis: np.ndarray, gain: np.ndarray,
                   null: np.ndarray, abar: np.ndarray, tol: Tol) -> list[ZeroDynamicsMode | None]:
    """Candidate modes at each lambda of a plant with free inputs N on V.

    Off spec(Abar), Abar = X diag(mu) X^-1, the pencil null vectors are
    theta = V (lambda - Abar)^-1 Bbar z, Bbar = V^T B N, and g = G theta + N z,
    so theta = V X (Y / (lambda - mu)) with Y = X^-1 Bbar for every lambda at
    once, and one ``_verified`` call checks them all.  A lambda within the
    rank cut of some mu (against the largest gap and ||Abar||_F), or whose
    candidates fail verification (an ill-conditioned X), takes the pencil
    SVD instead.
    """
    lam = np.array(lams, dtype=complex)
    mu, x = np.linalg.eig(abar)
    gap = np.abs(lam[:, None] - mu).min(axis=1)
    svd_at = np.argsort(np.argsort(-gap)) >= rank_cut(-np.sort(-gap), tol, float(np.linalg.norm(abar)))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            y = np.linalg.solve(x, basis.T @ sys.b @ null)
        except np.linalg.LinAlgError:  # a defective Abar can leave X exactly singular
            y = np.full((mu.size, null.shape[1]), np.nan)
        theta = (basis @ x) @ (y / np.where(svd_at[:, None], 1.0, lam[:, None] - mu)[:, :, None])
        w = np.concatenate([theta, gain @ theta + null], axis=1)
        w.imag[lam.imag == 0] = 0.0  # X's rounding: null vectors at a real lambda are real
        # one column needs no QR; a norm that overflows leaves a zero column, which fails
        q = np.linalg.qr(w).Q if null.shape[1] > 1 else w / np.linalg.norm(w, axis=1, keepdims=True)
    # rows marked here hold NaN or are not null vectors; they stay out of the batch
    svd_at |= ~np.isfinite(q).all(axis=(1, 2))
    m = null.shape[1]
    batch = np.flatnonzero(~svd_at)
    # column i m + k of the stack is candidate k at lambda number batch[i]
    stack = q[batch].transpose(1, 0, 2).reshape(sys.n + sys.s, -1)
    checked = iter(_verified(sys, np.repeat(lam[batch], m), stack, tol))
    modes: list[ZeroDynamicsMode | None] = []
    for j, l in enumerate(lams):
        found = [] if svd_at[j] else list(islice(checked, m))
        if svd_at[j] or None in found:
            _, sv, vh = np.linalg.svd(_pencil(sys, l))
            vecs = vh[rank_cut(sv, tol):].conj().T
            found = _verified(sys, np.full(vecs.shape[1], l), vecs, tol)
        modes += found
    return modes


def _candidate_lambdas(sys: LtiSystem, lambda_hints: list[complex] | None) -> list[complex]:
    """Hints and eig(A), folded onto the closed upper half plane and merged."""
    cands = [complex(h) for h in (lambda_hints or [])]
    cands += [complex(l) for l in np.linalg.eigvals(sys.a)]
    folded = [lam if lam.imag >= 0 else lam.conjugate()
              for lam in _real_if_noise(np.array(cands, dtype=complex)).tolist()]
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

    Every mode's theta lies in V, and one eigendecomposition of
    Abar = V^T (A + BG) V, with (G, N) the nulling factor kept with V, gives
    them all: Abar's eigenpairs when N has no columns (hints are ignored),
    else the null vectors at the hints and the eigenvalues of A, as wide
    plants (s > p) and plants with redundant outputs have one at every
    lambda.  There |lambda| > 1 is rejected unless ``allow_unstable`` is
    set: such frames grow without bound.  Conjugate pairs are reported
    once, with nonnegative imaginary part.

    Raises
    ------
    NoModes
        If V = {0} or no candidate produces a verified null vector.
    """
    v = weakly_unobservable(sys, tol)
    if v.dim == 0:
        raise NoModes("the weakly unobservable subspace is {0}")
    gain, null = _nulling_factors(sys, tol)[-1]
    abar = v.basis.T @ (sys.a + sys.b @ gain) @ v.basis
    if null.shape[1]:
        lams = [lam for lam in _candidate_lambdas(sys, lambda_hints)
                if allow_unstable or abs(lam) <= 1.0 + tol.residual_rel]
        found = _scanned_modes(sys, lams, v.basis, gain, null, abar, tol)
    else:
        mu, x = np.linalg.eig(abar)
        # conjugate pairs are reported once, from the upper half plane
        keep = (mu.imag >= 0) & (np.abs(mu) <= _LAMBDA_CAP)
        theta = v.basis @ x[:, keep]
        vecs = np.vstack([theta, gain @ theta])
        found = _verified(sys, _real_if_noise(mu[keep]), vecs / np.linalg.norm(vecs, axis=0), tol)
    modes = [m for m in found if m is not None]
    if not modes:
        raise NoModes("no lambda produced a verified pencil null vector")
    modes.sort(key=lambda m: (m.lam.real, m.lam.imag))
    return modes


def zero_dynamics_attack(mode: ZeroDynamicsMode, t: int, scale: float = 1.0) -> AttackSequence:
    """Frames a(k) = scale * Re(lambda^k g) for k = 0..t.

    Real modes give exactly the geometric sequence; conjugate-pair modes
    give its real canonical form.  A NaN or infinite ``scale`` raises
    ``NonFinite``.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    _finite("scale", scale)
    powers = mode.lam ** np.arange(t + 1)
    frames = scale * np.real(np.outer(powers, mode.g))
    return AttackSequence(frames)


def _nulling_frames(sys: LtiSystem, x0: np.ndarray, t: int, tol: Tol) -> np.ndarray | None:
    """Minimum-norm frames a(0..t) that null the outputs y(0..t) of the
    recursion started at x0, or None on overflow.

    Minimizing sum ||a(k)||^2 under y(k) = 0 is a strictly convex
    equality-constrained LQ problem, solved exactly by dynamic programming.
    The states that admit t - k more nulled outputs after step k form the
    iterate V_{t-k} of ``weakly_unobservable_iterates``, so step k solves

        min ||u||^2 + ||Ax + Bu||_P^2  s.t.  Cx + Du = 0,  Ax + Bu in V_{t-k}

    with P the cost-to-go of step k+1 (zero after step t).  Writing
    u = Gx + Nz with the factor (G, N) kept with V_{t-k} gives the gain
    K = G - N S^{-1} (BN)^T P (A + BG), S = I + (BN)^T P BN, since G x is
    orthogonal to range(N); then P <- (A+BK)^T P (A+BK) + K^T K, which
    only free inputs read: if no factor in use has one, K = G and P is never
    formed.  A forward pass a(k) = K_k x(k) yields the frames.  Nothing is
    factorized here, so the cost is O(t (n+s)^3) time and O(t n s) memory.
    """
    a, b = sys.a, sys.b
    nulling = _nulling_factors(sys, tol)
    last = len(nulling) - 1
    factors = [(gain, null, a + b @ gain, b @ null, np.eye(null.shape[1]))
               for gain, null in nulling[: min(t, last) + 1]]
    free = any(null.shape[1] for _, null, *_ in factors)
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
            if free:
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

    The first frame is the first column of the free-input basis kept with
    the weakly unobservable subspace V, sign-fixed so its largest entry is
    positive: it nulls the output and lands the state in V, on the shared
    direction of V and the one-step output-nulling image.  Subsequent frames
    come from one minimum-norm feedback gain that keeps the output at zero
    while the state stays inside V.  The result is normalized so
    ``||a(0)|| == scale``.

    Raises
    ------
    NonFinite
        If ``scale`` is NaN or infinite.
    NotSynthesizable
        If no such first frame exists, or the frames overflow.
    """
    if t < 1:
        raise ValueError("horizon must be at least 1")
    _finite("scale", scale)
    gain, free = _nulling_factors(sys, tol)[-1]
    if free.shape[1] == 0:
        raise NotSynthesizable("one-step output-nulling image does not meet the "
                               "weakly unobservable subspace")
    a0 = _canonical_phase(free[:, 0])
    closed = sys.a + sys.b @ gain
    arr = np.empty((t + 1, sys.s))
    arr[0] = a0
    x = sys.b @ a0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, t + 1):
            arr[k] = gain @ x
            x = closed @ x
        arr *= scale / float(np.linalg.norm(a0))
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
    NonFinite, DimensionMismatch
        If theta is not n finite numbers.
    HorizonTooShort
        If t < n - 1.
    ThetaNotFeasible
        If theta violates a membership requirement, or the minimum-norm
        frames overflow or fail verification at this horizon.
    """
    theta = _finite("theta", theta).reshape(-1)
    if theta.size != sys.n:
        raise DimensionMismatch(f"theta must have length {sys.n}, got {theta.size}")
    if t < sys.n - 1:
        raise HorizonTooShort(f"horizon {t} < {sys.n - 1}")
    tn = float(np.linalg.norm(theta))
    if not feasible(float(np.linalg.norm(omega.omega @ theta)), tn, tol):
        raise ThetaNotFeasible("theta is visible to the side information")
    if not weakly_unobservable(sys, tol).contains(theta, tol):
        raise ThetaNotFeasible("theta lies outside the weakly unobservable subspace")
    if tn == 0.0:
        return AttackSequence.zeros(sys.s, t)
    frames = _nulling_frames(sys, theta, t, tol)
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
    verdict = extension_verdict(sys, omega, attack, cert, tol)
    if not verdict.extensible_forever:
        raise NotExtensible("the attack parks the shifted state outside the "
                            "weakly unobservable subspace")
    theta = cert.induced_state
    if theta is None:
        theta = np.zeros(sys.n)
    m = t_prime - attack.horizon_t - 1
    tail = _nulling_frames(sys, verdict.test_vector, m, tol)
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
