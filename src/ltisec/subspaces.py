"""Geometric subspaces that govern stealthy attacks.

Two families of subspaces decide everything:

* the weakly unobservable subspace V: initial states from which some input
  sequence keeps the output identically zero;
* the output-nulling reachable subspaces W_k: states reachable from the
  origin in k steps while the output stays zero.

A system admits arbitrarily long attacks that start from the origin, touch
the output never, and still move the state exactly when W_1 intersects V
nontrivially.

V decides every verdict, so its iterates are computed once per (system,
``Tol``) and kept on the immutable ``LtiSystem``, with read-only bases.  Each
iterate V_i keeps the basis N_i of the inputs left free by its nulling
factor, and two of them answer every W_1 question without a further cut:
N_0 spans ker D, so W_1 = B N_0, and from rest the inputs that null the
output and land in V are exactly the span of N_inf, so W_1 meets V in
B N_inf.

Side information Omega enters every certificate through ker(Omega) meet V,
which is V times the kernel of the small matrix Omega V; it is kept on the
``LtiSystem`` per (``SideInformation``, ``Tol``).
"""

from __future__ import annotations

import numpy as np

from .model import LtiSystem, SideInformation, _memo, _same_state
from .numlin import DEFAULT_TOL, SubspaceBasis, Tol, _as_count, _frozen, null_space, orth_columns, rank_cut

__all__ = [
    "weakly_unobservable",
    "weakly_unobservable_iterates",
    "output_nulling_reachable",
    "zero_state_attack_exists",
]


def _isa(sys: LtiSystem, tol: Tol) -> tuple[tuple[SubspaceBasis, ...], tuple]:
    """The iterates V_0 = R^n, V_1, ... and one read-only nulling factor per
    iterate.

    With R = I - V_i V_i^T, one SVD [D; RB] = U S W^T of rank k gives the
    inputs u = G_i x + N_i z that null Cx + Du and put Ax + Bu in V_i:
    G_i = -W_k S_k^-1 U_k^T [C; RA] and N_i = W_{k:}; and it gives
    V_{i+1} = ker U_{k:}^T [C; RA].  R is a projector, so the cuts are
    anchored at ||[B; D]||_2 and ||[C; A]||_2, never at rounding noise.  The
    last two iterates are one subspace, the fixed point V, which shares the
    factor of the iterate before it, the last one kept.
    """
    bd_norm = float(np.linalg.norm(np.vstack([sys.b, sys.d]), 2))
    ca_norm = float(np.linalg.norm(np.vstack([sys.c, sys.a]), 2))
    seq, factors = [SubspaceBasis.full(sys.n)], []
    for _ in range(sys.n + 1):
        r = np.eye(sys.n) - seq[-1].basis @ seq[-1].basis.T
        rhs = np.vstack([sys.c, r @ sys.a])
        u, sv, wh = np.linalg.svd(np.vstack([sys.d, r @ sys.b]))
        k = rank_cut(sv, tol, bd_norm)
        gain = -wh[:k].T @ ((u[:, :k].T @ rhs) / sv[:k, None])
        # N_i is frozen as rows of W^T, so products read from it keep their bits
        factors.append((_frozen(gain), _frozen(wh[k:]).T))
        seq.append(null_space(u[:, k:].T @ rhs, tol, ca_norm))
        if seq[-1].dim == seq[-2].dim:
            break
    return tuple(seq), tuple(factors)


def weakly_unobservable_iterates(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> list[SubspaceBasis]:
    """The decreasing sequence of iterates, starting at the full space.

    The recursion V0 = R^n, V_{i+1} = {x : exists u with Ax+Bu in V_i and
    Cx+Du = 0} is monotone and stabilizes after at most n refinements; the
    last entry is the fixed point.  It runs once per (system, ``tol``); each
    call returns a new list of the kept iterates, whose bases are read-only.
    """
    return list(_memo(sys, ("isa", tol), lambda: _isa(sys, tol))[0])


def _nulling_factors(sys: LtiSystem, tol: Tol) -> tuple:
    """The read-only nulling factor (G_i, N_i), one per iterate V_i; the fixed
    point V shares the last, that of the iterate before it.  See ``_isa``."""
    return _memo(sys, ("isa", tol), lambda: _isa(sys, tol))[1]


def weakly_unobservable(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the weakly unobservable subspace V."""
    return weakly_unobservable_iterates(sys, tol)[-1]


def _null_omega_meet_v(sys: LtiSystem, side: SideInformation, tol: Tol) -> SubspaceBasis:
    """Read-only orthonormal basis of ker(Omega) meet V, kept on ``sys``.

    V has orthonormal columns, so x = V xi lies in ker(Omega) exactly when
    Omega V xi = 0, and the basis is V times that of ker(Omega V): one SVD
    of the q x dim V matrix Omega V, cut at ||Omega||_2 with the ``tol`` of
    the call, since ||Omega V||_2 <= ||Omega||_2.

    Raises
    ------
    DimensionMismatch
        If Omega does not have n columns.
    """
    _same_state(sys, side)

    def compute() -> SubspaceBasis:
        v, omega = weakly_unobservable(sys, tol).basis, side.omega
        ker = null_space(omega @ v, tol, float(np.linalg.norm(omega, 2)))
        return SubspaceBasis(sys.n, v @ ker.basis)

    return _memo(sys, ("null_omega_v", side, tol), compute)


def output_nulling_reachable(sys: LtiSystem, k: int, tol: Tol = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of W_k, the k-step output-nulling reachable set.

    W_1 is the image under B of ker(D), whose basis N_0 is kept with V_0.
    Each further step maps pairs (x, u) with x in W_k, Cx + Du = 0 through
    Ax + Bu, the kernel cut at ||[C D]||_2.  States in W_k remain reachable
    (append a step of the nulling input), so W_{k+1} is W_k plus the part of
    that image off W_k, projected twice to keep the basis orthonormal and cut
    at ||[A B]||_2.  A step that adds nothing has reached the fixed point.
    A ``k`` below 1 raises ``HorizonTooShort``.
    """
    k = _as_count(k, "k", least=1)
    w = orth_columns(sys.b @ _nulling_factors(sys, tol)[0][1], tol).basis
    if k > 1:
        cd_norm = float(np.linalg.norm(np.hstack([sys.c, sys.d]), 2))
        ab_norm = float(np.linalg.norm(np.hstack([sys.a, sys.b]), 2))
    for _ in range(k - 1):
        ker = null_space(np.hstack([sys.c @ w, sys.d]), tol, cd_norm)
        nxt = np.hstack([sys.a @ w, sys.b]) @ ker.basis
        for _ in range(2):
            nxt = nxt - w @ (w.T @ nxt)
        u, sv, _ = np.linalg.svd(nxt, full_matrices=False)
        new = u[:, :rank_cut(sv, tol, ab_norm)]
        if new.shape[1] == 0:
            break
        w = np.hstack([w, new])
    return SubspaceBasis(sys.n, w)


def zero_state_attack_exists(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> bool:
    """Whether an arbitrarily long output-invisible attack can start at rest.

    True exactly when a nonzero first frame nulls the output and lands the
    state in V, from where the output can be kept at zero forever: when the
    basis N_inf of the free inputs kept with V has a column.  B maps N_inf
    onto W_1 meet V, one to one when [B; D] is injective.
    """
    return _nulling_factors(sys, tol)[-1][1].shape[1] > 0
