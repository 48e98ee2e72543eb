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
``Tol``) and kept on the immutable ``LtiSystem``, with read-only bases.
"""

from __future__ import annotations

import numpy as np

from .model import LtiSystem
from .numlin import DEFAULT_TOL, SubspaceBasis, Tol, intersect, null_space, orth_columns, rank_cut

__all__ = [
    "weakly_unobservable",
    "weakly_unobservable_iterates",
    "output_nulling_reachable",
    "zero_state_attack_exists",
]


def _isa_step(sys: LtiSystem, v: SubspaceBasis, tol: Tol) -> SubspaceBasis:
    """One refinement of {x : exists u, Ax+Bu in span(v) and Cx+Du = 0}."""
    n, s = sys.n, sys.s
    # Rows annihilating the current iterate; empty when v is the full space.
    r = null_space(v.basis.T, tol).basis.T if v.dim else np.eye(n)
    if r.shape[0]:
        top = np.hstack([r @ sys.a, r @ sys.b])
    else:
        top = np.zeros((0, n + s))
    stacked = np.vstack([top, np.hstack([sys.c, sys.d])])
    ker = null_space(stacked, tol)
    if ker.dim == 0:
        return SubspaceBasis.zero(n)
    # the x-block of an orthonormal kernel basis has norm <= 1: a cut anchored
    # at 1 rejects a block of rounding noise (every kernel direction an input)
    u, sv, _ = np.linalg.svd(ker.basis[:n, :], full_matrices=False)
    return SubspaceBasis(n, u[:, :rank_cut(sv, tol, 1.0)].copy())


def _isa(sys: LtiSystem, tol: Tol) -> tuple[SubspaceBasis, ...]:
    seq = [SubspaceBasis.full(sys.n)]
    for _ in range(sys.n + 1):
        nxt = _isa_step(sys, seq[-1], tol)
        seq.append(nxt)
        if nxt.dim == seq[-2].dim:
            break
    for v in seq:
        v.basis.flags.writeable = False
    return tuple(seq)


def weakly_unobservable_iterates(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> list[SubspaceBasis]:
    """The decreasing sequence of iterates, starting at the full space.

    The recursion V0 = R^n, V_{i+1} = {x : exists u with Ax+Bu in V_i and
    Cx+Du = 0} is monotone and stabilizes after at most n refinements; the
    last entry is the fixed point.  It runs once per (system, ``tol``); each
    call returns a new list of the kept iterates, whose bases are read-only.
    """
    if tol not in sys._iterates:
        sys._iterates[tol] = _isa(sys, tol)
    return list(sys._iterates[tol])


def weakly_unobservable(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the weakly unobservable subspace V."""
    return weakly_unobservable_iterates(sys, tol)[-1]


def output_nulling_reachable(sys: LtiSystem, k: int, tol: Tol = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of W_k, the k-step output-nulling reachable set.

    W_1 is the image of ker(D) under B.  Each further step maps pairs
    (x, u) with x in W_k, Cx + Du = 0 through Ax + Bu; states already in
    W_k remain reachable (append a step of the nulling input), so the
    family is nested.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    w = orth_columns(sys.b @ null_space(sys.d, tol).basis, tol)
    for _ in range(k - 1):
        if w.dim == 0:
            break
        ker = null_space(np.hstack([sys.c @ w.basis, sys.d]), tol)
        if ker.dim == 0:
            nxt = np.zeros((sys.n, 0))
        else:
            nxt = np.hstack([sys.a @ w.basis, sys.b]) @ ker.basis
        w = orth_columns(np.hstack([nxt, w.basis]), tol)
    return w


def zero_state_attack_exists(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> bool:
    """Whether an arbitrarily long output-invisible attack can start at rest.

    True exactly when W_1 intersects V nontrivially: the first frame lands
    the state inside V without touching the output, and from inside V the
    output can be kept at zero forever.
    """
    w1 = output_nulling_reachable(sys, 1, tol)
    v = weakly_unobservable(sys, tol)
    return intersect(w1, v, tol).dim > 0
