"""Independent brute-force reference implementations used by the tests.

Everything here is built directly on numpy/scipy primitives with its own
stacking code, so agreement with the package is a genuine cross-check and
not a tautology.
"""

import numpy as np
import scipy.linalg

from ltisec import AttackSequence, LtiSystem, SideInformation


def stack_obs(a, c, t):
    return np.vstack([c @ np.linalg.matrix_power(a, k) for k in range(t + 1)])


def stack_io(a, b, c, d, t):
    p, s = c.shape[0], b.shape[1]
    m = np.zeros((p * (t + 1), s * (t + 1)))
    for i in range(t + 1):
        for j in range(i + 1):
            blk = d if i == j else c @ np.linalg.matrix_power(a, i - j - 1) @ b
            m[i * p : (i + 1) * p, j * s : (j + 1) * s] = blk
    return m


def stack_ctrl(a, b, t):
    return np.hstack([np.linalg.matrix_power(a, t - j) @ b for j in range(t + 1)])


def _kernel(m):
    m = np.atleast_2d(m)
    if m.shape[0] == 0:
        return np.eye(m.shape[1])
    return scipy.linalg.null_space(m)


def undetectable_oracle(sys: LtiSystem, omega: np.ndarray, attack: AttackSequence,
                        rtol: float = 1e-8) -> bool:
    """Feasibility of O_T delta = M_T E with Omega delta = 0, solved as one
    unconstrained least squares over kernel coordinates."""
    t = attack.horizon_t
    rhs = stack_io(sys.a, sys.b, sys.c, sys.d, t) @ attack.stacked
    nom = _kernel(np.atleast_2d(omega))
    if nom.shape[1] == 0:
        resid = np.linalg.norm(rhs)
    else:
        coeff = stack_obs(sys.a, sys.c, t) @ nom
        z, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
        resid = np.linalg.norm(coeff @ z - rhs)
    return resid <= rtol * max(1.0, float(np.linalg.norm(rhs)))


def zero_state_oracle(sys: LtiSystem, rtol: float = 1e-8) -> bool:
    """Existence of E(n) with a(0) != 0 and M_n E(n) = 0: the kernel of M_n
    must contain a vector with a nonzero leading frame."""
    mn = stack_io(sys.a, sys.b, sys.c, sys.d, sys.n)
    ker = _kernel(mn)
    if ker.shape[1] == 0:
        return False
    return float(np.linalg.norm(ker[: sys.s, :])) > rtol


def extension_brute_oracle(sys: LtiSystem, omega: np.ndarray, attack: AttackSequence,
                           t_prime: int, rtol: float = 1e-7) -> bool:
    """Does ANY undetectable extension to horizon t_prime exist?  Searches
    jointly over appended frames and kernel-constrained state shifts."""
    t = attack.horizon_t
    s = sys.s
    mt = stack_io(sys.a, sys.b, sys.c, sys.d, t_prime)
    ot = stack_obs(sys.a, sys.c, t_prime)
    fixed = s * (t + 1)
    nom = _kernel(np.atleast_2d(omega))
    coeff = np.hstack([mt[:, fixed:], ot @ nom])
    rhs = -mt[:, :fixed] @ attack.stacked
    z, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    resid = float(np.linalg.norm(coeff @ z - rhs))
    return resid <= rtol * max(1.0, float(np.linalg.norm(rhs)))


def full_projection_decide(sys: LtiSystem, omega: np.ndarray, y_omega, outputs,
                           rtol: float = 1e-8) -> str:
    """One-shot decision over the entire history: is [y_omega; Y(T)]
    explainable by a single initial state?"""
    y = np.concatenate([np.asarray(y_omega, float).reshape(-1),
                        np.concatenate([np.asarray(o, float) for o in outputs])])
    t = len(outputs) - 1
    k = np.vstack([np.atleast_2d(omega), stack_obs(sys.a, sys.c, t)])
    x, *_ = np.linalg.lstsq(k, y, rcond=None)
    resid = float(np.linalg.norm(k @ x - y))
    ok = resid <= rtol * max(1.0, float(np.linalg.norm(y)))
    return "NoAttack" if ok else "Attack"


def rand_system(rng, nmax=4, pmax=3, smax=3) -> LtiSystem:
    """Random observable system with injective [B; D]; roughly half the
    draws zero out feedthrough columns so ker(D) is nontrivial."""
    while True:
        n = int(rng.integers(2, nmax + 1))
        p = int(rng.integers(1, pmax + 1))
        s = int(rng.integers(1, smax + 1))
        a = rng.standard_normal((n, n))
        spec = np.max(np.abs(np.linalg.eigvals(a)))
        if spec > 1e-9:
            a *= 0.9 / spec
        b = rng.standard_normal((n, s))
        c = rng.standard_normal((p, n))
        d = rng.standard_normal((p, s))
        if rng.random() < 0.5:
            d[:, : max(1, s // 2)] = 0.0
        if np.linalg.matrix_rank(stack_obs(a, c, n - 1)) < n:
            continue
        if np.linalg.matrix_rank(np.vstack([b, d])) < s:
            continue
        return LtiSystem(a=a, b=b, c=c, d=d)


SHAPES = ("tall", "wide", "no_feedthrough", "unstable")


def rand_shaped_system(rng, shape: str) -> LtiSystem:
    """Random observable system with injective [B; D] of a given shape:
    "tall" (p > s), "wide" (s > p), "no_feedthrough" (D = 0) or
    "unstable" (spectral radius 1.15)."""
    while True:
        n = int(rng.integers(3, 6))
        if shape == "tall":
            s = int(rng.integers(1, 3))
            p = s + int(rng.integers(1, 3))
        elif shape == "wide":
            p = int(rng.integers(1, 3))
            s = p + int(rng.integers(1, 3))
        else:
            p = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        spec = np.max(np.abs(np.linalg.eigvals(a)))
        a *= (1.15 if shape == "unstable" else 0.9) / spec
        b = rng.standard_normal((n, s))
        c = rng.standard_normal((p, n))
        d = np.zeros((p, s)) if shape == "no_feedthrough" else rng.standard_normal((p, s))
        if np.linalg.matrix_rank(stack_obs(a, c, n - 1)) < n:
            continue
        if np.linalg.matrix_rank(np.vstack([b, d])) < s:
            continue
        return LtiSystem(a=a, b=b, c=c, d=d)


def rand_side(rng, n: int, kind: str = "mixed") -> SideInformation:
    """Random side information: q x n rows, the zero matrix, or full rank."""
    if kind == "zero":
        return SideInformation.none(n)
    if kind == "full":
        m = rng.standard_normal((n, n)) + np.eye(n)
        return SideInformation(m)
    if kind == "mixed" and rng.random() < 0.25:
        return SideInformation.none(n)
    q = int(rng.integers(1, n))
    return SideInformation(rng.standard_normal((q, n)))
