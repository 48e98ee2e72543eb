"""Independent brute-force reference implementations used by the tests.

Everything here is built directly on numpy/scipy primitives with its own
stacking code, so agreement with the package is a genuine cross-check and
not a tautology.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

from ltisec import AttackSequence, LtiSystem, SideInformation


def _exact_kernel(rows, cols: int) -> list[list[Fraction]]:
    """A basis of {x : r . x = 0 for every row r}, exactly, by Gauss-Jordan
    elimination over the rationals; no rows leave the whole space."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for j in range(cols):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][j]), None)
        if i is None:
            continue
        top = len(pivots)
        rows[top], rows[i] = rows[i], rows[top]
        rows[top] = [x / rows[top][j] for x in rows[top]]
        for k, r in enumerate(rows):
            if k != top and r[j]:
                rows[k] = [x - r[j] * y for x, y in zip(r, rows[top])]
        pivots.append(j)
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        x = [Fraction(0)] * cols
        x[free] = Fraction(1)
        for i, j in enumerate(pivots):
            x[j] = -rows[i][free]
        basis.append(x)
    return basis


def exact_rank(m) -> int:
    """The rank of a matrix of integers or dyadic rationals, exactly."""
    m = [list(r) for r in m]
    cols = len(m[0]) if m else 0
    return cols - len(_exact_kernel(m, cols))


def exact_isa(a, b, c, d) -> tuple[int, bool]:
    """dim V and whether a zero-state attack exists, exactly, for a plant of
    integers or dyadic rationals; standard library only.

    V_i is held as ker F_i, F_0 having no rows.  V_{i+1} is the x-part of
    ker [C D; F_i A F_i B], and F_{i+1} spans its annihilator.  From rest, a
    first frame u nulls the output and lands the state in V = ker F exactly
    when u is in ker [D; F B], so a zero-state attack exists exactly when
    that kernel is not {0}.
    """
    a, b, c, d = ([[Fraction(x) for x in r] for r in m] for m in (a, b, c, d))
    n, s = len(a), len(b[0])

    def times(f, m):  # the row f times the matrix m
        return [sum((fi * m[i][j] for i, fi in enumerate(f)), Fraction(0)) for j in range(len(m[0]))]

    f, dim = [], n
    while True:
        pairs = _exact_kernel([cr + dr for cr, dr in zip(c, d)]
                              + [times(r, a) + times(r, b) for r in f], n + s)
        f = _exact_kernel([x[:n] for x in pairs], n)
        if n - len(f) == dim:
            break
        dim = n - len(f)
    return dim, bool(_exact_kernel(d + [times(r, b) for r in f], s))


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


def rank_has_margin(sv) -> bool:
    """Whether singular values (descending) leave the rank decided with a
    margin: none lies in (1e-12, 1e-6] times the largest, so the rank is not
    a rounding call and the kept part has condition number below 1e6."""
    return not np.any((sv > 1e-12 * sv[0]) & (sv <= 1e-6 * sv[0]))


def _kernel(m):
    m = np.atleast_2d(m)
    if m.shape[0] == 0:
        return np.eye(m.shape[1])
    return scipy.linalg.null_space(m)


def _meet_stack(omega, v_basis, rank_rel):
    n = v_basis.shape[0]
    k = scipy.linalg.null_space(omega, rcond=rank_rel) if np.any(omega) else np.eye(n)
    return np.vstack([np.eye(n) - k @ k.T, np.eye(n) - v_basis @ v_basis.T])


def null_omega_meet_v(omega, v_basis, rank_rel: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of ker(Omega) meet V as the kernel of the stacked
    complement projectors [I - K K^T; I - V V^T], with K = ker(Omega) from
    scipy (cut at ``rank_rel`` times the largest singular value of Omega).
    The stack has entries of order one unless both complements vanish."""
    stack = _meet_stack(omega, v_basis, rank_rel)
    if not np.any(stack):
        return np.eye(v_basis.shape[0])
    return scipy.linalg.null_space(stack, rcond=rank_rel)


def meet_has_margin(omega, v_basis, rank_rel: float = 1e-10) -> bool:
    """Whether every rank decision behind ker(Omega) meet V is taken with a
    margin (``rank_has_margin``): those of Omega and of the oracle's
    projector stack, and that of Omega V against ||Omega||_2."""
    sv_omega = np.linalg.svd(omega, compute_uv=False)
    sv_meet = np.linalg.svd(omega @ v_basis, compute_uv=False)
    return (rank_has_margin(sv_omega)
            and rank_has_margin(np.concatenate([sv_omega[:1], sv_meet]))
            and rank_has_margin(np.linalg.svd(_meet_stack(omega, v_basis, rank_rel), compute_uv=False)))


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


def pencil_zero_candidates(sys: LtiSystem, infinite_beta: float = 1e-9) -> list[complex]:
    """Candidate zeros of the pencil [lambda I - A, -B; C, D] for s <= p, with
    no magnitude cap: the finite generalized eigenvalues of
    ([A, B; -C, -D], blkdiag(I, 0)) by QZ when p = s; for p > s the
    eigenvalues of A plus those of two fixed random row compressions of the
    pencil, each by its own QZ.  An eigenvalue alpha/beta with |beta| at or
    below ``infinite_beta`` times max(|alpha|, |beta|) is infinite."""
    n, p, s = sys.n, sys.p, sys.s
    f = np.block([[sys.a, sys.b], [-sys.c, -sys.d]])
    e = np.zeros((n + p, n + s))
    e[:n, :n] = np.eye(n)
    if p == s:
        pencils = [(f, e)]
        cands = []
    else:
        maps = [np.random.default_rng(seed).standard_normal((n + s, n + p)) for seed in (0, 1)]
        pencils = [(w @ f, w @ e) for w in maps]
        cands = [complex(l) for l in np.linalg.eigvals(sys.a)]
    for ff, ee in pencils:
        alpha, beta = scipy.linalg.eigvals(ff, ee, homogeneous_eigvals=True)
        for al, be in zip(alpha, beta):
            if abs(be) > infinite_beta * max(abs(al), abs(be), 1e-300):
                cands.append(complex(al / be))
    return cands


def pencil(sys: LtiSystem, lam: complex) -> np.ndarray:
    """The system pencil [lambda I - A, -B; C, D]."""
    top = np.hstack([lam * np.eye(sys.n) - sys.a, -sys.b])
    return np.vstack([top, np.hstack([sys.c, sys.d]).astype(complex)])


def _fold_and_merge(cands) -> list[complex]:
    """Candidates folded onto the closed upper half plane (imaginary parts at
    most 1e-12 relative to 1 + |lambda| are dropped), sorted by (real, imag)
    and merged within 1e-9 relative."""
    folded = []
    for lam in cands:
        if abs(lam.imag) <= 1e-12 * (1.0 + abs(lam)):
            lam = complex(lam.real)
        elif lam.imag < 0:
            lam = lam.conjugate()
        folded.append(lam)
    folded.sort(key=lambda z: (z.real, z.imag))
    merged = []
    for lam in folded:
        if not merged or abs(lam - merged[-1]) > 1e-9 * (1.0 + abs(lam)):
            merged.append(lam)
    return merged


def _null_vector_lambdas(sys: LtiSystem, lams, rank_rel: float, rtol: float) -> list[complex]:
    """One entry per verified null vector of the pencil at each lambda.

    The right singular vectors beyond the rank cut (singular values above
    ``rank_rel`` times the largest) are rotated so their largest entry is
    positive real, made real when every imaginary part and lambda's is at
    most 1e-12, and kept when both the theta and g blocks exceed 1e-8 and
    the pencil residual is at most rtol * max(1, ||theta|| + ||g||)."""
    n = sys.n
    found = []
    for lam in lams:
        _, sv, vh = np.linalg.svd(pencil(sys, lam))
        for v in vh[int(np.sum(sv > rank_rel * sv[0])):].conj():
            i = int(np.argmax(np.abs(v)))
            v = v * (np.conj(v[i]) / np.abs(v[i]))
            lam_use = lam
            if np.max(np.abs(v.imag)) <= 1e-12 and abs(lam.imag) <= 1e-12:
                v, lam_use = v.real.astype(complex), complex(lam.real)
            theta_norm, g_norm = np.linalg.norm(v[:n]), np.linalg.norm(v[n:])
            if min(theta_norm, g_norm) <= 1e-8:
                continue
            resid = np.linalg.norm(pencil(sys, lam_use) @ v)
            if resid <= rtol * max(1.0, theta_norm + g_norm):
                found.append(lam_use)
    return sorted(found, key=lambda z: (z.real, z.imag))


def pencil_modes_oracle(sys: LtiSystem, cap: float = 1e6, rank_rel: float = 1e-10,
                        rtol: float = 1e-8) -> list[complex]:
    """Lambdas of the verified pencil null vectors of a plant with s <= p,
    one entry per null vector, sorted by (real, imag): the candidates of
    ``pencil_zero_candidates`` with |lambda| <= cap, folded and merged, each
    checked by ``_null_vector_lambdas``."""
    cands = [lam for lam in pencil_zero_candidates(sys) if abs(lam) <= cap]
    return _null_vector_lambdas(sys, _fold_and_merge(cands), rank_rel, rtol)


def scan_candidates(sys: LtiSystem, hints, allow_unstable: bool,
                    unstable_rtol: float = 1e-8) -> list[complex]:
    """The lambdas a plant whose pencil has a null vector at every lambda is
    scanned at: the hints and the eigenvalues of A, folded and merged, with
    |lambda| > 1 + unstable_rtol dropped unless ``allow_unstable``."""
    cands = [complex(h) for h in hints] + [complex(l) for l in np.linalg.eigvals(sys.a)]
    return [lam for lam in _fold_and_merge(cands)
            if allow_unstable or abs(lam) <= 1.0 + unstable_rtol]


def scanned_modes_oracle(sys: LtiSystem, hints, allow_unstable: bool, rank_rel: float = 1e-10,
                         rtol: float = 1e-8) -> list[complex]:
    """Lambdas of the verified pencil null vectors at the ``scan_candidates``,
    one entry per null vector, sorted by (real, imag): one SVD of the pencil
    per candidate, as ``_null_vector_lambdas`` checks them."""
    return _null_vector_lambdas(sys, scan_candidates(sys, hints, allow_unstable), rank_rel, rtol)


def ill_conditioned(sys: LtiSystem, rng, log10_cond: float) -> LtiSystem:
    """The same plant with its states rescaled, x' = T x for a diagonal T
    with cond(T) = 10**log10_cond and the scales in random order:
    (T A T^-1, T B, C T^-1, D).  cond(A) grows by up to cond(T)**2."""
    t = rng.permutation(np.logspace(0.0, -log10_cond, sys.n))
    return LtiSystem(a=t[:, None] * sys.a / t, b=t[:, None] * sys.b, c=sys.c / t, d=sys.d)


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


def rand_shaped_system(rng, shape: str, n_range: tuple[int, int] = (3, 6)) -> LtiSystem:
    """Random observable system with injective [B; D] of a given shape:
    "tall" (p > s), "wide" (s > p), "no_feedthrough" (D = 0) or
    "unstable" (spectral radius 1.15), with n drawn from ``n_range``
    (low inclusive, high exclusive)."""
    while True:
        n = int(rng.integers(*n_range))
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
