"""System description and stacked-matrix builders.

A system is the quadruple (A, B, C, D) of a discrete-time linear recursion
driven through its attack channels:

    x(k+1) = A x(k) + B a(k)
    y(k)   = C x(k) + D a(k)

with n states, p outputs and s attack channels.  The detector additionally
receives one uncorrupted linear function of the initial state,
``y_omega = Omega x(0)``.

Analysis rests on the stacked form of the recursion over a horizon T:

    Y(T) = O_T x(0) + M_T E(T)

where ``O_T`` stacks C, CA, ..., CA^T, ``M_T`` is the block lower-triangular
input-output operator, and ``E(T)`` stacks the attack frames a(0..T).

The verdicts never form ``M_T`` to multiply it by one vector: ``propagate``
runs the recursion from a given x(0) and returns the outputs, which equal
``O_T x(0) + M_T E(T)``, and the final state, which equals
``A^{T+1} x(0) + C_T E(T)``, in O(T) time and memory.  No verdict or
construction calls ``io_matrix`` or ``ctrl_matrix``: they remain as a public
reference API for the stacked operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, NonFinite
from .numlin import DEFAULT_TOL, Tol, _as_count, _as_matrix, _as_vector, _finite, _frozen, numerical_rank

__all__ = [
    "LtiSystem",
    "ValidationReport",
    "SideInformation",
    "AttackSequence",
    "Trajectory",
    "validate",
    "obs_matrix",
    "io_matrix",
    "ctrl_matrix",
    "propagate",
    "simulate",
]


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """The quadruple (A, B, C, D) with dimension accessors n, p, s, held as
    read-only copies so the results kept on it stay valid: the
    ``validate`` reports, the V-iterates and ker(Omega) meet V of
    ``subspaces``, the minimum-norm gains of ``synthesis`` and the range
    bases of ``detector``.  A system compares by identity, as the results
    it keeps are its own."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        a, b, c, d = (_as_matrix(getattr(self, k.lower()), k) for k in "ABCD")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionMismatch(f"D must be {c.shape[0]}x{b.shape[1]}, got {d.shape}")
        for name, m in zip("abcd", (a, b, c, d)):  # private copies keep the factorizations below valid
            object.__setattr__(self, name, _frozen(m))
        # key -> read-only factorizations of this plant; see _memo
        object.__setattr__(self, "_factorizations", {})

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    @property
    def s(self) -> int:
        return self.b.shape[1]


def _memo(sys: LtiSystem, key, compute, extend=None):
    """The result kept on ``sys`` under ``key``, computed by
    ``compute()`` on first use.  A ``compute`` that raises keeps nothing, so
    the next call raises again.  Threads that race on one key both compute
    it and keep one of two equal results.

    With ``extend``, the kept result r then passes through ``extend(r)``; a
    new result it returns is kept in r's place and returned.  r is never
    changed, so threads that race keep one of two results that agree
    wherever both are defined."""
    kept = sys._factorizations
    if key not in kept:
        kept[key] = compute()
    result = kept[key]
    if extend is not None and (grown := extend(result)) is not result:
        kept[key] = result = grown
    return result


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks."""

    observable: bool
    bd_injective: bool

    @property
    def ok(self) -> bool:
        return self.observable and self.bd_injective


def validate(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> ValidationReport:
    """Check observability of (A, C) and injectivity of the stacked [B; D].

    Both must hold before the subspace and certificate machinery is
    meaningful; callers that load scenarios from disk reject systems whose
    report is not ``ok``.  The checks run once per (system, ``tol``); the
    report is kept on the system.
    """
    return _memo(sys, ("validate", tol), lambda: _validation(sys, tol))


def _validation(sys: LtiSystem, tol: Tol) -> ValidationReport:
    inj = numerical_rank(np.vstack([sys.b, sys.d]), tol) == sys.s
    return ValidationReport(observable=_observability_index(sys, tol) is not None, bd_injective=inj)


def _observability_index(sys: LtiSystem, tol: Tol) -> int | None:
    """nu, the least k with O_{k-1} of full column rank, or None: (A, C) is not observable."""
    def scan() -> int | None:
        obs = obs_matrix(sys, max(sys.n - 1, 0))  # O_{k-1} is its first k blocks
        return next((k for k in range(sys.n + 1) if numerical_rank(obs[: k * sys.p], tol) == sys.n), None)
    return _memo(sys, ("observability_index", tol), scan)


@dataclass(frozen=True)
class SideInformation:
    """The side-information matrix Omega, held as a read-only copy.

    ``y_omega = Omega x(0)`` is assumed uncorruptible.  Omega enters every
    certificate through ker(Omega) meet V, which ``subspaces`` computes and
    keeps per (system, side information, ``Tol``) with the ``Tol`` of the
    call, so ``tol`` is accepted here and decides nothing.  Two side
    informations are equal, and hash equal, exactly when their Omegas have
    the same shape and bytes, taken once here; the results kept per Omega
    are keyed by this value.
    """

    omega: np.ndarray = field(compare=False)
    tol: Tol = field(default=DEFAULT_TOL, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        om = _frozen(_as_matrix(self.omega, "Omega"))
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "_key", (om.shape, om.tobytes()))

    @classmethod
    def none(cls, n: int, tol: Tol = DEFAULT_TOL) -> "SideInformation":
        """No usable side information: a single zero row."""
        return cls(np.zeros((1, n)), tol)

    @property
    def q(self) -> int:
        return self.omega.shape[0]

    @property
    def n(self) -> int:
        return self.omega.shape[1]

    def value_for(self, x0: np.ndarray) -> np.ndarray:
        """Omega x0 for x0 of n finite numbers, else ``NonFinite`` or ``DimensionMismatch``."""
        return self.omega @ _as_vector(x0, self.n, "x0")


def _same_state(sys: LtiSystem, side: SideInformation) -> None:
    """``DimensionMismatch`` unless Omega has one column per state of ``sys``."""
    if side.n != sys.n:
        raise DimensionMismatch(f"Omega has {side.n} columns, state dim is {sys.n}")


@dataclass(frozen=True, eq=False)
class AttackSequence:
    """Attack frames a(0..T), held row-per-frame as a read-only (T+1) x s
    copy."""

    frames: np.ndarray

    def __post_init__(self) -> None:
        f = _frozen(_as_matrix(self.frames, "attack frames"))
        if f.shape[0] == 0:
            raise DimensionMismatch("an attack needs at least one frame")
        object.__setattr__(self, "frames", f)

    @classmethod
    def zeros(cls, s: int, horizon_t: int) -> "AttackSequence":
        return cls(np.zeros((_as_count(horizon_t, "horizon_t") + 1, _as_count(s, "s"))))

    @property
    def s(self) -> int:
        return self.frames.shape[1]

    @property
    def horizon_t(self) -> int:
        return self.frames.shape[0] - 1

    @property
    def stacked(self) -> np.ndarray:
        """E(T): frames concatenated into one vector of length s(T+1)."""
        return self.frames.reshape(-1)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.frames)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated or logged output data y(0..T) plus initial-state metadata,
    held as read-only copies, so they stay finite as checked here."""

    outputs: np.ndarray
    initial_state: np.ndarray
    side_value: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", _frozen(_as_matrix(self.outputs, "outputs")))
        object.__setattr__(self, "initial_state", _frozen(_finite("x0", self.initial_state).reshape(-1)))
        object.__setattr__(self, "side_value", _frozen(_finite("y_omega", self.side_value).reshape(-1)))

    @property
    def horizon_t(self) -> int:
        return self.outputs.shape[0] - 1


def obs_matrix(sys: LtiSystem, t: int) -> np.ndarray:
    """Extended observability matrix O_t = [C; CA; ...; CA^t], shape p(t+1) x n.

    The blocks are written into one preallocated stack, block k+1 as
    ``ndarray.dot`` of block k and A: the same product, with the same bits,
    as ``@`` would give.  Raises ``NonFinite`` where an entry overflows:
    every verdict built on O_t would read NaN."""
    t = _as_count(t, "t")
    p, n = sys.c.shape
    blocks = np.empty((t + 1, p, n))
    blocks[0] = sys.c
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t):
            blocks[k].dot(sys.a, out=blocks[k + 1])
    if not np.isfinite(blocks).all():
        raise NonFinite(f"O_t overflows at t = {t}")
    return blocks.reshape(p * (t + 1), n)


def _markov_from_obs(sys: LtiSystem, ot: np.ndarray) -> np.ndarray:
    """First block column h_t = [D; CB; CAB; ...; CA^{t-1}B] of M_t, shape
    p(t+1) x s, read from O_t as [D; O_{t-1} B] (its last block is unused):
    one product, so every C A^k is built by ``obs_matrix`` alone."""
    return np.vstack([sys.d, ot[: -sys.p] @ sys.b])


def io_matrix(sys: LtiSystem, t: int) -> np.ndarray:
    """Input-output matrix M_t, shape p(t+1) x s(t+1).

    Block lower-triangular: D on the diagonal, C A^{j-1} B on the j-th
    subdiagonal.
    """
    p, s = sys.p, sys.s
    h = _markov_from_obs(sys, obs_matrix(sys, t)).reshape(t + 1, p, s)
    # Block (i, j) is h[i - j], zero for j > i.  With g = [h reversed; zeros],
    # block row i is the window g[t - i : 2t + 1 - i], so one strided view
    # holds every block row and a single copy lays them out.
    g = np.concatenate([h[::-1], np.zeros((t, p, s))])
    rows = sliding_window_view(g, t + 1, axis=0)[t::-1]  # (i, p, s, j)
    return np.array(rows.transpose(0, 1, 3, 2)).reshape(p * (t + 1), s * (t + 1))


def ctrl_matrix(sys: LtiSystem, t: int) -> np.ndarray:
    """Extended controllability matrix C_t = [A^t B, A^{t-1} B, ..., B].

    The state reached at time t+1 from x(0) = 0 under attack E(t) is
    ``ctrl_matrix(sys, t) @ E(t)``.
    """
    t = _as_count(t, "t")
    blocks = [sys.b]
    cur = sys.b
    for _ in range(t):
        cur = sys.a @ cur
        blocks.append(cur)
    return np.hstack(blocks[::-1])


def propagate(
    sys: LtiSystem, x0: np.ndarray, attack: AttackSequence
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs y(0..T), one row per step, and final state x(T+1) of the
    recursion started at x0 under the attack frames.

    Flattened, the outputs equal ``O_T x0 + M_T E(T)``; the final state
    equals ``A^{T+1} x0 + C_T E(T)``.  O(T) time and memory: each state is
    written into one preallocated stack as ``ndarray.dot`` of A and the
    previous state plus B a(k), with the same bits as ``A @ x + B a(k)``.
    An overflowing run raises no warning but ``NonFinite`` naming the first
    step k whose y(k) or x(k+1) is not finite: every verdict would read NaN.
    """
    x = _as_vector(x0, sys.n, "x0")
    if attack.s != sys.s:
        raise DimensionMismatch(
            f"attack has {attack.s} channels, system expects {sys.s}"
        )
    a = sys.a
    # B a(k) for every k at once: matmul over stacked operands makes the
    # same gemv per frame as ``sys.b @ a(k)``, so the states keep their bits
    xs = np.empty((attack.horizon_t + 2, sys.n))  # x(0..T+1), one row each
    xs[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        bu = np.matmul(sys.b, attack.frames[:, :, None])[:, :, 0]
        for k, b_ak in enumerate(bu):
            np.add(a.dot(xs[k]), b_ak, out=xs[k + 1])
        ys = xs[:-1] @ sys.c.T + attack.frames @ sys.d.T
    if not (np.isfinite(ys).all() and np.isfinite(xs).all()):
        k = np.argmin(np.isfinite(ys).all(axis=1) & np.isfinite(xs[1:]).all(axis=1))
        raise NonFinite(f"the run overflows at step k = {k}")
    return ys, xs[-1].copy()  # a copy: a kept final state holds no stack


def simulate(
    sys: LtiSystem,
    x0: np.ndarray,
    attack: AttackSequence,
    omega: SideInformation,
) -> Trajectory:
    """Run the state recursion and record outputs and side information."""
    x = _as_vector(x0, sys.n, "x0")
    _same_state(sys, omega)
    ys, _ = propagate(sys, x, attack)
    return Trajectory(outputs=ys, initial_state=x, side_value=omega.value_for(x))
