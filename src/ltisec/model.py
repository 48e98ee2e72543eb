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
from .numlin import DEFAULT_TOL, Tol, numerical_rank

__all__ = [
    "LtiSystem",
    "ValidationReport",
    "SideInformation",
    "AttackSequence",
    "Trajectory",
    "validate",
    "obs_matrix",
    "markov_column",
    "io_matrix",
    "ctrl_matrix",
    "propagate",
    "simulate",
]


def _finite(name: str, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.size and not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains NaN or infinite entries")
    return m


@dataclass(frozen=True)
class LtiSystem:
    """The quadruple (A, B, C, D) with dimension accessors n, p, s, held as
    read-only copies so the results kept on it stay valid: the
    ``validate`` reports, the V-iterates and ker(Omega) meet V of
    ``subspaces``, and the range bases of ``detector``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(_finite("A", self.a))
        b = np.atleast_2d(_finite("B", self.b))
        c = np.atleast_2d(_finite("C", self.c))
        d = np.atleast_2d(_finite("D", self.d))
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionMismatch(
                f"D must be {c.shape[0]}x{b.shape[1]}, got {d.shape}"
            )
        for name, m in zip("abcd", (a, b, c, d)):
            m = np.array(m)  # a private copy, so the factorizations kept below hold
            m.flags.writeable = False
            object.__setattr__(self, name, m)
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


def _memo(sys: LtiSystem, key, compute):
    """The result kept on ``sys`` under ``key``, computed by
    ``compute()`` on first use.  A ``compute`` that raises keeps nothing, so
    the next call raises again.  Threads that race on one key both compute
    it and keep one of two equal results."""
    kept = sys._factorizations
    if key not in kept:
        kept[key] = compute()
    return kept[key]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks."""

    observable: bool
    bd_injective: bool

    @property
    def ok(self) -> bool:
        return self.observable and self.bd_injective


def _obs_stack(a: np.ndarray, c: np.ndarray, t: int) -> np.ndarray:
    """[C; CA; ...; CA^t] without constructing matrix powers repeatedly."""
    blocks = [c]
    cur = c
    for _ in range(t):
        cur = cur @ a
        blocks.append(cur)
    return np.vstack(blocks)


def validate(sys: LtiSystem, tol: Tol = DEFAULT_TOL) -> ValidationReport:
    """Check observability of (A, C) and injectivity of the stacked [B; D].

    Both must hold before the subspace and certificate machinery is
    meaningful; callers that load scenarios from disk reject systems whose
    report is not ``ok``.  The checks run once per (system, ``tol``); the
    report is kept on the system.
    """
    return _memo(sys, ("validate", tol), lambda: _validation(sys, tol))


def _validation(sys: LtiSystem, tol: Tol) -> ValidationReport:
    obs = numerical_rank(_obs_stack(sys.a, sys.c, sys.n - 1), tol) == sys.n
    inj = numerical_rank(np.vstack([sys.b, sys.d]), tol) == sys.s
    return ValidationReport(observable=obs, bd_injective=inj)


@dataclass(frozen=True)
class SideInformation:
    """The side-information matrix Omega, held as a read-only copy.

    ``y_omega = Omega x(0)`` is assumed uncorruptible.  Omega enters every
    certificate through ker(Omega) meet V, which ``subspaces`` computes and
    keeps per (system, Omega, ``Tol``) with the ``Tol`` of the call, so
    ``tol`` is accepted here and decides nothing.
    """

    omega: np.ndarray
    tol: Tol = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        om = np.array(np.atleast_2d(_finite("Omega", self.omega)))
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)

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
        return self.omega @ np.asarray(x0, dtype=float)


@dataclass(frozen=True)
class AttackSequence:
    """Attack frames a(0..T), stored row-per-frame as a (T+1) x s array."""

    frames: np.ndarray

    def __post_init__(self) -> None:
        f = np.atleast_2d(_finite("attack frames", self.frames))
        if f.shape[0] == 0:
            raise DimensionMismatch("an attack needs at least one frame")
        object.__setattr__(self, "frames", f)

    @classmethod
    def zeros(cls, s: int, horizon_t: int) -> "AttackSequence":
        return cls(np.zeros((horizon_t + 1, s)))

    @classmethod
    def from_stacked(cls, e: np.ndarray, s: int) -> "AttackSequence":
        e = np.asarray(e, dtype=float).reshape(-1)
        if s <= 0 or e.size % s:
            raise DimensionMismatch(
                f"stacked attack of length {e.size} is not a multiple of s={s}"
            )
        return cls(e.reshape(-1, s))

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

    def truncated(self, horizon_t: int) -> "AttackSequence":
        if not 0 <= horizon_t <= self.horizon_t:
            raise DimensionMismatch(f"cannot truncate horizon {self.horizon_t} to {horizon_t}")
        return AttackSequence(self.frames[: horizon_t + 1].copy())


@dataclass(frozen=True)
class Trajectory:
    """Simulated or logged output data y(0..T) plus initial-state metadata,
    held as read-only copies, so they stay finite as checked here."""

    outputs: np.ndarray
    initial_state: np.ndarray
    side_value: np.ndarray

    def __post_init__(self) -> None:
        for name, m in (
            ("outputs", np.atleast_2d(_finite("outputs", self.outputs))),
            ("initial_state", _finite("x0", self.initial_state).reshape(-1)),
            ("side_value", _finite("y_omega", self.side_value).reshape(-1)),
        ):
            m = np.array(m)
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @property
    def horizon_t(self) -> int:
        return self.outputs.shape[0] - 1

    @property
    def stacked(self) -> np.ndarray:
        """Y(T): outputs concatenated into one vector of length p(T+1)."""
        return self.outputs.reshape(-1)


def obs_matrix(sys: LtiSystem, t: int) -> np.ndarray:
    """Extended observability matrix O_t, shape p(t+1) x n."""
    if t < 0:
        raise DimensionMismatch("horizon must be nonnegative")
    return _obs_stack(sys.a, sys.c, t)


def markov_column(sys: LtiSystem, t: int) -> np.ndarray:
    """First block column h_t = [D; CB; CAB; ...; CA^{t-1}B] of M_t,
    shape p(t+1) x s."""
    if t < 0:
        raise DimensionMismatch("horizon must be nonnegative")
    blocks = [sys.d]
    cab = sys.b
    for _ in range(t):
        blocks.append(sys.c @ cab)
        cab = sys.a @ cab
    return np.vstack(blocks)


def io_matrix(sys: LtiSystem, t: int) -> np.ndarray:
    """Input-output matrix M_t, shape p(t+1) x s(t+1).

    Block lower-triangular: D on the diagonal, C A^{j-1} B on the j-th
    subdiagonal.
    """
    p, s = sys.p, sys.s
    h = markov_column(sys, t).reshape(t + 1, p, s)
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
    if t < 0:
        raise DimensionMismatch("horizon must be nonnegative")
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
    equals ``A^{T+1} x0 + C_T E(T)``.  O(T) time and memory.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != sys.n:
        raise DimensionMismatch(f"x0 has length {x.shape[0]}, expected {sys.n}")
    if attack.s != sys.s:
        raise DimensionMismatch(
            f"attack has {attack.s} channels, system expects {sys.s}"
        )
    a = sys.a
    # B a(k) for every k at once: matmul over stacked operands makes the
    # same gemv per frame as ``sys.b @ a(k)``, so the states keep their bits
    bu = np.matmul(sys.b, attack.frames[:, :, None])[:, :, 0]
    xs = np.empty((attack.horizon_t + 1, sys.n))
    for k, b_ak in enumerate(bu):
        xs[k] = x
        x = a @ x + b_ak
    return xs @ sys.c.T + attack.frames @ sys.d.T, x


def simulate(
    sys: LtiSystem,
    x0: np.ndarray,
    attack: AttackSequence,
    omega: SideInformation,
) -> Trajectory:
    """Run the state recursion and record outputs and side information."""
    x = _finite("x0", x0).reshape(-1)
    if omega.n != sys.n:
        raise DimensionMismatch(
            f"Omega has {omega.n} columns, system state dim is {sys.n}"
        )
    ys, _ = propagate(sys, x, attack)
    return Trajectory(outputs=ys, initial_state=x, side_value=omega.value_for(x))
