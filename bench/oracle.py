"""Independent expected values for the benchmark's output checks.

Everything here is plain numpy with its own state recursion, its own
stacking and its own rank decisions; nothing is imported from ``ltisec``.
Agreement with the package is therefore a cross-check, not a replay of the
package's own arithmetic.  Stacked matrices are only built at the short
horizons where the geometry is decided (T = n); long-horizon checks run the
recursion, so their memory stays O(T) and does not hide the package's own
peak resident set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cut for the oracle's own rank decisions.  The
# benchmark's plants are well conditioned (cond(O_n) < 1e3), so any cut
# between 1e-12 and 1e-4 gives the same answers.
RANK_REL = 1e-9


@dataclass(frozen=True)
class Plant:
    """The quadruple plus side information, as plain arrays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    omega: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    @property
    def s(self) -> int:
        return self.b.shape[1]


def outputs(pl: Plant, x0, frames) -> np.ndarray:
    """Outputs y(0..T) of the recursion from x0 driven by ``frames``."""
    frames = np.asarray(frames, dtype=float)
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    ys = np.empty((frames.shape[0], pl.p))
    for k, a_k in enumerate(frames):
        ys[k] = pl.c @ x + pl.d @ a_k
        x = pl.a @ x + pl.b @ a_k
    return ys


def final_state(pl: Plant, x0, frames) -> np.ndarray:
    """State x(T+1) reached from x0 under ``frames``."""
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    for a_k in np.asarray(frames, dtype=float):
        x = pl.a @ x + pl.b @ a_k
    return x


def free_response(pl: Plant, x0, t: int) -> np.ndarray:
    return outputs(pl, x0, np.zeros((t + 1, pl.s)))


def obs_stack(pl: Plant, t: int) -> np.ndarray:
    rows = []
    cur = pl.c.copy()
    for _ in range(t + 1):
        rows.append(cur)
        cur = cur @ pl.a
    return np.vstack(rows)


def io_stack(pl: Plant, t: int) -> np.ndarray:
    """Block lower-triangular input-output matrix, built column by column
    from impulse responses of the recursion."""
    p, s = pl.p, pl.s
    m = np.zeros((p * (t + 1), s * (t + 1)))
    for j in range(s):
        e = np.zeros((t + 1, s))
        e[0, j] = 1.0
        h = outputs(pl, np.zeros(pl.n), e).reshape(-1)
        for k in range(t + 1):
            m[k * p :, k * s + j] = h[: p * (t + 1 - k)]
    return m


def kernel(m: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis by SVD at the oracle's own cut."""
    m = np.atleast_2d(m)
    if m.shape[0] == 0:
        return np.eye(m.shape[1])
    _, sv, vh = np.linalg.svd(m)
    if sv.size == 0 or sv[0] == 0.0:
        return np.eye(m.shape[1])
    r = int(np.sum(sv > RANK_REL * sv[0]))
    return vh[r:].T.copy()


def span(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span."""
    if m.shape[1] == 0:
        return np.zeros((m.shape[0], 0))
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    return u[:, : int(np.sum(sv > RANK_REL * sv[0]))].copy()


def meet(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Intersection of two column spans given by orthonormal bases."""
    n = u.shape[0]
    if u.shape[1] == 0 or v.shape[1] == 0:
        return np.zeros((n, 0))
    k = kernel(np.hstack([u, -v]))
    return span(u @ k[: u.shape[1]])


@dataclass(frozen=True)
class Geometry:
    """V, zero-state existence and ker(Omega) meet V, decided from the
    stacked identity O_n x0 + M_n E = 0 at horizon n."""

    v: np.ndarray
    zero_state: bool
    null_omega_v: np.ndarray

    @property
    def dim_v(self) -> int:
        return self.v.shape[1]


def geometry(pl: Plant) -> Geometry:
    n, s = pl.n, pl.s
    m = io_stack(pl, n)
    # V is the x0-part of ker [O_n  M_n].
    ker = kernel(np.hstack([obs_stack(pl, n), m]))
    v = span(ker[:n])
    # An invisible attack from rest with a(0) != 0 exists exactly when
    # ker M_n holds a vector with a nonzero first frame.
    km = kernel(m)
    zero_state = km.shape[1] > 0 and float(np.linalg.norm(km[:s])) > 1e-6
    return Geometry(v=v, zero_state=zero_state, null_omega_v=meet(kernel(pl.omega), v))


def outside(basis: np.ndarray, w: np.ndarray) -> float:
    """Relative distance of w from the span of an orthonormal basis."""
    w = np.asarray(w, dtype=float)
    r = w - basis @ (basis.T @ w) if basis.shape[1] else w
    return float(np.linalg.norm(r)) / max(1.0, float(np.linalg.norm(w)))


@dataclass(frozen=True)
class Fit:
    """Least squares of O_T theta = -M_T E over theta in ker(Omega)."""

    rel_residual: float
    theta: np.ndarray


def best_shift(pl: Plant, frames, omega=None) -> Fit:
    """Best initial-state shift explaining an attack; ``omega=None`` means no
    side information.  M_T E comes from the recursion from rest."""
    frames = np.asarray(frames, dtype=float)
    t = frames.shape[0] - 1
    rhs = -outputs(pl, np.zeros(pl.n), frames).reshape(-1)
    rhs_norm = max(1.0, float(np.linalg.norm(rhs)))
    basis = np.eye(pl.n) if omega is None else kernel(np.atleast_2d(omega))
    if basis.shape[1] == 0:
        return Fit(float(np.linalg.norm(rhs)) / rhs_norm, np.zeros(pl.n))
    coeff = obs_stack(pl, t) @ basis
    z, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    res = float(np.linalg.norm(coeff @ z - rhs))
    return Fit(res / rhs_norm, basis @ z)


def shift_explains(pl: Plant, frames, theta, x0, rtol: float) -> bool:
    """Attacked outputs from x0 equal unattacked outputs from x0 - theta."""
    frames = np.asarray(frames, dtype=float)
    y_att = outputs(pl, x0, frames)
    y_ref = free_response(pl, np.asarray(x0) - np.asarray(theta), frames.shape[0] - 1)
    scale = max(1.0, float(np.linalg.norm(y_att)), float(np.linalg.norm(y_ref)))
    return float(np.linalg.norm(y_att - y_ref)) <= rtol * scale


def zero_from_rest(pl: Plant, frames, rtol: float) -> bool:
    """The attack leaves the output at zero when started from rest."""
    y = outputs(pl, np.zeros(pl.n), frames)
    return float(np.linalg.norm(y)) <= rtol * max(1.0, float(np.linalg.norm(frames)))


def geometric_frames(frames, lam: complex, g, rtol: float) -> bool:
    """Frames equal Re(lambda^k g) up to one common real scale."""
    frames = np.asarray(frames, dtype=float)
    ref = np.real(np.outer(np.asarray(lam, complex) ** np.arange(frames.shape[0]), g))
    den = float(np.sum(ref * ref))
    if den == 0.0:
        return False
    scale = float(np.sum(frames * ref)) / den
    return float(np.linalg.norm(frames - scale * ref)) <= rtol * max(
        1.0, float(np.linalg.norm(frames))
    )


def pencil_mode(pl: Plant, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """A null vector (theta, g) of [lam I - A, -B; C, D] with g != 0,
    chosen as the right singular vector of the smallest singular value."""
    n = pl.n
    top = np.hstack([lam * np.eye(n) - pl.a, -pl.b])
    bot = np.hstack([pl.c, pl.d]).astype(complex)
    _, _, vh = np.linalg.svd(np.vstack([top, bot]))
    v = vh[-1].conj()
    if abs(np.imag(lam)) == 0.0:
        i = int(np.argmax(np.abs(v)))
        v = (v * np.conj(v[i]) / abs(v[i])).real
    return v[:n], v[n:]


def window_decisions(pl: Plant, window: int, y_omega, ys, rtol: float, omega=None):
    """First epoch k at which the windowed projection test fires, and the
    largest relative residual of the epochs that stay quiet.

    Epoch k = l-1 tests [y_omega; window] against [Omega; O_{l-1}] (or the
    window alone when ``omega`` is None); every later epoch tests its window
    against O_{l-1}.  All windows are projected in one matrix product.
    """
    ys = np.asarray(ys, dtype=float)
    l = window
    obs = obs_stack(pl, l - 1)
    q_later, _ = np.linalg.qr(obs)
    wins = np.lib.stride_tricks.sliding_window_view(ys, (l, ys.shape[1]))[:, 0]
    wins = wins.reshape(wins.shape[0], -1)
    if omega is None:
        first = wins[0]
        q_first = q_later
    else:
        first = np.concatenate([np.asarray(y_omega, float).reshape(-1), wins[0]])
        q_first, _ = np.linalg.qr(np.vstack([np.atleast_2d(omega), obs]))
    res = np.empty(wins.shape[0])
    res[0] = np.linalg.norm(first - q_first @ (q_first.T @ first)) / max(
        1.0, float(np.linalg.norm(first))
    )
    later = wins[1:]
    proj = (later @ q_later) @ q_later.T
    res[1:] = np.linalg.norm(later - proj, axis=1) / np.maximum(
        1.0, np.linalg.norm(later, axis=1)
    )
    fired = np.nonzero(res > rtol)[0]
    first_k = None if fired.size == 0 else int(fired[0]) + l - 1
    quiet = res if fired.size == 0 else res[: fired[0]]
    return first_k, float(quiet.max()) if quiet.size else 0.0, res


def attack_for_shift(pl: Plant, theta, t: int) -> np.ndarray:
    """Minimum-norm frames with M_t E = -O_t theta (short horizons only)."""
    rhs = -(obs_stack(pl, t) @ np.asarray(theta, dtype=float))
    e, *_ = np.linalg.lstsq(io_stack(pl, t), rhs, rcond=None)
    return e.reshape(t + 1, pl.s)


def zero_state_frames(pl: Plant, t: int) -> np.ndarray:
    """Frames in ker M_t with the largest first frame, normalized so
    ||a(0)|| = 1 (short horizons only)."""
    k = kernel(io_stack(pl, t))
    _, _, vh = np.linalg.svd(k[: pl.s], full_matrices=True)
    e = k @ vh[0]
    e = e / float(np.linalg.norm(e[: pl.s]))
    return e.reshape(t + 1, pl.s)
