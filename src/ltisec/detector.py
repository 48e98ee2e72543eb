"""Sequential windowed projection detector.

The detector watches the last l output frames.  At its first decision epoch
(k = l-1) it stacks the side-information value on top of the window and
tests the result against the range of [Omega; O_{l-1}]; at every later
epoch it tests the window alone against the range of O_{l-1}.  A window
explainable by some initial state projects onto that range exactly; the
decision thresholds the projection residual.

With l >= n+1 the windowed test is exactly as powerful as projecting the
entire history at once, so nothing is lost by forgetting old frames.

Two paths decide the same epochs.

- ``DetectorSession.push`` decides one frame at a time, for callers that
  receive frames as they happen.  It is the reference.
- ``run_detector`` takes a whole log as one (N, p) array, and
  ``batch_decide`` a trajectory.  They decide the epochs in blocks of
  windows with ``push``'s own arithmetic: one matrix-vector product per
  projection and one dot product per norm, row by row.  Their residuals and
  window norms equal the streamed ones bit for bit.

The whole-log path reports a window holding NaN or an infinity, or one
whose norm overflows, by its epoch, as ``push`` does, and lets no numpy
warning escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, NonFinite, RankDeficient
from .model import LtiSystem, SideInformation, Trajectory, _memo, _obs_stack
from .numlin import DEFAULT_TOL, Tol, feasible, orth_columns

__all__ = [
    "Decision",
    "DetectorConfig",
    "EpochDecision",
    "DetectionTrace",
    "DetectorSession",
    "run_detector",
    "batch_decide",
]


# Whole logs are decided this many windows at a time, so the working set
# stays O(_BLOCK * l * p) floats whatever the length of the log.
_BLOCK = 4096

_NON_FINITE = "the window ending at k={k} holds NaN or infinite outputs"
_OVERFLOW = "the window ending at k={k} is finite but its norm overflows"
_FRAME_LENGTH = "output frame has length {}, expected {}"


class Decision(str, Enum):
    ATTACK = "Attack"
    NO_ATTACK = "NoAttack"


# indexed by a feasibility flag: 0 -> attack, 1 -> no attack
_DECISIONS = np.array([Decision.ATTACK, Decision.NO_ATTACK], dtype=object)


@dataclass(frozen=True)
class DetectorConfig:
    """Window length, tolerances, and side information for one detector."""

    window_len_l: int
    omega: SideInformation
    tol: Tol = DEFAULT_TOL

    def __post_init__(self) -> None:
        n = self.omega.n
        if self.window_len_l < n + 1:
            raise ValueError(
                f"window length {self.window_len_l} < n+1 = {n + 1}; shorter "
                "windows lose detection power"
            )


@dataclass(frozen=True)
class EpochDecision:
    k: int
    decision: Decision
    residual: float
    window_norm: float


@dataclass
class DetectionTrace:
    epochs: list[EpochDecision] = field(default_factory=list)

    @property
    def verdict(self) -> Decision:
        if any(e.decision is Decision.ATTACK for e in self.epochs):
            return Decision.ATTACK
        return Decision.NO_ATTACK

    def first_detection(self) -> int | None:
        for e in self.epochs:
            if e.decision is Decision.ATTACK:
                return e.k
        return None


def _range_bases(sys: LtiSystem, omega: np.ndarray, l: int, tol: Tol) -> tuple[np.ndarray, np.ndarray]:
    """Read-only orthonormal bases of the ranges of [Omega; O_{l-1}] and O_{l-1}."""
    obs = _obs_stack(sys.a, sys.c, l - 1)
    q_first = orth_columns(np.vstack([omega, obs]), tol)
    q_later = orth_columns(obs, tol)
    if q_later.dim < sys.n or q_first.dim < sys.n:
        raise RankDeficient(
            "observability stack lost column rank; detector tests are ill-posed"
        )
    q_first.basis.flags.writeable = False
    q_later.basis.flags.writeable = False
    return q_first.basis, q_later.basis


class DetectorSession:
    """Single-owner streaming state: a ring of the last l output frames.

    The orthonormal bases of the two test ranges depend only on the plant,
    l, Omega and the tolerances, so they are computed once per such
    combination and kept, read-only, on the ``LtiSystem``; every session on
    that plant and config reuses them.  Each frame is copied twice into a
    (2l, p) ring, so the window is always one contiguous view, and each
    ``push`` costs one projection and two norms.
    """

    def __init__(self, sys: LtiSystem, config: DetectorConfig, y_omega: np.ndarray):
        if config.omega.n != sys.n:
            raise DimensionMismatch(
                f"Omega has {config.omega.n} columns, state dim is {sys.n}"
            )
        l, omega, tol = config.window_len_l, config.omega.omega, config.tol
        # Omega is a read-only copy, so its bytes identify it
        key = ("detector", l, omega.shape, omega.tobytes(), tol)
        self._q_first, self._q_later = _memo(
            sys, key, lambda: _range_bases(sys, omega, l, tol)
        )
        self._y_omega = np.asarray(y_omega, float).reshape(-1)
        if self._y_omega.shape[0] != config.omega.q:
            raise DimensionMismatch(
                f"y_omega has length {self._y_omega.shape[0]}, expected {config.omega.q}"
            )
        if not np.all(np.isfinite(self._y_omega)):
            raise NonFinite("y_omega contains NaN or infinite entries")
        # frame k sits in rows k mod l and k mod l + l, so the last l frames
        # are rows j+1 .. j+l, in order, where j = k mod l
        self._ring = np.zeros((2 * l, sys.p))
        self._k = -1
        self._p = sys.p
        self.config = config

    def push(self, y: np.ndarray) -> EpochDecision | None:
        """Feed one output frame; returns a decision once the window fills.

        The frame is copied, so the caller may reuse its array.

        Raises
        ------
        DimensionMismatch
            If the frame length is not p.
        NonFinite
            If the window being decided holds NaN or an infinity, or its norm
            overflows: no epoch over it can be decided.  A frame pushed before
            the window first fills is reported at the first epoch, k = l-1.
        """
        y = np.asarray(y, float).reshape(-1)
        # checked before the copy, which would broadcast a length-1 frame
        if y.shape[0] != self._p:
            raise DimensionMismatch(_FRAME_LENGTH.format(y.shape[0], self._p))
        self._k += 1
        k = self._k
        l = self.config.window_len_l
        j = k % l
        ring = self._ring
        ring[j] = y
        ring[j + l] = y
        if k < l - 1:
            return None
        window = ring[j + 1 : j + 1 + l].reshape(-1)
        if k == l - 1:
            test = np.concatenate([self._y_omega, window])
            q = self._q_first
        else:
            test = window
            q = self._q_later
        # math.sqrt(x.dot(x)) is np.linalg.norm's own arithmetic for a vector
        r = test - q @ (q.T @ test)
        residual = math.sqrt(r.dot(r))
        # A non-finite entry always makes the residual non-finite, so the
        # entries are only inspected when the residual is.
        if not math.isfinite(residual) and not np.isfinite(window).all():
            raise NonFinite(_NON_FINITE.format(k=k))
        norm = math.sqrt(test.dot(test))
        if not math.isfinite(norm):
            raise NonFinite(_OVERFLOW.format(k=k))
        ok = feasible(residual, norm, self.config.tol)
        return EpochDecision(
            k=k,
            decision=Decision.NO_ATTACK if ok else Decision.ATTACK,
            residual=residual,
            window_norm=norm,
        )


def _project_rows(q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and norm of each row of ``w`` against the range of ``q``, by
    ``push``'s arithmetic.  On stacked operands matmul makes one gemv per
    row for each projection and one dot per row for each norm, the BLAS
    calls ``push`` makes on one window, so every row gets ``push``'s bits."""
    col = w[:, :, None]
    r = w - np.matmul(q, np.matmul(q.T, col))[:, :, 0]
    residual = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])
    norm = np.sqrt(np.matmul(w[:, None, :], col)[:, 0, 0])
    return residual, norm


def _epochs(tol: Tol, first_k: int, w: np.ndarray, residual: np.ndarray,
            norm: np.ndarray) -> list[EpochDecision]:
    """Decisions of the windows ``w[i]``, which end at k = first_k + i.

    Raises ``NonFinite`` at the first window ``push`` would refuse.  A window
    holding NaN or an infinity always has a non-finite norm, so the norms
    alone locate it; its entries then tell which message ``push`` gives.
    """
    finite = np.isfinite(norm)
    if not finite.all():
        i = int(np.argmin(finite))
        message = _OVERFLOW if np.isfinite(w[i]).all() else _NON_FINITE
        raise NonFinite(message.format(k=first_k + i))
    decisions = _DECISIONS[feasible(residual, norm, tol).view(np.int8)]
    return list(map(
        EpochDecision, range(first_k, first_k + len(w)),
        decisions.tolist(), residual.tolist(), norm.tolist(),
    ))


def run_detector(
    sys: LtiSystem,
    config: DetectorConfig,
    y_omega: np.ndarray,
    outputs: np.ndarray,
) -> DetectionTrace:
    """Decide every epoch of a log of N output frames, given as an (N, p)
    array_like, bit for bit as streaming its rows through
    ``DetectorSession.push`` would.

    The first epoch is decided on the [Omega; O_{l-1}] basis, the later ones
    on the O_{l-1} basis, ``_BLOCK`` windows at a time, with ``push``'s own
    arithmetic, so every residual and window norm equals the streamed one.

    Raises
    ------
    DimensionMismatch
        If the outputs are not two-dimensional, are fewer than the window
        length, or their frames do not have p entries.
    NonFinite
        If a window holds NaN or an infinity, or its norm overflows; the
        error names the first such epoch, as ``push`` does.
    RankDeficient
        As ``DetectorSession``.
    """
    session = DetectorSession(sys, config, y_omega)
    frames = np.asarray(outputs, float)
    l, tol, p = config.window_len_l, config.tol, sys.p
    if frames.ndim != 2:
        raise DimensionMismatch(f"outputs have shape {frames.shape}, expected (N, {p})")
    if frames.shape[0] < l:
        raise DimensionMismatch(f"stream shorter than the window length {l}")
    if frames.shape[1] != p:
        raise DimensionMismatch(_FRAME_LENGTH.format(frames.shape[1], p))
    first = np.concatenate([session._y_omega, frames[:l].reshape(-1)])[None]
    # windows[i] holds frames i..i+l-1 as a (p, l) view; window i ends at k = i+l-1
    windows = sliding_window_view(frames, l, axis=0)
    # a non-finite or overflowing window raises NonFinite naming its epoch,
    # so numpy's warnings about it would only repeat the error
    with np.errstate(over="ignore", invalid="ignore"):
        epochs = _epochs(tol, l - 1, first, *_project_rows(session._q_first, first))
        for start in range(1, windows.shape[0], _BLOCK):
            w = windows[start : start + _BLOCK].transpose(0, 2, 1).reshape(-1, l * p)
            epochs += _epochs(tol, start + l - 1, w, *_project_rows(session._q_later, w))
    return DetectionTrace(epochs)


def batch_decide(
    sys: LtiSystem,
    config: DetectorConfig,
    y_omega: np.ndarray,
    trajectory: Trajectory,
) -> tuple[Decision, DetectionTrace]:
    """Run the detector over a whole trajectory and fold the epoch decisions
    into one verdict: no attack only if every epoch agrees.

    The epochs are decided by ``run_detector``, whose errors it raises, so
    every residual and window norm equals the streamed one bit for bit.
    """
    trace = run_detector(sys, config, y_omega, trajectory.outputs)
    return trace.verdict, trace
