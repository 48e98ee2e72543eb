"""Sequential windowed projection detector.

The detector watches the last l output frames.  At its first decision epoch
(k = l-1) it stacks the side-information value on top of the window and
tests the result against the range of [Omega; O_{l-1}]; at every later
epoch it tests the window alone against the range of O_{l-1}.  A window
explainable by some initial state projects onto that range exactly; the
decision thresholds the projection residual.

With l >= nu+1, nu the observability index of (A, C), the windowed test is as
powerful as projecting the entire history, so forgetting old frames loses nothing.

Two paths decide the same epochs.

- ``DetectorSession.push`` decides one frame at a time, for callers that
  receive frames as they happen.  It is the reference.
- ``run_detector`` takes a whole log as one (N, p) array, and
  ``batch_decide`` a trajectory.  They decide the epochs in blocks of
  windows with ``push``'s own arithmetic: one matrix-vector product per
  projection and one dot product per norm, row by row.  Their residuals and
  window norms equal the streamed ones bit for bit, and they return them as
  the columns of a ``DetectionTrace``, with no record per epoch.

The whole-log path reports a window holding NaN or an infinity, or one
whose norm overflows, by its epoch, as ``push`` does, and lets no numpy
warning escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, NonFinite, RankDeficient
from .model import LtiSystem, SideInformation, Trajectory, _memo, _observability_index, _same_state, obs_matrix
from .numlin import DEFAULT_TOL, Tol, _as_count, _as_floats, _as_vector, _frozen, feasible, orth_columns

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


@dataclass(frozen=True)
class DetectorConfig:
    """Window length, tolerances, and side information for one detector;
    configs compare and hash by these values.  A window shorter than nu + 1
    loses detection power; ``DetectorSession`` refuses it."""

    window_len_l: int
    omega: SideInformation
    tol: Tol = DEFAULT_TOL

    def __post_init__(self) -> None:
        object.__setattr__(self, "window_len_l", _as_count(self.window_len_l, "window_len_l", least=1))


@dataclass(frozen=True)
class EpochDecision:
    k: int
    decision: Decision
    residual: float
    window_norm: float


@dataclass(frozen=True, eq=False)
class DetectionTrace:
    """The decided epochs as four equal-length, read-only columns: the epoch
    index ``k``, whether it decided ``attack``, and its ``residual`` and
    ``window_norm``.  The constructor takes read-only copies."""

    k: np.ndarray
    attack: np.ndarray
    residual: np.ndarray
    window_norm: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in zip(("k", "attack", "residual", "window_norm"), (int, bool, float, float)):
            column = _frozen(getattr(self, name), dtype)
            if column.ndim != 1 or len(column) != len(self.k):
                raise DimensionMismatch(f"trace column {name} has shape {column.shape}")
            object.__setattr__(self, name, column)

    @property
    def verdict(self) -> Decision:
        return Decision.ATTACK if self.attack.any() else Decision.NO_ATTACK

    def first_detection(self) -> int | None:
        return int(self.k[self.attack.argmax()]) if self.attack.any() else None

    @property
    def epochs(self) -> list[EpochDecision]:
        """One ``EpochDecision`` per epoch, equal to those ``push`` returns."""
        decisions = [Decision.ATTACK if a else Decision.NO_ATTACK for a in self.attack.tolist()]
        return list(map(EpochDecision, self.k.tolist(), decisions,
                        self.residual.tolist(), self.window_norm.tolist()))


def _range_bases(sys: LtiSystem, omega: np.ndarray, l: int, tol: Tol) -> tuple[np.ndarray, np.ndarray]:
    """Read-only orthonormal bases of the ranges of [Omega; O_{l-1}] and O_{l-1}."""
    nu = _observability_index(sys, tol)  # None when (A, C) is not observable: the rank guard refuses it
    obs = obs_matrix(sys, _as_count(l, "window_len_l", least=(nu or 0) + 1) - 1)
    q_first = orth_columns(np.vstack([omega, obs]), tol)
    q_later = orth_columns(obs, tol)
    if q_later.dim < sys.n or q_first.dim < sys.n:
        raise RankDeficient("observability stack lost column rank; detector tests are ill-posed")
    return q_first.basis, q_later.basis


def _prepared(sys: LtiSystem, config: DetectorConfig,
              y_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept bases of [Omega; O_{l-1}] and O_{l-1}, and y_omega as a
    checked vector: what both detector paths start from."""
    _same_state(sys, config.omega)
    q_first, q_later = _memo(sys, ("detector", config), lambda: _range_bases(
        sys, config.omega.omega, config.window_len_l, config.tol))
    return q_first, q_later, _as_vector(y_omega, config.omega.q, "y_omega")


class DetectorSession:
    """Single-owner streaming state: a ring of the last l output frames.

    The orthonormal bases of the two test ranges depend only on the plant
    and the config, so they are kept, read-only, on the ``LtiSystem`` per
    equal config; every session on that plant and config reuses them.  Each
    frame is copied twice into a (2l, p) ring, so the window is always one
    contiguous view, and each ``push`` costs one projection and two norms.
    A window shorter than nu + 1 raises ``HorizonTooShort``, a rank-deficient stack ``RankDeficient``.
    """

    def __init__(self, sys: LtiSystem, config: DetectorConfig, y_omega: np.ndarray):
        self._q_first, self._q_later, self._y_omega = _prepared(sys, config, y_omega)
        # frame k sits in rows k mod l and k mod l + l, so the last l frames
        # are rows j+1 .. j+l, in order, where j = k mod l
        self._ring = np.zeros((2 * config.window_len_l, sys.p))
        self._k = -1
        self._p = sys.p
        self.config = config

    def push(self, y: np.ndarray) -> EpochDecision | None:
        """Feed one output frame; returns a decision once the window fills.

        The frame is copied, so the caller may reuse its array.

        Raises
        ------
        DimensionMismatch
            If the frame is not numeric, is ragged, or its length is not p.
        NonFinite
            If the window being decided holds NaN or an infinity, or its norm
            overflows: no epoch over it can be decided.  A frame pushed before
            the window first fills is reported at the first epoch, k = l-1.
        """
        y = _as_floats("output frame", y).reshape(-1)
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
        test, q = ring[j + 1 : j + 1 + l].reshape(-1), self._q_later
        if k == l - 1:
            test, q = np.concatenate([self._y_omega, test]), self._q_first
        # math.sqrt(x.dot(x)) is np.linalg.norm's own arithmetic for a vector
        r = test - q @ (q.T @ test)
        residual = math.sqrt(r.dot(r))
        norm = math.sqrt(test.dot(test))
        if not math.isfinite(norm):
            raise _refused(k, test)
        ok = feasible(residual, norm, self.config.tol)
        return EpochDecision(
            k=k,
            decision=Decision.NO_ATTACK if ok else Decision.ATTACK,
            residual=residual,
            window_norm=norm,
        )


def _refused(k: int, window: np.ndarray) -> NonFinite:
    """The error for the window ending at k, whose norm is not finite (as it
    is whenever the window holds NaN or an infinity); its entries pick the message."""
    return NonFinite((_OVERFLOW if np.isfinite(window).all() else _NON_FINITE).format(k=k))


def _decided_rows(q: np.ndarray, w: np.ndarray, first_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Residual and norm of each window ``w[i]``, which ends at k = first_k + i,
    against the range of ``q``.  On stacked operands matmul makes one gemv
    per row for each projection and one dot per row for each norm, the BLAS
    calls ``push`` makes on one window, so every row gets ``push``'s bits.

    Raises ``_refused``'s error at the first window ``push`` would refuse."""
    col = w[:, :, None]
    r = w - np.matmul(q, np.matmul(q.T, col))[:, :, 0]
    residual = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])
    norm = np.sqrt(np.matmul(w[:, None, :], col)[:, 0, 0])
    finite = np.isfinite(norm)
    if not finite.all():
        i = int(np.argmin(finite))
        raise _refused(first_k + i, w[i])
    return residual, norm


def run_detector(sys: LtiSystem, config: DetectorConfig, y_omega: np.ndarray,
                 outputs: np.ndarray) -> DetectionTrace:
    """Decide every epoch of a log of N output frames, given as an (N, p)
    array_like, bit for bit as streaming its rows through
    ``DetectorSession.push`` would, ``_BLOCK`` windows at a time.

    Raises
    ------
    DimensionMismatch
        If the outputs are not a numeric array (frames of unequal lengths),
        are not two-dimensional, are fewer than the window length, or their
        frames do not have p entries.
    NonFinite
        If a window holds NaN or an infinity, or its norm overflows; the
        error names the first such epoch, as ``push`` does.
    HorizonTooShort, RankDeficient
        As ``DetectorSession``.
    """
    q_first, q_later, y_omega = _prepared(sys, config, y_omega)
    frames = _as_floats("outputs", outputs)
    l, tol, p = config.window_len_l, config.tol, sys.p
    if frames.ndim != 2:
        raise DimensionMismatch(f"outputs have shape {frames.shape}, expected (N, {p})")
    if frames.shape[0] < l:
        raise DimensionMismatch(f"stream shorter than the window length {l}")
    if frames.shape[1] != p:
        raise DimensionMismatch(_FRAME_LENGTH.format(frames.shape[1], p))
    first = np.concatenate([y_omega, frames[:l].reshape(-1)])[None]
    # windows[i] holds frames i..i+l-1 as a (p, l) view; window i ends at k = i+l-1
    windows = sliding_window_view(frames, l, axis=0)
    # a non-finite or overflowing window raises NonFinite naming its epoch,
    # so numpy's warnings about it would only repeat the error
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [_decided_rows(q_first, first, l - 1)]
        for start in range(1, windows.shape[0], _BLOCK):
            w = windows[start : start + _BLOCK].transpose(0, 2, 1).reshape(-1, l * p)
            blocks.append(_decided_rows(q_later, w, start + l - 1))
    residual, norm = (np.concatenate(c) for c in zip(*blocks))
    return DetectionTrace(np.arange(l - 1, len(frames)), ~feasible(residual, norm, tol), residual, norm)


def batch_decide(sys: LtiSystem, config: DetectorConfig, y_omega: np.ndarray,
                 trajectory: Trajectory) -> tuple[Decision, DetectionTrace]:
    """``run_detector`` over a whole trajectory, and the trace's verdict: no
    attack only if every epoch agrees."""
    trace = run_detector(sys, config, y_omega, trajectory.outputs)
    return trace.verdict, trace
