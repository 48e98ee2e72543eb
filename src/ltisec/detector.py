"""Sequential windowed projection detector.

The detector watches the last l output frames.  At its first decision epoch
(k = l-1) it stacks the side-information value on top of the window and
tests the result against the range of [Omega; O_{l-1}]; at every later
epoch it tests the window alone against the range of O_{l-1}.  A window
explainable by some initial state projects onto that range exactly; the
decision thresholds the projection residual.

With l >= n+1 the windowed test is exactly as powerful as projecting the
entire history at once, so nothing is lost by forgetting old frames.

Two paths decide the same epochs.  ``DetectorSession`` (and ``run_detector``
over it) streams one frame at a time and is the reference.  ``batch_decide``
takes a whole trajectory and decides the later epochs in blocks of windows
with one matrix product each; its later residuals and window norms differ
from the streamed ones by rounding (summation order), so an epoch whose
residual sits within rounding of its threshold can be decided differently.
Where the two disagree, the streaming ``DetectorSession`` is authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

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


# Later epochs are decided this many windows at a time, so the working set
# stays O(_BLOCK * l * p) floats whatever the length of the trajectory.
_BLOCK = 4096

_OVERFLOW = "the window ending at k={k} is finite but its norm overflows"


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
            raise DimensionMismatch(f"output frame has length {y.shape[0]}, expected {self._p}")
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
            raise NonFinite(
                f"the window ending at k={k} holds NaN or infinite outputs"
            )
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


def run_detector(
    sys: LtiSystem,
    config: DetectorConfig,
    y_omega: np.ndarray,
    outputs: Iterable[np.ndarray],
) -> DetectionTrace:
    """Run the streaming detector over a sequence of output frames."""
    session = DetectorSession(sys, config, y_omega)
    trace = DetectionTrace()
    for y in outputs:
        epoch = session.push(y)
        if epoch is not None:
            trace.epochs.append(epoch)
    if not trace.epochs:
        raise DimensionMismatch(
            f"stream shorter than the window length {config.window_len_l}"
        )
    return trace


def batch_decide(
    sys: LtiSystem,
    config: DetectorConfig,
    y_omega: np.ndarray,
    trajectory: Trajectory,
) -> tuple[Decision, DetectionTrace]:
    """Run the detector over a whole trajectory and fold the epoch decisions
    into one verdict: no attack only if every epoch agrees.

    The first epoch (k = l-1) is decided by ``DetectorSession.push`` on the
    [Omega; O] factor, bit for bit as the streaming detector decides it.
    The later epochs are decided in blocks of windows, each block with one
    projection product and one norm per row.  Their residuals agree with the
    streamed ones to rounding; for an epoch whose residual sits at its
    threshold, the streaming ``DetectorSession`` is authoritative.

    Raises
    ------
    DimensionMismatch
        If a frame does not have p entries, or the trajectory is shorter
        than the window.
    NonFinite
        If an output is NaN or infinite, or a window's norm overflows; the
        error names the first such epoch.
    RankDeficient
        As ``DetectorSession``.
    """
    session = DetectorSession(sys, config, y_omega)
    l, p = config.window_len_l, sys.p
    outputs = trajectory.outputs
    if outputs.ndim != 2 or outputs.shape[1] != p:
        raise DimensionMismatch(f"output frames have shape {outputs.shape[1:]}, expected ({p},)")
    if outputs.shape[0] < l:
        raise DimensionMismatch(f"trajectory shorter than the window length {l}")
    finite = np.isfinite(outputs).all(axis=1)
    if not finite.all():
        k = max(int(np.argmin(finite)), l - 1)
        raise NonFinite(f"the window ending at k={k} holds NaN or infinite outputs")
    for y in outputs[: l - 1]:
        session.push(y)
    trace = DetectionTrace([session.push(outputs[l - 1])])
    q = session._q_later
    # windows[i] holds frames i..i+l-1 as a (p, l) view; window i ends at k = i+l-1
    windows = sliding_window_view(outputs, l, axis=0)
    for start in range(1, windows.shape[0], _BLOCK):
        w = windows[start : start + _BLOCK].transpose(0, 2, 1).reshape(-1, l * p)
        residual = np.linalg.norm(w - (w @ q) @ q.T, axis=1)
        norm = np.linalg.norm(w, axis=1)
        first_k = start + l - 1
        finite = np.isfinite(norm)
        if not finite.all():
            raise NonFinite(_OVERFLOW.format(k=first_k + int(np.argmin(finite))))
        decisions = _DECISIONS[feasible(residual, norm, config.tol).view(np.int8)]
        trace.epochs.extend(map(
            EpochDecision, range(first_k, first_k + len(w)),
            decisions.tolist(), residual.tolist(), norm.tolist(),
        ))
    return trace.verdict, trace
