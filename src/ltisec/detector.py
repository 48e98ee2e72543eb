"""Sequential windowed projection detector.

The detector watches the last l output frames.  At its first decision epoch
(k = l-1) it stacks the side-information value on top of the window and
tests the result against the range of [Omega; O_{l-1}]; at every later
epoch it tests the window alone against the range of O_{l-1}.  A window
explainable by some initial state projects onto that range exactly; the
decision thresholds the projection residual.

With l >= n+1 the windowed test is exactly as powerful as projecting the
entire history at once, so nothing is lost by forgetting old frames.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NonFinite, RankDeficient
from .model import LtiSystem, SideInformation, Trajectory, _obs_stack
from .numlin import DEFAULT_TOL, Tol, numerical_rank, orth_columns

__all__ = [
    "Decision",
    "DetectorConfig",
    "EpochDecision",
    "DetectionTrace",
    "DetectorSession",
    "run_detector",
    "batch_decide",
]


class Decision(str, Enum):
    ATTACK = "Attack"
    NO_ATTACK = "NoAttack"


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


def _obs_pair(sys_obs) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(sys_obs, LtiSystem):
        return sys_obs.a, sys_obs.c
    a, c = sys_obs
    return np.atleast_2d(np.asarray(a, float)), np.atleast_2d(np.asarray(c, float))


class DetectorSession:
    """Single-owner streaming state: a ring of the last l output frames.

    Orthonormal factors of the two test ranges are computed once here; each
    ``push`` afterwards costs one projection and one norm.
    """

    def __init__(self, sys_obs, config: DetectorConfig, y_omega: np.ndarray):
        a, c = _obs_pair(sys_obs)
        n = a.shape[0]
        tol = config.tol
        if config.omega.n != n:
            raise DimensionMismatch(
                f"Omega has {config.omega.n} columns, state dim is {n}"
            )
        l = config.window_len_l
        obs = _obs_stack(a, c, l - 1)
        first = np.vstack([config.omega.omega, obs])
        if numerical_rank(obs, tol) < n or numerical_rank(first, tol) < n:
            raise RankDeficient(
                "observability stack lost column rank; detector tests are ill-posed"
            )
        self._q_first = orth_columns(first, tol).basis
        self._q_later = orth_columns(obs, tol).basis
        self._y_omega = np.asarray(y_omega, float).reshape(-1)
        if self._y_omega.shape[0] != config.omega.q:
            raise DimensionMismatch(
                f"y_omega has length {self._y_omega.shape[0]}, expected {config.omega.q}"
            )
        if not np.all(np.isfinite(self._y_omega)):
            raise NonFinite("y_omega contains NaN or infinite entries")
        self._window: deque[np.ndarray] = deque(maxlen=l)
        self._k = -1
        self._p = c.shape[0]
        self.config = config

    def push(self, y: np.ndarray) -> EpochDecision | None:
        """Feed one output frame; returns a decision once the window fills.

        Raises
        ------
        DimensionMismatch
            If the frame length is not p.
        NonFinite
            If the window being decided holds NaN or an infinity: no epoch
            over it can be decided.  A frame pushed before the window first
            fills is reported at the first epoch, k = l-1.
        """
        y = np.asarray(y, float).reshape(-1)
        if y.shape[0] != self._p:
            raise DimensionMismatch(f"output frame has length {y.shape[0]}, expected {self._p}")
        self._window.append(y)
        self._k += 1
        l = self.config.window_len_l
        if self._k < l - 1:
            return None
        stacked = np.concatenate(list(self._window))
        if self._k == l - 1:
            test = np.concatenate([self._y_omega, stacked])
            q = self._q_first
        else:
            test = stacked
            q = self._q_later
        residual = float(np.linalg.norm(test - q @ (q.T @ test)))
        # A non-finite entry always makes the residual non-finite, so the
        # entries are only inspected when the residual is.
        if not math.isfinite(residual) and not np.isfinite(stacked).all():
            raise NonFinite(
                f"the window ending at k={self._k} holds NaN or infinite outputs"
            )
        norm = float(np.linalg.norm(test))
        ok = residual <= self.config.tol.residual_rel * max(1.0, norm)
        return EpochDecision(
            k=self._k,
            decision=Decision.NO_ATTACK if ok else Decision.ATTACK,
            residual=residual,
            window_norm=norm,
        )


def run_detector(
    sys_obs,
    config: DetectorConfig,
    y_omega: np.ndarray,
    outputs: Iterable[np.ndarray],
) -> DetectionTrace:
    """Run the streaming detector over a sequence of output frames."""
    session = DetectorSession(sys_obs, config, y_omega)
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
    sys_obs,
    config: DetectorConfig,
    y_omega: np.ndarray,
    trajectory: Trajectory,
) -> tuple[Decision, DetectionTrace]:
    """Run the detector over a whole trajectory and fold the epoch decisions
    into one verdict: no attack only if every epoch agrees."""
    trace = run_detector(sys_obs, config, y_omega, trajectory.outputs)
    return trace.verdict, trace
