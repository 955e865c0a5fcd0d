"""Controller laws, evaluated for every follower at once.

Four follower controllers share the relative state

    sigma_i = sum_j a_ij (x_i - x_j)

computed against whatever each follower can measure (true states, or observer
states for the output-feedback design). Leaders run their own bounded inputs
and never listen to anyone.

The laws work on stacked rows, one per follower, but every matrix-vector
product is a stacked matmul (K @ sigma[:, :, None]) and every norm a stacked
dot, so each row rounds exactly as a single-vector evaluation would; see the
sim module docstring for why that matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matlib import as_matrix
from .synthesis import GainSet


class MissingState(ValueError):
    """The adaptive law was evaluated without its gain vector."""


DISCONTINUOUS_STATIC = "discontinuous_static"
CONTINUOUS_STATIC = "continuous_static"
ADAPTIVE = "adaptive"
OBSERVER_BASED = "observer_based"
KINDS = (DISCONTINUOUS_STATIC, CONTINUOUS_STATIC, ADAPTIVE, OBSERVER_BASED)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """x_dot = A x + B u, y = C x, shared by every agent."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        b = as_matrix(self.B, "B")
        c = as_matrix(self.C, "C")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
        if c.shape[1] != a.shape[0]:
            raise ValueError(f"C has {c.shape[1]} columns, expected {a.shape[0]}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]


class Sinusoid(NamedTuple):
    channel: int
    amplitude: float
    omega: float
    phase: float


@dataclass(frozen=True, eq=False)
class LeaderInputSpec:
    """u_j(t) = feedback_gain @ x_j + sum of sinusoids, with ||u_j|| <= gamma claimed."""

    feedback_gain: np.ndarray
    sinusoids: tuple
    gamma: float

    def __post_init__(self):
        gain = as_matrix(self.feedback_gain, "feedback_gain")
        object.__setattr__(self, "feedback_gain", gain)
        object.__setattr__(self, "sinusoids", tuple(self.sinusoids))
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        for s in self.sinusoids:
            if not 0 <= s.channel < gain.shape[0]:
                raise ValueError(f"sinusoid channel {s.channel} out of range")


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    kind: str
    gains: GainSet
    kappa: Optional[float] = None
    taus: Optional[np.ndarray] = None
    phis: Optional[np.ndarray] = None
    d0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.kind != DISCONTINUOUS_STATIC:
            if self.kappa is None or self.kappa <= 0.0:
                raise ValueError(f"{self.kind} requires kappa > 0")
        if self.kind == ADAPTIVE:
            taus = np.asarray(self.taus, dtype=float)
            phis = np.asarray(self.phis, dtype=float)
            d0 = np.asarray(self.d0, dtype=float)
            if taus.ndim != 1 or phis.shape != taus.shape or d0.shape != taus.shape:
                raise ValueError("taus, phis and d0 must be equal-length vectors")
            if np.any(taus <= 0.0):
                raise ValueError("tau_i must be positive")
            if np.any(phis < 0.0):
                raise ValueError("phi_i must be nonnegative")
            if np.any(d0 < 0.0):
                raise ValueError("initial adaptive gains must be nonnegative")
            object.__setattr__(self, "taus", taus)
            object.__setattr__(self, "phis", phis)
            object.__setattr__(self, "d0", d0)


@dataclass
class NetworkState:
    """Snapshot of everything the controllers can read at time t.

    follower_states is M x n (canonical follower order), leader_states is
    (N - M) x n. adaptive_gains (length M) and observer_states (N x n) are
    present only for the designs that use them.
    """

    t: float
    follower_states: np.ndarray
    leader_states: np.ndarray
    adaptive_gains: Optional[np.ndarray] = None
    observer_states: Optional[np.ndarray] = None


def row_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of w (shape (..., p)), one BLAS dot per row.

    The stacked matmul runs the same per-vector dot as math.sqrt(w @ w) on a
    single row, so batched and single-row callers round identically.
    """
    return np.sqrt((w[..., None, :] @ w[..., :, None])[..., 0, 0])


def ghat(w: np.ndarray, norm=None) -> np.ndarray:
    """Unit vector w/||w|| row by row, with g(0) = 0.

    The saturations take the rows of w (shape (..., p)) and, optionally, their
    precomputed row_norms. Each divides exactly as its scalar formula reads:
    w / ||w||, w / kappa, (w / kappa) d. A reciprocal multiply rounds
    differently.
    """
    if norm is None:
        norm = row_norms(w)
    zero = (norm == 0.0)[..., None]
    return np.where(zero, 0.0, w / np.where(zero, 1.0, norm[..., None]))


def gsat(w: np.ndarray, kappa: float, norm=None) -> np.ndarray:
    """Boundary-layer version: w/||w|| outside ||w|| > kappa, w/kappa inside."""
    if norm is None:
        norm = row_norms(w)
    return w / np.where(norm > kappa, norm, kappa)[..., None]


def rsat(w: np.ndarray, d, kappa: float, norm=None) -> np.ndarray:
    """Adaptive boundary layer: w/||w|| when d ||w|| > kappa, else (w/kappa) d."""
    if norm is None:
        norm = row_norms(w)
    d = np.asarray(d, dtype=float)
    outside = d * norm > kappa
    unit = w / np.where(outside, norm, kappa)[..., None]
    return np.where(outside[..., None], unit, unit * d[..., None])


def follower_law(config: ControllerConfig, sigma: np.ndarray, d=None):
    """Inputs of every follower from its relative state, under the configured law.

    sigma is M x n (one row per follower) and d the adaptive gain vector
    (adaptive law only). Returns (u, d_rate): u is M x p and d_rate holds
    d_i' = tau_i (-phi_i d_i + sigma_i.T Gamma sigma_i + ||K sigma_i||) for
    the adaptive law, None otherwise. K sigma and its norms are computed once
    and shared by the input and the gain rate.
    """
    gains = config.gains
    ks = (gains.K @ sigma[:, :, None])[:, :, 0]
    norm = row_norms(ks)
    if config.kind == DISCONTINUOUS_STATIC:
        return gains.c1 * ks + gains.c2 * ghat(ks, norm), None
    if config.kind == CONTINUOUS_STATIC or config.kind == OBSERVER_BASED:
        return gains.c1 * ks + gains.c2 * gsat(ks, config.kappa, norm), None
    # adaptive
    if d is None:
        raise MissingState("adaptive controller needs the adaptive gain vector")
    gain = d[:, None]
    u = gain * ks + gain * rsat(ks, d, config.kappa, norm)
    quad = (sigma[:, None, :] @ (gains.Gamma @ sigma[:, :, None]))[:, 0, 0]
    return u, config.taus * (-config.phis * d + quad + norm)


def leader_input(spec: LeaderInputSpec, x_j: np.ndarray, t: float) -> np.ndarray:
    """Leader input: local feedback plus scheduled sinusoids."""
    u = spec.feedback_gain @ x_j
    for s in spec.sinusoids:
        u[s.channel] += s.amplitude * math.sin(s.omega * t + s.phase)
    return u
