"""Controller laws, evaluated for every follower at once.

The four follower controllers are one law, u_i = g1 K sigma_i +
g2 sat(K sigma_i), on the relative state

    sigma_i = sum_j a_ij (x_i - x_j)

computed against whatever each follower can measure (true states, or observer
states for the output-feedback design). They differ in the coupling gains
(c1/c2 or the adaptive d_i), the boundary-layer width (0 or kappa) and that
measurement source. Leaders run their own bounded inputs and never listen to
anyone.

The laws work on stacked rows, one per follower, but every matrix-vector
product is a stacked matmul (K @ sigma[:, :, None]) and every norm a stacked
dot, so each row rounds exactly as a single-vector evaluation would; see the
sim module docstring for why that matters. follower_law, leader_input,
row_norms and saturate each bind once to the caller's arrays and return a
callable that refills buffers on each call: the law binds its row norm and its
saturation, so one evaluation makes no temporary array and re-derives no
view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .matlib import as_matrix
if TYPE_CHECKING:
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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be a finite number > 0, got {self.gamma!r}")
        for s in self.sinusoids:
            if not 0 <= s.channel < gain.shape[0]:
                raise ValueError(f"sinusoid channel {s.channel} out of range")


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Which law the followers run, its parameters and its design parameters.

    The design parameters are read by synthesis: c1_scale and c2_scale (>= 1)
    multiply the certified floors of the coupling gains c1 and c2, and
    are_weight is the Riccati state weight (identity when None). The gains
    themselves come from synthesis.
    """

    kind: str
    kappa: Optional[float] = None
    taus: Optional[np.ndarray] = None
    phis: Optional[np.ndarray] = None
    d0: Optional[np.ndarray] = None
    c1_scale: float = 1.0
    c2_scale: float = 1.0
    are_weight: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        for name, scale in (("c1_scale", self.c1_scale), ("c2_scale", self.c2_scale)):
            if not 1.0 <= scale < math.inf:
                raise ValueError(f"{name} must be a finite number >= 1, got {scale!r}")
        if self.are_weight is not None:
            object.__setattr__(self, "are_weight", as_matrix(self.are_weight, "are_weight"))
        if self.kind != DISCONTINUOUS_STATIC:
            if self.kappa is None or not 0.0 < self.kappa < math.inf:
                raise ValueError(f"{self.kind} requires a finite kappa > 0")
        if self.kind == ADAPTIVE:
            taus = np.asarray(self.taus, dtype=float)
            phis = np.asarray(self.phis, dtype=float)
            d0 = np.asarray(self.d0, dtype=float)
            if taus.ndim != 1 or phis.shape != taus.shape or d0.shape != taus.shape:
                raise ValueError(
                    "taus, phis and d0 must be equal-length vectors, got shapes "
                    f"{taus.shape}, {phis.shape} and {d0.shape}"
                )
            if not np.all(taus > 0.0):
                raise ValueError("taus must be positive")
            if not np.all(phis >= 0.0):
                raise ValueError("phis must be nonnegative")
            if not np.all(d0 >= 0.0):
                raise ValueError("d0 (initial adaptive gains) must be nonnegative")
            if not np.isfinite(phis * taus).all():
                raise ValueError("phi_i tau_i overflows; each product must be finite")
            object.__setattr__(self, "taus", taus)
            object.__setattr__(self, "phis", phis)
            object.__setattr__(self, "d0", d0)


def row_norms(w: np.ndarray, out=None):
    """Bind the Euclidean norm of every row of w (shape (..., p)): norms() -> out.

    Each norm is one BLAS dot, the stacked matmul (..., 1, p) @ (..., p, 1),
    which runs the same per-vector dot as math.sqrt(w @ w) on a single row, so
    batched and single-row callers round identically. The row and column views
    of w and the buffer of the dots are bound here, once; norms() reads w's
    current contents. out, when given, is the caller's array of shape
    w.shape[:-1] that receives the norms, else the binding owns one.
    """
    rows = w[..., None, :]
    cols = w[..., :, None]
    dots = np.empty(w.shape[:-1] + (1, 1))
    squares = dots[..., 0, 0]
    if out is None:
        out = np.empty(w.shape[:-1])

    def norms() -> np.ndarray:
        np.matmul(rows, cols, out=dots)
        return np.sqrt(squares, out=out)

    return norms


def saturate(w: np.ndarray, norm: np.ndarray, width: float, d=None, out=None):
    """Bind the boundary-layer saturation of the rows of w (shape (..., p)):
    sat() -> out.

    norm holds the row_norms of w and d the per-row gains (d = 1 when absent);
    sat() reads the current contents of all three. A row is outside the layer
    when d ||w|| > width and gives w / ||w||; inside it gives (w / width) d.
    Width 0 is the discontinuous unit vector, whose only inside rows are zero
    rows: they give +0.0. out, when given, is the caller's array of w's shape
    that receives the result, else the binding owns one.

    The divisions keep their scalar form, w / ||w|| and (w / width) d; a
    reciprocal multiply rounds differently. Each row is divided by its own
    denominator, ||w|| outside the layer and width inside (1 at width 0, whose
    inside rows are then zeroed); without d that denominator is
    fmax(||w||, width), which is exact and also gives width on a nan norm. The
    rows outside the layer are multiplied by one, which is exact. The masks,
    denominators and factors live in buffers bound here, and the constants
    are arrays, which numpy multiplies and compares faster than scalars.
    """
    den = np.empty(norm.shape)
    den_col = den[..., None]
    limit = np.full(norm.shape, width)
    if out is None:
        out = np.empty_like(w)
    if d is None and width > 0.0:
        def sat() -> np.ndarray:
            np.fmax(norm, limit, out=den)
            return np.divide(w, den_col, out=out)

        return sat

    outside = np.empty(norm.shape, dtype=bool)
    outside_col = outside[..., None]
    reach = norm if d is None else np.empty_like(norm)
    # inside the layer a row is divided by the width, or by 1 at width 0
    inside_den = limit if width > 0.0 else np.ones_like(den)
    inside_rows = np.empty(out.shape, dtype=bool)
    factor = np.empty_like(den)
    factor_col = factor[..., None]
    ones = np.ones_like(factor)

    def sat() -> np.ndarray:
        if d is not None:
            np.multiply(d, norm, out=reach)
        np.greater(reach, limit, out=outside)
        den[...] = inside_den
        np.putmask(den, outside, norm)
        np.divide(w, den_col, out=out)
        if width == 0.0:
            np.logical_not(outside_col, out=inside_rows)
            np.putmask(out, inside_rows, 0.0)
        else:
            factor[...] = d
            np.putmask(factor, outside, ones)
            np.multiply(out, factor_col, out=out)
        return out

    return sat


def follower_law(config: ControllerConfig, gains: GainSet, sigma: np.ndarray, d=None,
                 u=None, d_rate=None):
    """Bind the configured law to the caller's buffers: law() -> (u, d_rate).

    Every law is u_i = g1 K sigma_i + g2 sat(K sigma_i; d, width): the static
    laws take g1 = c1, g2 = c2 and no d, the adaptive law g1 = g2 = d = d_i;
    the width is 0 for the discontinuous law and kappa otherwise. sigma is
    the caller's M x n array of relative states (one row per follower) and d
    its adaptive gain vector (adaptive law only); each law() call reads their
    current contents and writes the inputs into u (M x p) and, for the
    adaptive law, the gain rates
    d_i' = tau_i (-phi_i d_i + sigma_i.T Gamma sigma_i + ||K sigma_i||) into
    d_rate (M,). u and d_rate are the caller's arrays when given, else the
    law's own; d_rate is None for the static laws. Every intermediate buffer,
    view and constant is bound here, once. K sigma and its norms are computed
    once per call and shared by the input and the gain rate.
    """
    if config.kind == ADAPTIVE and d is None:
        raise MissingState("adaptive controller needs the adaptive gain vector")
    m, n = sigma.shape
    p = gains.K.shape[0]
    width = 0.0 if config.kind == DISCONTINUOUS_STATIC else config.kappa
    sigma_col = sigma[:, :, None]
    ks_col = np.empty((m, p, 1))
    ks = ks_col[:, :, 0]
    norm = np.empty(m)
    norms = row_norms(ks, out=norm)
    sat = np.empty((m, p))
    if u is None:
        u = np.empty((m, p))
    if config.kind == ADAPTIVE:
        g1 = g2 = d[:, None]
        sigma_row = sigma[:, None, :]
        gamma_sigma = np.empty((m, n, 1))
        quad_col = np.empty((m, 1, 1))
        quad = quad_col[:, 0, 0]
        if d_rate is None:
            d_rate = np.empty(m)
        taus = config.taus
        neg_phis = -config.phis
    else:
        # arrays of the scalar gains: numpy multiplies arrays faster than scalars
        g1, g2 = np.full((m, p), gains.c1), np.full((m, p), gains.c2)
        d = d_rate = None
    saturated = saturate(ks, norm, width, d, out=sat)

    def law():
        np.matmul(gains.K, sigma_col, out=ks_col)
        norms()
        np.multiply(g1, ks, out=u)
        np.multiply(g2, saturated(), out=sat)
        np.add(u, sat, out=u)
        if d is not None:
            np.matmul(gains.Gamma, sigma_col, out=gamma_sigma)
            np.matmul(sigma_row, gamma_sigma, out=quad_col)
            np.multiply(neg_phis, d, out=d_rate)
            np.add(d_rate, quad, out=d_rate)
            np.add(d_rate, norm, out=d_rate)
            np.multiply(taus, d_rate, out=d_rate)
        return u, d_rate

    return law


def leader_input(specs, states: np.ndarray, out=None):
    """Bind the leaders' inputs to the caller's (N-M) x n leader states:
    inputs(t) -> (N-M) x p.

    u_j(t) = feedback_gain_j @ x_j plus its scheduled sinusoids. The feedback
    of every leader is one stacked matmul over the gains stacked here, with
    the same per-row BLAS call as a single leader's gain @ x_j; each sinusoid
    is then added to its channel in spec order. out, when given, is the
    caller's C-contiguous (N-M) x p x 1 array that receives the inputs, else
    the binding owns one; inputs(t) returns its (N-M) x p view.
    """
    gains = np.stack([spec.feedback_gain for spec in specs])
    p = gains.shape[1]
    u_col = np.empty(gains.shape[:2] + (1,)) if out is None else out
    u = u_col[:, :, 0]
    flat = u_col.reshape(-1)
    states_col = states[:, :, None]
    waves = [
        (j * p + s.channel, s.amplitude, s.omega, s.phase)
        for j, spec in enumerate(specs)
        for s in spec.sinusoids
    ]

    def inputs(t: float) -> np.ndarray:
        np.matmul(gains, states_col, out=u_col)
        for i, amplitude, omega, phase in waves:
            flat[i] += amplitude * math.sin(omega * t + phase)
        return u

    return inputs
