"""Gain synthesis and residual-set certificates.

The feedback design solves the Riccati equation a.T X + X a - X b b.T X + q = 0
and takes P = X^-1, which makes A P + P A.T - 2 B B.T = -(P q P + B B.T)
negative definite, the inequality the containment analysis rests on. K is the
common follower gain -B.T P^-1 and Gamma = K.T K drives the adaptive update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .control import ADAPTIVE, CONTINUOUS_STATIC, DISCONTINUOUS_STATIC, OBSERVER_BASED
from .graph import LaplacianPartition
from .matlib import NoConvergence, NonFinite, NotControllable, Singular
from .matlib import care_solve, solve_linear, sym_eigs
if TYPE_CHECKING:
    from .sim import Scenario


class NonPositiveAlpha(RuntimeError):
    """The decay-rate certificate came out non-positive; P does not certify."""


class VarrhoTooLarge(ValueError):
    """varrho = max(phi_i tau_i) is not below alpha, so no adaptive residual set."""

    def __init__(self, varrho: float, alpha: float):
        super().__init__(
            f"varrho = {varrho:.6g} must be below alpha = {alpha:.6g}; "
            "reduce phi_i tau_i or redesign P"
        )


class NotObservable(ValueError):
    """(A, C) fails the dual rank test; no observer gain exists."""


@dataclass
class GainSet:
    """Everything the controllers need, plus the certificate scalars.

    P is symmetric positive definite with A P + P A.T - 2 B B.T < 0,
    K = -B.T P^-1, Gamma = K.T K, c1 >= 1/lambda_min(L1), c2 >= max gamma_j,
    alpha is the certified Lyapunov decay rate, p_lambda_max and
    lmi_lambda_max are lambda_max(P) and lambda_max(A P + P A.T - 2 B B.T)
    as compute_alpha found them, and L_obs (observer designs only) makes
    A + L_obs C Hurwitz.
    """

    P: np.ndarray
    K: np.ndarray
    Gamma: np.ndarray
    c1: float
    c2: float
    alpha: float
    p_lambda_max: float
    lmi_lambda_max: float
    L_obs: Optional[np.ndarray] = None


@dataclass
class BoundReport:
    """Residual-set radii, the scalars they were computed from, and the verdict's gate.

    d1_radius_sq bounds the squared containment error for the saturated static
    controller; d2_radius_sq bounds it for the adaptive one, and is None when
    varrho >= alpha or the controller is not adaptive. varrho is set for every
    adaptive controller. envelope_offset is the steady-state level b/alpha of
    the Lyapunov envelope.

    gate names the radius whose tail test decides the verdict: "d1" for the
    continuous static law, "d2" for the adaptive law with varrho < alpha. With
    no gate, reason says why no radius certifies the law (the discontinuous
    law's D1 = 0; no D2 when varrho >= alpha). The observer-based law has
    neither: it asserts no radius yet, so its run is certified unless a leader
    bound breaks, as perfbench/reference.json records the default observer run.
    """

    d1_radius_sq: float
    beta: float
    envelope_offset: float
    d2_radius_sq: Optional[float] = None
    varrho: Optional[float] = None
    gate: Optional[str] = None
    reason: Optional[str] = None

    def gate_met(self, tail_sup_xi_sq: float) -> Optional[bool]:
        """Whether a tail sup |xi|^2 lies inside the gating radius; None without a gate."""
        radius = {"d1": self.d1_radius_sq, "d2": self.d2_radius_sq}.get(self.gate)
        return None if radius is None else tail_sup_xi_sq <= radius


def solve_P(a, b, q=None) -> np.ndarray:
    """Riccati-based P = X^-1 satisfying the design inequality.

    q defaults to the identity. Raises NotControllable when (a, b) cannot be
    stabilized this way.
    """
    if q is None:
        q = np.eye(a.shape[0])
    x = care_solve(a, b, q)
    p = solve_linear(x, np.eye(x.shape[0]))
    return 0.5 * (p + p.T)


def compute_Gamma(k) -> np.ndarray:
    """Adaptive weighting Gamma = K.T K (= P^-1 B B.T P^-1)."""
    return k.T @ k


def lmi_matrix(a, b, p) -> np.ndarray:
    """The design inequality left-hand side A P + P A.T - 2 B B.T."""
    return a @ p + p @ a.T - 2.0 * (b @ b.T)


def compute_alpha(a, b, p) -> tuple[float, float, float]:
    """Certified decay rate alpha = -lambda_max(A P + P A.T - 2 B B.T) / lambda_max(P).

    Returns (alpha, lambda_max of the inequality, lambda_max(P)). Raises
    NonPositiveAlpha when the inequality fails for this P.
    """
    lmi_max = float(sym_eigs(lmi_matrix(a, b, p))[-1])
    p_max = float(sym_eigs(p)[-1])
    alpha = -lmi_max / p_max
    if alpha <= 0.0:
        raise NonPositiveAlpha(
            f"lambda_max of the design inequality is {lmi_max:.3e} (must be < 0)"
        )
    return alpha, lmi_max, p_max


def solve_observer_L(a, c) -> np.ndarray:
    """Output-injection gain L = -X C.T from the dual Riccati solve, whose closed
    loop A.T - C.T C X care_solve returns only Hurwitz: so is A + L C, its transpose."""
    try:
        x = care_solve(a.T, c.T, np.eye(a.shape[0]))
    except NotControllable:
        raise NotObservable("(A, C) fails the observability rank test") from None
    return -x @ c.T


def _design(keys: str, solve, *args) -> np.ndarray:
    """solve(*args), a kernel failure of the same type naming the scenario keys it read."""
    try:
        return solve(*args)
    except (Singular, NoConvergence, NonFinite, NotControllable, NotObservable) as exc:
        raise type(exc)(f"{exc}; {keys}") from exc


def _finite(name: str, value):
    """value, or NonFinite naming the design quantity that overflowed."""
    if value is not None and not math.isfinite(value):
        raise NonFinite(f"{name} overflowed to {value!r}")
    return value


def synthesize(scn: Scenario, part: LaplacianPartition) -> GainSet:
    """One-call synthesis: P, K = -B.T P^-1, Gamma, the coupling gains
    c1 = c1_scale / lambda_min(L1) and c2 = c2_scale * max gamma_j, alpha, and
    L_obs for the observer-based law.

    The Riccati weight and the coupling-gain scales come from the controller.
    """
    system, cfg = scn.system, scn.controller
    p = _design("controller design from [system] A, B and [controller] are_weight",
                solve_P, system.A, system.B, cfg.are_weight)
    k = -solve_linear(p, system.B).T
    alpha, lmi_max, p_max = compute_alpha(system.A, system.B, p)
    return GainSet(
        P=p,
        K=k,
        Gamma=compute_Gamma(k),
        c1=_finite("c1", cfg.c1_scale / part.lambda_min_L1),
        c2=_finite("c2", cfg.c2_scale * max(scn.gammas)),
        alpha=alpha,
        p_lambda_max=p_max,
        lmi_lambda_max=lmi_max,
        L_obs=(_design("observer design from [system] A, C", solve_observer_L, system.A, system.C)
               if cfg.kind == OBSERVER_BASED else None),
    )


def compute_bound_report(scn: Scenario, part: LaplacianPartition, gains: GainSet) -> BoundReport:
    """Residual-set certificate of a synthesized design under its controller.

    With M followers, kappa the controller's boundary-layer width
    (ControllerConfig.width: 0 for the ideal discontinuous law),
    beta = max(max gamma_j, 1/lambda_min(L1)) and varrho = max_i phi_i tau_i:

        D1 = 2 lambda_max(P) M kappa gamma_max / (alpha lambda_min(L1))
        D2 = lambda_max(P) / (lambda_min(L1) (alpha - varrho)) *
             (sum_i beta^2 phi_i + M kappa / 2)

    D2 exists only for an adaptive controller with varrho < alpha. Both radii
    assume every leader input stays within its bound gamma_j. A radius or
    envelope offset that overflows raises NonFinite.
    """
    cfg = scn.controller
    lam = part.lambda_min_L1
    gamma_max = max(scn.gammas)
    beta = max(gamma_max, 1.0 / lam)
    n_followers = part.L1.shape[0]
    kappa = cfg.width
    p_max = gains.p_lambda_max
    d1 = 2.0 * p_max * n_followers * kappa * gamma_max / (gains.alpha * lam)
    offset = n_followers * kappa * gamma_max / gains.alpha
    d2 = varrho = gate = reason = None
    if cfg.kind == CONTINUOUS_STATIC:
        gate = "d1"
    elif cfg.kind == DISCONTINUOUS_STATIC:
        reason = "the discontinuous law asserts no finite radius (D1 = 0 at width 0)"
    elif cfg.kind == ADAPTIVE:
        varrho = float(np.max(cfg.phis * cfg.taus))
        if varrho < gains.alpha:
            total = float(beta * beta * np.sum(cfg.phis)) + 0.5 * n_followers * kappa
            d2 = p_max / (lam * (gains.alpha - varrho)) * total
            gate = "d2"
        else:
            reason = str(VarrhoTooLarge(varrho, gains.alpha))
    return BoundReport(
        d1_radius_sq=_finite("D1 radius^2", d1),
        beta=beta,
        envelope_offset=_finite("envelope offset b/alpha", offset),
        d2_radius_sq=_finite("D2 radius^2", d2),
        varrho=varrho,
        gate=gate,
        reason=reason,
    )


__all__ = [
    "NonPositiveAlpha",
    "VarrhoTooLarge",
    "NotObservable",
    "GainSet",
    "BoundReport",
    "solve_P",
    "compute_Gamma",
    "lmi_matrix",
    "compute_alpha",
    "solve_observer_L",
    "synthesize",
    "compute_bound_report",
]
