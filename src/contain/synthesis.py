"""Gain synthesis and residual-set certificates.

The feedback design solves the Riccati equation a.T X + X a - X b b.T X + q = 0
and takes P = X^-1, which makes A P + P A.T - 2 B B.T = -(P q P + B B.T)
negative definite, the inequality the containment analysis rests on. K is the
common follower gain -B.T P^-1 and Gamma = K.T K drives the adaptive update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import ADAPTIVE, OBSERVER_BASED, ControllerConfig
from .graph import LaplacianPartition
from .matlib import (
    NotControllable,
    as_matrix,
    care_solve,
    is_hurwitz,
    solve_linear,
    sym_eigs,
)


class EmptyGammas(ValueError):
    """No leader input bounds were supplied."""


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
    """(a, c) fails the dual rank test; no observer gain exists."""


@dataclass
class GainSet:
    """Everything the controllers need, plus the certificate scalars.

    P is symmetric positive definite with A P + P A.T - 2 B B.T < 0,
    K = -B.T P^-1, Gamma = K.T K, c1 >= 1/lambda_min(L1), c2 >= max gamma_j,
    alpha is the certified Lyapunov decay rate, and L_obs (observer designs
    only) makes A + L_obs C Hurwitz.
    """

    P: np.ndarray
    K: np.ndarray
    Gamma: np.ndarray
    c1: float
    c2: float
    alpha: float
    L_obs: Optional[np.ndarray] = None


@dataclass
class BoundReport:
    """Residual-set radii and the scalars they were computed from.

    d1_radius_sq bounds the squared containment error for the saturated static
    controller; d2_radius_sq bounds it for the adaptive one, and is None when
    varrho >= alpha or the controller is not adaptive. varrho is set for every
    adaptive controller. envelope_offset is the steady-state level b/alpha of
    the Lyapunov envelope.
    """

    d1_radius_sq: float
    beta: float
    envelope_offset: float
    d2_radius_sq: Optional[float] = None
    varrho: Optional[float] = None


def solve_P(a, b, q=None) -> np.ndarray:
    """Riccati-based P = X^-1 satisfying the design inequality.

    q defaults to the identity. Raises NotControllable when (a, b) cannot be
    stabilized this way.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if q is None:
        q = np.eye(a.shape[0])
    x = care_solve(a, b, q)
    p = solve_linear(x, np.eye(x.shape[0]))
    return 0.5 * (p + p.T)


def compute_K(p, b) -> np.ndarray:
    """Follower feedback gain K = -B.T P^-1."""
    p = as_matrix(p, "p")
    b = as_matrix(b, "b")
    return -solve_linear(p, b).T


def compute_Gamma(k) -> np.ndarray:
    """Adaptive weighting Gamma = K.T K (= P^-1 B B.T P^-1)."""
    k = as_matrix(k, "k")
    return k.T @ k


def coupling_gains(part: LaplacianPartition, gammas, controller: ControllerConfig) -> tuple[float, float]:
    """Static coupling gains c1 = c1_scale / lambda_min(L1), c2 = c2_scale * max gamma.

    The controller's scales are >= 1, so both gains stay at or above their
    certified floors.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise EmptyGammas("need at least one leader input bound")
    if any(g <= 0.0 for g in gammas):
        raise ValueError("leader input bounds must be positive")
    c1 = controller.c1_scale / part.lambda_min_L1
    c2 = controller.c2_scale * max(gammas)
    return c1, c2


def lmi_matrix(a, b, p) -> np.ndarray:
    """The design inequality left-hand side A P + P A.T - 2 B B.T."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    p = as_matrix(p, "p")
    return a @ p + p @ a.T - 2.0 * (b @ b.T)


def compute_alpha(a, b, p) -> float:
    """Certified decay rate alpha = -lambda_max(A P + P A.T - 2 B B.T) / lambda_max(P).

    Raises NonPositiveAlpha when the inequality fails for this P.
    """
    lmi = lmi_matrix(a, b, p)
    lmi_max = float(sym_eigs(lmi)[-1])
    p_max = float(sym_eigs(p)[-1])
    alpha = -lmi_max / p_max
    if alpha <= 0.0:
        raise NonPositiveAlpha(
            f"lambda_max of the design inequality is {lmi_max:.3e} (must be < 0)"
        )
    return alpha


def compute_beta(gammas, lambda_min_l1: float) -> float:
    """Adaptive-gain ceiling beta = max(max gamma_j, 1/lambda_min(L1))."""
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise EmptyGammas("need at least one leader input bound")
    return max(max(gammas), 1.0 / lambda_min_l1)


def compute_varrho(phis, taus) -> float:
    """Leakage rate varrho = max_i phi_i tau_i."""
    phis = np.asarray(phis, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if phis.shape != taus.shape or phis.ndim != 1 or phis.size == 0:
        raise ValueError("phis and taus must be equal-length nonempty vectors")
    return float(np.max(phis * taus))


def solve_observer_L(a, c) -> np.ndarray:
    """Output-injection gain L with A + L C Hurwitz, via the dual Riccati solve."""
    a = as_matrix(a, "a")
    c = as_matrix(c, "c")
    if c.shape[1] != a.shape[0]:
        raise ValueError(f"c has {c.shape[1]} columns, expected {a.shape[0]}")
    try:
        x = care_solve(a.T, c.T, np.eye(a.shape[0]))
    except NotControllable:
        raise NotObservable("(a, c) fails the observability rank test") from None
    l_obs = -x @ c.T
    if not is_hurwitz(a + l_obs @ c):
        raise RuntimeError("observer design failed the Hurwitz check")
    return l_obs


def synthesize(system, part: LaplacianPartition, gammas, controller: ControllerConfig) -> GainSet:
    """One-call synthesis: P, K, Gamma, coupling gains, alpha, and L_obs for
    the observer-based law.

    The Riccati weight and the coupling-gain scales come from the controller.
    """
    p = solve_P(system.A, system.B, controller.are_weight)
    k = compute_K(p, system.B)
    gamma_mat = compute_Gamma(k)
    c1, c2 = coupling_gains(part, gammas, controller)
    alpha = compute_alpha(system.A, system.B, p)
    l_obs = solve_observer_L(system.A, system.C) if controller.kind == OBSERVER_BASED else None
    return GainSet(P=p, K=k, Gamma=gamma_mat, c1=c1, c2=c2, alpha=alpha, L_obs=l_obs)


def compute_bound_report(
    gains: GainSet, part: LaplacianPartition, controller: ControllerConfig, gammas
) -> BoundReport:
    """Residual-set certificate of a synthesized design under its controller.

    With M followers, kappa the boundary-layer width (0 for the ideal
    discontinuous law) and lambda_max(P) taken once:

        D1 = 2 lambda_max(P) M kappa gamma_max / (alpha lambda_min(L1))
        D2 = lambda_max(P) / (lambda_min(L1) (alpha - varrho)) *
             (sum_i beta^2 phi_i + M kappa / 2)

    D2 exists only for an adaptive controller with varrho < alpha. Both radii
    assume every leader input stays within its bound gamma_j.
    """
    lam = part.lambda_min_L1
    gammas = [float(g) for g in gammas]
    beta = compute_beta(gammas, lam)
    gamma_max = max(gammas)
    if gains.alpha <= 0.0 or min(gammas) <= 0.0:
        raise ValueError("alpha and the leader input bounds must be positive")
    n_followers = part.L1.shape[0]
    kappa = 0.0 if controller.kappa is None else float(controller.kappa)
    p_max = float(sym_eigs(gains.P)[-1])
    d1 = 2.0 * p_max * n_followers * kappa * gamma_max / (gains.alpha * lam)
    offset = n_followers * kappa * gamma_max / gains.alpha
    d2 = varrho = None
    if controller.kind == ADAPTIVE:
        varrho = compute_varrho(controller.phis, controller.taus)
        if varrho < gains.alpha:
            total = float(beta * beta * np.sum(controller.phis)) + 0.5 * n_followers * kappa
            d2 = p_max / (lam * (gains.alpha - varrho)) * total
    return BoundReport(
        d1_radius_sq=d1,
        beta=beta,
        envelope_offset=offset,
        d2_radius_sq=d2,
        varrho=varrho,
    )


__all__ = [
    "EmptyGammas",
    "NonPositiveAlpha",
    "VarrhoTooLarge",
    "NotObservable",
    "GainSet",
    "BoundReport",
    "solve_P",
    "compute_K",
    "compute_Gamma",
    "coupling_gains",
    "lmi_matrix",
    "compute_alpha",
    "compute_beta",
    "compute_varrho",
    "solve_observer_L",
    "synthesize",
    "compute_bound_report",
]
