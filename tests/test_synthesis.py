import math
from dataclasses import replace

import numpy as np
import pytest

from contain.control import ControllerConfig, LeaderInputSpec, LinearSystem
from contain.graph import build_topology, partition_laplacian
from contain.matlib import NonFinite, frobenius, is_hurwitz, sym_eigs
from contain.sim import Scenario
from contain.synthesis import (
    VarrhoTooLarge,
    compute_alpha,
    compute_bound_report,
    compute_Gamma,
    lmi_matrix,
    solve_observer_L,
    solve_P,
    synthesize,
)

A2 = np.array([[0.0, 1.0], [-1.0, 1.0]])
B2 = np.array([[0.0], [1.0]])
SYSTEM = LinearSystem(A=A2, B=B2, C=np.eye(2))
STATIC = ControllerConfig(kind="continuous_static", kappa=0.1)


def design(cfg=STATIC, gammas=(3.0,)):
    """Scenario, partition and gains of two tied followers that both hear
    leader 3; follower 2 also hears every further leader, one per gamma."""
    n = 2 + len(gammas)
    adj = np.zeros((n, n))
    adj[0, 1] = adj[1, 0] = adj[0, 2] = 1.0
    adj[1, 2:] = 1.0
    leaders = tuple(LeaderInputSpec(np.zeros((1, 2)), (), g) for g in gammas)
    scn = Scenario(system=SYSTEM, topology=build_topology(adj), controller=cfg,
                   leader_specs=leaders, x0=np.zeros((n, 2)),
                   v0=np.zeros((n, 2)) if cfg.kind == "observer_based" else None)
    part = partition_laplacian(scn.topology)
    return scn, part, synthesize(scn, part)


def adaptive_config(phi, tau):
    return ControllerConfig(kind="adaptive", kappa=0.1, taus=[tau] * 2, phis=[phi] * 2, d0=[0.0] * 2)


def test_solve_P_scalar_oracle():
    # a=-1, b=1: Riccati gives x = sqrt(2)-1, so P = 1/x = sqrt(2)+1
    p = solve_P(np.array([[-1.0]]), np.array([[1.0]]))
    assert abs(float(p[0, 0]) - (math.sqrt(2.0) + 1.0)) < 1e-9


def test_solve_P_satisfies_lmi():
    p = solve_P(A2, B2)
    lmi = lmi_matrix(A2, B2, p)
    assert sym_eigs(lmi)[-1] < -1e-6
    assert sym_eigs(p)[0] > 0.0


def test_solve_P_frozen_oscillator():
    p = solve_P(A2, B2)
    expect = np.array([
        [0.30171034, -0.04660036],
        [-0.04660036, 0.38008249],
    ])
    assert np.allclose(p, expect, atol=1e-7)


def test_synthesized_K_frozen_oscillator():
    gains = design()[2]
    assert np.allclose(gains.K, [[-0.41421356, -2.68179283]], atol=1e-7)
    # K = -B' P^-1 by definition
    assert np.allclose(gains.K @ gains.P, -B2.T, atol=1e-9)


def test_compute_alpha_scalar_oracle():
    # a=-1, b=1: P q P + b b' = x^-2 + 1 = (sqrt(2)+1)^2 + 1, lambda_max(P)
    # = sqrt(2)+1, so alpha = ((sqrt(2)+1)^2+1)/(sqrt(2)+1) = 2 sqrt(2)
    a, b = np.array([[-1.0]]), np.array([[1.0]])
    p = solve_P(a, b)
    alpha, lmi_max, p_max = compute_alpha(a, b, p)
    assert abs(alpha - 2.0 * math.sqrt(2.0)) < 1e-9
    # the eigenvalues it returns are the ones alpha was computed from
    assert p_max == pytest.approx(math.sqrt(2.0) + 1.0)
    assert alpha == -lmi_max / p_max


def test_compute_alpha_frozen_oscillator():
    p = solve_P(A2, B2)
    alpha, _, _ = compute_alpha(A2, B2, p)
    assert abs(alpha - 0.22958515382686848) < 1e-8
    assert alpha > 0.0


def test_gamma_is_gram_of_K():
    k = np.array([[-1.0, -2.5]])
    g = compute_Gamma(k)
    assert np.allclose(g, k.T @ k)
    assert np.allclose(g, g.T)


def test_coupling_gain_defaults_and_floors():
    _scn, part, plain = design(gammas=(2.0, 5.0))
    assert abs(plain.c1 - 1.0 / part.lambda_min_L1) < 1e-12
    assert plain.c2 == 5.0
    _scn, _part, scaled = design(replace(STATIC, c1_scale=2.0, c2_scale=1.5), gammas=(2.0, 5.0))
    assert abs(scaled.c1 - 2.0 * plain.c1) < 1e-12
    assert scaled.c2 == 7.5
    # the floors hold because the controller rejects scales below 1
    for scales in (dict(c1_scale=0.5), dict(c2_scale=0.999), dict(c1_scale=math.nan),
                   dict(c2_scale=math.inf)):
        with pytest.raises(ValueError, match="must be a finite number >= 1"):
            ControllerConfig(kind="continuous_static", kappa=0.1, **scales)


def test_beta_picks_the_larger_scale():
    scn, part, gains = design(gammas=(3.0, 6.0))
    assert 1.0 / part.lambda_min_L1 < 6.0
    assert compute_bound_report(scn, part, gains).beta == 6.0
    scn, part, gains = design(gammas=(0.1,))
    assert compute_bound_report(scn, part, gains).beta == 1.0 / part.lambda_min_L1


def test_varrho_is_max_product():
    scn, part, gains = design(adaptive_config(0.005, 5.0))
    assert compute_bound_report(scn, part, gains).varrho == pytest.approx(0.025)
    mixed = ControllerConfig(kind="adaptive", kappa=0.1, taus=[1.0, 30.0], phis=[0.1, 0.001],
                             d0=[0.0, 0.0])
    scn, part, gains = design(mixed)
    assert compute_bound_report(scn, part, gains).varrho == pytest.approx(0.1)


def test_bound_D1_positive_and_monotone_in_kappa():
    radii = []
    for kappa in (0.05, 0.1):
        scn, part, gains = design(ControllerConfig(kind="continuous_static", kappa=kappa))
        p_max = float(np.linalg.eigvalsh(gains.P)[-1])
        radii.append(compute_bound_report(scn, part, gains).d1_radius_sq)
        # D1 = 2 lambda_max(P) M kappa gamma_max / (alpha lambda_min(L1)), M = 2
        assert radii[-1] == pytest.approx(
            2.0 * p_max * 2 * kappa * 3.0 / (gains.alpha * part.lambda_min_L1)
        )
    assert 0.0 < radii[0] < radii[1]
    # the ideal discontinuous law has no boundary layer, so D1 = 0
    disc = compute_bound_report(*design(ControllerConfig(kind="discontinuous_static")))
    assert disc.d1_radius_sq == 0.0


def test_bound_D2_requires_slow_leakage():
    rep = compute_bound_report(*design(adaptive_config(0.005, 5.0)))
    assert rep.varrho == pytest.approx(0.025)
    assert rep.d2_radius_sq > 0.0
    # varrho >= alpha: no adaptive residual set, but varrho is still reported
    scn, part, gains = design(adaptive_config(1.0, 5.0))
    fast = compute_bound_report(scn, part, gains)
    assert fast.varrho == pytest.approx(5.0) and fast.varrho >= gains.alpha
    assert fast.d2_radius_sq is None
    assert fast.d1_radius_sq == rep.d1_radius_sq
    assert str(VarrhoTooLarge(fast.varrho, gains.alpha)).startswith("varrho = 5 must be below alpha")


def test_observer_gain_stabilizes_estimator():
    l_obs = solve_observer_L(A2, np.eye(2))
    assert is_hurwitz(A2 + l_obs @ np.eye(2))


def test_synthesize_end_to_end():
    _scn, part, gains = design()
    assert gains.alpha > 0.0
    assert gains.c1 >= 1.0 / part.lambda_min_L1 - 1e-12
    assert gains.c2 == 3.0
    assert np.allclose(gains.Gamma, gains.K.T @ gains.K)
    assert np.allclose(gains.K @ gains.P, -B2.T, atol=1e-9)
    assert gains.p_lambda_max == sym_eigs(gains.P)[-1]
    assert gains.lmi_lambda_max == sym_eigs(lmi_matrix(A2, B2, gains.P))[-1]
    assert gains.L_obs is None
    _scn, _part, with_obs = design(ControllerConfig(kind="observer_based", kappa=0.1))
    assert with_obs.L_obs is not None
    assert is_hurwitz(A2 + with_obs.L_obs @ np.eye(2))


def test_synthesize_with_custom_weight_changes_gain():
    _scn, _part, plain = design(gammas=(1.0,))
    _scn, _part, heavy = design(replace(STATIC, are_weight=np.diag([4.0, 1.0])), gammas=(1.0,))
    assert frobenius(heavy.K) > frobenius(plain.K)
    lmi = lmi_matrix(A2, B2, heavy.P)
    assert sym_eigs(lmi)[-1] < -1e-6


def test_bound_report_fields():
    rep = compute_bound_report(*design())
    assert rep.d1_radius_sq > 0.0
    assert rep.envelope_offset > 0.0
    assert rep.d2_radius_sq is None
    assert rep.varrho is None
    rep2 = compute_bound_report(*design(adaptive_config(0.01, 2.0)))
    assert rep2.varrho == pytest.approx(0.02)
    assert rep2.d2_radius_sq > 0.0


def test_overflowing_design_certifies_nothing():
    # every input is finite, but the gain or the radius computed from it is not
    with pytest.raises(NonFinite, match="c2 overflowed to inf"):
        design(replace(STATIC, c2_scale=1e308))
    huge_kappa = replace(STATIC, kappa=1e308)
    with pytest.raises(NonFinite, match=r"D1 radius\^2 overflowed to inf"):
        compute_bound_report(*design(huge_kappa))
    with pytest.raises(NonFinite, match=r"D2 radius\^2 overflowed to inf"):
        compute_bound_report(*design(replace(adaptive_config(0.005, 5.0), kappa=1e-3),
                                     gammas=(1e300,)))
