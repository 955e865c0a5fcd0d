import math
from dataclasses import replace

import numpy as np
import pytest

from contain.control import ControllerConfig, LinearSystem
from contain.graph import build_topology, partition_laplacian
from contain.matlib import frobenius, is_hurwitz, sym_eigs
from contain.synthesis import (
    EmptyGammas,
    VarrhoTooLarge,
    compute_alpha,
    compute_beta,
    compute_bound_report,
    compute_Gamma,
    compute_K,
    compute_varrho,
    coupling_gains,
    lmi_matrix,
    solve_observer_L,
    solve_P,
    synthesize,
)

A2 = np.array([[0.0, 1.0], [-1.0, 1.0]])
B2 = np.array([[0.0], [1.0]])
STATIC = ControllerConfig(kind="continuous_static", kappa=0.1)


def test_solve_P_scalar_oracle():
    # a=-1, b=1: Riccati gives x = sqrt(2)-1, so P = 1/x = sqrt(2)+1
    p = solve_P([[-1.0]], [[1.0]])
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


def test_compute_K_frozen_oscillator():
    p = solve_P(A2, B2)
    k = compute_K(p, B2)
    assert np.allclose(k, [[-0.41421356, -2.68179283]], atol=1e-7)
    # K = -B' P^-1 by definition
    assert np.allclose(k @ p, -B2.T, atol=1e-9)


def test_compute_alpha_scalar_oracle():
    # a=-1, b=1: P q P + b b' = x^-2 + 1 = (sqrt(2)+1)^2 + 1, lambda_max(P)
    # = sqrt(2)+1, so alpha = ((sqrt(2)+1)^2+1)/(sqrt(2)+1) = 2 sqrt(2)
    p = solve_P([[-1.0]], [[1.0]])
    alpha = compute_alpha([[-1.0]], [[1.0]], p)
    assert abs(alpha - 2.0 * math.sqrt(2.0)) < 1e-9


def test_compute_alpha_frozen_oscillator():
    p = solve_P(A2, B2)
    alpha = compute_alpha(A2, B2, p)
    assert abs(alpha - 0.22958515382686848) < 1e-8
    assert alpha > 0.0


def test_gamma_is_gram_of_K():
    k = np.array([[-1.0, -2.5]])
    g = compute_Gamma(k)
    assert np.allclose(g, k.T @ k)
    assert np.allclose(g, g.T)


def test_coupling_gains_defaults_and_floors():
    topo = build_topology([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
    part = partition_laplacian(topo)
    plain = ControllerConfig(kind="continuous_static", kappa=0.1)
    c1, c2 = coupling_gains(part, [2.0, 5.0], plain)
    assert abs(c1 - 1.0 / part.lambda_min_L1) < 1e-12
    assert c2 == 5.0
    scaled = ControllerConfig(kind="continuous_static", kappa=0.1, c1_scale=2.0, c2_scale=1.5)
    c1b, c2b = coupling_gains(part, [2.0, 5.0], scaled)
    assert abs(c1b - 2.0 * c1) < 1e-12
    assert c2b == 7.5
    with pytest.raises(EmptyGammas):
        coupling_gains(part, [], plain)
    # the floors hold because the controller rejects scales below 1
    for scales in (dict(c1_scale=0.5), dict(c2_scale=0.999), dict(c1_scale=math.nan),
                   dict(c2_scale=math.inf)):
        with pytest.raises(ValueError, match="must be a finite number >= 1"):
            ControllerConfig(kind="continuous_static", kappa=0.1, **scales)


def test_beta_picks_the_larger_scale():
    assert compute_beta([3.0, 6.0], 0.5) == 6.0
    assert compute_beta([0.1], 0.25) == 4.0


def test_varrho_is_max_product():
    assert compute_varrho([0.005] * 3, [5.0] * 3) == pytest.approx(0.025)
    assert compute_varrho([0.1, 0.001], [1.0, 30.0]) == pytest.approx(0.1)


def three_agent_design():
    topo = build_topology([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
    part = partition_laplacian(topo)
    system = LinearSystem(A=A2, B=B2, C=np.eye(2))
    return part, synthesize(system, part, [3.0], STATIC)


def adaptive_config(phi, tau):
    return ControllerConfig(kind="adaptive", kappa=0.1, taus=[tau] * 2, phis=[phi] * 2, d0=[0.0] * 2)


def test_bound_D1_positive_and_monotone_in_kappa():
    part, gains = three_agent_design()
    p_max = float(np.linalg.eigvalsh(gains.P)[-1])
    radii = []
    for kappa in (0.05, 0.1):
        cfg = ControllerConfig(kind="continuous_static", kappa=kappa)
        radii.append(compute_bound_report(gains, part, cfg, [3.0]).d1_radius_sq)
        # D1 = 2 lambda_max(P) M kappa gamma_max / (alpha lambda_min(L1)), M = 2
        assert radii[-1] == pytest.approx(
            2.0 * p_max * 2 * kappa * 3.0 / (gains.alpha * part.lambda_min_L1)
        )
    assert 0.0 < radii[0] < radii[1]
    # the ideal discontinuous law has no boundary layer, so D1 = 0
    disc = compute_bound_report(gains, part, ControllerConfig(kind="discontinuous_static"), [3.0])
    assert disc.d1_radius_sq == 0.0


def test_bound_D2_requires_slow_leakage():
    part, gains = three_agent_design()
    rep = compute_bound_report(gains, part, adaptive_config(0.005, 5.0), [3.0])
    assert rep.varrho == pytest.approx(0.025)
    assert rep.d2_radius_sq > 0.0
    # varrho >= alpha: no adaptive residual set, but varrho is still reported
    fast = compute_bound_report(gains, part, adaptive_config(1.0, 5.0), [3.0])
    assert fast.varrho == pytest.approx(5.0) and fast.varrho >= gains.alpha
    assert fast.d2_radius_sq is None
    assert fast.d1_radius_sq == rep.d1_radius_sq
    assert str(VarrhoTooLarge(fast.varrho, gains.alpha)).startswith("varrho = 5 must be below alpha")


def test_observer_gain_stabilizes_estimator():
    l_obs = solve_observer_L(A2, np.eye(2))
    assert is_hurwitz(A2 + l_obs @ np.eye(2))


def test_synthesize_end_to_end():
    topo = build_topology([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
    part = partition_laplacian(topo)
    system = LinearSystem(A=A2, B=B2, C=np.eye(2))
    gains = synthesize(system, part, [3.0], STATIC)
    assert gains.alpha > 0.0
    assert gains.c1 >= 1.0 / part.lambda_min_L1 - 1e-12
    assert gains.c2 == 3.0
    assert np.allclose(gains.Gamma, gains.K.T @ gains.K)
    assert np.allclose(gains.K @ gains.P, -B2.T, atol=1e-9)
    assert gains.L_obs is None
    with_obs = synthesize(system, part, [3.0], ControllerConfig(kind="observer_based", kappa=0.1))
    assert with_obs.L_obs is not None
    assert is_hurwitz(A2 + with_obs.L_obs @ np.eye(2))


def test_synthesize_with_custom_weight_changes_gain():
    topo = build_topology([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
    part = partition_laplacian(topo)
    system = LinearSystem(A=A2, B=B2, C=np.eye(2))
    plain = synthesize(system, part, [1.0], STATIC)
    heavy = synthesize(system, part, [1.0], replace(STATIC, are_weight=np.diag([4.0, 1.0])))
    assert frobenius(heavy.K) > frobenius(plain.K)
    lmi = lmi_matrix(A2, B2, heavy.P)
    assert sym_eigs(lmi)[-1] < -1e-6


def test_bound_report_fields():
    part, gains = three_agent_design()
    rep = compute_bound_report(gains, part, ControllerConfig(kind="continuous_static", kappa=0.1), [3.0])
    assert rep.d1_radius_sq > 0.0
    assert rep.envelope_offset > 0.0
    assert rep.d2_radius_sq is None
    assert rep.varrho is None
    rep2 = compute_bound_report(gains, part, adaptive_config(0.01, 2.0), [3.0])
    assert rep2.varrho == pytest.approx(0.02)
    assert rep2.d2_radius_sq > 0.0
