import math
from dataclasses import replace

import numpy as np
import pytest

from contain.control import (
    ControllerConfig,
    LeaderInputSpec,
    LinearSystem,
    Sinusoid,
    leader_input,
    row_norms,
    saturate,
)
from contain.graph import build_topology
from contain.sim import Scenario, make_evaluator
from contain.synthesis import GainSet


def make_gains(k_row=(-1.0, -2.0), c1=1.0, c2=2.0):
    k = np.array([list(k_row)])
    return GainSet(P=np.eye(len(k_row)), K=k, Gamma=k.T @ k, c1=c1, c2=c2, alpha=1.0,
                   p_lambda_max=1.0, lmi_lambda_max=-1.0)


# a 3-follower chain hanging off one leader
CHAIN = build_topology([
    [0, 1, 0, 1],
    [1, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 0],
])


def sat(w, width, d=None):
    w = np.array(w, dtype=float)
    return saturate(w, row_norms(w)(), width, None if d is None else np.array(d))()


def test_ghat_is_unit_or_zero():
    # width 0: the discontinuous unit vector, +0.0 on a zero row
    assert np.allclose(sat([3.0, 4.0], 0.0), [0.6, 0.8])
    zero = sat([-0.0, 0.0], 0.0)
    assert np.array_equal(zero, [0.0, 0.0])
    assert not np.signbit(zero).any()


def test_gsat_continuous_at_layer_boundary():
    kappa = 0.5
    outside = sat([0.5 + 1e-12, 0.0], kappa)
    inside = sat([0.5 - 1e-12, 0.0], kappa)
    assert np.allclose(outside, inside, atol=1e-9)
    assert np.allclose(sat([0.1, 0.0], kappa), [0.2, 0.0])
    assert np.allclose(sat([5.0, 0.0], kappa), [1.0, 0.0])


def test_rsat_scales_with_gain():
    kappa = 0.5
    w = [0.1, 0.0]
    # d ||w|| = 0.2 < kappa: linear branch (w/kappa) d
    assert np.allclose(sat(w, kappa, 2.0), [0.4, 0.0])
    # d ||w|| = 10 > kappa: unit branch
    assert np.allclose(sat(w, kappa, 100.0), [1.0, 0.0])
    assert np.allclose(sat([0.0, 0.0], kappa, 3.0), 0.0)
    # rows are independent: one stacked call equals the per-row calls
    rows = np.array([[0.1, 0.0], [0.1, 0.0], [3.0, 4.0]])
    d = np.array([2.0, 100.0, 0.0])
    stacked = saturate(rows, row_norms(rows)(), kappa, d)()
    assert np.array_equal(stacked, [sat(r, kappa, g) for r, g in zip(rows, d)])


def evaluate_on_chain(cfg, gains, x, d=None, v=None, l_obs=None):
    """One evaluation of the closed loop on CHAIN at t = 0: (ydot, u_f, u_l).

    x holds the four agents' states (followers first); the leader holds still
    and every agent's drift is zero, so ydot shows the law's terms directly.
    """
    n = x.shape[1]
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    system = LinearSystem(A=np.zeros((n, n)), B=b, C=np.eye(n))
    hold = LeaderInputSpec(feedback_gain=np.zeros((1, n)), sinusoids=(), gamma=1.0)
    scn = Scenario(system=system, topology=CHAIN, controller=cfg, leader_specs=(hold,),
                   x0=x, v0=v)
    if l_obs is not None:
        gains = replace(gains, L_obs=l_obs)
    pieces = [x.ravel()] + [np.asarray(a, dtype=float).ravel() for a in (d, v) if a is not None]
    return make_evaluator(scn, gains)(0.0, np.concatenate(pieces))


def test_relative_state_hand_computed():
    # follower 1 hears follower 2 and the leader; with K = 1 and c2 = 0 the
    # continuous law hands back sigma itself
    gains = make_gains(k_row=(1.0,), c1=1.0, c2=0.0)
    cfg = ControllerConfig(kind="continuous_static", kappa=0.1)
    x = np.array([[1.0], [2.0], [3.0], [10.0]])
    _, u_f, _ = evaluate_on_chain(cfg, gains, x)
    assert u_f[0, 0] == 2 * 1.0 - 2.0 - 10.0
    assert u_f[1, 0] == 2 * 2.0 - 1.0 - 3.0
    assert u_f[2, 0] == 1 * 3.0 - 2.0
    # the observer-based law measures observer states, not true states
    obs = ControllerConfig(kind="observer_based", kappa=0.1)
    _, u_obs, _ = evaluate_on_chain(obs, gains, np.zeros((4, 1)), v=x, l_obs=np.zeros((1, 1)))
    assert np.array_equal(u_obs, u_f)


def test_u_follower_continuous_matches_formula():
    gains = make_gains()
    cfg = ControllerConfig(kind="continuous_static", kappa=0.1)
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    _, u_f, _ = evaluate_on_chain(cfg, gains, x)
    sigma = 2 * x[0] - x[1] - x[3]
    ks = gains.K @ sigma
    expect = gains.c1 * ks + gains.c2 * ks / max(np.linalg.norm(ks), 0.1)
    assert np.allclose(u_f[0], expect)
    # inside the layer the saturation is linear: ks / kappa
    _, u_f, _ = evaluate_on_chain(cfg, gains, 0.01 * x)
    ks = 0.01 * ks
    assert np.allclose(u_f[0], gains.c1 * ks + gains.c2 * ks / 0.1)


def test_u_follower_discontinuous_uses_unit_vector():
    gains = make_gains()
    cfg = ControllerConfig(kind="discontinuous_static")
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    _, u_f, _ = evaluate_on_chain(cfg, gains, x)
    sigma = 2 * x[0] - x[1] - x[3]
    ks = gains.K @ sigma
    expect = gains.c1 * ks + gains.c2 * ks / np.linalg.norm(ks)
    assert np.allclose(u_f[0], expect)
    # follower 2 only hears the idle follower 1: sigma = 0 gives no input
    assert np.array_equal(u_f[2], [0.0])


def test_u_follower_adaptive_scales_both_terms():
    gains = make_gains()
    cfg = ControllerConfig(
        kind="adaptive", kappa=0.1,
        taus=[2.0, 2.0, 2.0], phis=[0.1, 0.1, 0.1], d0=[0.0, 0.0, 0.0],
    )
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    _, u_f, _ = evaluate_on_chain(cfg, gains, x, d=[0.5, 0.0, 0.0])
    sigma = 2 * x[0] - x[1] - x[3]
    ks = gains.K @ sigma
    # d ||K sigma|| = 1 > kappa: unit branch
    expect = 0.5 * ks + 0.5 * ks / np.linalg.norm(ks)
    assert np.allclose(u_f[0], expect)
    # d ||K sigma|| = 0.05 < kappa: linear branch (K sigma / kappa) d
    _, u_in, _ = evaluate_on_chain(cfg, gains, 0.05 * x, d=[0.5, 0.0, 0.0])
    ks = 0.05 * ks
    assert np.allclose(u_in[0], 0.5 * ks + 0.5 * (ks / 0.1) * 0.5)
    # zero gain means zero input regardless of the error
    assert np.allclose(u_f[1], 0.0)


def test_adaptive_gain_rate_formula():
    gains = make_gains()
    cfg = ControllerConfig(
        kind="adaptive", kappa=0.1,
        taus=[2.0, 1.0, 1.0], phis=[0.25, 0.0, 0.0], d0=[0.0] * 3,
    )
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    ydot, _, _ = evaluate_on_chain(cfg, gains, x, d=[2.0, 0.0, 0.0])
    sigma0 = 2 * x[0] - x[1] - x[3]
    ks0 = gains.K @ sigma0
    expect0 = 2.0 * (-0.25 * 2.0 + sigma0 @ gains.Gamma @ sigma0 + np.linalg.norm(ks0))
    sigma1 = 2 * x[1] - x[0] - x[2]
    ks1 = gains.K @ sigma1
    expect1 = 1.0 * (sigma1 @ gains.Gamma @ sigma1 + np.linalg.norm(ks1))
    # the rates follow the 4 x 2 agent states in the stacked derivative
    assert ydot[8:] == pytest.approx([expect0, expect1, 0.0])


def test_observer_rate_tracks_innovation():
    l_obs = np.array([[-2.0, 0.0], [0.0, -2.0]])
    gains = make_gains()
    cfg = ControllerConfig(kind="observer_based", kappa=0.1)
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    ydot, u_f, _ = evaluate_on_chain(cfg, gains, x, v=np.zeros((4, 2)), l_obs=l_obs)
    # v = 0 so u = 0 and v_dot = L (0 - C x)
    assert np.allclose(u_f, 0.0)
    vdot = ydot[8:].reshape(4, 2)
    assert np.allclose(vdot[0], l_obs @ (-x[0]))
    assert np.allclose(vdot[1:], 0.0)
    # nonzero estimates: v_dot_j = A v_j + B u_j + L (C v_j - C x_j), A = 0, C = I
    v = np.array([[0.5, -1.0], [0.0, 2.0], [1.0, 1.0], [0.0, 0.0]])
    ydot, u_f, u_l = evaluate_on_chain(cfg, gains, x, v=v, l_obs=l_obs)
    u = np.concatenate([u_f, u_l])
    expect = np.array([np.array([0.0, u[j, 0]]) + l_obs @ (v[j] - x[j]) for j in range(4)])
    assert np.allclose(ydot[8:].reshape(4, 2), expect)


def test_leader_input_combines_feedback_and_sinusoids():
    spec = LeaderInputSpec(
        feedback_gain=np.array([[0.0, -2.0]]),
        sinusoids=(Sinusoid(channel=0, amplitude=4.0, omega=2.0, phase=0.0),),
        gamma=6.0,
    )
    # 2cos(t) as a phase-shifted sine
    spec2 = LeaderInputSpec(
        feedback_gain=np.zeros((1, 2)),
        sinusoids=(Sinusoid(channel=0, amplitude=2.0, omega=1.0, phase=math.pi / 2),),
        gamma=4.0,
    )
    x = np.array([[1.0, 3.0], [1.0, 3.0]])
    inputs = leader_input((spec, spec2), x)
    u = inputs(0.7)
    assert u.shape == (2, 1)
    assert np.allclose(u[0], [-6.0 + 4.0 * math.sin(1.4)])
    assert np.allclose(inputs(0.0)[1], [2.0])
    # the binding reads the caller's states at each call
    x[0] = [0.0, 1.0]
    assert np.allclose(inputs(0.0)[0], [-2.0])


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_leader_input_spec_requires_a_finite_positive_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be a finite number > 0"):
        LeaderInputSpec(feedback_gain=np.zeros((1, 2)), sinusoids=(), gamma=gamma)


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(kind="continuous_static")  # no kappa
    with pytest.raises(ValueError):
        ControllerConfig(kind="continuous_static", kappa=float("nan"))
    with pytest.raises(ValueError):
        ControllerConfig(kind="bang_bang", kappa=0.1)
    with pytest.raises(ValueError):
        ControllerConfig(kind="adaptive", kappa=0.1,
                         taus=[1.0, 1.0], phis=[0.0], d0=[0.0])
    for bad in (dict(taus=[-1.0]), dict(taus=[float("nan")]), dict(phis=[-0.5]),
                dict(d0=[-1.0])):
        params = {**dict(taus=[1.0], phis=[0.0], d0=[0.0]), **bad}
        with pytest.raises(ValueError):
            ControllerConfig(kind="adaptive", kappa=0.1, **params)
    # discontinuous law never reads kappa
    cfg = ControllerConfig(kind="discontinuous_static")
    assert cfg.kappa is None


def test_width_is_kappa_except_for_the_discontinuous_law():
    adaptive = dict(taus=[1.0], phis=[0.0], d0=[0.0])
    assert ControllerConfig(kind="discontinuous_static").width == 0.0
    assert ControllerConfig(kind="discontinuous_static", kappa=0.1).width == 0.0
    assert ControllerConfig(kind="continuous_static", kappa=0.1).width == 0.1
    assert ControllerConfig(kind="observer_based", kappa=0.2).width == 0.2
    assert ControllerConfig(kind="adaptive", kappa=0.3, **adaptive).width == 0.3


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.eye(2))
    with pytest.raises(ValueError):
        LinearSystem(A=np.eye(2), B=np.zeros((3, 1)), C=np.eye(2))
    with pytest.raises(ValueError):
        LinearSystem(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 3)))
    sys2 = LinearSystem(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
    assert (sys2.n, sys2.p, sys2.C.shape[0]) == (2, 1, 1)
