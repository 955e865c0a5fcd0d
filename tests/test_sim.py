import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from contain import sim
from contain.cli import default_scenario, parse_scenario
from contain.control import (
    KINDS,
    ControllerConfig,
    LeaderInputSpec,
    LinearSystem,
    Sinusoid,
    row_norms,
)
from contain.graph import build_topology, partition_laplacian
from contain.sim import (
    MAX_RECORDED_VALUES,
    HorizonTooLong,
    Metrics,
    NeighbourSum,
    NonFiniteState,
    Scenario,
    Verdict,
    compute_metrics,
    containment_error,
    integrate,
    lyapunov_v1,
    make_evaluator,
    network_operator,
    rk4_step,
    run_verdict,
)
from contain.matlib import solve_linear
from contain.synthesis import BoundReport, compute_bound_report, synthesize
from conftest import ring_scenario
from test_evaluator import assert_bitwise, csr_oracle, oracle_evaluator  # noqa: F401

# one scalar follower pulled toward one constant leader
CHAIN1D = build_topology([[0, 1], [0, 0]])
SYS1D = LinearSystem(A=[[0.0]], B=[[1.0]], C=[[1.0]])
HOLD = LeaderInputSpec(feedback_gain=np.zeros((1, 1)), sinusoids=(), gamma=1.0)


def chain_scenario(kind="continuous_static", kappa=0.1, t_end=2.0, h=0.01,
                   x0=(-2.0, 0.0), leader=HOLD, **extra):
    part = partition_laplacian(CHAIN1D)
    if kind == "adaptive":
        cfg = ControllerConfig(kind=kind, kappa=kappa,
                               taus=extra.get("taus", [1.0]),
                               phis=extra.get("phis", [0.1]),
                               d0=extra.get("d0", [0.0]))
    elif kind == "discontinuous_static":
        cfg = ControllerConfig(kind=kind)
    else:
        cfg = ControllerConfig(kind=kind, kappa=kappa)
    scn = Scenario(
        system=SYS1D, topology=CHAIN1D, controller=cfg, leader_specs=(leader,),
        x0=np.array(x0, dtype=float).reshape(2, 1),
        v0=np.zeros((2, 1)) if kind == "observer_based" else None,
        t_end=t_end, h=h,
    )
    return scn, synthesize(scn, part), part


def test_rk4_exact_on_cubic_rate():
    # classical RK4 quadrature is exact through t^3
    def f(t, y):
        return (np.array([4.0 * t ** 3]),)

    y0 = np.array([0.0])
    y = rk4_step(f, 0.0, y0, 1.0, f(0.0, y0)[0])
    assert abs(float(y[0]) - 1.0) < 1e-14


def test_rk4_local_accuracy_on_decay():
    y0 = np.array([1.0])
    y = rk4_step(lambda t, y: (-y,), 0.0, y0, 0.01, -y0)
    assert abs(float(y[0]) - math.exp(-0.01)) < 1e-12


def test_rhs_sign_convention():
    scn, gains, part = chain_scenario()
    evaluate = make_evaluator(scn, gains)
    # P=1, K=-1, c1=1, c2=1; sigma = -2 so u = 2 + 1 and the leader holds
    ydot, u_f, u_l = evaluate(0.0, scn.x0.ravel())
    assert np.allclose(ydot, [3.0, 0.0])
    assert np.allclose(u_f, [[3.0]])
    assert np.allclose(u_l, [[0.0]])


def test_integrate_grid_convention():
    scn, gains, part = chain_scenario(t_end=0.05, h=0.01)
    traj = integrate(scn, gains, part)
    assert traj.times.shape == (5,)
    assert np.allclose(traj.times, [0.0, 0.01, 0.02, 0.03, 0.04])
    single, gains, part = chain_scenario(t_end=0.01, h=0.01)
    traj1 = integrate(single, gains, part)
    assert traj1.times.shape == (1,)
    assert np.allclose(traj1.follower_states[0].ravel(), [-2.0])


def test_containment_error_zero_on_hull():
    topo = build_topology([
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    part = partition_laplacian(topo)
    leaders = np.array([[0.0, 0.0], [1.0, 2.0]])
    hull_points = part.W @ leaders
    xi = containment_error(hull_points, leaders, part)
    assert xi.shape == (4,)
    assert np.linalg.norm(xi) < 1e-12
    # a leading step axis is carried through, one xi row per step
    off_hull = hull_points + np.array([[1.0, 0.0], [0.0, 0.0]])
    stacked = containment_error(np.stack([hull_points, off_hull]),
                                np.stack([leaders, leaders]), part)
    assert stacked.shape == (2, 4)
    assert np.linalg.norm(stacked[0]) < 1e-12
    assert np.allclose(stacked[1], [1.0, 0.0, 0.0, 0.0])


def test_lyapunov_v1_matches_dense_form():
    topo = build_topology([
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    part = partition_laplacian(topo)
    rng = np.random.default_rng(3)
    p_inv = np.linalg.inv(np.array([[2.0, 0.5], [0.5, 1.0]]))
    xi = rng.standard_normal(4)
    dense = 0.5 * xi @ np.kron(part.L1, p_inv) @ xi
    assert lyapunov_v1(xi, part, p_inv) == pytest.approx(dense)
    assert lyapunov_v1(np.zeros(4), part, p_inv) == 0.0
    # a stack of xi rows gives one V1 per row
    stacked = lyapunov_v1(np.stack([xi, np.zeros(4), 2.0 * xi]), part, p_inv)
    assert stacked == pytest.approx([dense, 0.0, 4.0 * dense])


def test_continuous_run_converges_and_certifies():
    scn, gains, part = chain_scenario()
    traj = integrate(scn, gains, part)
    bounds = compute_bound_report(scn, part, gains)
    metrics = compute_metrics(traj, bounds, gains, scn.tail_fraction)
    assert traj.xi_norm[-1] < 1e-2
    assert bounds.gate == "d1" and bounds.gate_met(metrics.tail_sup_xi_sq)
    assert metrics.envelope_violations == 0
    assert bounds.d2_radius_sq is None
    assert metrics.d_sup is None
    # v1 ends far below its start
    assert traj.v1[-1] < 1e-3 * traj.v1[0]


def test_adaptive_run_gains_stay_bounded():
    scn, gains, part = chain_scenario(kind="adaptive")
    traj = integrate(scn, gains, part)
    bounds = compute_bound_report(scn, part, gains)
    metrics = compute_metrics(traj, bounds, gains, scn.tail_fraction)
    assert traj.adaptive_gains is not None
    assert np.isfinite(traj.adaptive_gains).all()
    assert np.all(traj.adaptive_gains >= 0.0)
    assert metrics.d_sup == pytest.approx(float(traj.adaptive_gains.max()))
    assert bounds.gate == "d2" and bounds.gate_met(metrics.tail_sup_xi_sq)
    assert traj.xi_norm[-1] < 0.1


def test_observer_run_estimates_states():
    # followers sit still until their observers converge, so give it longer
    scn, gains, part = chain_scenario(kind="observer_based", t_end=8.0)
    traj = integrate(scn, gains, part)
    assert traj.observer_states is not None
    x_all = np.concatenate([traj.follower_states, traj.leader_states], axis=1)
    err = np.sqrt(np.sum((traj.observer_states - x_all) ** 2, axis=(1, 2)))
    assert err[-1] < 0.01 * err[0]
    assert traj.xi_norm[-1] < 0.1


def test_leader_bound_violations_counted():
    loud = LeaderInputSpec(
        feedback_gain=np.zeros((1, 1)),
        sinusoids=(Sinusoid(channel=0, amplitude=5.0, omega=1.0, phase=0.0),),
        gamma=1.0,
    )
    scn, gains, part = chain_scenario(leader=loud)
    traj = integrate(scn, gains, part)
    assert traj.assumption2_violations > 0


def test_divergence_raises_with_snapshot():
    # h = 5 puts the linear closed loop far outside the RK4 stability region;
    # the leader's input swings past its bound gamma = 1 on some samples
    loud = LeaderInputSpec(
        feedback_gain=np.zeros((1, 1)),
        sinusoids=(Sinusoid(channel=0, amplitude=1.5, omega=1.0, phase=0.0),),
        gamma=1.0,
    )
    scn, gains, part = chain_scenario(t_end=2000.0, h=5.0, leader=loud)
    with pytest.raises(NonFiniteState) as info:
        integrate(scn, gains, part)
    exc = info.value
    traj = exc.trajectory
    assert exc.step > sim._STEP_CHUNK and exc.step % sim._STEP_CHUNK != 0
    assert traj.times.shape[0] == exc.step
    assert np.isfinite(traj.follower_states).all()
    # xi and V1 are derived over exactly the finite prefix
    assert traj.xi_norm.shape == (exc.step,)
    assert traj.v1.shape == (exc.step,)
    assert np.isfinite(traj.xi_norm[0])
    # and equal the whole-array kernels over it, overflowed tail included
    p_inv = solve_linear(gains.P, np.eye(scn.system.n))
    with np.errstate(over="ignore", invalid="ignore"):
        xi = containment_error(traj.follower_states, traj.leader_states, part)
        assert np.array_equal(traj.xi_norm, row_norms(xi)())
        assert np.array_equal(traj.v1, lyapunov_v1(xi, part, p_inv))
    violations = int(np.count_nonzero(row_norms(traj.leader_inputs)() > np.array(scn.gammas)))
    assert traj.assumption2_violations == violations
    assert 0 < violations < exc.step


RECORDED = ("times", "follower_states", "leader_states", "follower_inputs", "leader_inputs",
            "xi_norm", "v1", "adaptive_gains", "observer_states")


@pytest.mark.parametrize("text", [default_scenario(), ring_scenario(30, 1)],
                         ids=["default", "ring30"])
@pytest.mark.parametrize("kind", KINDS)
def test_integrate_does_not_depend_on_the_step_chunk(monkeypatch, kind, text):
    # 150 steps: 150 chunks of 1, 22 chunks of 7 and a short one, and two
    # default chunks and a short one
    scn = parse_scenario(text, controller=kind, t_end=0.15)
    part = partition_laplacian(scn.topology)
    gains = synthesize(scn, part)
    runs = []
    for chunk in (1, 7, sim._STEP_CHUNK):
        monkeypatch.setattr(sim, "_STEP_CHUNK", chunk)
        runs.append(integrate(scn, gains, part))
    assert runs[-1].times.shape == (150,)
    for traj in runs[:-1]:
        assert traj.assumption2_violations == runs[-1].assumption2_violations
        for name in RECORDED:
            got, want = getattr(traj, name), getattr(runs[-1], name)
            if want is None:
                assert got is None
            else:
                assert_bitwise(got, want, name)


def first_entry(scn, column):
    """(agent label, block, component) of a column of the stacked state
    [x of every agent | d of every follower | v of every agent]."""
    n = scn.system.n
    labels = scn.topology.labels
    if column < len(labels) * n:
        return labels[column // n], "x", column % n + 1
    column -= len(labels) * n
    if scn.controller.kind == "adaptive":
        return labels[column], "d", None
    return labels[column // n], "v", column % n + 1


def per_step_run(scn, gains, oracle=oracle_evaluator):
    """The loop the chunked one replaced, on a per-agent oracle: step, record,
    advance with rk4_step and check every new state. Returns the recorded
    states and inputs, and the step, grid time and first non-finite column of
    the first non-finite state."""
    evaluate = oracle(scn, gains)
    pieces = [scn.x0.ravel()]
    if scn.controller.kind == "adaptive":
        pieces.append(scn.controller.d0)
    if scn.controller.kind == "observer_based":
        pieces.append(scn.v0.ravel())
    y = np.concatenate(pieces)
    states, inputs_f, inputs_l = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(scn.n_steps - 1):
            t = k * scn.h
            k1, u_f, u_l = evaluate(t, y)
            states.append(y)
            inputs_f.append(u_f)
            inputs_l.append(u_l)
            y = rk4_step(evaluate, t, y, scn.h, k1)
            if not np.isfinite(y).all():
                column = int(np.flatnonzero(~np.isfinite(y))[0])
                return (np.array(states), np.array(inputs_f), np.array(inputs_l), k + 1,
                        (k + 1) * scn.h, column)
    raise AssertionError("the run did not diverge")


def entry_name(entry):
    """An entry (agent label, block, component) as NonFiniteState's message
    names it."""
    label, block, component = entry
    return f"agent {label} {block if component is None else f'{block}_{component}'}"


def chain_blowup(kind):
    # h = 5 puts the linear closed loop far outside the RK4 stability region
    scn, gains, _part = chain_scenario(kind=kind, t_end=2000.0, h=5.0)
    return scn, gains


def ring30_blowup(kind):
    # above the crossover, on the CSR path: diverges within 2 000 steps
    scn = parse_scenario(ring_scenario(30, 1), controller=kind, h=0.01, t_end=20.0)
    return scn, synthesize(scn, partition_laplacian(scn.topology))


@pytest.mark.parametrize("where", ["mid-chunk", "first row", "last row"])
@pytest.mark.parametrize("setup,kind", [(chain_blowup, kind) for kind in KINDS]
                         + [(ring30_blowup, "continuous_static")],
                         ids=list(KINDS) + ["ring30-continuous_static"])
def test_divergence_found_per_chunk_matches_a_per_step_check(monkeypatch, request, setup, kind,
                                                            where):
    scn, gains = setup(kind)
    oracle = oracle_evaluator
    if setup is ring30_blowup:
        m = scn.topology.n_followers
        assert isinstance(network_operator(scn.topology.adjacency[:m]), NeighbourSum)
        oracle = request.getfixturevalue("csr_oracle")
    states, inputs_f, inputs_l, step, t, column = per_step_run(scn, gains, oracle)
    # the first non-finite state is y_step: inside a default chunk, the first
    # row of the chunk after one of `step` steps, or the last row of a grid
    # that ends there, in its final, partial chunk, which never advances from it
    chunk = step if where == "first row" else sim._STEP_CHUNK
    if where == "last row":
        scn = dataclasses.replace(scn, t_end=(step + 1) * scn.h)
        assert scn.n_steps == step + 1 and scn.n_steps % chunk != 0
    assert (step % chunk != 0) == (where != "first row")
    monkeypatch.setattr(sim, "_STEP_CHUNK", chunk)
    with pytest.raises(NonFiniteState) as info:
        integrate(scn, gains, partition_laplacian(scn.topology))
    exc = info.value
    assert (exc.step, exc.t) == (step, t)
    assert exc.entry == first_entry(scn, column)
    assert str(exc) == (f"state became non-finite advancing from t = {(step - 1) * scn.h:.6g} "
                        f"(first non-finite: {entry_name(exc.entry)})")
    traj = exc.trajectory
    split = scn.topology.n_followers * scn.system.n
    assert_bitwise(traj.times, np.arange(step) * scn.h)
    assert_bitwise(traj.follower_states.reshape(step, -1), states[:, :split])
    assert_bitwise(traj.leader_states.reshape(step, -1),
                   states[:, split:scn.topology.n_agents * scn.system.n])
    assert_bitwise(traj.follower_inputs, inputs_f)
    assert_bitwise(traj.leader_inputs, inputs_l)


def test_divergence_is_timed_on_the_grid_and_names_its_entry():
    # at h = 0.9 the default static law diverges; t + h rounds off the grid
    # (71.1 + 0.9 is 72.00000000000001), while t_k = k h
    scn = parse_scenario(default_scenario(), controller="continuous_static", h=0.9, t_end=90.0)
    part = partition_laplacian(scn.topology)
    with pytest.raises(NonFiniteState) as info:
        integrate(scn, synthesize(scn, part), part)
    exc = info.value
    assert exc.t == exc.step * scn.h
    assert exc.trajectory.times.shape == (exc.step,)
    assert str(exc).endswith(f" (first non-finite: {entry_name(exc.entry)})")


@pytest.mark.parametrize("kind,column,entry", [
    ("continuous_static", 5, (1, "x", 2)),
    ("adaptive", 7, (3, "d", None)),
    ("observer_based", 8, (3, "v", 1)),
    ("observer_based", 11, (1, "v", 2)),
])
def test_divergence_names_its_first_non_finite_entry(monkeypatch, kind, column, entry):
    # agent 1 leads agents 2 and 3, so canonical order is 2, 3, 1; a NaN put
    # into one column of k4 in step 40 makes exactly that entry of y_41
    # non-finite
    topo = build_topology([[0, 0, 0], [1, 0, 1], [0, 1, 0]])
    extra = dict(taus=[1.0, 1.0], phis=[0.1, 0.1], d0=[0.0, 0.0]) if kind == "adaptive" else {}
    scn = Scenario(
        system=LinearSystem(A=[[0.0, 1.0], [-1.0, 1.0]], B=[[0.0], [1.0]], C=np.eye(2)),
        topology=topo, controller=ControllerConfig(kind=kind, kappa=0.1, **extra),
        leader_specs=(LeaderInputSpec(feedback_gain=np.zeros((1, 2)), sinusoids=(), gamma=1.0),),
        x0=np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
        v0=np.zeros((3, 2)) if kind == "observer_based" else None, t_end=0.1, h=1e-3,
    )
    part = partition_laplacian(topo)
    gains = synthesize(scn, part)
    calls = iter(range(10**6))

    def poisoned(scn, gains):
        evaluate = make_evaluator(scn, gains)

        def wrapped(t, y):
            ydot, u_f, u_l = evaluate(t, y)
            if next(calls) == 4 * 40 + 3:
                ydot = ydot.copy()
                ydot[column] = np.nan
            return ydot, u_f, u_l

        return wrapped

    assert topo.labels == (2, 3, 1)
    monkeypatch.setattr(sim, "make_evaluator", poisoned)
    with pytest.raises(NonFiniteState) as info:
        integrate(scn, gains, part)
    assert (info.value.step, info.value.entry) == (41, entry)
    assert info.value.entry == first_entry(scn, column)
    # the run stops with the chunk that blew up: 64 steps of four calls, not
    # the 397 calls of all 100 steps
    assert next(calls) == 4 * sim._STEP_CHUNK


@pytest.mark.parametrize("text,violated", [
    # leader 7 breaks gamma = 0.5 within the first 0.1 s
    (default_scenario().replace("7.gamma = 6", "7.gamma = 0.5"), True),
    (ring_scenario(30, 1), False),
], ids=["default", "ring30"])
def test_derived_series_do_not_depend_on_the_chunk(monkeypatch, text, violated):
    scn = parse_scenario(text, t_end=0.3)
    part = partition_laplacian(scn.topology)
    gains = synthesize(scn, part)
    whole = integrate(scn, gains, part)
    # 37 steps per chunk: boundaries fall mid-run and the last chunk is short
    monkeypatch.setattr(sim, "_STEP_CHUNK", 37)
    chunked = integrate(scn, gains, part)

    # the same quantities over the whole recording at once
    xi = containment_error(whole.follower_states, whole.leader_states, part)
    p_inv = solve_linear(gains.P, np.eye(scn.system.n))
    violations = int(np.count_nonzero(row_norms(whole.leader_inputs)() > np.array(scn.gammas)))
    assert np.array_equal(whole.follower_states, chunked.follower_states)
    for traj in (whole, chunked):
        assert np.array_equal(traj.xi_norm, row_norms(xi)())
        assert np.array_equal(traj.v1, lyapunov_v1(xi, part, p_inv))
        assert traj.assumption2_violations == violations
    assert (violations > 0) == violated


@pytest.mark.parametrize("kind", KINDS)
def test_scenario_blocks_are_views_in_layout_order(kind):
    # agent 1 leads agents 2 and 3: 3 agents of 2 states, 2 followers
    topo = build_topology([[0, 0, 0], [1, 0, 1], [0, 1, 0]])
    extra = dict(taus=[1.0, 1.0], phis=[0.1, 0.1], d0=[0.0, 0.0]) if kind == "adaptive" else {}
    scn = Scenario(
        system=LinearSystem(A=[[0.0, 1.0], [-1.0, 1.0]], B=[[0.0], [1.0]], C=np.eye(2)),
        topology=topo, controller=ControllerConfig(kind=kind, kappa=0.1, **extra),
        leader_specs=(LeaderInputSpec(feedback_gain=np.zeros((1, 2)), sinusoids=(), gamma=1.0),),
        x0=np.zeros((3, 2)), v0=np.zeros((3, 2)) if kind == "observer_based" else None,
    )
    width = scn.state_size
    assert width == {"adaptive": 8, "observer_based": 12}.get(kind, 6)
    stacked = np.arange(4 * width, dtype=float).reshape(4, width)
    for y in (stacked[0], stacked):
        lead = y.shape[:-1]
        x, d, v = scn.blocks(y)
        # [x of every agent | d of every follower | v of every agent]
        assert x.shape == lead + (3, 2)
        assert np.shares_memory(x, y)
        assert np.array_equal(x.reshape(lead + (6,)), y[..., :6])
        if kind == "adaptive":
            assert d.shape == lead + (2,)
            assert np.shares_memory(d, y)
            assert np.array_equal(d, y[..., 6:8])
        else:
            assert d is None
        if kind == "observer_based":
            assert v.shape == lead + (3, 2)
            assert np.shares_memory(v, y)
            assert np.array_equal(v.reshape(lead + (6,)), y[..., 6:12])
        else:
            assert v is None


def test_integrate_is_deterministic():
    scn, gains, part = chain_scenario(t_end=0.5)
    a = integrate(scn, gains, part)
    b = integrate(scn, gains, part)
    assert np.array_equal(a.follower_states, b.follower_states)
    assert np.array_equal(a.follower_inputs, b.follower_inputs)
    assert np.array_equal(a.v1, b.v1)


def test_scenario_validation():
    cfg = ControllerConfig(kind="continuous_static", kappa=0.1)
    with pytest.raises(ValueError):
        Scenario(system=SYS1D, topology=CHAIN1D, controller=cfg,
                 leader_specs=(HOLD,), x0=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Scenario(system=SYS1D, topology=CHAIN1D, controller=cfg,
                 leader_specs=(), x0=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Scenario(system=SYS1D, topology=CHAIN1D, controller=cfg,
                 leader_specs=(HOLD,), x0=np.zeros((2, 1)), h=-0.1)
    with pytest.raises(ValueError):
        Scenario(system=SYS1D, topology=CHAIN1D, controller=cfg,
                 leader_specs=(HOLD,), x0=np.zeros((2, 1)), t_end=0.005, h=0.01)
    # any v0 meets the one-row-per-agent rule; only the observer-based law keeps
    # it, and starts from zeros without one
    assert Scenario(system=SYS1D, topology=CHAIN1D, controller=cfg, leader_specs=(HOLD,),
                    x0=np.zeros((2, 1)), v0=np.ones((2, 1))).v0 is None
    observer = ControllerConfig(kind="observer_based", kappa=0.1)
    for law in (cfg, observer):
        with pytest.raises(ValueError, match=r"^v0 must be 2x1 \(one row per agent\), got 3x1$"):
            Scenario(system=SYS1D, topology=CHAIN1D, controller=law,
                     leader_specs=(HOLD,), x0=np.zeros((2, 1)), v0=np.zeros((3, 1)))
    assert Scenario(system=SYS1D, topology=CHAIN1D, controller=observer, leader_specs=(HOLD,),
                    x0=np.zeros((2, 1))).v0.tolist() == [[0.0], [0.0]]


def test_scenario_defaults_gammas_and_tail_fraction():
    leaders = (HOLD, LeaderInputSpec(feedback_gain=np.zeros((1, 1)), sinusoids=(), gamma=2.5))
    three = build_topology([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    cfg = ControllerConfig(kind="continuous_static", kappa=0.1)
    scn = Scenario(system=SYS1D, topology=three, controller=cfg, leader_specs=leaders,
                   x0=np.zeros((3, 1)))
    assert (scn.t_end, scn.h, scn.tail_fraction) == (20.0, 1e-3, 0.2)
    assert scn.gammas == [1.0, 2.5]
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="tail_fraction"):
            Scenario(system=SYS1D, topology=three, controller=cfg, leader_specs=leaders,
                     x0=np.zeros((3, 1)), tail_fraction=bad)


def test_tail_window_fraction():
    scn, gains, part = chain_scenario(t_end=1.0, h=0.01)
    traj = integrate(scn, gains, part)
    bounds = compute_bound_report(scn, part, gains)
    # with tail_fraction 0.5 the sup is taken over t >= 0.495, i.e. half the rows
    m_half = compute_metrics(traj, bounds, gains, tail_fraction=0.5)
    m_tiny = compute_metrics(traj, bounds, gains, tail_fraction=0.01)
    assert m_tiny.tail_sup_xi_sq <= m_half.tail_sup_xi_sq


def test_run_verdict_rule():
    metrics = Metrics(tail_sup_xi_sq=0.1, envelope_violations=0, chattering_index=0.0)

    def report(gate=None, reason=None, d1=1.0, d2=None):
        return BoundReport(d1_radius_sq=d1, beta=1.0, envelope_offset=0.0, d2_radius_sq=d2,
                           gate=gate, reason=reason)

    clean = SimpleNamespace(assumption2_violations=0)
    # the tail is compared with the gating radius alone
    assert run_verdict(report("d1", d1=0.1), metrics, clean) == Verdict(True)
    assert run_verdict(report("d1", d1=0.05, d2=1.0), metrics, clean) == Verdict(False)
    assert run_verdict(report("d2", d1=0.05, d2=1.0), metrics, clean) == Verdict(True)
    assert run_verdict(report("d2", d1=1.0, d2=0.05), metrics, clean) == Verdict(False)
    # with no gate, the report's reason (varrho >= alpha, the discontinuous
    # law's D1 = 0) leaves the run not certified; without one it is certified
    assert run_verdict(report(reason="no D2"), metrics, clean) == Verdict(False, "no D2")
    assert run_verdict(report(), metrics, clean) == Verdict(True)
    # a leader input over its bound voids every certificate, and its reason wins
    for bounds in (report("d1"), report("d2", d2=1.0), report(reason="no D2"), report()):
        verdict = run_verdict(bounds, metrics, SimpleNamespace(assumption2_violations=3))
        assert not verdict.certified
        assert verdict.reason.startswith("3 leader input samples exceed")
    assert (Verdict(True).label, Verdict(False).label) == ("certified", "not certified")


def test_step_budget_admits_the_default_horizon_ring():
    m = 510
    adjacency = np.zeros((m + 2, m + 2))
    for i in range(m):
        adjacency[i, (i + 1) % m] = adjacency[(i + 1) % m, i] = 1.0
    adjacency[0, m] = adjacency[m // 2, m + 1] = 1.0
    leader = LeaderInputSpec(feedback_gain=np.zeros((1, 2)), sinusoids=(), gamma=1.0)

    def ring(t_end):
        return Scenario(
            system=LinearSystem(A=[[0.0, 1.0], [-1.0, 1.0]], B=[[0.0], [1.0]], C=np.eye(2)),
            topology=build_topology(adjacency),
            controller=ControllerConfig(kind="adaptive", kappa=0.1, taus=[5.0] * m,
                                        phis=[0.005] * m, d0=[0.0] * m),
            leader_specs=(leader, leader), x0=np.zeros((m + 2, 2)), t_end=t_end, h=1e-3,
        )

    # 20 000 steps of 512 states, 512 inputs and 510 adaptive gains
    assert 20_000 * (512 * 3 + 510) <= MAX_RECORDED_VALUES
    ring(20.0)
    with pytest.raises(HorizonTooLong):
        ring(100.0)
    with pytest.raises(HorizonTooLong):
        ring(math.inf)
