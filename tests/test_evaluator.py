"""The stacked evaluator against a per-agent oracle, bit for bit.

The oracle below is the per-follower implementation the stacked evaluator
replaced, kept verbatim: one relative state, one input and one rate per call,
with the same BLAS products and divisions. The default adaptive run chatters
inside a boundary layer about 0.014 wide, so the evaluator has to match it
exactly (np.array_equal, and the same sign on every zero, which the CSV
prints as 0.0 or -0.0), not just closely: any rounding difference grows along
the trajectory.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from contain import cli, sim
from contain.control import (
    ADAPTIVE,
    DISCONTINUOUS_STATIC,
    KINDS,
    OBSERVER_BASED,
    ControllerConfig,
    LeaderInputSpec,
    LinearSystem,
    Sinusoid,
    row_norms,
    saturate,
)
from contain.graph import build_topology, partition_laplacian
from contain.sim import NeighbourSum, Scenario, integrate, make_evaluator, network_operator
from contain.synthesis import synthesize
from perfbench.workloads import ring_scenario

# ---------------------------------------------------------------------------
# per-agent oracle


@dataclass
class NetworkState:
    """Snapshot of everything the controllers can read at time t."""

    t: float
    follower_states: np.ndarray
    leader_states: np.ndarray
    adaptive_gains: Optional[np.ndarray] = None
    observer_states: Optional[np.ndarray] = None


def ghat(w):
    norm = math.sqrt(float(w @ w))
    if norm == 0.0:
        return np.zeros_like(w)
    return w / norm


def gsat(w, kappa):
    norm = math.sqrt(float(w @ w))
    if norm > kappa:
        return w / norm
    return w / kappa


def rsat(w, d, kappa):
    norm = math.sqrt(float(w @ w))
    if d * norm > kappa:
        return w / norm
    return (w / kappa) * d


def relative_state(i, state, topology):
    x_all = np.concatenate([state.follower_states, state.leader_states], axis=0)
    row = topology.adjacency[i]
    return row.sum() * x_all[i] - row @ x_all


def observer_relative_state(i, state, topology):
    row = topology.adjacency[i]
    return row.sum() * state.observer_states[i] - row @ state.observer_states


def u_follower(i, state, config, gains, topology):
    if config.kind == OBSERVER_BASED:
        sigma = observer_relative_state(i, state, topology)
    else:
        sigma = relative_state(i, state, topology)
    ks = gains.K @ sigma
    if config.kind == DISCONTINUOUS_STATIC:
        return gains.c1 * ks + gains.c2 * ghat(ks)
    if config.kind != ADAPTIVE:
        return gains.c1 * ks + gains.c2 * gsat(ks, config.kappa)
    d = float(state.adaptive_gains[i])
    return d * ks + d * rsat(ks, d, config.kappa)


def adaptive_gain_rate(i, state, config, gains, topology):
    sigma = relative_state(i, state, topology)
    ks = gains.K @ sigma
    d = float(state.adaptive_gains[i])
    quad = float(sigma @ (gains.Gamma @ sigma))
    return float(config.taus[i]) * (
        -float(config.phis[i]) * d + quad + math.sqrt(float(ks @ ks))
    )


def leader_input(spec, x_j, t):
    u = spec.feedback_gain @ x_j
    for s in spec.sinusoids:
        u[s.channel] += s.amplitude * math.sin(s.omega * t + s.phase)
    return u


def observer_rate(j, state, u_j, system, l_obs):
    x_all = np.concatenate([state.follower_states, state.leader_states], axis=0)
    v = state.observer_states[j]
    innovation = system.C @ v - system.C @ x_all[j]
    return system.A @ v + system.B @ u_j + l_obs @ innovation


def oracle_evaluator(scn, gains):
    """Per-agent evaluate(t, y) -> (ydot, follower inputs, leader inputs)."""
    topo = scn.topology
    cfg = scn.controller
    system = scn.system
    m = topo.n_followers
    n_leaders = topo.n_leaders
    n_agents = topo.n_agents
    n = system.n
    p = system.p
    adaptive = cfg.kind == ADAPTIVE
    observer = cfg.kind == OBSERVER_BASED
    a_t = system.A.T.copy()
    b_t = system.B.T.copy()
    off_xl = m * n
    off_extra = (m + n_leaders) * n

    def evaluate(t, y):
        xf = y[:off_xl].reshape(m, n)
        xl = y[off_xl:off_extra].reshape(n_leaders, n)
        d = y[off_extra:off_extra + m] if adaptive else None
        v = (
            y[off_extra:off_extra + n_agents * n].reshape(n_agents, n)
            if observer
            else None
        )
        s = NetworkState(
            t=t, follower_states=xf, leader_states=xl,
            adaptive_gains=d, observer_states=v,
        )
        u_f = np.empty((m, p))
        for i in range(m):
            u_f[i] = u_follower(i, s, cfg, gains, topo)
        u_l = np.empty((n_leaders, p))
        for j in range(n_leaders):
            u_l[j] = leader_input(scn.leader_specs[j], xl[j], t)
        xdot_f = xf @ a_t + u_f @ b_t
        xdot_l = xl @ a_t + u_l @ b_t
        pieces = [xdot_f.reshape(-1), xdot_l.reshape(-1)]
        if adaptive:
            pieces.append(
                np.array([adaptive_gain_rate(i, s, cfg, gains, topo) for i in range(m)])
            )
        if observer:
            u_all = np.concatenate([u_f, u_l], axis=0)
            vdot = np.empty((n_agents, n))
            for j in range(n_agents):
                vdot[j] = observer_rate(j, s, u_all[j], system, gains.L_obs)
            pieces.append(vdot.reshape(-1))
        return np.concatenate(pieces), u_f, u_l

    return evaluate


def oracle_derived(traj, scn, gains, part):
    """xi, |xi|, V1 and the leader-bound count, step by step."""
    p_inv = np.linalg.inv(gains.P)
    m, n = traj.follower_states.shape[1:]
    xi = np.array([(xf - part.W @ xl).reshape(-1)
                   for xf, xl in zip(traj.follower_states, traj.leader_states)])
    xi_norm = np.array([math.sqrt(float(row @ row)) for row in xi])
    v1 = np.array([0.5 * float(np.sum(b * (part.L1 @ b @ p_inv)))
                   for b in xi.reshape(-1, m, n)])
    violations = sum(
        math.sqrt(float(u @ u)) > spec.gamma
        for u_l in traj.leader_inputs
        for u, spec in zip(u_l, scn.leader_specs)
    )
    return xi, xi_norm, v1, violations


# ---------------------------------------------------------------------------
# scenarios

# a 3-follower chain hanging off one leader
CHAIN = build_topology([
    [0, 1, 0, 1],
    [1, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 0],
])
CHAIN_SYSTEM = LinearSystem(A=[[0.0, 1.0], [-1.0, 1.0]], B=[[0.0], [1.0]], C=np.eye(2))
# |u| = |-2 x_2 + 4 sin 2t| exceeds gamma = 2 well inside the first 0.5 s
CHAIN_LEADER = LeaderInputSpec(
    feedback_gain=np.array([[0.0, -2.0]]),
    sinusoids=(Sinusoid(channel=0, amplitude=4.0, omega=2.0, phase=0.0),),
    gamma=2.0,
)


def default_setup(kind, t_end=20.0):
    scn = cli.parse_scenario(cli.default_scenario(), controller=kind, t_end=t_end)
    part = partition_laplacian(scn.topology)
    return scn, synthesize(scn, part), part


def chain_setup(kind, t_end=20.0):
    part = partition_laplacian(CHAIN)
    extra = {}
    if kind == ADAPTIVE:
        extra = dict(taus=[5.0, 2.0, 1.0], phis=[0.005, 0.1, 0.0], d0=[0.0, 1.0, 3.0])
    cfg = ControllerConfig(kind=kind, kappa=None if kind == DISCONTINUOUS_STATIC else 0.1,
                           **extra)
    x0 = np.array([[2.0, -1.0], [-1.5, 0.5], [0.5, 2.5], [1.0, 0.0]])
    scn = Scenario(system=CHAIN_SYSTEM, topology=CHAIN, controller=cfg,
                   leader_specs=(CHAIN_LEADER,), x0=x0,
                   v0=np.zeros((4, 2)) if kind == OBSERVER_BASED else None,
                   t_end=t_end, h=1e-3)
    return scn, synthesize(scn, part), part


# eight followers that each hear the two on either side (four or five
# neighbours per row), and two leaders driving both input channels of a
# three-state system: p = 2, so K sigma, the leader feedback and the B and C
# products run BLAS gemv, not dot. The second leader stacks two sinusoids on
# one channel, which must be added in spec order.
WIDE = build_topology([
    [0, 1, 1, 0, 0, 0, 1, 1, 1, 0],
    [1, 0, 1, 1, 0, 0, 0, 1, 0, 0],
    [1, 1, 0, 1, 1, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 1, 1, 0, 0, 1, 0],
    [0, 0, 1, 1, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 1, 1, 0, 1],
    [1, 0, 0, 0, 1, 1, 0, 1, 0, 1],
    [1, 1, 0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
])
WIDE_SYSTEM = LinearSystem(
    A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -1.0]],
    B=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    C=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
)
WIDE_LEADERS = (
    LeaderInputSpec(
        feedback_gain=[[0.3, -1.1, 0.7], [0.45, 0.1, -2.3]],
        sinusoids=(Sinusoid(0, 3.0, 2.0, 0.0), Sinusoid(1, 1.5, 0.7, 0.3)),
        gamma=4.0,
    ),
    LeaderInputSpec(
        feedback_gain=[[-1.3, 0.2, 0.1], [0.6, -0.7, -1.9]],
        sinusoids=(Sinusoid(1, 2.0, 1.0, 1.0), Sinusoid(0, 0.5, 3.0, 0.0),
                   Sinusoid(1, 0.25, 5.0, 2.0)),
        gamma=3.0,
    ),
)


def wide_setup(kind, t_end=20.0, topology=WIDE):
    """The WIDE system and leaders on WIDE, or on another topology with two leaders."""
    part = partition_laplacian(topology)
    m, n_agents = topology.n_followers, topology.n_agents
    extra = {}
    if kind == ADAPTIVE:
        extra = dict(taus=np.linspace(1.0, 5.0, m), phis=np.linspace(0.0, 0.1, m),
                     d0=np.linspace(0.0, 3.0, m))
    cfg = ControllerConfig(kind=kind, kappa=None if kind == DISCONTINUOUS_STATIC else 0.1,
                           **extra)
    x0 = np.random.default_rng(3).uniform(-2.0, 2.0, (n_agents, 3))
    scn = Scenario(system=WIDE_SYSTEM, topology=topology, controller=cfg,
                   leader_specs=WIDE_LEADERS, x0=x0,
                   v0=np.zeros((n_agents, 3)) if kind == OBSERVER_BASED else None,
                   t_end=t_end, h=1e-3)
    return scn, synthesize(scn, part), part


SETUPS = {"default": default_setup, "chain": chain_setup, "wide": wide_setup}


def random_states(scn, rng, draws=300):
    """Stacked states y spanning six decades of scale.

    Every fifth draw puts all agents at one point, so sigma = K sigma = 0;
    a third of the adaptive gains are 0.
    """
    topo = scn.topology
    n_agents, m, n = topo.n_agents, topo.n_followers, scn.system.n
    kind = scn.controller.kind
    for k in range(draws):
        scale = 10.0 ** rng.uniform(-5.0, 1.0)
        if k % 5 == 0:
            x = np.tile(rng.standard_normal(n), (n_agents, 1))
        else:
            x = scale * rng.standard_normal((n_agents, n))
        pieces = [x.ravel()]
        if kind == ADAPTIVE:
            d = rng.uniform(0.0, 10.0, m)
            d[rng.random(m) < 1.0 / 3.0] = 0.0
            pieces.append(d)
        if kind == OBSERVER_BASED:
            v = x if k % 5 == 0 else x + scale * rng.standard_normal((n_agents, n))
            pieces.append(v.ravel())
        yield float(rng.uniform(0.0, 20.0)), np.concatenate(pieces)


def law_branches(scn, gains, y):
    """Which saturation branch each follower's input takes at y, per the oracle."""
    topo = scn.topology
    cfg = scn.controller
    m, n_agents, n = topo.n_followers, topo.n_agents, scn.system.n
    x = y[:n_agents * n].reshape(n_agents, n)
    extra = y[n_agents * n:]
    state = NetworkState(
        t=0.0, follower_states=x[:m], leader_states=x[m:],
        adaptive_gains=extra if cfg.kind == ADAPTIVE else None,
        observer_states=extra.reshape(n_agents, n) if cfg.kind == OBSERVER_BASED else None,
    )
    branches = []
    for i in range(m):
        if cfg.kind == OBSERVER_BASED:
            sigma = observer_relative_state(i, state, topo)
        else:
            sigma = relative_state(i, state, topo)
        ks = gains.K @ sigma
        norm = math.sqrt(float(ks @ ks))
        if cfg.kind == ADAPTIVE:
            d = float(state.adaptive_gains[i])
            branches.append("d=0" if d == 0.0 else "Ks=0" if norm == 0.0
                            else "outside" if d * norm > cfg.kappa else "inside")
        elif cfg.kind == DISCONTINUOUS_STATIC:
            branches.append("Ks=0" if norm == 0.0 else "outside")
        else:
            branches.append("Ks=0" if norm == 0.0
                            else "outside" if norm > cfg.kappa else "inside")
    return branches


def assert_bitwise(got, want, name=""):
    """Equal values and equal sign bits (array_equal alone takes -0.0 == 0.0)."""
    assert got.shape == want.shape, name
    assert np.array_equal(got, want), name
    assert np.array_equal(np.signbit(got), np.signbit(want)), name


# ---------------------------------------------------------------------------
# the three stacked saturations that control.saturate replaced, verbatim


def stacked_ghat(w: np.ndarray, norm=None) -> np.ndarray:
    if norm is None:
        norm = row_norms(w)()
    zero = (norm == 0.0)[..., None]
    return np.where(zero, 0.0, w / np.where(zero, 1.0, norm[..., None]))


def stacked_gsat(w: np.ndarray, kappa: float, norm=None) -> np.ndarray:
    if norm is None:
        norm = row_norms(w)()
    return w / np.where(norm > kappa, norm, kappa)[..., None]


def stacked_rsat(w: np.ndarray, d, kappa: float, norm=None) -> np.ndarray:
    if norm is None:
        norm = row_norms(w)()
    d = np.asarray(d, dtype=float)
    outside = d * norm > kappa
    unit = w / np.where(outside, norm, kappa)[..., None]
    return np.where(outside[..., None], unit, unit * d[..., None])


def random_rows(rng, rows, p, kappa):
    """Rows w of K sigma and gains d that reach every branch of the saturations.

    A fifth of the rows are zero rows with mixed signs and a fifth of the
    gains are 0. Every twentieth row sits on the layer edge, ||w|| = kappa
    with d = 1, and every twentieth on the adaptive edge, d ||w|| = kappa with
    d = 2 (both exact: sqrt(x * x) == |x| and halving is exact).
    """
    w = rng.standard_normal((rows, p)) * 10.0 ** rng.uniform(-4.0, 1.0, (rows, 1))
    d = rng.uniform(0.0, 10.0, rows)
    d[rng.random(rows) < 0.2] = 0.0
    zero = rng.random(rows) < 0.2
    w[zero] = np.where(rng.random((int(zero.sum()), p)) < 0.5, -0.0, 0.0)
    for offset, edge, gain in ((1, kappa, 1.0), (3, kappa / 2.0, 2.0)):
        rows_at = np.arange(rows) % 20 == offset
        w[rows_at] = 0.0
        w[rows_at, 0] = edge
        d[rows_at] = gain
    return w, d


def non_finite_rows(rng, p):
    """Rows w and gains d on which every saturation meets nan or inf.

    Rows holding nan, +inf or -inf (in one entry, or in all), and an inf
    beside a nan when p > 1, each once with a gain in [0.5, 2) and once with
    d = 0, whose reach 0 * inf is nan on the inf rows; then finite rows (zero,
    inside and outside the layer) with a nan d.
    """
    rows = []
    for bad in (np.nan, np.inf, -np.inf):
        for column in range(p):
            row = rng.standard_normal(p)
            row[column] = bad
            rows.append(row)
        rows.append(np.full(p, bad))
    if p > 1:
        rows.append(np.array([np.inf, np.nan] + [1.0] * (p - 2)))
    w = np.array(rows)
    finite = np.array([np.zeros(p), np.full(p, 1e-3), np.full(p, 10.0)])
    d = np.concatenate([rng.uniform(0.5, 2.0, len(w)), np.zeros(len(w)), np.full(3, np.nan)])
    return np.concatenate([w, w, finite]), d


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("p", [1, 2, 3])
def test_saturate_matches_the_three_saturations_bitwise(p):
    kappa = 0.1
    w, d = random_rows(np.random.default_rng(5 + p), 4000, p, kappa)
    norm = row_norms(w)()
    assert_bitwise(saturate(w, norm, 0.0)(), stacked_ghat(w, norm), "width 0")
    assert_bitwise(saturate(w, norm, kappa)(), stacked_gsat(w, kappa, norm), "d absent")
    assert_bitwise(saturate(w, norm, kappa, d)(), stacked_rsat(w, d, kappa, norm), "d given")
    # d = 1 is the static law: the same bits whether it is given or absent
    assert_bitwise(saturate(w, norm, kappa, np.ones(len(w)))(), saturate(w, norm, kappa)())
    # every case occurs: zero rows of both signs, whose static output keeps
    # the sign; both sides of each layer and its edge; d = 0 on nonzero rows
    zero_rows = norm == 0.0
    assert np.signbit(w[zero_rows]).any() and (~np.signbit(w[zero_rows])).any()
    assert np.signbit(stacked_gsat(w, kappa, norm)[zero_rows]).any()
    reach = d * norm
    assert (norm > kappa).any() and ((norm < kappa) & ~zero_rows).any()
    assert (reach > kappa).any() and ((reach < kappa) & (d > 0.0) & ~zero_rows).any()
    assert (norm == kappa).any() and ((reach == kappa) & (d == 2.0)).any()
    assert ((d == 0.0) & ~zero_rows).any()

    # non-finite rows pick their branch by the same comparisons
    w, d = non_finite_rows(np.random.default_rng(41 + p), p)
    with np.errstate(invalid="ignore", over="ignore"):
        norm = row_norms(w)()
        assert_bitwise_nan(saturate(w, norm, 0.0)(), stacked_ghat(w, norm))
        assert_bitwise_nan(saturate(w, norm, kappa)(), stacked_gsat(w, kappa, norm))
        assert_bitwise_nan(saturate(w, norm, kappa, d)(), stacked_rsat(w, d, kappa, norm))
        reach = d * norm
    # every case occurs: nan and inf norms, a nan reach from an inf norm with
    # d = 0, and a nan d on finite rows
    assert np.isnan(norm).any() and np.isinf(norm).any()
    assert (np.isnan(reach) & np.isinf(norm) & (d == 0.0)).any()
    assert (np.isnan(d) & np.isfinite(norm)).any()


@pytest.mark.parametrize("topology", sorted(SETUPS))
@pytest.mark.parametrize("kind", KINDS)
def test_evaluator_matches_oracle_bitwise(kind, topology):
    scn, gains, _ = SETUPS[topology](kind)
    evaluate = make_evaluator(scn, gains)
    oracle = oracle_evaluator(scn, gains)
    rng = np.random.default_rng(11)
    seen = set()
    for t, y in random_states(scn, rng):
        got = evaluate(t, y)
        want = oracle(t, y)
        for a, b in zip(got, want):
            assert_bitwise(a, b)
        seen.update(law_branches(scn, gains, y))
    expected = {"Ks=0", "outside"}
    if kind != DISCONTINUOUS_STATIC:
        expected.add("inside")
    if kind == ADAPTIVE:
        expected.add("d=0")
    assert seen == expected


@pytest.mark.parametrize("topology,steps", [("default", 1000), ("chain", 500), ("wide", 500)])
@pytest.mark.parametrize("kind", KINDS)
def test_integrate_matches_oracle_run(kind, topology, steps, monkeypatch):
    scn, gains, part = SETUPS[topology](kind, t_end=steps * 1e-3)
    traj = integrate(scn, gains, part)
    with monkeypatch.context() as patch:
        patch.setattr(sim, "make_evaluator", oracle_evaluator)
        ref = integrate(scn, gains, part)
    assert traj.times.shape == (steps,)
    for name in ("times", "follower_states", "leader_states", "follower_inputs",
                 "leader_inputs", "adaptive_gains", "observer_states"):
        got, want = getattr(traj, name), getattr(ref, name)
        if want is None:
            assert got is None
        else:
            assert_bitwise(got, want, name)
    # xi, V1 and the leader-bound count are derived after the loop; they never
    # feed back into the dynamics, so a stated tolerance is enough for them
    xi, xi_norm, v1, violations = oracle_derived(traj, scn, gains, part)
    recorded_xi = sim.containment_error(traj.follower_states, traj.leader_states, part)
    assert np.allclose(recorded_xi, xi, rtol=1e-6, atol=0.0)
    assert np.allclose(traj.xi_norm, xi_norm, rtol=1e-6, atol=0.0)
    assert np.allclose(traj.v1, v1, rtol=1e-6, atol=0.0)
    assert traj.assumption2_violations == violations
    if topology == "chain":
        assert violations > 0


@pytest.mark.parametrize("topology", sorted(SETUPS))
@pytest.mark.parametrize("kind", KINDS)
def test_evaluator_results_survive_the_next_call(kind, topology, monkeypatch):
    # The evaluator returns its own buffers, valid until its next call, so
    # what has to survive a call is the evaluator: it never writes the y it is
    # given, a call's results are a fresh evaluator's on the same input
    # whatever was evaluated before (non-finite states included), and a run
    # records copies, never the buffers.
    scn, gains, part = SETUPS[topology](kind, t_end=0.01)
    evaluate = make_evaluator(scn, gains)
    states = []
    for t, y in random_states(scn, np.random.default_rng(2), draws=6):
        states += [(t, y), (t, np.full_like(y, np.nan)), (t, np.where(y > 0.0, np.inf, y))]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y in states:
            y_before = y.copy()
            got = evaluate(t, y)
            want = make_evaluator(scn, gains)(t, y)
            assert y.tobytes() == y_before.tobytes()
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
    buffers = []

    def recording_evaluator(scn, gains):
        evaluate = make_evaluator(scn, gains)
        buffers.extend(evaluate(0.0, np.zeros(scn.state_size)))
        return evaluate

    monkeypatch.setattr(sim, "make_evaluator", recording_evaluator)
    traj = integrate(scn, gains, part)
    recorded = [a for a in vars(traj).values() if isinstance(a, np.ndarray)]
    assert len(buffers) == 3 and len(recorded) >= 7
    assert not any(np.shares_memory(a, b) for a in recorded for b in buffers)


# ---------------------------------------------------------------------------
# the CSR path: graphs above the crossover, against a per-follower oracle
#
# Above the crossover (sim.network_operator) sigma_i sums only follower i's
# neighbours, in ascending column order, the later ones onto the first: for a
# run of up to eight terms np.add.reduceat adds them one at a time onto -0.0
# and that sum onto the first term. The graphs below keep every follower's
# neighbours within eight, so the oracle spells out exactly that.


def neighbour_sum(values):
    """values[0] + (values[1] + ... + values[-1]), the rest added one at a time."""
    rest = -0.0
    for value in values[1:]:
        rest = rest + value
    return values[0] + rest


def csr_relative_state(i, state, topology):
    x_all = np.concatenate([state.follower_states, state.leader_states], axis=0)
    row = topology.adjacency[i]
    return row.sum() * x_all[i] - neighbour_sum(x_all[np.flatnonzero(row)])


def csr_observer_relative_state(i, state, topology):
    row = topology.adjacency[i]
    return row.sum() * state.observer_states[i] - neighbour_sum(
        state.observer_states[np.flatnonzero(row)])


@pytest.fixture
def csr_oracle(monkeypatch):
    """oracle_evaluator, its relative states summed over neighbours only."""
    monkeypatch.setitem(globals(), "relative_state", csr_relative_state)
    monkeypatch.setitem(globals(), "observer_relative_state", csr_observer_relative_state)
    return oracle_evaluator


def sparse_a1_adjacency(rng, m=40, n_leaders=2):
    """A random 0/1 adjacency above the crossover that meets the standing
    assumption: followers first, a random undirected follower forest whose
    every tree some leader feeds, plus a few extra follower edges. Follower 0
    hears only leaders, so its row of L1 is its diagonal alone. No follower
    has more than eight neighbours."""
    n = m + n_leaders
    adj = np.zeros((n, n))
    adj[0, m:] = 1.0
    for i in range(1, m):
        if i == 1 or rng.random() < 0.1:
            adj[i, int(rng.integers(m, n))] = 1.0
        else:
            j = int(rng.integers(1, i))
            adj[i, j] = adj[j, i] = 1.0
    for _ in range(m // 4):
        i, j = rng.choice(np.arange(1, m), 2, replace=False)
        adj[i, j] = adj[j, i] = 1.0
    assert adj.sum(axis=1).max() <= 8
    return adj


def ring_setup(kind, t_end=20.0):
    scn = cli.parse_scenario(ring_scenario(510, 1), controller=kind, t_end=t_end)
    part = partition_laplacian(scn.topology)
    return scn, synthesize(scn, part), part


def sparse_setup(kind, t_end=20.0):
    topology = build_topology(sparse_a1_adjacency(np.random.default_rng(17)))
    return wide_setup(kind, t_end, topology)


CSR_SETUPS = {"ring510": ring_setup, "sparse": sparse_setup}


def assert_bitwise_nan(got, want):
    """assert_bitwise, where nan matches nan (whatever its sign bit)."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def blown_up_states(scn, rng, draws):
    """States in which one agent, by turns the last leader and a random
    follower, holds inf or nan in one component."""
    topo = scn.topology
    n_agents, n = topo.n_agents, scn.system.n
    observer = scn.controller.kind == OBSERVER_BASED
    for k, (t, y) in enumerate(random_states(scn, rng, draws)):
        x, _, v = scn.blocks(y)
        agent = int(rng.integers(0, topo.n_followers)) if k % 2 else n_agents - 1
        bad = np.inf if k % 4 < 2 else np.nan
        (v if observer else x)[agent, int(rng.integers(0, n))] = bad
        yield t, y, agent


def test_crossover_takes_csr_above_and_keeps_the_dense_product_below():
    # the unedited oracle above guards the dense bits on default, chain and
    # wide only while their neighbour sums stay dense
    for name, setup in list(SETUPS.items()) + list(CSR_SETUPS.items()):
        scn, _, part = setup(ADAPTIVE, t_end=0.01)
        rows = scn.topology.adjacency[:scn.topology.n_followers]
        sparse = name in CSR_SETUPS
        assert isinstance(network_operator(rows), NeighbourSum) == sparse, name
        assert isinstance(network_operator(part.L1), NeighbourSum) == sparse, name


@pytest.mark.parametrize("topology,draws", [("ring510", 12), ("sparse", 200)])
@pytest.mark.parametrize("kind", KINDS)
def test_csr_evaluator_matches_neighbour_oracle_bitwise(kind, topology, draws, csr_oracle):
    scn, gains, _ = CSR_SETUPS[topology](kind, t_end=0.01)
    evaluate = make_evaluator(scn, gains)
    oracle = csr_oracle(scn, gains)
    rng = np.random.default_rng(23)
    for t, y in random_states(scn, rng, draws):
        for a, b in zip(evaluate(t, y), oracle(t, y)):
            assert_bitwise(a, b)


@pytest.mark.parametrize("topology", sorted(CSR_SETUPS))
@pytest.mark.parametrize("kind", KINDS)
def test_csr_path_spreads_non_finite_states_to_neighbours_only(kind, topology, csr_oracle):
    # The dense product multiplies every non-neighbour by 0, and 0 * inf is
    # nan; the CSR sums never read a non-neighbour, so an inf or nan agent
    # reaches only the followers that hear it.
    scn, gains, _ = CSR_SETUPS[topology](kind, t_end=0.01)
    evaluate = make_evaluator(scn, gains)
    oracle = csr_oracle(scn, gains)
    adjacency = scn.topology.adjacency
    m = scn.topology.n_followers
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y, agent in blown_up_states(scn, np.random.default_rng(29), 8):
            got = evaluate(t, y)
            for a, b in zip(got, oracle(t, y)):
                assert_bitwise_nan(a, b)
            touched = adjacency[:m, agent] != 0.0
            if agent < m:
                touched[agent] = True
            assert np.isfinite(got[1][~touched]).all()
            assert not np.isfinite(got[1][touched]).all(axis=1).any()


@pytest.mark.parametrize("kind", KINDS)
def test_csr_integrate_matches_neighbour_oracle_run(kind, csr_oracle, monkeypatch):
    scn, gains, part = sparse_setup(kind, t_end=0.3)
    traj = integrate(scn, gains, part)
    monkeypatch.setattr(sim, "make_evaluator", csr_oracle)
    ref = integrate(scn, gains, part)
    for name in ("follower_states", "leader_states", "follower_inputs", "leader_inputs",
                 "adaptive_gains", "observer_states"):
        got, want = getattr(traj, name), getattr(ref, name)
        if want is None:
            assert got is None
        else:
            assert_bitwise(got, want, name)
    _, xi_norm, v1, violations = oracle_derived(traj, scn, gains, part)
    assert np.allclose(traj.xi_norm, xi_norm, rtol=1e-12, atol=0.0)
    assert np.allclose(traj.v1, v1, rtol=1e-12, atol=0.0)
    assert traj.assumption2_violations == violations


def dense_v1(xi, part, p_inv):
    """0.5 xi' (L1 (x) P^-1) xi for each row of a stack of xi."""
    weight = np.kron(part.L1, p_inv)
    return np.array([0.5 * float(row @ weight @ row) for row in xi])


@pytest.mark.parametrize("topology", sorted(CSR_SETUPS))
def test_csr_v1_matches_the_dense_quadratic_form(topology):
    scn, gains, part = CSR_SETUPS[topology](ADAPTIVE, t_end=0.01)
    l1 = network_operator(part.L1)
    assert isinstance(l1, NeighbourSum)
    p_inv = np.linalg.inv(gains.P)
    m, n = scn.topology.n_followers, scn.system.n
    rng = np.random.default_rng(31)
    xi = rng.standard_normal((5, m * n)) * 10.0 ** rng.uniform(-4.0, 2.0, (5, 1))
    want = dense_v1(xi, part, p_inv)
    assert np.allclose(sim.lyapunov_v1(xi, part, p_inv), want, rtol=1e-12, atol=0.0)
    assert np.allclose(sim.lyapunov_v1(xi[2], part, p_inv), want[2], rtol=1e-12, atol=0.0)
    assert np.allclose(l1 @ xi.reshape(5, m, n), part.L1 @ xi.reshape(5, m, n),
                       rtol=0.0, atol=1e-12 * np.abs(xi).max())


def test_neighbour_sum_needs_a_nonzero_in_every_row():
    # follower 0 of the sparse graph hears only leaders: its row of the
    # follower-to-follower adjacency is empty, which np.add.reduceat would
    # fill with the start element, so the operator refuses it; L1 keeps the
    # row nonempty by its diagonal, the degree
    topology = build_topology(sparse_a1_adjacency(np.random.default_rng(17)))
    part = partition_laplacian(topology)
    m = topology.n_followers
    among_followers = topology.adjacency[:m, :m]
    assert not among_followers[0].any() and part.L1[0, 0] == 2.0
    with pytest.raises(ValueError, match="nonzero in every row"):
        NeighbourSum(among_followers)
    block = np.random.default_rng(37).standard_normal((m, 3))
    assert np.allclose(NeighbourSum(part.L1) @ block, part.L1 @ block, rtol=0.0, atol=1e-12)
