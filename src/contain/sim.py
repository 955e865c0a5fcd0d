"""Closed-loop network simulation: stacked ODE assembly, RK4, error metrics.

The stacked state is laid out as

    [follower states | leader states | adaptive gains (if any) | observer states (if any)]

row-major per agent. Integration is classic fixed-step RK4; the discontinuous
controller is integrated as-is (chattering is something this tool measures, not
something it smooths away). The leader-input bound monitor samples at grid
nodes only, not at RK4 stage points.

The recorded grid is t_k = k h for k = 0 .. S-1 with S = round(t_end / h):
one row per integration step, each row holding the state at the step start and
the inputs applied over that step. t_end = h therefore records exactly the
initial condition (a zero-step horizon).

The vector field evaluates every follower at once (make_evaluator) and must
round exactly as a per-follower evaluation does. The default adaptive run
chatters inside a boundary layer of width kappa/d (about 0.014), so a
difference in the last bit of one input grows along the trajectory until it
shows in the reported metrics. Two rules keep the arithmetic bit-identical:

- every matrix-vector product is a stacked matmul, M @ v[:, :, None], and
  every norm a stacked dot; numpy runs those as one BLAS gemv or dot per row,
  the same call a single vector gets. sigma @ K.T and einsum use other
  kernels and round differently (FMA, summation order) on most inputs;
- the saturation divides as the scalar formulas do: w / ||w||, w / kappa and
  (w / kappa) * d, never w * (1 / ||w||) or w * (d / kappa).

At 6 followers an evaluation costs numpy call overhead, not flops, so the
evaluator binds its buffers and views once per run (make_evaluator) and a call
is a short list of out= ufunc and matmul calls on them. An out= call runs the
same kernel as the allocating call it replaces: each matmul writes into a
C-contiguous buffer of the shape that call would return, so numpy picks the
same BLAS dot or gemv. What the evaluator returns are its own buffers, valid
until its next call.

One stepper, steps(), runs every simulation and yields it in chunks of steps;
integrate collects them. Each step evaluates once at its start, recording the
inputs and taking the rate as RK4's k1, and rk4_step consumes the evaluator's
buffers in order, each stage before the next call overwrites it, summing in
the textbook order into the chunk's next row. Finiteness is checked once per
chunk, and the first non-finite state is then located exactly, so a
divergence reports what a per-step check would.

xi, |xi|, V1 and the leader-bound count never feed back into the dynamics;
they are derived from the recorded states after the loop, a bounded chunk of
steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .control import (
    ADAPTIVE,
    CONTINUOUS_STATIC,
    OBSERVER_BASED,
    ControllerConfig,
    LinearSystem,
    follower_law,
    leader_input,
    row_norms,
)
from .graph import LaplacianPartition, Topology
from .matlib import solve_linear
from .synthesis import BoundReport, GainSet


# Largest recording integrate may allocate, in float64 values: the states and
# inputs of every step (0.8 GB). A 20 s run of the 510-follower adaptive ring
# at the default step h records about 41 million.
MAX_RECORDED_VALUES = 10**8


class HorizonTooLong(ValueError):
    """t_end / h steps would record more than MAX_RECORDED_VALUES values."""


class NonFiniteState(RuntimeError):
    """State blew up mid-run.

    Carries the finite prefix of the trajectory, the step and time t of the
    first non-finite state, and that state's first non-finite entry as
    (agent label, block, component): block "x" for an agent state, "d" for an
    adaptive gain (a scalar: component None) and "v" for an observer state.
    """

    def __init__(self, message, trajectory=None, step=None, t=None, entry=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.step = step
        self.t = t
        self.entry = entry


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to run one closed-loop simulation and certify it.

    x0 (and v0, which only the observer-based law reads) hold one row per
    agent in canonical followers-first order; parse_scenario permutes the
    file's rows before building one of these. The recorded grid has
    round(t_end / h) steps, and the certified tail is the final tail_fraction
    of it. The rules that tie the parts together (shapes, counts, the
    recording budget) and those on the grid are checked here, once.
    """

    system: LinearSystem
    topology: Topology
    controller: ControllerConfig
    leader_specs: tuple
    x0: np.ndarray
    v0: Optional[np.ndarray] = None
    t_end: float = 20.0
    h: float = 1e-3
    tail_fraction: float = 0.2

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        if self.t_end < self.h:
            raise ValueError("t_end must be at least h")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")
        n = self.system.n
        n_agents = self.topology.n_agents
        m = self.topology.n_followers
        kind = self.controller.kind
        width = self.state_size + n_agents * self.system.p
        steps = self.t_end / self.h
        if not steps * width <= MAX_RECORDED_VALUES:
            raise HorizonTooLong(
                f"t_end / h = {steps:.6g} steps recording {width} values each exceed "
                f"the limit of {MAX_RECORDED_VALUES} recorded values; raise h or shorten t_end"
            )
        object.__setattr__(self, "x0", _agent_rows(self.x0, "x0", n_agents, n))
        object.__setattr__(self, "leader_specs", tuple(self.leader_specs))
        if len(self.leader_specs) != n_agents - m:
            raise ValueError(
                f"expected {n_agents - m} leader specs, got {len(self.leader_specs)}"
            )
        for spec in self.leader_specs:
            if spec.feedback_gain.shape != (self.system.p, n):
                raise ValueError(
                    f"leader feedback gain must be {(self.system.p, n)}, "
                    f"got {spec.feedback_gain.shape}"
                )
            if not all(np.isfinite(abs(s.omega) * self.t_end + abs(s.phase)) for s in spec.sinusoids):
                raise ValueError("leader sinusoid phase omega t + phase overflows before t_end")
        if kind == OBSERVER_BASED:
            if self.v0 is None:
                raise ValueError("observer-based scenario needs v0")
            object.__setattr__(self, "v0", _agent_rows(self.v0, "v0", n_agents, n))
        elif self.v0 is not None:
            raise ValueError("v0 only makes sense for observer-based scenarios")
        if kind == ADAPTIVE and self.controller.d0.shape != (m,):
            raise ValueError(
                f"taus, phis and d0 must list one value per follower ({m}), "
                f"got {self.controller.d0.shape[0]}"
            )

    @property
    def state_size(self) -> int:
        """Length of the stacked state y (see the module docstring)."""
        kind = self.controller.kind
        off_x = self.topology.n_agents * self.system.n
        return (off_x + (self.topology.n_followers if kind == ADAPTIVE else 0)
                + (off_x if kind == OBSERVER_BASED else 0))

    @property
    def n_steps(self) -> int:
        """Steps S of the recorded grid t_k = k h, k = 0 .. S-1."""
        return int(round(self.t_end / self.h))

    @property
    def gammas(self) -> list:
        """The leaders' declared input bounds gamma_j, in canonical order."""
        return [spec.gamma for spec in self.leader_specs]


def _agent_rows(rows, name: str, n_agents: int, n: int) -> np.ndarray:
    """rows as a finite (n_agents, n) float array, or ValueError naming it."""
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (n_agents, n):
        got = "x".join(map(str, arr.shape))
        raise ValueError(f"{name} must be {n_agents}x{n} (one row per agent), got {got}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid record of one run. Arrays are indexed [step, ...]."""

    times: np.ndarray
    follower_states: np.ndarray      # (S, M, n)
    leader_states: np.ndarray        # (S, N-M, n)
    follower_inputs: np.ndarray      # (S, M, p)
    leader_inputs: np.ndarray        # (S, N-M, p)
    xi_norm: np.ndarray              # (S,)
    v1: np.ndarray                   # (S,)
    assumption2_violations: int
    adaptive_gains: Optional[np.ndarray] = None   # (S, M)
    observer_states: Optional[np.ndarray] = None  # (S, N, n)


@dataclass(frozen=True)
class Metrics:
    tail_sup_xi_sq: float
    d1_certified: bool
    envelope_violations: int
    chattering_index: float
    d2_certified: Optional[bool] = None
    d_sup: Optional[float] = None


def containment_error(
    follower_states: np.ndarray, leader_states: np.ndarray, part: LaplacianPartition
) -> np.ndarray:
    """xi = x_f - (W (x) I_n) x_l, flattened follower-major.

    Takes (M, n) and (N-M, n) states, or stacks of them with a leading step
    axis, and returns (M*n,) or (S, M*n).
    """
    diff = follower_states - part.W @ leader_states
    return diff.reshape(diff.shape[:-2] + (-1,))


def lyapunov_v1(xi: np.ndarray, part: LaplacianPartition, p_inv: np.ndarray):
    """V1 = 0.5 xi.T (L1 (x) P^-1) xi, for one xi or a stack of them (S, M*n)."""
    xi = np.asarray(xi, dtype=float)
    block = xi.reshape(xi.shape[:-1] + (part.L1.shape[0], -1))
    weighted = block * (part.L1 @ block @ p_inv)
    return 0.5 * np.sum(weighted.reshape(xi.shape), axis=-1)


# Values of xi derived at a time from a recording: each chunk of steps makes a
# few temporaries of this many values (xi, W x_l and the V1 products), 0.5 MB
# each, whatever the horizon or the follower count.
_DERIVED_CHUNK_VALUES = 1 << 16


def _derived_series(xf, xl, ul, part: LaplacianPartition, p_inv: np.ndarray, gammas):
    """|xi| and V1 of every recorded step, and the number of leader input
    samples above their bound gamma_j, taken a chunk of steps at a time.

    A step goes through the same stacked kernels whichever chunk holds it, so
    the results do not depend on the chunk size.
    """
    steps = xf.shape[0]
    chunk = max(1, _DERIVED_CHUNK_VALUES // (xf.shape[1] * xf.shape[2]))
    xi_norm = np.empty(steps)
    v1 = np.empty(steps)
    violations = 0
    for start in range(0, steps, chunk):
        span = slice(start, start + chunk)
        xi = containment_error(xf[span], xl[span], part)
        row_norms(xi, out=xi_norm[span])()
        v1[span] = lyapunov_v1(xi, part, p_inv)
        violations += int(np.count_nonzero(row_norms(ul[span])() > gammas))
    return xi_norm, v1, violations


def make_evaluator(scn: Scenario, gains: GainSet):
    """Build evaluate(t, y) -> (ydot, follower inputs, leader inputs).

    One call evaluates every follower at once. Everything fixed for the run is
    bound here, once: a stage buffer that each call copies y into, every view
    of it (the agent states x, x_f, x_l, the measured source, which is x or
    the observer states, and the adaptive gains d), the buffers of every
    intermediate, the law (follower_law) and the leader inputs
    (leader_input), both bound to those views. A call is then a short list of
    ufunc and matmul calls writing into those buffers. It never writes y, and
    what it returns are its own ydot and input buffers: they hold this call's
    results until the next call overwrites them, so a caller that keeps a
    result copies it first. The evaluator is not reentrant.

    The forms are chosen to round exactly as the per-follower formulas do
    (see the module docstring): sigma_i = deg_i s_i - a_i @ s row by row via
    rows @ s, and every matrix-vector product, K sigma_i, Gamma sigma_i and
    the observer's C, A, B and L_obs products, as a stacked matmul that runs
    one BLAS gemv per row. Each matmul writes into a C-contiguous buffer of
    the shape the allocating call would return, so numpy picks the same BLAS
    call for it.
    """
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
    off_x = n_agents * n
    rows = topo.adjacency[:m, None, :]
    # deg_i repeated over the n columns: the products of broadcasting the
    # (M, 1) column, without broadcasting on every call
    degree = np.repeat(topo.adjacency[:m].sum(axis=1)[:, None], n, axis=1)
    a_t = system.A.T.copy()
    b_t = system.B.T.copy()

    state = np.empty(scn.state_size)
    x = state[:off_x].reshape(n_agents, n)
    xf = x[:m]
    xl = x[m:]
    source = state[off_x:].reshape(n_agents, n) if observer else x
    source_f = source[:m]
    neighbours = np.empty((m, 1, n))
    neighbour_sum = neighbours[:, 0]
    sigma = np.empty((m, n))
    # ydot = [x_f' | x_l' | d' (adaptive) | v' (observer)], written in place;
    # the inputs of all agents share one (N, p, 1) buffer.
    ydot = np.empty_like(state)
    xdot_f = ydot[:m * n].reshape(m, n)
    xdot_l = ydot[m * n:off_x].reshape(n_leaders, n)
    bu_f = np.empty((m, n))
    bu_l = np.empty((n_leaders, n))
    u_col = np.empty((n_agents, p, 1))
    u_f = u_col[:m, :, 0]
    u_l = u_col[m:, :, 0]
    results = (ydot, u_f, u_l)
    law = follower_law(cfg, gains, sigma, state[off_x:off_x + m] if adaptive else None,
                       u=u_f, d_rate=ydot[off_x:off_x + m] if adaptive else None)
    leader_inputs = leader_input(scn.leader_specs, xl, out=u_col[m:])
    if observer:
        v = source[:, :, None]
        x_col = x[:, :, None]
        cv = np.empty((n_agents, system.C.shape[0], 1))
        cx = np.empty_like(cv)
        vdot = ydot[off_x:].reshape(n_agents, n, 1)
        bu = np.empty_like(vdot)
        l_innovation = np.empty_like(vdot)

    def evaluate(t: float, y: np.ndarray):
        state[...] = y
        np.multiply(degree, source_f, out=sigma)
        np.matmul(rows, source, out=neighbours)
        np.subtract(sigma, neighbour_sum, out=sigma)
        law()
        leader_inputs(t)
        # Separate follower and leader products, as the per-agent code had:
        # a gemm over a different row count is not guaranteed to round alike.
        np.matmul(xf, a_t, out=xdot_f)
        np.matmul(u_f, b_t, out=bu_f)
        np.add(xdot_f, bu_f, out=xdot_f)
        np.matmul(xl, a_t, out=xdot_l)
        np.matmul(u_l, b_t, out=bu_l)
        np.add(xdot_l, bu_l, out=xdot_l)
        if observer:
            np.matmul(system.C, v, out=cv)
            np.matmul(system.C, x_col, out=cx)
            np.subtract(cv, cx, out=cv)
            np.matmul(system.A, v, out=vdot)
            np.matmul(system.B, u_col, out=bu)
            np.matmul(gains.L_obs, cv, out=l_innovation)
            np.add(vdot, bu, out=vdot)
            np.add(vdot, l_innovation, out=vdot)
        return results

    return evaluate


def rk4_step(f: Callable, t: float, y: np.ndarray, h: float, k1: np.ndarray,
             out: Optional[np.ndarray] = None, work: Optional[tuple] = None) -> np.ndarray:
    """One classic Runge-Kutta 4 step from y at t, given its first stage k1 = f(t, y).

    f(t, y) returns the rate at (t, y), alone or as the first item of a tuple
    (make_evaluator's (ydot, u_f, u_l)). The rate may be a buffer that the
    next call of f overwrites: each stage is consumed, into the next stage
    point and the running sum, before f is called again. f keeps no reference
    to its argument, the stage point, which is rebuilt for the next stage.

    y + (h/6)(k1 + 2 k2 + 2 k3 + k4) is summed in out in that order, scaled
    by h/6, then y is added; addition and multiplication commute exactly, so
    the bits are those of the textbook expression. out receives y at t + h and
    work is a pair of arrays shaped like y, the stage point and one scratch
    array; both are the caller's when given, else allocated, and neither may
    overlap y.
    """
    if out is None:
        out = np.empty_like(y)
    stage, scratch = (np.empty_like(y), np.empty_like(y)) if work is None else work
    out[...] = k1
    k = k1
    # k2, k3 and k4, each at y plus an offset times the previous stage and
    # weighted 2, 2 and 1 in the sum; 2 k is k + k, exactly
    for offset, doubled in ((0.5 * h, True), (0.5 * h, True), (h, False)):
        np.multiply(k, offset, out=stage)
        np.add(stage, y, out=stage)
        k = f(t + offset, stage)
        if isinstance(k, tuple):
            k = k[0]
        if doubled:
            np.add(k, k, out=scratch)
            np.add(out, scratch, out=out)
        else:
            np.add(out, k, out=out)
    np.multiply(out, h / 6.0, out=out)
    np.add(out, y, out=out)
    return out


# Steps integrated between finiteness checks: steps() yields chunks of this
# many steps, and a diverging run integrates at most this many steps past its
# first non-finite state.
_STEP_CHUNK = 64


def steps(scn: Scenario, gains: GainSet):
    """Integrate the scenario, yielding chunks (times, y, u_f, u_l) of its steps.

    Each chunk holds up to _STEP_CHUNK consecutive steps of the grid t_k = k h
    (module docstring): times (C,), the stacked state at each step start y
    (C, width), and the inputs applied over each step, u_f (C, M, p) and u_l
    (C, N-M, p). The arrays are views of buffers the stepper owns, allocated
    once per run: they hold the chunk until the next one is asked for, so a
    consumer that keeps them copies them.

    One evaluation per step, at its start, gives the recorded inputs and
    rk4_step's k1; rk4_step writes the next state straight into the chunk's
    next row. Finiteness is checked once per chunk: when a state is not
    finite, the chunk's finite prefix is yielded and NonFiniteState raised,
    naming the first non-finite state's step and time and its first
    non-finite entry.
    """
    topo = scn.topology
    cfg = scn.controller
    m = topo.n_followers
    p = scn.system.p
    h = scn.h
    total = scn.n_steps
    chunk = _STEP_CHUNK

    pieces = [scn.x0.reshape(-1)]
    if cfg.kind == ADAPTIVE:
        pieces.append(cfg.d0.astype(float))
    if cfg.kind == OBSERVER_BASED:
        pieces.append(scn.v0.reshape(-1))
    y0 = np.concatenate(pieces)

    evaluate = make_evaluator(scn, gains)
    # row C carries the state at the next chunk's first step
    ys = np.empty((chunk + 1, y0.shape[0]))
    uf = np.empty((chunk, m, p))
    ul = np.empty((chunk, topo.n_leaders, p))
    work = (np.empty_like(y0), np.empty_like(y0))
    rows = list(ys)
    ys[0] = y0
    for start in range(0, total, chunk):
        if start:
            ys[0] = ys[chunk]
        count = min(chunk, total - start)
        advanced = count if start + count < total else count - 1
        times = np.arange(start, start + count) * h
        # divergent runs overflow on purpose before the check below fires
        with np.errstate(over="ignore", invalid="ignore"):
            for j, t in enumerate(times.tolist()):
                k1, uf[j], ul[j] = evaluate(t, rows[j])
                if j < advanced:
                    rk4_step(evaluate, t, rows[j], h, k1, out=rows[j + 1], work=work)
        finite = np.isfinite(ys[1:advanced + 1])
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            yield times[:row + 1], ys[:row + 1], uf[:row + 1], ul[:row + 1]
            t = float(times[row])
            raise NonFiniteState(
                f"state became non-finite advancing from t = {t:.6g}",
                step=start + row + 1,
                t=t + h,
                entry=_state_entry(scn, int(np.argmin(finite[row]))),
            )
        yield times, ys[:count], uf[:count], ul[:count]


def _state_entry(scn: Scenario, column: int):
    """(agent label, block, component) of a column of the stacked state."""
    topo = scn.topology
    n = scn.system.n
    off_x = topo.n_agents * n
    if column < off_x:
        return topo.labels[column // n], "x", column % n + 1
    column -= off_x
    if scn.controller.kind == ADAPTIVE:
        return topo.labels[column], "d", None
    return topo.labels[column // n], "v", column % n + 1


def integrate(scn: Scenario, gains: GainSet, part: LaplacianPartition) -> Trajectory:
    """Run the scenario, recording every step start: steps() collected into a
    Trajectory, with xi, V1 and the leader-bound count derived after the run.

    Raises NonFiniteState on divergence, with the finite prefix attached.
    """
    topo = scn.topology
    cfg = scn.controller
    m = topo.n_followers
    n_leaders = topo.n_leaders
    n_agents = topo.n_agents
    n = scn.system.n
    p = scn.system.p
    total = scn.n_steps

    p_inv = solve_linear(gains.P, np.eye(n))
    gammas = np.array(scn.gammas)

    times = np.empty(total)
    y_rec = np.empty((total, scn.state_size))
    uf_rec = np.empty((total, m, p))
    ul_rec = np.empty((total, n_leaders, p))

    def snapshot(upto: int) -> Trajectory:
        """Trajectory of the first `upto` recorded steps, with xi, V1 and the
        leader-bound count derived from the recorded states."""
        rec = y_rec[:upto]
        xf = rec[:, :m * n].reshape(upto, m, n)
        xl = rec[:, m * n:n_agents * n].reshape(upto, n_leaders, n)
        extra = rec[:, n_agents * n:]
        ul = ul_rec[:upto]
        # the finite prefix of a run that blew up may overflow here too
        with np.errstate(over="ignore", invalid="ignore"):
            xi_norm, v1, violations = _derived_series(xf, xl, ul, part, p_inv, gammas)
        return Trajectory(
            times=times[:upto],
            follower_states=xf,
            leader_states=xl,
            follower_inputs=uf_rec[:upto],
            leader_inputs=ul,
            xi_norm=xi_norm,
            v1=v1,
            assumption2_violations=violations,
            adaptive_gains=extra if cfg.kind == ADAPTIVE else None,
            observer_states=(
                extra.reshape(upto, n_agents, n) if cfg.kind == OBSERVER_BASED else None
            ),
        )

    filled = 0
    try:
        for t, y, u_f, u_l in steps(scn, gains):
            span = slice(filled, filled + len(t))
            times[span] = t
            y_rec[span] = y
            uf_rec[span] = u_f
            ul_rec[span] = u_l
            filled = span.stop
    except NonFiniteState as exc:
        exc.trajectory = snapshot(filled)
        raise
    return snapshot(total)


def compute_metrics(
    traj: Trajectory,
    bounds: BoundReport,
    gains: GainSet,
    tail_fraction: float,
) -> Metrics:
    """Certification metrics over a completed trajectory.

    The tail window is the final tail_fraction of the recorded horizon. The
    V1 envelope check allows 1e-9 absolute slack plus one step of time slack
    (the envelope is evaluated at both t and t - h and the larger value wins).
    """
    times = traj.times
    span = float(times[-1])
    mask = times >= (1.0 - tail_fraction) * span - 1e-12
    tail_sup = float(np.max(traj.xi_norm[mask] ** 2))

    d1_certified = tail_sup <= bounds.d1_radius_sq
    d2_certified = None
    if bounds.d2_radius_sq is not None:
        d2_certified = tail_sup <= bounds.d2_radius_sq

    alpha = gains.alpha
    offset = bounds.envelope_offset
    v10 = float(traj.v1[0])
    h = float(times[1] - times[0]) if len(times) > 1 else 0.0
    env_now = (v10 - offset) * np.exp(-alpha * times) + offset
    shifted = np.maximum(times - h, 0.0)
    env_prev = (v10 - offset) * np.exp(-alpha * shifted) + offset
    envelope = np.maximum(env_now, env_prev)
    violations = int(np.sum(traj.v1 > envelope + 1e-9))

    if len(times) > 1:
        diffs = np.diff(traj.follower_inputs, axis=0)
        per_step = np.sqrt(np.sum(diffs * diffs, axis=(1, 2)))
        chattering = float(np.mean(per_step)) / h
    else:
        chattering = 0.0

    d_sup = None
    if traj.adaptive_gains is not None:
        d_sup = float(np.max(traj.adaptive_gains))

    return Metrics(
        tail_sup_xi_sq=tail_sup,
        d1_certified=d1_certified,
        envelope_violations=violations,
        chattering_index=chattering,
        d2_certified=d2_certified,
        d_sup=d_sup,
    )


class Verdict(NamedTuple):
    """A run's verdict; reason names the failed premise that voided it, if any."""

    certified: bool
    reason: Optional[str] = None

    @property
    def label(self) -> str:
        return "certified" if self.certified else "not certified"


def run_verdict(kind: str, metrics: Metrics, traj: Trajectory) -> Verdict:
    """The verdict of a completed run, for the report and the exit code.

    D1 and D2 assume every leader input stays within its bound gamma_j, so one
    sampled violation leaves the run not certified. Otherwise the continuous
    static law is certified by its tail inside D1 and the adaptive law by its
    tail inside D2 (never when varrho >= alpha); the discontinuous and
    observer-based laws assert no finite radius and are not gated.
    """
    if traj.assumption2_violations:
        return Verdict(False, (
            f"{traj.assumption2_violations} leader input samples exceed their "
            "bound gamma_j, which D1 and D2 assume"
        ))
    if kind == CONTINUOUS_STATIC:
        return Verdict(metrics.d1_certified)
    if kind == ADAPTIVE:
        return Verdict(bool(metrics.d2_certified))
    return Verdict(True)
