"""Closed-loop network simulation: stacked ODE assembly, RK4, error metrics.

The stacked state is laid out as

    [follower states | leader states | adaptive gains (if any) | observer states (if any)]

row-major per agent; Scenario.blocks returns its views. Integration is
classic fixed-step RK4; the discontinuous controller is integrated as-is
(chattering is something this tool measures, not something it smooths away).
The leader-input bound monitor samples at grid nodes only, not at RK4 stage
points.

The recorded grid is t_k = k h for k = 0 .. S-1 with S = round(t_end / h):
one row per integration step, each row holding the state at the step start and
the inputs applied over that step. t_end = h therefore records exactly the
initial condition (a zero-step horizon).

The vector field evaluates every follower at once (make_evaluator) and must
round exactly as a per-follower evaluation does. The default adaptive run
chatters inside a boundary layer of width kappa/d (about 0.014), so a
difference in the last bit of one input grows along the trajectory until it
shows in the reported metrics. Three rules keep the arithmetic bit-identical:

- every matrix-vector product of the law and the observer is a stacked
  matmul, M @ v[:, :, None], and every norm a stacked dot; numpy runs those
  as one BLAS gemv or dot per row, the same call a single vector gets.
  sigma @ K.T and einsum use other kernels and round differently (FMA,
  summation order) on most inputs;
- the agent dynamics A x_i + B u_i are one product per matrix over all N
  agent rows, x @ A.T and u @ B.T, and one add. The oracle tests find that
  this gemm rounds each row as the per-agent product does under OpenBLAS's
  SkylakeX, Haswell and Sandybridge kernels. The observer's four products
  stay stacked matmuls: as 2-D products they change its bits;
- the saturation divides as the scalar formulas do: w / ||w||, w / kappa and
  (w / kappa) * d, never w * (1 / ||w||) or w * (d / kappa). It writes the
  inside form into every row and then divides the rows outside the layer by
  their norms in one masked division.

Neighbour sums, the sum_j a_ij s_j of sigma_i and the L1 xi of V1, follow
one crossover rule (network_operator). While more than one entry in eight of
the matrix summed over is nonzero, as on the default graph (16 of the 48
entries of its follower rows), they stay the dense products above, bit for
bit. At or below it, as on the 510-follower ring (1 022 of 261 120), they are
CSR sums over the nonzeros alone (NeighbourSum): O(edges) work in place of
O(M N). The two differ in rounding. The CSR sum adds a follower's neighbours
in column order onto the first, and the gemv sums every column, zeros
included, in BLAS's order, so a graph above the crossover records different
last bits (up to 3.6e-13 relative over the ring's 50 benchmark steps, whose
metrics keep every printed digit). A non-finite state reaches only the
followers that hear it: the dense product's 0 * inf spreads nan to all.

At 6 followers an evaluation costs numpy call overhead, not flops, so the
evaluator binds its buffers and views once per run (make_evaluator) and a call
is a short list of ufunc, matmul and dot calls on them, 25 for an adaptive
evaluation. Each passes its output positionally, through a name bound once,
which numpy parses faster than an out= keyword. A call with an output runs
the same kernel as the allocating call it replaces: each product writes into
a C-contiguous buffer of the shape that call would return, so numpy picks the
same BLAS call. What the evaluator returns are its own buffers, valid until
its next call.

One loop, integrate, runs every simulation, straight into the recording it
returns: each state and input is written once. Each step evaluates once at
its start, writing the inputs into row k and taking the rate as RK4's k1, and
rk4_step consumes the evaluator's buffers in order, each stage before the
next call overwrites it, summing in the textbook order into row k + 1.
Finiteness is checked once per chunk of steps, and the first non-finite state
is then located exactly, so a divergence reports what a per-step check would.

xi, |xi|, V1 and the leader-bound count never feed back into the dynamics;
integrate derives them from the recorded states of each chunk as it lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .control import (
    ADAPTIVE,
    OBSERVER_BASED,
    ControllerConfig,
    LinearSystem,
    follower_law,
    leader_input,
    row_norms,
)
from .graph import LaplacianPartition, Topology
from .matlib import as_matrix, solve_linear
from .synthesis import BoundReport, GainSet


# Largest recording integrate may allocate, in float64 values: the states and
# inputs of every step (0.8 GB). A 20 s run of the 510-follower adaptive ring
# at the default step h records about 41 million.
MAX_RECORDED_VALUES = 10**8


class HorizonTooLong(ValueError):
    """t_end / h steps would record more than MAX_RECORDED_VALUES values."""


class NonFiniteState(RuntimeError):
    """State blew up mid-run.

    Carries the finite prefix of the trajectory, the step and grid time
    t = step h of the first non-finite state, and that state's first
    non-finite entry as (agent label, block, component): block "x" for an
    agent state, "d" for an adaptive gain (a scalar: component None) and "v"
    for an observer state. The message ends by naming the entry, as in
    "(first non-finite: agent 1 x_1)".
    """

    def __init__(self, message, trajectory=None, step=None, t=None, entry=None):
        if entry is not None:
            label, block, component = entry
            name = block if component is None else f"{block}_{component}"
            message = f"{message} (first non-finite: agent {label} {name})"
        super().__init__(message)
        self.trajectory = trajectory
        self.step = step
        self.t = t
        self.entry = entry


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to run one closed-loop simulation and certify it.

    x0 and v0 hold one row per agent in canonical followers-first order (any
    v0 is checked; only the observer-based law keeps it, zeros by default);
    parse_scenario permutes the file's rows before building one of these. The recorded grid has
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
        object.__setattr__(self, "x0", agent_rows(self.x0, "x0", n_agents, n))
        object.__setattr__(self, "leader_specs", tuple(self.leader_specs))
        if len(self.leader_specs) != n_agents - m:
            raise ValueError(
                f"expected {n_agents - m} leader specs, got {len(self.leader_specs)}"
            )
        for label, spec in zip(self.topology.leader_labels, self.leader_specs):
            if spec.feedback_gain.shape != (self.system.p, n):
                got = "x".join(map(str, spec.feedback_gain.shape))
                raise ValueError(f"leader {label} gain must be {self.system.p}x{n}, got {got}")
            if not all(np.isfinite(abs(s.omega) * self.t_end + abs(s.phase)) for s in spec.sinusoids):
                raise ValueError("leader sinusoid phase omega t + phase overflows before t_end")
        v0 = np.zeros((n_agents, n)) if self.v0 is None else agent_rows(self.v0, "v0", n_agents, n)
        object.__setattr__(self, "v0", v0 if kind == OBSERVER_BASED else None)
        weight = self.controller.are_weight
        if weight is not None and weight.shape != (n, n):
            raise ValueError(f"are_weight must be {n}x{n}, got {weight.shape[0]}x{weight.shape[1]}")
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

    def blocks(self, y: np.ndarray):
        """Views (x, d, v) of a stacked state y of shape (..., state_size).

        x is the agent states (..., N, n), followers first; d the adaptive
        gains (..., M), or None for a law without them; v the observer states
        (..., N, n), or None for a law without an observer.
        """
        kind = self.controller.kind
        agents = y.shape[:-1] + (self.topology.n_agents, self.system.n)
        off_x = self.topology.n_agents * self.system.n
        x = y[..., :off_x].reshape(agents)
        d = y[..., off_x:off_x + self.topology.n_followers] if kind == ADAPTIVE else None
        v = y[..., off_x:].reshape(agents) if kind == OBSERVER_BASED else None
        return x, d, v

    @property
    def n_steps(self) -> int:
        """Steps S of the recorded grid t_k = k h, k = 0 .. S-1."""
        return int(round(self.t_end / self.h))

    @property
    def gammas(self) -> list:
        """The leaders' declared input bounds gamma_j, in canonical order."""
        return [spec.gamma for spec in self.leader_specs]


def agent_rows(rows, name: str, n_agents: int, n: int) -> np.ndarray:
    """rows as a finite (n_agents, n) float array, one row per agent, or
    ValueError naming it."""
    arr = as_matrix(rows, name)
    if arr.shape != (n_agents, n):
        got = "x".join(map(str, arr.shape))
        raise ValueError(f"{name} must be {n_agents}x{n} (one row per agent), got {got}")
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
    envelope_violations: int
    chattering_index: float
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


class NeighbourSum:
    """A sparse matrix in row-compressed (CSR) form, applied as sums over the
    nonzeros of each row.

    It holds the column index of every nonzero in row order, where each row's
    run of them starts, and their values unless every one is 1. The product
    with a stack of rows s (..., columns, n) is one np.take of the rows of s
    the nonzeros name and one np.add.reduceat over each row's run, with a
    product by the values between them when there are values: O(nonzeros)
    work where the dense product is O(rows x columns). Each run adds its later
    terms onto its first, in column order, as numpy's add-reduce does.

    Every row must hold a nonzero, since np.add.reduceat returns the start
    element for an empty run: the follower rows of the adjacency do (a
    follower hears someone), and so do the rows of L1, by their diagonal.
    """

    def __init__(self, matrix: np.ndarray):
        # the nonzeros found on a boolean mask: np.nonzero on the float
        # matrix takes about 15 times as long at M = 510
        flat = np.flatnonzero(matrix != 0.0)
        rows, self.columns = np.divmod(flat, matrix.shape[1])
        self.starts = np.searchsorted(rows, np.arange(matrix.shape[0]))
        if np.any(np.diff(np.append(self.starts, len(rows))) == 0):
            raise ValueError("a neighbour sum needs a nonzero in every row")
        values = np.take(matrix, flat)
        self.values = None if np.all(values == 1.0) else values[:, None]

    def product(self, source: np.ndarray, out=None, gathered=None) -> np.ndarray:
        """matrix @ source over source's second-to-last axis, written into out.

        gathered holds the taken rows: shaped like source with one row per
        nonzero. Both are made here when not given.
        """
        # an index known to be in range needs no bounds check: "clip" takes
        # straight into out, where the default "raise" buffers it
        gathered = np.take(source, self.columns, axis=-2, out=gathered, mode="clip")
        if self.values is not None:
            np.multiply(gathered, self.values, out=gathered)
        return np.add.reduceat(gathered, self.starts, axis=-2, out=out)

    def __matmul__(self, source: np.ndarray) -> np.ndarray:
        return self.product(source)


def network_operator(matrix: np.ndarray):
    """matrix as a NeighbourSum when at most one entry in eight is nonzero,
    else matrix as float64 (the boolean adjacency is cast once, here);
    `operator @ s` is matrix @ s either way.

    This is the crossover rule (module docstring). Timed on a 2-vCPU Xeon
    against the per-row gemvs of the evaluator's dense path, over random
    follower rows with n = 2: at M = 126 the CSR sum breaks even near a
    density of 1/4 and takes 17 us against 22 at 1/8; at M = 510 it takes
    26-40 us against 160 at densities of 1/32-1/16. Below a few dozen
    followers either costs a few us a call, the CSR sum about 1 us more.
    """
    if 8 * np.count_nonzero(matrix != 0.0) <= matrix.size:
        return NeighbourSum(matrix)
    return np.asarray(matrix, dtype=float)


def lyapunov_v1(xi: np.ndarray, part: LaplacianPartition, p_inv: np.ndarray):
    """V1 = 0.5 xi.T (L1 (x) P^-1) xi, for one xi or a stack of them (S, M*n).

    L1 is applied as network_operator(L1), built on each call: about 0.26 ms
    at M = 510, against about 25 ms for the 64 steps of one integrate chunk.
    """
    xi = np.asarray(xi, dtype=float)
    block = xi.reshape(xi.shape[:-1] + (part.L1.shape[0], -1))
    weighted = block * (network_operator(part.L1) @ block @ p_inv)
    return 0.5 * np.sum(weighted.reshape(xi.shape), axis=-1)


def make_evaluator(scn: Scenario, gains: GainSet):
    """Build evaluate(t, y) -> (ydot, follower inputs, leader inputs).

    One call evaluates every follower at once. Everything fixed for the run is
    bound here, once: a stage buffer that each call copies y into, every view
    of it and of ydot (from Scenario.blocks: the agent states x, x_f, x_l,
    the measured source, which is x or the observer states, and the adaptive
    gains d), the buffers of every
    intermediate, the law (follower_law) and the leader inputs
    (leader_input), both bound to those views. A call is then a short list of
    ufunc and matmul calls writing into those buffers. It never writes y, and
    what it returns are its own ydot and input buffers: they hold this call's
    results until the next call overwrites them, so a caller that keeps a
    result copies it first. The evaluator is not reentrant.

    The forms are chosen to round exactly as the per-follower formulas do
    (see the module docstring): sigma_i = deg_i s_i - a_i @ s, with a_i @ s
    row by row via rows @ s below the crossover and as a CSR sum over the
    neighbours above it (network_operator), and every matrix-vector product,
    K sigma_i, Gamma sigma_i and the observer's C, A, B and L_obs products, as
    a stacked matmul that runs one BLAS gemv per row (so C x and C v can share
    one matmul over the 2N rows of x and v). The agent dynamics A x_i + B u_i
    are one 2-D product per matrix over all N agent rows, x @ A.T and
    u @ B.T. Each product writes into a C-contiguous buffer of the shape the
    allocating call would return, so numpy picks the same BLAS call for it.
    """
    topo = scn.topology
    cfg = scn.controller
    system = scn.system
    m = topo.n_followers
    n_agents = topo.n_agents
    n = system.n
    p = system.p
    observer = cfg.kind == OBSERVER_BASED
    rows = network_operator(topo.adjacency[:m])
    # deg_i repeated over the n columns: the products of broadcasting the
    # (M, 1) column, without broadcasting on every call
    degree = np.repeat(topo.adjacency[:m].sum(axis=1, dtype=float)[:, None], n, axis=1)
    a_t = system.A.T.copy()
    b_t = system.B.T.copy()

    state = np.empty(scn.state_size)
    x, d, v = scn.blocks(state)
    source = v if observer else x
    source_f = source[:m]
    # neighbour_sums() writes sum_j a_ij s_j for every follower i into
    # neighbour_sum: one gemv per row (rows @ s) below the crossover, the
    # CSR sums above it
    if isinstance(rows, NeighbourSum):
        neighbour_sum = np.empty((m, n))
        neighbour_sums = partial(rows.product, source, out=neighbour_sum,
                                 gathered=np.empty((len(rows.columns), n)))
    else:
        neighbours = np.empty((m, 1, n))
        neighbour_sum = neighbours[:, 0]
        neighbour_sums = partial(np.matmul, rows[:, None, :], source, neighbours)
    sigma = np.empty((m, n))
    # ydot's blocks are written in place; the inputs of all agents share one
    # (N, p, 1) buffer, whose (N, p) view u_all feeds the dynamics product.
    ydot = np.empty_like(state)
    xdot, d_rate, vdot = scn.blocks(ydot)
    bu_x = np.empty((n_agents, n))
    u_col = np.empty((n_agents, p, 1))
    u_all = u_col[:, :, 0]
    u_f = u_all[:m]
    u_l = u_all[m:]
    results = (ydot, u_f, u_l)
    law = follower_law(cfg, gains, sigma, u_f, d, d_rate)
    leader_inputs = leader_input(scn.leader_specs, x[m:], out=u_col[m:])
    if observer:
        v_col = v[:, :, None]
        # an observer run's state is [x | v] (Scenario.blocks), so one stacked
        # product over its 2N agent rows gives C x and then C v
        xv_col = state.reshape(2 * n_agents, n, 1)
        c_xv = np.empty((2 * n_agents, system.C.shape[0], 1))
        cx = c_xv[:n_agents]
        cv = c_xv[n_agents:]
        vdot = vdot.reshape(n_agents, n, 1)
        bu = np.empty_like(vdot)
        l_innovation = np.empty_like(vdot)
        c, a, b, l_obs = system.C, system.A, system.B, gains.L_obs
    multiply, subtract, add, dot, matmul = np.multiply, np.subtract, np.add, np.dot, np.matmul

    def evaluate(t: float, y: np.ndarray):
        state[...] = y
        multiply(degree, source_f, sigma)
        neighbour_sums()
        subtract(sigma, neighbour_sum, sigma)
        law()
        leader_inputs(t)
        # one product per dynamics matrix over all N agent rows; np.dot runs
        # the same gemm for these 2-D products as matmul, with less call
        # overhead
        dot(x, a_t, xdot)
        dot(u_all, b_t, bu_x)
        add(xdot, bu_x, xdot)
        if observer:
            matmul(c, xv_col, c_xv)
            subtract(cv, cx, cv)
            matmul(a, v_col, vdot)
            matmul(b, u_col, bu)
            matmul(l_obs, cv, l_innovation)
            add(vdot, bu, vdot)
            add(vdot, l_innovation, vdot)
        return results

    return evaluate


def rk4_work(y: np.ndarray, h: float) -> tuple:
    """rk4_step's work for states shaped like y and the step h.

    The stage point and one scratch array, shaped like y, then 0.5 h, h and
    h/6 as 0-d arrays: numpy multiplies by those faster than by Python floats,
    to the same bits.
    """
    return (np.empty_like(y), np.empty_like(y),
            np.array(0.5 * h), np.array(h), np.array(h / 6.0))


# rk4_step's ufuncs, bound once: a module-level name with a positional output
# is the cheapest call numpy offers
_multiply, _add = np.multiply, np.add


def rk4_step(f: Callable, t: float, y: np.ndarray, h: float, k1: np.ndarray,
             out: Optional[np.ndarray] = None, work: Optional[tuple] = None) -> np.ndarray:
    """One classic Runge-Kutta 4 step from y at t, given its first stage k1 = f(t, y).

    f(t, y) returns a tuple whose first item is the rate at (t, y), as
    make_evaluator's (ydot, u_f, u_l) does. The rate may be a buffer that the
    next call of f overwrites: each stage is consumed, into the next stage
    point and the running sum, before f is called again. f keeps no reference
    to its argument, the stage point, which is rebuilt for the next stage.

    y + (h/6)(k1 + 2 k2 + 2 k3 + k4) is summed in out in that order, scaled
    by h/6, then y is added; addition and multiplication commute exactly, so
    the bits are those of the textbook expression. out receives y at t + h;
    work is rk4_work(y, h), bound once by a caller that takes many steps of
    one size, else made here. Neither may overlap y.
    """
    if out is None:
        out = np.empty_like(y)
    stage, scratch, half_h, full_h, sixth_h = rk4_work(y, h) if work is None else work
    out[...] = k1
    k = k1
    # k2, k3 and k4, each at y plus an offset times the previous stage and
    # weighted 2, 2 and 1 in the sum; 2 k is k + k, exactly
    for offset, scale, doubled in ((0.5 * h, half_h, True), (0.5 * h, half_h, True),
                                   (h, full_h, False)):
        _multiply(k, scale, stage)
        _add(stage, y, stage)
        k = f(t + offset, stage)[0]
        if doubled:
            _add(k, k, scratch)
            _add(out, scratch, out)
        else:
            _add(out, k, out)
    _multiply(out, sixth_h, out)
    return _add(out, y, out)


# Steps integrated between finiteness checks: integrate checks and derives
# once per chunk of this many steps, and a diverging run integrates at most
# this many steps past its first non-finite state.
_STEP_CHUNK = 64


def _state_entry(scn: Scenario, column: int):
    """(agent label, block, component) of a column of the stacked state."""
    for block, columns in zip("xdv", scn.blocks(np.arange(scn.state_size))):
        if columns is not None and column in columns:
            agent, *component = np.argwhere(columns == column)[0].tolist()
            return scn.topology.labels[agent], block, component[0] + 1 if component else None
    raise IndexError(f"column {column} is outside the stacked state")


def integrate(scn: Scenario, gains: GainSet, part: LaplacianPartition) -> Trajectory:
    """Run the scenario on the grid t_k = k h, recording every step start.

    The recording is allocated once. One evaluation per step, at its start,
    writes the inputs applied over the step into row k and gives rk4_step's
    k1; rk4_step writes the next state straight into row k + 1. Every
    _STEP_CHUNK steps the new rows are checked for finiteness and xi, |xi|,
    V1 and the leader-bound count derived over the chunk.

    Raises NonFiniteState on divergence, naming the first non-finite state's
    step, time and first non-finite entry, with the finite prefix attached.
    """
    m = scn.topology.n_followers
    p = scn.system.p
    h = scn.h
    total = scn.n_steps

    evaluate = make_evaluator(scn, gains)
    p_inv = solve_linear(gains.P, np.eye(scn.system.n))
    gammas = np.array(scn.gammas)

    times = np.arange(total) * h
    y_rec = np.empty((total, scn.state_size))
    uf_rec = np.empty((total, m, p))
    ul_rec = np.empty((total, scn.topology.n_leaders, p))
    x_rec, d_rec, v_rec = scn.blocks(y_rec)
    xi_norm = np.empty(total)
    v1 = np.empty(total)
    violations = 0
    work = rk4_work(y_rec[0], h)
    x_rec[0] = scn.x0
    if d_rec is not None:
        d_rec[0] = scn.controller.d0
    if v_rec is not None:
        v_rec[0] = scn.v0

    def snapshot(upto: int) -> Trajectory:
        """Trajectory of the first `upto` recorded steps."""
        return Trajectory(
            times=times[:upto],
            follower_states=x_rec[:upto, :m],
            leader_states=x_rec[:upto, m:],
            follower_inputs=uf_rec[:upto],
            leader_inputs=ul_rec[:upto],
            xi_norm=xi_norm[:upto],
            v1=v1[:upto],
            assumption2_violations=violations,
            adaptive_gains=None if d_rec is None else d_rec[:upto],
            observer_states=None if v_rec is None else v_rec[:upto],
        )

    for start in range(0, total, _STEP_CHUNK):
        stop = min(start + _STEP_CHUNK, total)
        # the last row this chunk advances into: the next chunk's first, or
        # the grid's last, which is never advanced from
        last = min(stop, total - 1)
        rows = list(y_rec[start:last + 1])
        # divergent runs overflow on purpose before the check below fires, and
        # the finite prefix of a run that blew up may overflow in xi and V1
        with np.errstate(over="ignore", invalid="ignore"):
            for j, t in enumerate(times[start:stop].tolist()):
                k1, uf_rec[start + j], ul_rec[start + j] = evaluate(t, rows[j])
                if start + j < last:
                    rk4_step(evaluate, t, rows[j], h, k1, out=rows[j + 1], work=work)
            finite = np.isfinite(y_rec[start + 1:last + 1]).all(axis=1)
            blown = not finite.all()
            if blown:
                stop = start + 1 + int(np.argmin(finite))
            span = slice(start, stop)
            xi = containment_error(x_rec[span, :m], x_rec[span, m:], part)
            row_norms(xi, out=xi_norm[span])()
            v1[span] = lyapunov_v1(xi, part, p_inv)
            violations += int(np.count_nonzero(row_norms(ul_rec[span])() > gammas))
        if blown:
            raise NonFiniteState(
                f"state became non-finite advancing from t = {times[stop - 1]:.6g}",
                trajectory=snapshot(stop),
                step=stop,
                t=float(times[stop]),
                entry=_state_entry(scn, int(np.argmin(np.isfinite(y_rec[stop])))),
            )
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
    A run whose states grew large but stayed finite may overflow the squares
    of its tail, envelope or input steps: inf is then the value it reports,
    so the overflow warns nothing.
    """
    times = traj.times
    span = float(times[-1])
    mask = times >= (1.0 - tail_fraction) * span - 1e-12
    alpha = gains.alpha
    offset = bounds.envelope_offset
    v10 = float(traj.v1[0])
    h = float(times[1] - times[0]) if len(times) > 1 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        tail_sup = float(np.max(traj.xi_norm[mask] ** 2))

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
        envelope_violations=violations,
        chattering_index=chattering,
        d_sup=d_sup,
    )


class Verdict(NamedTuple):
    """A run's verdict; reason names the failed premise that voided it, if any."""

    certified: bool
    reason: Optional[str] = None

    @property
    def label(self) -> str:
        return "certified" if self.certified else "not certified"


def run_verdict(bounds: BoundReport, metrics: Metrics, traj: Trajectory) -> Verdict:
    """The verdict of a completed run, for the report and the exit code.

    D1 and D2 assume every leader input stays within its bound gamma_j, so one
    sampled violation leaves the run not certified, with that reason. Otherwise
    the run is certified when its tail lies inside the radius the bound report
    names as its gate; with no gate, it is certified unless the report gives a
    reason why no radius certifies the law.
    """
    if traj.assumption2_violations:
        return Verdict(False, (
            f"{traj.assumption2_violations} leader input samples exceed their "
            "bound gamma_j, which D1 and D2 assume"
        ))
    met = bounds.gate_met(metrics.tail_sup_xi_sq)
    if met is None:
        return Verdict(bounds.reason is None, bounds.reason)
    return Verdict(met)
