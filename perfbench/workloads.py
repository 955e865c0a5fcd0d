"""Scenario files and command lines for the benchmark workloads.

The program only ever receives the generated scenario file plus command-line
overrides; everything here is derived from the workload name and the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from contain.cli import default_scenario

# 5 s of the default scenario takes about 5 s to simulate and already
# certifies (any t_end >= 4 does).
DEFAULT_T_END = 5.0
RING_FOLLOWERS = 510
RING_T_END = 0.05
STEP = 1e-3


@dataclass(frozen=True)
class Workload:
    """One generated input: scenario text, overrides and the CSV it implies."""

    name: str
    scenario: str
    overrides: tuple          # extra contain arguments shared by bound and simulate
    seeded: bool              # whether the seed changes the inputs
    steps: int                # rows trajectory.csv must hold
    csv_columns: int          # header width the scenario implies
    n_agents: int


def _csv_columns(n_agents: int, n_followers: int, n: int, p: int, adaptive: bool, observer: bool) -> int:
    # t, agent states, follower inputs, xi_norm, v1, [d_i], [observer states]
    cols = 1 + n_agents * n + n_followers * p + 2
    if adaptive:
        cols += n_followers
    if observer:
        cols += n_agents * n
    return cols


def ring_scenario(followers: int, seed: int) -> str:
    """A follower ring with two leaders feeding followers half a ring apart.

    Dynamics, controller settings and leader specs are those of the default
    scenario; follower initial states are drawn from the seed.
    """
    if followers < 4:
        raise ValueError("ring needs at least 4 followers")
    rng = random.Random(seed)
    n_agents = followers + 2
    lead_a, lead_b = followers + 1, followers + 2   # 1-based labels
    fed_by = {1: lead_a, followers // 2 + 1: lead_b}
    rows = []
    for i in range(1, followers + 1):
        row = [0] * n_agents
        row[(i - 2) % followers] = 1
        row[i % followers] = 1
        if i in fed_by:
            row[fed_by[i] - 1] = 1
        rows.append(row)
    rows += [[0] * n_agents, [0] * n_agents]
    adjacency = "\n".join("    " + " ".join(map(str, row)) for row in rows)
    x0 = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(followers)]
    x0 += [(1.0, 0.0), (-1.0, 0.0)]
    x0_text = "\n".join(f"    {a!r} {b!r}" for a, b in x0)
    per_follower = lambda value: " ".join([value] * followers)  # noqa: E731
    return f"""\
# Generated ring: {followers} followers, leaders {lead_a} and {lead_b}.
[system]
A = 0 1; -1 1
B = 0; 1
C = 1 0; 0 1

[graph]
adjacency =
{adjacency}

[controller]
kind = adaptive
kappa = 0.1
taus = {per_follower("5")}
phis = {per_follower("0.005")}
d0 = {per_follower("0")}
are_weight = 4 0; 0 1

[leaders]
{lead_a}.gain = 0 -2
{lead_a}.sinusoids = 1:4:2:0
{lead_a}.gamma = 6
{lead_b}.gain = -1 -3
{lead_b}.sinusoids = 1:2:1:1.5707963267948966
{lead_b}.gamma = 4

[sim]
x0 =
{x0_text}
t_end = 20
h = 0.001
"""


def make(name: str, seed: int, *, default_t_end: float = DEFAULT_T_END,
         ring_followers: int = RING_FOLLOWERS, ring_t_end: float = RING_T_END) -> Workload:
    """Build workload `name`; the keyword sizes exist for the self-test."""
    if name in ("default-adaptive", "default-observer"):
        observer = name == "default-observer"
        overrides = ["--h", repr(STEP), "--t-end", repr(default_t_end)]
        if observer:
            overrides += ["--controller", "observer_based"]
        return Workload(
            name=name,
            scenario=default_scenario(),
            overrides=tuple(overrides),
            seeded=False,
            steps=round(default_t_end / STEP),
            csv_columns=_csv_columns(8, 6, 2, 1, adaptive=not observer, observer=observer),
            n_agents=8,
        )
    if name == "ring-adaptive":
        return Workload(
            name=name,
            scenario=ring_scenario(ring_followers, seed),
            overrides=("--h", repr(STEP), "--t-end", repr(ring_t_end)),
            seeded=True,
            steps=round(ring_t_end / STEP),
            csv_columns=_csv_columns(ring_followers + 2, ring_followers, 2, 1,
                                     adaptive=True, observer=False),
            n_agents=ring_followers + 2,
        )
    raise ValueError(f"unknown workload {name!r}")

