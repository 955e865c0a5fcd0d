"""Shared fixtures: random problem generators, a warning-checking cli.main and
the default-scenario runs.

The five closed-loop runs of the built-in scenario are expensive (several
seconds each), so they are session-scoped and shared between the behavioral
tests and the acceptance suite.
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from contain import cli
from contain.graph import build_topology, partition_laplacian
from contain.matlib import controllability_matrix, is_controllable
from contain.sim import compute_metrics, integrate
from contain.synthesis import compute_bound_report, synthesize

# perfbench/ sits beside src/ at the repository root; its ring_scenario(M, seed)
# is the benchmark's follower ring, the scale axis in M.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import ring_scenario  # noqa: E402,F401


def random_a1_topology(rng, n_max=10):
    """Random leader-follower adjacency satisfying the standing assumption.

    Followers get an undirected subgraph in which everyone is tied, directly
    or through other followers, to at least one leader. Rows are returned in
    a shuffled (user) order so canonicalization gets exercised too; agent i
    of that order is canonical agent perm[i].
    """
    n = int(rng.integers(3, n_max + 1))
    n_leaders = int(rng.integers(1, min(3, n - 1) + 1))
    m = n - n_leaders
    adj = np.zeros((n, n), dtype=float)
    # canonical build order: followers 0..m-1, leaders m..n-1
    for i in range(m):
        if i == 0 or rng.random() < 0.4:
            j = int(rng.integers(m, n))
            adj[i, j] = 1.0
        else:
            j = int(rng.integers(0, i))
            adj[i, j] = 1.0
            adj[j, i] = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.3:
                adj[i, j] = 1.0
                adj[j, i] = 1.0
        for j in range(m, n):
            if rng.random() < 0.2:
                adj[i, j] = 1.0
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


def random_controllable_pair(rng, n_max=4):
    """Random (a, b) with n <= n_max, redrawn until comfortably controllable.

    Draws whose controllability matrix is nearly rank deficient (singular
    value ratio below 1e-3) are rejected: they are controllable in exact
    arithmetic but no float64 solver can certify a 1e-9 Riccati residual on
    them.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        p = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, p))
        if not is_controllable(a, b):
            continue
        sv = np.linalg.svd(controllability_matrix(a, b), compute_uv=False)
        if sv[-1] >= 1e-3 * sv[0]:
            return a, b


def main_without_warnings(argv):
    """main(argv), failing on any warning it emits (pytest's capture would hide it)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert not caught, [str(w.message) for w in caught]
    return rc


class DefaultRun:
    """One synthesized and simulated instance of the built-in scenario."""

    def __init__(self, kind, kappa=0.1, **overrides):
        scn = cli.parse_scenario(cli.default_scenario(), controller=kind, kappa=kappa, **overrides)
        part = partition_laplacian(scn.topology)
        gains = synthesize(scn, part)
        bounds = compute_bound_report(scn, part, gains)
        traj = integrate(scn, gains, part)
        metrics = compute_metrics(traj, bounds, gains, scn.tail_fraction)
        self.part = part
        self.gains = gains
        self.bounds = bounds
        self.scenario = scn
        self.traj = traj
        self.metrics = metrics


@pytest.fixture(scope="session")
def cont_run():
    return DefaultRun("continuous_static", kappa=0.1)


@pytest.fixture(scope="session")
def cont_small_kappa_run():
    return DefaultRun("continuous_static", kappa=0.05)


@pytest.fixture(scope="session")
def disc_run():
    return DefaultRun("discontinuous_static")


@pytest.fixture(scope="session")
def adaptive_run():
    return DefaultRun("adaptive")


@pytest.fixture(scope="session")
def observer_run():
    return DefaultRun("observer_based")


@pytest.fixture
def default_topology():
    adjacency = np.array([
        [0, 1, 0, 0, 0, 1, 1, 0],
        [1, 0, 1, 0, 0, 0, 1, 0],
        [0, 1, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1, 0, 1],
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ], dtype=float)
    return build_topology(adjacency)
