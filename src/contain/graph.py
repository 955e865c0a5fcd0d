"""Communication topology handling: roles, standing assumptions, Laplacian split.

Agents whose adjacency row is all zero are leaders (they listen to nobody);
everyone else is a follower. Internally agents are stored followers-first in
"canonical" order; `labels` remembers each agent's 1-based row in the
caller's matrix so results can be reported back in the original terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matlib import TOL, as_matrix, frobenius, sym_eigs


class BadAdjacency(ValueError):
    """Adjacency matrix is not a square binary matrix with a zero diagonal."""


class NoLeader(ValueError):
    """Every agent has neighbors, so nobody qualifies as a leader."""


class NoFollower(ValueError):
    """Every agent is a leader; there is nothing to contain."""


class AssumptionViolated(ValueError):
    """Topology fails the follower-symmetry / leader-reachability assumption."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Validated network in canonical (followers-first) order.

    adjacency: N x N binary matrix, row i listing who agent i hears.
    labels: 1-based user row of each canonical index (followers first, then leaders).
    user_positions: original row index of each canonical agent.
    """

    adjacency: np.ndarray
    labels: tuple
    user_positions: tuple
    n_followers: int

    @property
    def n_agents(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_leaders(self) -> int:
        return self.n_agents - self.n_followers

    @property
    def follower_labels(self) -> tuple:
        return self.labels[: self.n_followers]

    @property
    def leader_labels(self) -> tuple:
        return self.labels[self.n_followers:]


@dataclass(frozen=True)
class Assumption1Report:
    follower_subgraph_undirected: bool
    asymmetric_pairs: tuple
    unreachable_followers: tuple
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = self.follower_subgraph_undirected and not self.unreachable_followers
        object.__setattr__(self, "passed", ok)


@dataclass(frozen=True, eq=False)
class LaplacianPartition:
    """Laplacian blocks for a leader-follower network.

    With followers first the N x N Laplacian has the shape [[L1, L2], [0, 0]].
    W = -L1^-1 L2 maps leader states to the hull points the followers are
    steered to, and lambda_min_L1 is the smallest eigenvalue of L1 (positive
    exactly when the standing assumption holds).
    """

    L1: np.ndarray
    L2: np.ndarray
    W: np.ndarray
    lambda_min_L1: float


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place; callers pass arrays only they hold."""
    arr.setflags(write=False)
    return arr


def build_topology(adjacency) -> Topology:
    """Validate an adjacency matrix and reorder agents followers-first.

    Raises BadAdjacency for structural problems, NoLeader when no row is zero,
    NoFollower when all rows are zero.
    """
    try:
        arr = as_matrix(adjacency, "adjacency")
    except ValueError as exc:
        raise BadAdjacency(str(exc)) from None
    n = arr.shape[0]
    if arr.shape[1] != n:
        raise BadAdjacency(f"adjacency must be square, got {arr.shape}")
    if not ((arr == 0.0) | (arr == 1.0)).all():
        raise BadAdjacency("adjacency entries must be 0 or 1")
    if np.any(np.diag(arr) != 0.0):
        raise BadAdjacency("adjacency must have a zero diagonal (no self-loops)")

    is_leader = ~arr.any(axis=1)
    followers = np.flatnonzero(~is_leader).tolist()
    leaders = np.flatnonzero(is_leader).tolist()
    if not leaders:
        raise NoLeader("no agent has an empty neighbor set")
    if not followers:
        raise NoFollower("every agent is a leader")

    perm = followers + leaders
    canonical = arr[np.ix_(perm, perm)]
    return Topology(
        adjacency=_freeze(canonical),
        labels=tuple(i + 1 for i in perm),
        user_positions=tuple(perm),
        n_followers=len(followers),
    )


def check_assumption1(topology: Topology) -> Assumption1Report:
    """Follower subgraph undirected and every follower leader-reachable."""
    adj = topology.adjacency
    m = topology.n_followers
    n = topology.n_agents
    labels = topology.labels

    follower_block = adj[:m, :m]
    rows, cols = np.nonzero(np.triu(follower_block != follower_block.T, 1))
    asymmetric = tuple((labels[i], labels[j]) for i, j in zip(rows.tolist(), cols.tolist()))

    # Information flows j -> i when adj[i, j] == 1. Leaders have no incoming
    # edges, so sweeping the frontier outward from the leader set finds
    # exactly the followers some leader can reach.
    reached = np.zeros(n, dtype=bool)
    reached[m:] = True
    frontier = np.arange(m, n)
    while frontier.size:
        fresh = adj[:, frontier].any(axis=1) & ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
    unreachable = tuple(labels[i] for i in np.flatnonzero(~reached[:m]).tolist())

    return Assumption1Report(
        follower_subgraph_undirected=not asymmetric,
        asymmetric_pairs=asymmetric,
        unreachable_followers=unreachable,
    )


def _hull_weights(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """W = -L1^-1 L2 by LAPACK, kept only if its backward error is within TOL.solve.

    W reaches the containment error and V1 but never the dynamics, so this
    solve does not need the elimination that synthesis uses for K and P.
    """
    try:
        w = np.linalg.solve(l1, -l2)
    except np.linalg.LinAlgError as exc:
        raise AssumptionViolated(f"hull weights W = -L1^-1 L2 have no solution: {exc}") from None
    residual = frobenius(l1 @ w + l2)
    scale = frobenius(l1) * frobenius(w) + frobenius(l2)
    if not residual <= TOL.solve * scale:
        raise AssumptionViolated(
            f"hull weights W = -L1^-1 L2 fail the residual check: "
            f"|L1 W + L2|_F = {residual:.3e} exceeds {TOL.solve:.1e} * {scale:.3e}"
        )
    return w


def partition_laplacian(topology: Topology) -> LaplacianPartition:
    """Split the Laplacian into follower/leader blocks and solve for W.

    Requires the standing assumption (raises AssumptionViolated otherwise, or
    when W fails its residual check), which guarantees L1 is symmetric
    positive definite; W = -L1^-1 L2 then has nonnegative entries with unit
    row sums.
    """
    report = check_assumption1(topology)
    if not report.passed:
        parts = []
        if report.asymmetric_pairs:
            parts.append(f"asymmetric follower pairs {report.asymmetric_pairs}")
        if report.unreachable_followers:
            parts.append(
                f"followers unreachable from any leader {report.unreachable_followers}"
            )
        raise AssumptionViolated("; ".join(parts))

    # The follower rows of the Laplacian diag(degrees) - adjacency, entry for
    # entry: 0.0 - a_ij off the diagonal (+0.0, never -0.0) and the degree on it.
    rows = topology.adjacency[:topology.n_followers]
    m = rows.shape[0]
    l1 = 0.0 - rows[:, :m]
    np.fill_diagonal(l1, rows.sum(axis=1))
    l2 = 0.0 - rows[:, m:]
    w = _hull_weights(l1, l2)
    lambda_min = float(sym_eigs(l1)[0])
    return LaplacianPartition(
        L1=_freeze(l1),
        L2=_freeze(l2),
        W=_freeze(w),
        lambda_min_L1=lambda_min,
    )
