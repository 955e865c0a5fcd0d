"""Communication topology handling: roles, standing assumptions, Laplacian split.

Agents whose adjacency row is all zero are leaders (they listen to nobody);
everyone else is a follower. Internally agents are stored followers-first in
"canonical" order; `labels` remembers each agent's 1-based row in the
caller's matrix so results can be reported back in the original terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlib import Singular, as_square, check_solve, sym_eigs


class BadAdjacency(ValueError):
    """Adjacency matrix is not a square binary matrix with a zero diagonal."""


class AssumptionViolated(ValueError):
    """Topology has no leader or no follower, or fails the follower-symmetry /
    leader-reachability assumption."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Validated network in canonical (followers-first) order.

    adjacency: N x N read-only boolean matrix, row i marking who agent i
    hears; an eighth of the float matrix it was read from.
    labels: 1-based user row of each canonical index (followers first, then
    leaders); canonical agent i is row labels[i] - 1 of the caller's matrix.
    """

    adjacency: np.ndarray
    labels: tuple
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
    """What check_assumption1 found, by label: the follower pairs joined one
    way only, and the followers no leader reaches."""

    asymmetric_pairs: tuple
    unreachable_followers: tuple

    @property
    def passed(self) -> bool:
        """The follower subgraph is undirected and a leader reaches every follower."""
        return not self.asymmetric_pairs and not self.unreachable_followers


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

    Raises BadAdjacency for structural problems, and AssumptionViolated when
    no row is zero (no leader) or every row is (no follower).
    """
    try:
        arr = as_square(adjacency, "adjacency")
    except ValueError as exc:
        raise BadAdjacency(str(exc)) from None
    # One N x N boolean at a time: the ones are counted, then the same buffer
    # marks the nonzeros. Every entry is 0 or 1 exactly when the counts agree,
    # since every one is a nonzero.
    nonzero = np.equal(arr, 1.0)
    ones = np.count_nonzero(nonzero)
    np.not_equal(arr, 0.0, out=nonzero)
    if np.count_nonzero(nonzero) != ones:
        raise BadAdjacency("adjacency entries must be 0 or 1")
    if nonzero.diagonal().any():
        raise BadAdjacency("adjacency must have a zero diagonal (no self-loops)")

    is_leader = ~nonzero.any(axis=1)
    followers = np.flatnonzero(~is_leader).tolist()
    leaders = np.flatnonzero(is_leader).tolist()
    if not leaders:
        raise AssumptionViolated("no agent has an empty neighbor set")
    if not followers:
        raise AssumptionViolated("every agent is a leader")

    perm = followers + leaders
    canonical = nonzero[np.ix_(perm, perm)]
    return Topology(
        adjacency=_freeze(canonical),
        labels=tuple(i + 1 for i in perm),
        n_followers=len(followers),
    )


def check_assumption1(topology: Topology) -> Assumption1Report:
    """Follower subgraph undirected and every follower leader-reachable.

    Both checks read one edge list, so they cost O(N^2) for finding the edges
    and then O(N + edges).
    """
    adj = topology.adjacency
    m = topology.n_followers
    n = topology.n_agents
    labels = topology.labels

    # Every edge, as (hearer i, source j) in row-major order: information
    # flows j -> i when adj[i, j] is set. Leader rows are empty, so every
    # hearer is a follower.
    hearers, sources = np.divmod(np.flatnonzero(adj), n)

    # A follower pair is asymmetric when exactly one of its two edges exists;
    # pairs (i, j), i < j, are listed in row-major order.
    among = sources < m
    ei, ej = hearers[among], sources[among]
    one_way = ~adj[ej, ei]
    low, high = np.minimum(ei, ej)[one_way], np.maximum(ei, ej)[one_way]
    order = np.argsort(low * m + high)
    asymmetric = tuple(
        (labels[a], labels[b]) for a, b in zip(low[order].tolist(), high[order].tolist())
    )

    # Leaders have no incoming edges, so a breadth-first search from the
    # leader set finds exactly the followers some leader can reach. The
    # listeners of agent j are listeners[starts[j]:starts[j + 1]].
    listeners = hearers[np.argsort(sources, kind="stable")].tolist()
    starts = [0] + np.cumsum(np.bincount(sources, minlength=n)).tolist()
    reached = [False] * m + [True] * (n - m)
    queue = list(range(m, n))
    for j in queue:  # the loop visits what it appends
        for i in listeners[starts[j]:starts[j + 1]]:
            if not reached[i]:
                reached[i] = True
                queue.append(i)
    unreachable = tuple(labels[i] for i in range(m) if not reached[i])

    return Assumption1Report(asymmetric_pairs=asymmetric, unreachable_followers=unreachable)


def _hull_weights(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """W = -L1^-1 L2 by LAPACK, kept only if it passes check_solve.

    W reaches the containment error and V1 but never the dynamics, so this
    solve does not need the elimination that synthesis uses for K and P.
    """
    try:
        w = np.linalg.solve(l1, -l2)
        check_solve(l1, w, -l2)
    except np.linalg.LinAlgError as exc:
        raise AssumptionViolated(f"hull weights W = -L1^-1 L2 have no solution: {exc}") from None
    except Singular as exc:
        raise AssumptionViolated(f"hull weights W = -L1^-1 L2 fail the residual check: {exc}") from None
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
    # entry: 0.0 - a_ij off the diagonal (+0.0, never -0.0; the boolean a_ij
    # reads as 0.0 or 1.0) and the degree on it.
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
