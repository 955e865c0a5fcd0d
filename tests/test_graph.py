from collections import deque

import numpy as np
import pytest

from contain.cli import default_scenario, main, parse_scenario
from contain.graph import (
    Assumption1Report,
    AssumptionViolated,
    BadAdjacency,
    NoFollower,
    NoLeader,
    build_topology,
    check_assumption1,
    partition_laplacian,
)
from contain.matlib import solve_linear
from conftest import random_a1_topology, ring_scenario

RING8 = np.array([
    [0, 1, 0, 0, 0, 1, 1, 0],
    [1, 0, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 0, 1, 0, 1],
    [1, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
], dtype=float)


def test_build_topology_classifies_leaders():
    topo = build_topology(RING8)
    assert topo.n_agents == 8
    assert topo.n_followers == 6
    assert topo.follower_labels == (1, 2, 3, 4, 5, 6)
    assert topo.leader_labels == (7, 8)


def test_topology_adjacency_is_readonly():
    topo = build_topology(RING8)
    with pytest.raises(ValueError):
        topo.adjacency[0, 0] = 1.0


def test_build_topology_rejects_malformed():
    with pytest.raises(BadAdjacency):
        build_topology(np.zeros((2, 3)))
    with pytest.raises(BadAdjacency):
        build_topology([[0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(BadAdjacency):
        build_topology([[1.0, 1.0], [0.0, 0.0]])  # self loop


def test_every_agent_a_follower_is_rejected():
    with pytest.raises(NoLeader):
        build_topology([[0.0, 1.0], [1.0, 0.0]])


def test_every_agent_a_leader_is_rejected():
    with pytest.raises(NoFollower):
        build_topology(np.zeros((3, 3)))


def test_assumption1_pass_on_default_graph():
    report = check_assumption1(build_topology(RING8))
    assert report.passed
    assert report.asymmetric_pairs == ()
    assert report.unreachable_followers == ()


def test_assumption1_flags_directed_follower_edge():
    adj = np.array([
        [0, 1, 1],
        [0, 0, 1],
        [0, 0, 0],
    ], dtype=float)
    report = check_assumption1(build_topology(adj))
    assert not report.passed
    assert (1, 2) in report.asymmetric_pairs


def test_assumption1_flags_unreachable_followers():
    # followers 1 and 2 form an island; only follower 3 hears the leader
    adj = np.array([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ], dtype=float)
    report = check_assumption1(build_topology(adj))
    assert not report.passed
    assert set(report.unreachable_followers) == {1, 2}


def test_partition_laplacian_default_graph():
    part = partition_laplacian(build_topology(RING8))
    # smallest follower-block eigenvalue for this ring topology is 2 - sqrt(2)
    assert abs(part.lambda_min_L1 - (2.0 - np.sqrt(2.0))) < 1e-12
    assert np.allclose(part.W.sum(axis=1), 1.0, atol=1e-10)
    assert part.W.min() >= -1e-12
    # cross-check W against a direct dense solve
    w_ref = np.linalg.solve(part.L1, -part.L2)
    assert np.allclose(part.W, w_ref, atol=1e-10)


def test_partition_laplacian_rejects_violation():
    adj = np.array([
        [0, 1, 1],
        [0, 0, 1],
        [0, 0, 0],
    ], dtype=float)
    with pytest.raises(AssumptionViolated):
        partition_laplacian(build_topology(adj))


def test_laplacian_block_structure():
    topo = build_topology(RING8)
    part = partition_laplacian(topo)
    m = topo.n_followers
    # follower rows of the Laplacian [L1 L2] sum to zero; the leader rows are zero
    assert np.allclose(part.L1.sum(axis=1) + part.L2.sum(axis=1), 0.0, atol=1e-12)
    assert part.L1.shape == (m, m) and part.L2.shape == (m, topo.n_leaders)
    assert np.allclose(part.L1, part.L1.T)
    assert np.all(part.L2 <= 0.0)


def test_laplacian_blocks_are_the_full_laplacians_bit_for_bit():
    # L1 and L2 come straight from the follower rows; each entry, zero signs
    # included, is the one diag(degrees) - adjacency holds. A "-0" in the file
    # parses to -0.0, which the 0/1 rule accepts.
    rng = np.random.default_rng(21)
    signed_zeros = np.where(RING8 == 0.0, -0.0, RING8)
    np.fill_diagonal(signed_zeros, 0.0)
    for adjacency in [RING8, signed_zeros] + [random_a1_topology(rng) for _ in range(20)]:
        topo = build_topology(adjacency)
        adj = topo.adjacency
        m = topo.n_followers
        lap = np.diag(adj.sum(axis=1)) - adj
        part = partition_laplacian(topo)
        assert part.L1.tobytes() == lap[:m, :m].tobytes()
        assert part.L2.tobytes() == lap[:m, m:].tobytes()
        for block in (adj, part.L1, part.L2, part.W):
            assert not block.flags.writeable


def test_build_topology_leaves_the_callers_matrix_alone():
    adjacency = RING8.copy()
    topo = build_topology(adjacency)
    assert adjacency.flags.writeable
    assert topo.adjacency is not adjacency
    assert np.array_equal(adjacency, RING8)


def test_labels_and_user_positions_roundtrip():
    adj = np.array([
        [0, 0, 0],
        [1, 0, 1],
        [0, 1, 0],
    ], dtype=float)
    topo = build_topology(adj)
    assert topo.leader_labels == (1,)
    assert topo.follower_labels == (2, 3)
    # canonical row i came from user row user_positions[i], labelled 1..N
    for i, pos in enumerate(topo.user_positions):
        assert topo.labels[i] == pos + 1


def test_random_topologies_partition_cleanly():
    rng = np.random.default_rng(23)
    for _ in range(60):
        topo = build_topology(random_a1_topology(rng))
        report = check_assumption1(topo)
        assert report.passed, report
        part = partition_laplacian(topo)
        assert part.lambda_min_L1 > 0.0
        assert part.W.min() >= -1e-12
        assert np.allclose(part.W.sum(axis=1), 1.0, atol=1e-10)


def _check_assumption1_loops(topology):
    """Loop-based reference: the check as first written, pair by pair and BFS."""
    adj = topology.adjacency
    m = topology.n_followers
    n = topology.n_agents
    labels = topology.labels

    asymmetric = []
    for i in range(m):
        for j in range(i + 1, m):
            if adj[i, j] != adj[j, i]:
                asymmetric.append((labels[i], labels[j]))

    # Information flows j -> i when adj[i, j] == 1. Leaders have no incoming
    # edges, so multi-source BFS from the leader set finds exactly the
    # followers some leader can reach.
    visited = [False] * n
    queue = deque(range(m, n))
    for j in queue:
        visited[j] = True
    while queue:
        j = queue.popleft()
        for i in range(n):
            if adj[i, j] == 1.0 and not visited[i]:
                visited[i] = True
                queue.append(i)
    unreachable = tuple(labels[i] for i in range(m) if not visited[i])

    return Assumption1Report(
        follower_subgraph_undirected=not asymmetric,
        asymmetric_pairs=tuple(asymmetric),
        unreachable_followers=unreachable,
    )


def _random_digraph(rng):
    """Adjacency with leaders, possibly violating the standing assumption.

    Shapes: dense random digraphs (asymmetric pairs), symmetric follower
    blocks with few leader edges (unreachable components), and directed or
    undirected chains that a leader may feed at either end or not at all.
    """
    n = int(rng.integers(2, 14))
    n_leaders = int(rng.integers(1, min(3, n - 1) + 1))
    m = n - n_leaders
    shape = rng.choice(["random", "symmetric", "chain"])
    adj = np.zeros((n, n))
    if shape == "chain":
        for i in range(m - 1):
            adj[i, i + 1] = 1.0
            if rng.random() < 0.5:
                adj[i + 1, i] = 1.0
        for end in (0, m - 1):
            if rng.random() < 0.5:
                adj[end, int(rng.integers(m, n))] = 1.0
    else:
        block = rng.random((m, m)) < rng.uniform(0.05, 0.6)
        if shape == "symmetric":
            block = np.triu(block, 1)
            block = block | block.T
        adj[:m, :m] = block
        adj[:m, m:] = rng.random((m, n_leaders)) < rng.uniform(0.0, 0.3)
    np.fill_diagonal(adj, 0.0)
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


def test_assumption1_matches_loop_reference_on_random_digraphs():
    rng = np.random.default_rng(5)
    seen = {"asymmetric": 0, "unreachable": 0, "passed": 0}
    checked = 0
    while checked < 300:
        try:
            topo = build_topology(_random_digraph(rng))
        except NoFollower:
            continue
        report = check_assumption1(topo)
        assert report == _check_assumption1_loops(topo)
        seen["asymmetric"] += bool(report.asymmetric_pairs)
        seen["unreachable"] += bool(report.unreachable_followers)
        seen["passed"] += report.passed
        checked += 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("followers", [6, 126])
def test_hull_weights_match_elimination_on_ring(followers):
    part = partition_laplacian(parse_scenario(ring_scenario(followers, 1)).topology)
    reference = solve_linear(part.L1, -part.L2)
    np.testing.assert_allclose(part.W, reference, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(part.W.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert part.W.min() >= 0.0


def _wrong_solve(a, b):
    return np.zeros_like(b)


def _failing_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("solve", [_wrong_solve, _failing_solve])
def test_hull_weight_failure_is_assumption_violation(solve, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(AssumptionViolated, match="hull weights"):
        partition_laplacian(build_topology(RING8))

    path = tmp_path / "default.scn"
    path.write_text(default_scenario(), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("assumption failure: hull weights")
