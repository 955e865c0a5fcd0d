import dataclasses
import json
import math
import os
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from contain import cli, control, matlib
from contain.cli import (
    ScenarioParseError,
    cmd_simulate,
    csv_rows,
    default_scenario,
    load_scenario,
    main,
    parse_scenario,
    write_trajectory_csv,
)
from contain.graph import AssumptionViolated, BadAdjacency, build_topology
from contain.matlib import (
    TOL,
    BadTolerance,
    NoConvergence,
    NonFinite,
    NotControllable,
    Singular,
    Tolerances,
)
from contain.sim import NonFiniteState, Scenario, Trajectory
from contain import synthesis
from contain.synthesis import NonPositiveAlpha
from conftest import DefaultRun, main_without_warnings, ring_scenario

CHAIN_TEXT = """\
[system]
A = 0
B = 1
C = 1

[graph]
adjacency = 0 1; 0 0

[controller]
kind = continuous_static
kappa = 0.1

[leaders]
2.gain = 0
2.gamma = 1

[sim]
x0 = -2; 0
t_end = 2
h = 0.01
"""


def chain_file(tmp_path, text=CHAIN_TEXT, name="chain.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_default_scenario_roundtrip():
    scn = parse_scenario(default_scenario())
    assert isinstance(scn, Scenario)
    assert scn.controller.kind == "adaptive"
    assert scn.controller.kappa == 0.1
    assert scn.topology.n_followers == 6
    assert scn.gammas == [6.0, 4.0]
    assert scn.t_end == 20.0
    assert scn.h == 0.001
    assert scn.x0.shape == (8, 2)
    assert scn.v0 is None
    assert scn.controller.are_weight is not None
    assert np.allclose(scn.controller.are_weight, [[4.0, 0.0], [0.0, 1.0]])


def test_parse_overrides_win():
    parsed = parse_scenario(default_scenario(), controller="continuous_static",
                            kappa=0.05, h=0.01, t_end=5.0)
    assert parsed.controller.kind == "continuous_static"
    assert parsed.controller.kappa == 0.05
    assert parsed.h == 0.01
    assert parsed.t_end == 5.0


def test_parse_chain_minimal():
    parsed = parse_scenario(CHAIN_TEXT)
    assert parsed.system.n == 1
    assert parsed.topology.leader_labels == (2,)
    assert parsed.controller.taus is None
    assert parsed.controller.c1_scale == 1.0
    assert parsed.controller.are_weight is None
    assert parsed.tail_fraction == 0.2


def test_parse_error_reports_line():
    bad = CHAIN_TEXT.replace("kappa = 0.1", "kappa = zero")
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(bad)
    assert info.value.line is not None


def test_parse_error_cases():
    cases = [
        CHAIN_TEXT.replace("[system]\n", ""),                      # missing section
        CHAIN_TEXT.replace("A = 0", "A = 0 1; 2"),                 # ragged matrix
        CHAIN_TEXT.replace("kind = continuous_static", "kind = pid"),
        CHAIN_TEXT.replace("kappa = 0.1\n", ""),                   # kappa required
        CHAIN_TEXT.replace("2.gamma = 1\n", ""),                   # gamma required
        CHAIN_TEXT.replace("x0 = -2; 0", "x0 = -2"),               # wrong x0 shape
        CHAIN_TEXT + "t_end = 3\n",                                # duplicate key
        "stray = 1\n" + CHAIN_TEXT,                                # before any section
        CHAIN_TEXT.replace("2.gain = 0", "2.sinusoids = 0:1:1:0\n2.gain = 0"),
    ]
    for text in cases:
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)


# tokens float() reads with a twist: underscores, signs of zero, subnormals,
# ties and 17-digit values, the largest double, underflow to zero
EDGE_TOKENS = [
    "1_000", "1e1_0", "-0", "+0.0", "-0.0", ".5", "5.", "+1.5E+3", "4.9e-324",
    "2.4703282292062328e-324", "2.2250738585072009e-308", "0.30000000000000004",
    "9007199254740993", "1.7976931348623157e308", "-1.7976931348623157e308", "1e-400",
]
BAD_TOKENS = ["1__0", "_1", "1_", "0x10", "1d5", "1,5", "--1", "+-1", "nan(1)", "infinit", "1e"]


def test_matrix_tokens_parse_as_float_does():
    parsed = cli._matrix(cli._Value([(" ".join(EDGE_TOKENS), 3)]), "[system].A")
    # bit for bit, the sign of every zero included
    assert parsed.tobytes() == np.array([[float(tok) for tok in EDGE_TOKENS]]).tobytes()
    for token in BAD_TOKENS:
        with pytest.raises(ValueError):
            float(token)
        with pytest.raises(ScenarioParseError, match="bad number in matrix row"):
            cli._matrix(cli._Value([("1 " + token, 3)]), "[system].A")


@pytest.mark.parametrize("fragments,message", [
    ([("1 2", 4), ("3 1__0", 5)], "line 5: [graph].adjacency: bad number in matrix row '3 1__0'"),
    ([("1 2; 3", 4)], "line 4: [graph].adjacency: ragged matrix row (expected 2 entries, got 1)"),
    ([("1 2", 4), ("3 4 5", 6)], "line 6: [graph].adjacency: ragged matrix row (expected 2 entries, got 3)"),
    ([("1 2", 4), ("3 4; 1e400 1", 5)], "line 5: [graph].adjacency: non-finite number in matrix row 3"),
    ([("1 2; -inf 0", 4), ("nan 1", 5)], "line 4: [graph].adjacency: non-finite number in matrix row 2"),
    ([(" ; ", 4)], "line 4: [graph].adjacency: empty matrix"),
])
def test_matrix_errors_name_the_row_and_its_line(fragments, message):
    with pytest.raises(ScenarioParseError) as info:
        cli._matrix(cli._Value(fragments), "[graph].adjacency")
    assert str(info.value) == message


def test_parse_of_the_510_ring_stays_small():
    # 262 144 adjacency entries go straight into a float array: the matrix in
    # file order (2.1 MB) plus its boolean canonical copy (0.26 MB), and
    # nothing else that big is live at once
    text = ring_scenario(510, 1)
    tracemalloc.start()
    try:
        parse_scenario(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_adaptive_override_needs_taus():
    with pytest.raises(ScenarioParseError):
        parse_scenario(CHAIN_TEXT, controller="adaptive")


def test_discontinuous_does_not_need_kappa():
    text = CHAIN_TEXT.replace("kind = continuous_static", "kind = discontinuous_static")
    text = text.replace("kappa = 0.1\n", "")
    parsed = parse_scenario(text)
    assert parsed.controller.kind == "discontinuous_static"
    assert parsed.controller.kappa is None


def test_validate_pass(tmp_path, capsys):
    rc = main(["validate", chain_file(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "assumption check: PASS" in out
    assert "lambda_min(L1)" in out


def test_validate_fail_lists_asymmetric_pair(tmp_path, capsys):
    text = CHAIN_TEXT.replace("adjacency = 0 1; 0 0",
                              "adjacency = 0 1 1; 0 0 1; 0 0 0")
    text = text.replace("x0 = -2; 0", "x0 = -2; 0; 0")
    text = text.replace("2.gain = 0", "3.gain = 0")
    text = text.replace("2.gamma = 1", "3.gamma = 1")
    path = chain_file(tmp_path, text)
    # every command reads the standing assumption from the partition, and
    # reports a failed one with the same line
    for command in ("validate", "synth", "bound", "simulate"):
        args = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        rc = main([command, path, *args])
        captured = capsys.readouterr()
        assert "PASS" not in captured.out, command
        assert (rc, captured.err) == (2, "assumption failure: asymmetric follower pairs ((1, 2),)\n")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "chain.gains.json").exists()


def test_synth_writes_sidecar(tmp_path, capsys):
    path = chain_file(tmp_path)
    rc = main(["synth", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha" in out
    sidecar = tmp_path / "chain.gains.json"
    payload = json.loads(sidecar.read_text())
    assert payload["K"] == [[-1.0]]
    assert payload["alpha"] == pytest.approx(2.0)
    assert payload["lmi_lambda_max"] < 0.0


def test_bound_prints_radii(tmp_path, capsys):
    rc = main(["bound", chain_file(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "D1 radius^2" in out


def test_simulate_writes_outputs(tmp_path, capsys):
    path = chain_file(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["simulate", path, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "verdict: certified" in stdout
    csv_lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x1_1,x2_1,u1_1,xi_norm,v1"
    assert len(csv_lines) == 1 + 200
    first = csv_lines[1].split(",")
    assert first[0] == "0.0"
    assert first[1] == "-2.0"
    assert first[2] == "0.0"
    metrics = (out_dir / "metrics.txt").read_text()
    assert "kind = continuous_static" in metrics
    assert "d1_certified = True" in metrics
    assert "verdict = certified" in metrics
    plot = (out_dir / "plot.gp").read_text()
    assert 'set datafile separator ","' in plot
    assert "trajectory.csv" in plot


def test_simulate_user_order_columns(tmp_path):
    # leader listed first in the file; columns must keep that order
    text = """\
[system]
A = 0
B = 1
C = 1

[graph]
adjacency = 0 0; 1 0

[leaders]
1.gain = 0
1.gamma = 1

[controller]
kind = continuous_static
kappa = 0.1

[sim]
x0 = 5; -2
t_end = 8
h = 0.01
"""
    out_dir = tmp_path / "out"
    rc = main(["simulate", chain_file(tmp_path, text), "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    # agent 1 is the leader here, so the only input column belongs to agent 2
    assert lines[0] == "t,x1_1,x2_1,u2_1,xi_norm,v1"
    row = lines[1].split(",")
    assert row[1] == "5.0"   # leader (user row 1)
    assert row[2] == "-2.0"  # follower (user row 2)


def test_simulate_deterministic_output(tmp_path):
    path = chain_file(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", path, "--out", str(a)]) == 0
    assert main(["simulate", path, "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_adaptive_columns_and_metrics(tmp_path):
    text = CHAIN_TEXT.replace(
        "kind = continuous_static\nkappa = 0.1",
        "kind = adaptive\nkappa = 0.1\ntaus = 1\nphis = 0.1\nd0 = 0",
    )
    out_dir = tmp_path / "out"
    rc = main(["simulate", chain_file(tmp_path, text), "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1_1,x2_1,u1_1,xi_norm,v1,d_1"
    metrics = (out_dir / "metrics.txt").read_text()
    assert "varrho" in metrics
    assert "d_sup" in metrics
    assert "d2_certified = True" in metrics


def test_observer_columns(tmp_path):
    text = CHAIN_TEXT.replace("kind = continuous_static", "kind = observer_based")
    out_dir = tmp_path / "out"
    rc = main(["simulate", chain_file(tmp_path, text), "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1_1,x2_1,u1_1,xi_norm,v1,v1_1,v2_1"


def test_exit_code_parse_error(tmp_path, capsys):
    bad = chain_file(tmp_path, CHAIN_TEXT.replace("B = 1", "B = one"))
    assert main(["validate", bad]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    assert main(["validate", "/no/such/file.scn"]) == 1
    assert "i/o error" in capsys.readouterr().err


def test_exit_code_assumption_failure(tmp_path, capsys):
    # two followers, no leader
    text = CHAIN_TEXT.replace("adjacency = 0 1; 0 0", "adjacency = 0 1; 1 0")
    text = text.replace("[leaders]\n2.gain = 0\n2.gamma = 1\n\n", "")
    rc = main(["validate", chain_file(tmp_path, text)])
    assert rc == 2
    assert "assumption failure" in capsys.readouterr().err


def test_exit_code_not_controllable(tmp_path, capsys):
    text = CHAIN_TEXT.replace("A = 0", "A = 1 0; 0 1")
    text = text.replace("B = 1", "B = 1; 1")
    text = text.replace("C = 1", "C = 1 0; 0 1")
    text = text.replace("2.gain = 0", "2.gain = 0 0")
    text = text.replace("x0 = -2; 0", "x0 = -2 0; 0 0")
    rc = main(["synth", chain_file(tmp_path, text)])
    assert rc == 3
    assert "not controllable" in capsys.readouterr().err


def test_exit_code_varrho(tmp_path, capsys):
    text = CHAIN_TEXT.replace(
        "kind = continuous_static\nkappa = 0.1",
        "kind = adaptive\nkappa = 0.1\ntaus = 1\nphis = 3\nd0 = 0",
    )
    path = chain_file(tmp_path, text)
    assert main(["bound", path]) == 4
    assert "adaptive leakage too fast" in capsys.readouterr().err
    # simulate downgrades to an uncertified run instead of dying
    out_dir = tmp_path / "out"
    rc = main(["simulate", path, "--out", str(out_dir)])
    assert rc == 5
    metrics = (out_dir / "metrics.txt").read_text()
    assert "uncertifiable" in metrics
    assert "verdict = not certified" in metrics


def test_exit_code_divergence(tmp_path, capsys, monkeypatch):
    text = CHAIN_TEXT.replace("t_end = 2", "t_end = 2000").replace("h = 0.01", "h = 5")
    rc = main(["simulate", chain_file(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 6
    # one line, naming the first non-finite entry: the follower's state
    assert re.fullmatch(
        r"diverged: state became non-finite advancing from t = \S+ "
        r"\(first non-finite: agent 1 x_1\)\n",
        capsys.readouterr().err,
    )
    # an adaptive gain is a scalar, named without a component
    def diverged(*_):
        raise NonFiniteState("state became non-finite advancing from t = 0.5", entry=(3, "d", None))

    monkeypatch.setattr(cli, "integrate", diverged)
    assert main(["simulate", chain_file(tmp_path, text), "--out", str(tmp_path / "out")]) == 6
    assert capsys.readouterr().err == (
        "diverged: state became non-finite advancing from t = 0.5 (first non-finite: agent 3 d)\n"
    )


def test_default_subcommand_roundtrip(tmp_path, capsys):
    assert main(["default"]) == 0
    text = capsys.readouterr().out
    assert "[system]" in text
    parse_scenario(text)  # must be loadable as-is
    out = tmp_path / "default.scn"
    assert main(["default", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == default_scenario()


def test_cli_controller_flag(tmp_path, capsys):
    path = chain_file(tmp_path)
    rc = main(["simulate", path, "--out", str(tmp_path / "o"),
               "--controller", "discontinuous_static", "--t-end", "0.5"])
    assert rc == 5  # the discontinuous law asserts no finite radius
    out = capsys.readouterr().out
    assert "discontinuous_static" in out


def test_load_scenario_applies_overrides(tmp_path):
    parsed = load_scenario(chain_file(tmp_path), t_end=1.0, h=0.005)
    assert parsed.t_end == 1.0
    assert parsed.h == 0.005


def _columns_per_cell(topology, traj):
    """Reference column list: (name, column view) pairs of trajectory.csv,
    one view per column, agents in file (label) order."""
    m = topology.n_followers
    order = sorted(range(topology.n_agents), key=topology.labels.__getitem__)

    def per_agent(prefix, blocks):
        return [(f"{prefix}{label}_{k + 1}", block[:, k])
                for label, block in blocks for k in range(block.shape[1])]

    labels = [topology.labels[c] for c in order]
    states = [traj.follower_states[:, c] if c < m else traj.leader_states[:, c - m] for c in order]
    pairs = [("t", traj.times)]
    pairs += per_agent("x", zip(labels, states))
    pairs += per_agent("u", [(topology.labels[c], traj.follower_inputs[:, c]) for c in order if c < m])
    pairs += [("xi_norm", traj.xi_norm), ("v1", traj.v1)]
    if traj.adaptive_gains is not None:
        pairs += [(f"d_{topology.labels[i]}", traj.adaptive_gains[:, i]) for i in range(m)]
    if traj.observer_states is not None:
        pairs += per_agent("v", zip(labels, [traj.observer_states[:, c] for c in order]))
    return pairs


def _write_csv_per_cell(path, topology, traj):
    """Reference writer: one repr(float(...)) per cell, row by row."""
    pairs = _columns_per_cell(topology, traj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(name for name, _ in pairs) + "\n")
        for k in range(len(traj.times)):
            fh.write(",".join(repr(float(col[k])) for _, col in pairs) + "\n")


@pytest.fixture(scope="module")
def ring510_topology():
    return parse_scenario(ring_scenario(510, 1)).topology


def wide_trajectory(topology, steps, values):
    """A Trajectory shaped like an adaptive run on `topology`, filled from values(shape)."""
    m = topology.n_followers
    return Trajectory(
        times=np.arange(steps) * 1e-3,
        follower_states=values((steps, m, 2)),
        leader_states=values((steps, topology.n_leaders, 2)),
        follower_inputs=values((steps, m, 1)),
        leader_inputs=values((steps, topology.n_leaders, 1)),
        xi_norm=values((steps,)),
        v1=values((steps,)),
        assumption2_violations=0,
        adaptive_gains=values((steps, m)),
    )


@pytest.fixture
def wide_run(ring510_topology):
    """100 rows of 2 047 columns (the 510-follower adaptive ring), spread over
    several chunks, with random values, the extremes of float64 and the
    values where repr changes notation."""
    rng = np.random.default_rng(4)
    specials = np.array([
        -0.0, 5e-324, 1.7976931348623157e308, -1e-300, 0.1, np.inf, -np.inf, np.nan,
        1e-05, 2.5e-05, -9.999999999999999e-05, 1e-04,  # repr's e-05 decade ends at 1e-4
        1e-07, 1e15, 9999999999999998.0, 1e16, 1e100,  # padded and signed exponents
        10.00001, 100.000012,  # 0.0000 inside a token
    ])

    def values(shape):
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        block.flat[: specials.size] = specials[: block.size]
        return block

    return SimpleNamespace(
        scenario=SimpleNamespace(topology=ring510_topology),
        traj=wide_trajectory(ring510_topology, 100, values),
    )


@pytest.mark.parametrize("run_name", ["cont_run", "disc_run", "adaptive_run", "observer_run", "wide_run",
                                      "leader_first_run"])
def test_csv_writer_matches_per_cell_reference(run_name, request, tmp_path):
    # the default runs' 20 000 rows and the 100 wide rows each span many write
    # chunks; adaptive adds d_i, observer v columns; leader_first_run lists
    # its agents in neither canonical nor label order
    run = request.getfixturevalue(run_name)
    write_trajectory_csv(str(tmp_path / "chunked.csv"), run.scenario.topology, run.traj)
    _write_csv_per_cell(str(tmp_path / "cells.csv"), run.scenario.topology, run.traj)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_csv_of_a_run_whose_derived_series_overflow(tmp_path):
    # the run completes (exit 5) with finite states, about 1e164 by its last
    # row, while xi_norm and v1 overflow to inf from row 42 on
    args = ["--controller", "continuous_static", "--h", "0.9", "--t-end", "40"]
    out = tmp_path / "out"
    assert main(["simulate", chain_file(tmp_path, default_scenario()), *args, "--out", str(out)]) == 5
    # the run's metrics overflow too, to the inf they report, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = DefaultRun("continuous_static", h=0.9, t_end=40.0)
    assert math.isinf(run.metrics.chattering_index)
    _write_csv_per_cell(str(tmp_path / "cells.csv"), run.scenario.topology, run.traj)
    written = (out / "trajectory.csv").read_bytes()
    assert b"inf" in written
    assert written == (tmp_path / "cells.csv").read_bytes()


def test_csv_rows_match_repr_on_seeded_float64():
    # random bit patterns (both signs; 88 nan and 106 subnormals among them)
    # and the values next to every power of two and ten, where the shortest
    # digits and repr's notation change; fails if orjson's notation drifts
    # from repr's
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 1 << 64, 200_000, dtype=np.uint64).view(np.float64)
    edges = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                            [float(f"1e{k}") for k in range(-323, 309)]])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, 0.0)])
    values = np.concatenate([bits, edges, -edges])
    for width in (1, 7):
        block = values[: values.size // width * width].reshape(-1, width)
        expected = "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())
        assert csv_rows(block) == expected.encode()


def test_csv_writer_memory_does_not_grow_with_rows(ring510_topology):
    # 2 047 values a row: chunks are sized by values, not rows, so the peak is
    # one chunk's worth however many rows there are
    for steps in (200, 2000):
        traj = wide_trajectory(ring510_topology, steps, np.zeros)
        tracemalloc.start()
        try:
            write_trajectory_csv(os.devnull, ring510_topology, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, steps


def assert_one_line_error(capsys, rc, prefix, *words, code=1):
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(prefix), err
    for word in words:
        assert word in lines[0], err


@pytest.mark.parametrize("command,edit,args,field", [
    ("validate", None, ["--h", "nan"], "--h"),
    ("validate", None, ["--t-end", "inf"], "--t-end"),
    ("validate", ("A = 0 1; -1 1", "A = 0 nan; -1 1"), [], "[system].A"),
    ("validate", None, ["--kappa", "nan"], "--kappa"),
    ("bound", ("7.gamma = 6", "7.gamma = nan"), [], "[leaders].7.gamma"),
    ("bound", ("7.sinusoids = 1:4:2:0", "7.sinusoids = 1:inf:2:0"), [], "[leaders].7.sinusoids"),
])
def test_non_finite_numbers_rejected_at_parse(tmp_path, capsys, command, edit, args, field):
    text = default_scenario()
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    rc = main([command, chain_file(tmp_path, text), *args])
    assert_one_line_error(capsys, rc, "scenario error:", field)


@pytest.mark.parametrize("command", ["validate", "bound", "simulate"])
@pytest.mark.parametrize("params,name", [
    ("taus = 0\nphis = 0.1\nd0 = 0", "taus"),
    ("taus = 1\nphis = -0.1\nd0 = 0", "phis"),
    ("taus = 1\nphis = 0.1\nd0 = -1", "d0"),
    ("taus = 5\nphis = 1e308\nd0 = 0", "phi_i tau_i"),
])
def test_adaptive_parameters_out_of_range(tmp_path, capsys, command, params, name):
    text = CHAIN_TEXT.replace(
        "kind = continuous_static\nkappa = 0.1", "kind = adaptive\nkappa = 0.1\n" + params
    )
    argv = [command, chain_file(tmp_path, text)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert_one_line_error(capsys, main_without_warnings(argv), "scenario error:", "[controller]", name)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "synth", "bound", "simulate"])
@pytest.mark.parametrize("line,name", [("c1_scale = 0.5", "c1_scale"), ("c2_scale = 0.999", "c2_scale")])
def test_coupling_scales_below_one_rejected(tmp_path, capsys, command, line, name):
    # a scale below 1 would put c1 or c2 under its certified floor
    text = CHAIN_TEXT.replace("kappa = 0.1", "kappa = 0.1\n" + line)
    argv = [command, chain_file(tmp_path, text)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert_one_line_error(capsys, main(argv), "scenario error: [controller]:", name, ">= 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit,args,words", [
    (("x0 = -2; 0", "x0 = -2"), [], "x0 must be 2x1 (one row per agent), got 1x1"),
    (("x0 = -2; 0", "x0 = -2 1; 0 1"), [], "x0 must be 2x1 (one row per agent), got 2x2"),
    (("h = 0.01", "h = 0"), [], "h must be positive"),
    (None, ["--t-end", "0.001"], "t_end must be at least h"),
    (("h = 0.01", "h = 0.01\ntail_fraction = 1.5"), [], "tail_fraction must be in (0, 1]"),
    (("kappa = 0.1", "kappa = 0.1\ntaus = 1 1\nphis = 0 0\nd0 = 0 0"), ["--controller", "adaptive"],
     "taus, phis and d0 must list one value per follower (1), got 2"),
    (("2.gamma = 1", "2.gamma = 0"), [], "[leaders].2: gamma must be a finite number > 0"),
    # every command builds the Scenario, so the recording budget holds for validate too
    (None, ["--h", "1e-300"], "recorded values"),
    (("2.gain = 0", "2.gain = 0\n2.sinusoids = 1:1:1e308:0"), [], "omega t + phase overflows"),
    (("A = 0\n", "A = 0 1\n"), [], "[system]: A must be square, got (1, 2)"),
    (("B = 1", "B = 1; 2; 3"), [], "[system]: B has 3 rows, expected 1"),
    (("C = 1", "C = 1 0"), [], "[system]: C has 2 columns, expected 1"),
    (("2.gain = 0", "2.gain = 0 1"), [], "leader 2 gain must be 1x1, got 1x2"),
    (("kappa = 0.1", "kappa = 0.1\nare_weight = 1 0"), [],
     "[controller]: are_weight must be square, got (1, 2)"),
    # an unused v0 meets the rule Scenario applies to a used one, in one message
    (("x0 = -2; 0", "x0 = -2; 0\nv0 = 1"), [],
     "error: v0 must be 2x1 (one row per agent), got 1x1"),
    # a misspelled key or section is an error, not a line the run ignores
    (("kappa = 0.1", "kappa = 0.1\nc1_scle = 2"), [], "line 12: [controller]: unknown key 'c1_scle'"),
    (("h = 0.01", "h = 0.01\ntail_fracton = 0.5"), [], "line 21: [sim]: unknown key 'tail_fracton'"),
    (("h = 0.01", "h = 0.01\n\n[extra]"), [], "line 22: [extra]: unknown section"),
    (("[graph]", "[grahp]"), [], "line 6: [grahp]: unknown section"),
    (("x0 = -2; 0", "x0 = -2; 0\nv0 = 1"), ["--controller", "observer_based"],
     "error: v0 must be 2x1 (one row per agent), got 1x1"),
])
def test_scenario_rules_exit_1_naming_the_key(tmp_path, capsys, edit, args, words):
    text = CHAIN_TEXT if edit is None else CHAIN_TEXT.replace(*edit)
    rc = main(["validate", chain_file(tmp_path, text), *args])
    assert_one_line_error(capsys, rc, "scenario error:", words)


@pytest.mark.parametrize("old,new,message", [
    ("7.gain = 0 -2", "7.gian = 0 -2",
     "[leaders]: leader keys look like <label>.gain/.sinusoids/.gamma, got '7.gian'"),
    ("7.gain = 0 -2", "x.gain = 0 -2", "[leaders]: leader label 'x' is not an integer"),
    ("7.gain = 0 -2", "1.gain = 0 -2", "[leaders]: agent 1 is not a leader"),
    ("8.gamma = 4\n", "", "[leaders].8.gamma: leader 8 needs a gamma declaration"),
], ids=["typo", "label", "follower", "gamma"])
def test_leader_key_rules_exit_1_with_one_line(tmp_path, capsys, old, new, message):
    text = default_scenario()
    assert old in text
    line = text[:text.index(old)].count("\n") + 1
    rc = main(["validate", chain_file(tmp_path, text.replace(old, new))])
    # each key rule names the key's line; the missing gamma has no line to name
    where = "" if message.startswith("[leaders].8") else f"line {line}: "
    assert_one_line_error(capsys, rc, f"scenario error: {where}{message}")


def test_parse_permutes_agent_rows_into_canonical_order():
    # the leader is agent 1 in the file; canonical order puts follower 2 first
    text = CHAIN_TEXT.replace("adjacency = 0 1; 0 0", "adjacency = 0 0; 1 0")
    text = text.replace("2.gain", "1.gain").replace("2.gamma", "1.gamma")
    text = text.replace("x0 = -2; 0", "x0 = 5; -2\nv0 = 0.5; -1")
    scn = parse_scenario(text, controller="observer_based")
    assert scn.topology.labels == (2, 1)
    assert scn.x0.tolist() == [[-2.0], [5.0]]
    assert scn.v0.tolist() == [[-1.0], [0.5]]
    # only the observer-based law reads v0; a v0 of the wrong shape is rejected
    # with one message whichever law the file is read for
    assert parse_scenario(text).v0 is None
    for law in (None, "observer_based"):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text.replace("v0 = 0.5; -1", "v0 = 0.5"), controller=law)
        assert str(err.value) == "v0 must be 2x1 (one row per agent), got 1x1"
    # absent v0 starts every observer at zero
    assert parse_scenario(CHAIN_TEXT, controller="observer_based").v0.tolist() == [[0.0], [0.0]]


@pytest.mark.parametrize("spec", ["abc", "solve=1e-8,nope=3", "solve=1e-8,pivot=nan", "-1",
                                  "pivot=0.5", "sym=1e-9"])
def test_malformed_contain_tol(tmp_path, capsys, monkeypatch, spec):
    before = dataclasses.astuple(TOL)
    monkeypatch.setenv("CONTAIN_TOL", spec)
    rc = main(["validate", chain_file(tmp_path)])
    assert_one_line_error(capsys, rc, "bad CONTAIN_TOL:")
    # the spec is checked whole before any field is assigned
    assert dataclasses.astuple(TOL) == before


def test_each_main_call_starts_from_the_default_tolerances(tmp_path, monkeypatch):
    path = chain_file(tmp_path)
    monkeypatch.setenv("CONTAIN_TOL", "solve=1e-3")
    assert main(["validate", path]) == 0
    assert TOL.solve == 1e-3
    monkeypatch.delenv("CONTAIN_TOL")
    assert main(["validate", path]) == 0
    assert TOL == Tolerances()


def test_non_utf8_byte_names_its_line_and_offset(tmp_path, capsys):
    data = default_scenario().encode("utf-8").replace(b"    0.5 -0.5", b"    0.5\xa0-0.5")
    offset = data.index(b"\xa0")
    line = data[:offset].count(b"\n") + 1
    path = tmp_path / "latin1.scn"
    path.write_bytes(data)
    rc = main(["validate", str(path)])
    assert_one_line_error(
        capsys, rc, f"scenario error: line {line}: byte 0xa0 at offset {offset} is not UTF-8"
    )


@pytest.mark.parametrize("kind", ["discontinuous_static", "observer_based", "continuous_static"])
def test_leader_bound_violation_is_not_certified(tmp_path, capsys, kind):
    # the leader input 2 sin(t) breaks its declared bound gamma = 1
    text = CHAIN_TEXT.replace("2.gain = 0", "2.gain = 0\n2.sinusoids = 1:2:1:0")
    out_dir = tmp_path / "out"
    rc = main(["simulate", chain_file(tmp_path, text), "--controller", kind, "--out", str(out_dir)])
    stdout = capsys.readouterr().out.splitlines()
    assert rc == 5
    assert stdout[-1] == "verdict: not certified"
    assert stdout[-2].startswith("reason: ") and "leader input samples exceed" in stdout[-2]
    assert "verdict = not certified" in (out_dir / "metrics.txt").read_text()


@pytest.mark.parametrize("command,edits,args,prefix", [
    ("synth", [("C = 1 0; 0 1", "C = 0 0")], ["--controller", "observer_based"], "not observable:"),
    ("bound", [("A = 0 1; -1 1", "A = 0 1; -1e6 1"), ("B = 0; 1", "B = 0; 1e-6")], [],
     "synthesis failed: Riccati iteration stalled"),
    # designs that overflow, and radii that do: an infinite radius certifies nothing
    ("bound", [("A = 0 1; -1 1", "A = 0 1; -1e308 1")], [], "synthesis failed:"),
    ("bound", [("are_weight = 4 0; 0 1", "are_weight = 1e200 0; 0 1")], [], "synthesis failed:"),
    ("bound", [("7.gamma = 6", "7.gamma = 1e308")], [], "synthesis failed: D1 radius^2 overflowed"),
    ("simulate", [("kappa = 0.1", "kappa = 1e308")], ["--t-end", "0.01"],
     "synthesis failed: D1 radius^2 overflowed"),
    # (A, B) stays controllable when B is scaled up; it is B B' that overflows
    ("bound", [("B = 0; 1", "B = 0; 1e200")], [], "synthesis failed: B B' overflows"),
    # a weight sym_eigs reads without overflow (validate runs on it) overflows the design
    ("bound", [("are_weight = 4 0; 0 1", "are_weight = 1e308 0; 0 1e308")], [],
     "synthesis failed: the Riccati iteration overflows: its next X is not finite"),
    # the Bass seed's overflow names the seed, not a kernel argument
    ("bound", [("A = 0 1; -1 1", "A = 0 1; -1e308 1")], [],
     "synthesis failed: the Bass seed overflows: its Lyapunov operator of A + beta I"),
])
def test_synthesis_failure_exits_3_with_one_line(tmp_path, capsys, command, edits, args, prefix):
    text = default_scenario()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    if command == "simulate":
        args = [*args, "--out", str(tmp_path / "out")]
    rc = main_without_warnings([command, chain_file(tmp_path, text), *args])
    # a kernel failure names the design and the scenario keys it reads; an
    # overflowing radius is a certificate's failure, not a design's
    if "radius^2 overflowed" in prefix:
        keys = ()
    elif command == "synth":
        keys = ("(A, C) fails", "; observer design from [system] A, C")
    else:
        keys = ("; controller design from [system] A, B and [controller] are_weight",)
    assert_one_line_error(capsys, rc, prefix, *keys, code=3)
    assert not (tmp_path / "out").exists()


def test_a_non_stabilizing_riccati_solution_exits_3(tmp_path, capsys, monkeypatch):
    # care_solve returns only a stabilizing X: with every closed loop judged
    # not Hurwitz, the design fails
    monkeypatch.setattr(matlib, "is_hurwitz", lambda _f: False)
    with pytest.raises(Singular, match="not stabilizing"):
        matlib.care_solve([[0.0]], [[1.0]], [[1.0]])
    rc = main(["bound", chain_file(tmp_path, default_scenario())])
    assert_one_line_error(capsys, rc, "synthesis failed: Riccati solution is not stabilizing",
                          "controller design", code=3)


@pytest.mark.parametrize("weighted", [True, False], ids=["are_weight", "identity_weight"])
@pytest.mark.parametrize("field", ["solve", "eig"])
def test_tolerance_overrides_exit_with_a_code_and_one_line(tmp_path, capsys, monkeypatch,
                                                           field, weighted):
    # any tolerance a user sets, however extreme, runs or fails with one line;
    # main lets no failure outside its table through
    text = default_scenario()
    if not weighted:
        text = text.replace("are_weight = 4 0; 0 1\n", "")
        assert "are_weight" not in text
    path = chain_file(tmp_path, text)
    out = str(tmp_path / "out")
    for value in ("0", "1e-300", "0.5", "1", "1e300"):
        monkeypatch.setenv("CONTAIN_TOL", f"{field}={value}")
        for kind in control.KINDS:
            for command, args in (("validate", []), ("bound", []), ("synth", []),
                                  ("simulate", ["--t-end", "0.01", "--out", out])):
                rc = main_without_warnings([command, path, "--controller", kind, *args])
                err = capsys.readouterr().err
                assert 0 <= rc <= 6 and len(err.splitlines()) <= 1, (field, value, kind, command, err)
                if (field, value, weighted) == ("eig", "1", False) and command != "validate":
                    # the identity weight meets no floor of 1
                    assert rc == 3 and err.startswith("synthesis failed: q must be positive definite")


def test_observer_design_reads_no_eig_tolerance(tmp_path, capsys, monkeypatch):
    # eig is the positive-definiteness floor of the Riccati weight and nothing
    # else; the observer's Hurwitz property is an eigenvalue test with no margin
    path = chain_file(tmp_path, default_scenario())
    printed = []
    for spec in ("", "eig=0.5"):
        monkeypatch.setenv("CONTAIN_TOL", spec)
        assert main(["synth", path, "--controller", "observer_based"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]


@pytest.mark.parametrize("command", ["synth", "bound", "simulate"])
def test_certificate_eigenvalues_taken_once(tmp_path, monkeypatch, command):
    # besides the positive-definiteness checks of the weight, at parse and in
    # the Riccati solve, a command eigen-solves exactly two matrices,
    # A P + P A' - 2 B B' and P, whichever of them it prints
    solved = []

    def counting_sym_eigs(s, *args):
        solved.append(s)
        return sym_eigs(s, *args)

    sym_eigs = synthesis.sym_eigs
    monkeypatch.setattr(synthesis, "sym_eigs", counting_sym_eigs)
    monkeypatch.setattr(matlib, "sym_eigs", counting_sym_eigs)
    args = ["--out", str(tmp_path / "out"), "--t-end", "0.01"] if command == "simulate" else []
    assert main([command, chain_file(tmp_path, default_scenario()), *args]) in (0, 5)
    weight, q, lmi, p = solved
    assert weight.tolist() == q.tolist() == [[4.0, 0.0], [0.0, 1.0]]
    assert sym_eigs(lmi)[-1] < 0.0 < sym_eigs(p)[0]


@pytest.mark.parametrize("error", [
    NoConvergence("Riccati iteration stalled"),
    NonPositiveAlpha("lambda_max of the design inequality is 1e-3 (must be < 0)"),
])
def test_synthesis_errors_map_to_exit_3(tmp_path, capsys, monkeypatch, error):
    def fail(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(cli, "synthesize", fail)
    rc = main(["bound", chain_file(tmp_path)])
    assert_one_line_error(capsys, rc, "synthesis failed:", str(error), code=3)


@pytest.mark.parametrize("command", ["validate", "bound"])
@pytest.mark.parametrize("weight,words", [
    ("1 0; 0 -1", "must be positive definite"),
    ("1 2; 3 4", "not symmetric"),
    ("1 0 0; 0 1 0; 0 0 1", "must be 2x2, got 3x3"),
])
def test_are_weight_checked_at_parse(tmp_path, capsys, command, weight, words):
    text = default_scenario().replace("are_weight = 4 0; 0 1", f"are_weight = {weight}")
    rc = main([command, chain_file(tmp_path, text)])
    # ControllerConfig owns symmetric positive definiteness, Scenario the n x n shape
    owner = "" if words.startswith("must be 2x2") else "[controller]: "
    assert_one_line_error(capsys, rc, f"scenario error: {owner}are_weight", words)


@pytest.mark.parametrize("spec,weight,code", [
    # c (4 0; 1e-9 1) is symmetric within TOL.solve |s|_F at every scale c, and
    # c (1 2; 3 4) is not
    ("", "4e-6 0; 1e-15 1e-6", 0),
    ("", "1e-6 2e-6; 3e-6 4e-6", 1),
    ("", "4 0; 1e-9 1", 0),
    ("", "1 2; 3 4", 1),
    ("", "4e6 0; 1e-3 1e6", 0),
    ("", "1e6 2e6; 3e6 4e6", 1),
    # |s - s'| = 1e-6 is 2.4e-7 |s|_F for s = (4 0; 1e-6 1); solve=0 admits no skew
    ("solve=1e-6", "4 0; 1e-6 1", 0),
    ("solve=1e-7", "4 0; 1e-6 1", 1),
    ("solve=0", "4 0; 1e-9 1", 1),
])
def test_are_weight_symmetry_is_judged_relative_to_its_norm(tmp_path, capsys, monkeypatch, spec,
                                                            weight, code):
    monkeypatch.setenv("CONTAIN_TOL", spec)
    text = default_scenario().replace("are_weight = 4 0; 0 1", f"are_weight = {weight}")
    rc = main(["validate", chain_file(tmp_path, text)])
    if code == 0:
        assert rc == 0, capsys.readouterr().err
    else:
        solve = float(spec.partition("=")[2] or 1e-9)
        assert_one_line_error(capsys, rc, "scenario error: [controller]: are_weight is not "
                              "symmetric: its skew max|s - s'| ",
                              f"exceeds the solve tolerance {solve:.1e} times |s|_F")


@pytest.mark.parametrize("command", ["bound", "synth"])
def test_a_weight_whose_skew_sym_eigs_tolerates_runs(tmp_path, capsys, command):
    # symmetry is judged once, by sym_eigs; the Riccati solve checks no
    # intermediate of it again
    text = default_scenario()
    assert main([command, chain_file(tmp_path, text)]) == 0
    default = capsys.readouterr()
    text = text.replace("are_weight = 4 0; 0 1", "are_weight = 4 0; 1e-9 1")
    assert main([command, chain_file(tmp_path, text)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    if command == "bound":
        assert printed.out == default.out


@pytest.mark.parametrize("spec,weighted,command,code,prefix,words", [
    ("solve=0", True, "validate", 2, "assumption failure: hull weights",
     "the solve tolerance 0.0e+00 times"),
    ("eig=1", True, "bound", 1, "scenario error: [controller]: are_weight must be positive definite",
     "lambda_min 1.000e+00 is not above the eig tolerance 1.0e+00"),
    ("eig=1", False, "bound", 3, "synthesis failed: q must be positive definite",
     "lambda_min 1.000e+00 is not above the eig tolerance 1.0e+00"),
], ids=["solve", "eig-are_weight", "eig-identity_weight"])
def test_a_tolerance_failure_names_the_tolerance(tmp_path, capsys, monkeypatch, spec, weighted,
                                                 command, code, prefix, words):
    # the input met every rule; the line says which tolerance set the bound it missed
    text = default_scenario()
    if not weighted:
        text = text.replace("are_weight = 4 0; 0 1\n", "")
    monkeypatch.setenv("CONTAIN_TOL", spec)
    rc = main([command, chain_file(tmp_path, text)])
    err = capsys.readouterr().err
    assert (rc, len(err.splitlines())) == (code, 1), err
    assert err.startswith(prefix) and words in err, err
    assert "share an eigenvalue" not in err


@pytest.mark.parametrize("argv,words", [
    (["bound", "SCN", "--out", "x"], "contain: unrecognized arguments: --out x"),
    (["bound", "SCN", "--h", "abc"], "contain bound: argument --h: invalid float value: 'abc'"),
    (["simulate", "SCN", "--controller", "pid"], "argument --controller: invalid choice: 'pid'"),
    (["validate"], "the following arguments are required: scenario"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
], ids=["unknown-flag", "bad-number", "bad-choice", "no-scenario", "unknown-command", "no-command"])
def test_usage_errors_exit_1_with_one_line(tmp_path, capsys, argv, words):
    # exit 2 is a topology failure; a bad command line is an input error
    argv = [chain_file(tmp_path) if arg == "SCN" else arg for arg in argv]
    assert_one_line_error(capsys, main(argv), "usage error:", words)


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: contain")


def test_step_budget_exits_1_with_one_line(tmp_path, capsys):
    rc = main(["simulate", chain_file(tmp_path), "--h", "1e-300", "--out", str(tmp_path / "out")])
    assert_one_line_error(capsys, rc, "scenario error:", "recorded values")
    assert not (tmp_path / "out").exists()


def test_plot_script_reads_the_csv_columns(tmp_path):
    text = CHAIN_TEXT.replace(
        "kind = continuous_static\nkappa = 0.1",
        "kind = adaptive\nkappa = 0.1\ntaus = 1\nphis = 0.1\nd0 = 0",
    )
    out_dir = tmp_path / "out"
    assert main(["simulate", chain_file(tmp_path, text), "--out", str(out_dir)]) == 0
    header = (out_dir / "trajectory.csv").read_text().splitlines()[0].split(",")
    series = [line for line in (out_dir / "plot.gp").read_text().splitlines() if "using 1:" in line]
    # follower 1 dash-dot, leader 2 solid, then the adaptive gain
    assert [(header[int(line.split("using 1:")[1].split()[0]) - 1], "dashtype 4" in line) for line in series] == [
        ("x1_1", True), ("x2_1", False), ("d_1", False)
    ]


def _write_plot_script_by_regex(path, topology, traj):
    """Reference plot script: the writer as it was, classifying every column
    name with a regex."""
    followers = set(topology.follower_labels)
    state_series = {}  # component -> one series per agent, in file order
    d_series = []
    for idx, (name, _col) in enumerate(_columns_per_cell(topology, traj), start=1):
        state = re.fullmatch(r"x(\d+)_(\d+)", name)
        if state:
            dash = 4 if int(state[1]) in followers else 1
            state_series.setdefault(state[2], []).append(
                f'"trajectory.csv" using 1:{idx} with lines dashtype {dash} title "{name}"'
            )
        elif name.startswith("d_"):
            d_series.append(f'"trajectory.csv" using 1:{idx} with lines title "{name}"')
    panels = len(state_series) + (1 if d_series else 0)

    lines = [
        "# gnuplot script generated alongside trajectory.csv",
        'set datafile separator ","',
        "set terminal pngcairo size 1100,%d" % (340 * panels),
        'set output "trajectory.png"',
        "set grid",
        "set key outside right",
        "set multiplot layout %d,1" % panels,
        'set xlabel "t [s]"',
    ]
    for comp, series in state_series.items():
        lines.append(f'set title "state component {comp} (followers dash-dot, leaders solid)"')
        lines.append("plot " + ", \\\n     ".join(series))
    if d_series:
        lines.append('set title "adaptive coupling gains"')
        lines.append("plot " + ", \\\n     ".join(d_series))
    lines.append("unset multiplot")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("run_name", ["adaptive_run", "observer_run", "wide_run", "leader_first_run"])
def test_plot_script_matches_the_regex_reference(run_name, request, tmp_path):
    run = request.getfixturevalue(run_name)
    topology = run.scenario.topology
    cli.write_plot_script(str(tmp_path / "plot.gp"), topology, run.traj)
    _write_plot_script_by_regex(str(tmp_path / "reference.gp"), topology, run.traj)
    assert (tmp_path / "plot.gp").read_bytes() == (tmp_path / "reference.gp").read_bytes()


@pytest.fixture
def leader_first_run():
    """Two rows shaped like an adaptive run whose file lists leader 1 first
    and leader 11 among the followers, so labels (some of two digits), file
    order and canonical order all differ."""
    adj = np.zeros((12, 12))
    for i in range(1, 10):
        adj[i, i - 1] = adj[i, i + 1] = 1.0
    adj[11, 10] = 1.0
    topology = build_topology(adj)
    assert topology.leader_labels == (1, 11)
    return SimpleNamespace(
        scenario=SimpleNamespace(topology=topology),
        traj=wide_trajectory(topology, 2, np.random.default_rng(5).standard_normal),
    )


def test_adaptive_gain_columns_carry_agent_labels(tmp_path):
    # agent 1 leads agents 2 and 3, so the followers' gains are d_2 and d_3
    text = """\
[system]
A = 0
B = 1
C = 1

[graph]
adjacency = 0 0 0; 1 0 1; 0 1 0

[leaders]
1.gain = 0
1.gamma = 1

[controller]
kind = adaptive
kappa = 0.1
taus = 1 1
phis = 0.1 0.1
d0 = 0 1

[sim]
x0 = 5; -2; 0
t_end = 0.1
h = 0.01
"""
    out_dir = tmp_path / "out"
    # 0.1 s is too short to certify (exit 5); the files are written either way
    assert main(["simulate", chain_file(tmp_path, text), "--out", str(out_dir)]) in (0, 5)
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1_1,x2_1,x3_1,u2_1,u3_1,xi_norm,v1,d_2,d_3"
    assert lines[1].split(",")[-2:] == ["0.0", "1.0"]
    plot = (out_dir / "plot.gp").read_text()
    gains_panel = plot.split('set title "adaptive coupling gains"')[1]
    assert re.findall(r'title "([^"]+)"', gains_panel) == ["d_2", "d_3"]



def _write_metrics_by_hand(path, scn, gains, part, bounds, metrics, traj, verdict):
    """Reference metrics.txt: the writer as it was, listing every line itself."""
    cfg = scn.controller
    lines = [
        f"kind = {cfg.kind}",
        f"steps = {len(traj.times)}",
        f"h = {scn.h!r}",
        f"t_end = {scn.t_end!r}",
        f"alpha = {gains.alpha!r}",
        f"lambda_min_L1 = {part.lambda_min_L1!r}",
        f"beta = {bounds.beta!r}",
        f"envelope_offset = {bounds.envelope_offset!r}",
        f"d1_radius_sq = {bounds.d1_radius_sq!r}",
        f"tail_sup_xi_sq = {metrics.tail_sup_xi_sq!r}",
    ]
    # only the radius that gates the verdict says whether the tail met it
    if cfg.kind == "continuous_static":
        lines.append(f"d1_certified = {metrics.tail_sup_xi_sq <= bounds.d1_radius_sq}")
    if cfg.kind == "adaptive":
        lines.append(f"varrho = {bounds.varrho!r}")
        if bounds.d2_radius_sq is not None:
            lines.append(f"d2_radius_sq = {bounds.d2_radius_sq!r}")
            lines.append(f"d2_certified = {metrics.tail_sup_xi_sq <= bounds.d2_radius_sq}")
        else:
            lines.append("d2_radius_sq = uncertifiable (varrho >= alpha)")
        lines.append(f"d_sup = {metrics.d_sup!r}")
    lines.append(f"envelope_violations = {metrics.envelope_violations}")
    lines.append(f"chattering_index = {metrics.chattering_index!r}")
    lines.append(f"assumption2_violations = {traj.assumption2_violations}")
    lines.append(f"verdict = {verdict.label}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _print_report_by_hand(scn, bounds, metrics, traj, verdict, csv_path):
    """Reference stdout of simulate: the print block as it was."""
    cfg = scn.controller
    tail = metrics.tail_sup_xi_sq
    print(f"integrated {len(traj.times)} steps of h = {scn.h} ({cfg.kind})")
    print(f"tail sup |xi|^2 = {cli._fmt(tail)}")
    if cfg.kind == "continuous_static":
        print(f"D1 radius^2 = {cli._fmt(bounds.d1_radius_sq)} (certified: {tail <= bounds.d1_radius_sq})")
    else:
        print(f"D1 radius^2 = {cli._fmt(bounds.d1_radius_sq)}")
    if cfg.kind == "adaptive":
        if bounds.d2_radius_sq is not None:
            print(
                f"D2 radius^2 = {cli._fmt(bounds.d2_radius_sq)} "
                f"(certified: {tail <= bounds.d2_radius_sq})"
            )
        else:
            print("D2 radius^2: uncertifiable (varrho >= alpha)")
        print(f"d_sup = {cli._fmt(metrics.d_sup)}")
    print(f"envelope violations = {metrics.envelope_violations}")
    print(f"chattering index = {cli._fmt(metrics.chattering_index)}")
    print(f"leader bound violations = {traj.assumption2_violations}")
    print(f"wrote {csv_path}, metrics.txt, plot.gp")
    if verdict.reason is not None:
        print(f"reason: {verdict.reason}")
    print(f"verdict: {verdict.label}")


@pytest.mark.parametrize("kind,edit", [
    ("adaptive", None),
    ("continuous_static", None),
    ("discontinuous_static", None),
    ("observer_based", None),
    # varrho >= alpha: no D2
    ("adaptive", ("phis = 0.005 0.005 0.005 0.005 0.005 0.005", "phis = 5 5 5 5 5 5")),
    # leader 7's input breaks its declared bound: a reason line
    ("adaptive", ("7.gamma = 6", "7.gamma = 1")),
], ids=["adaptive", "continuous_static", "discontinuous_static", "observer_based",
        "varrho-at-least-alpha", "leader-bound-broken"])
def test_run_record_renders_as_the_hand_written_report(tmp_path, capsys, monkeypatch, kind, edit):
    text = default_scenario()
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    runs = []

    def recorded(*run):
        runs.append(run)
        return record(*run)

    record = cli.run_record
    monkeypatch.setattr(cli, "run_record", recorded)
    out_dir = tmp_path / "out"
    argv = ["simulate", chain_file(tmp_path, text), "--controller", kind, "--t-end", "0.3"]
    rc = main([*argv, "--out", str(out_dir)])
    stdout = capsys.readouterr().out

    # the same run objects, rendered by the hand-written writer and print block
    (scn, part, gains, bounds, metrics, traj, verdict), = runs
    _write_metrics_by_hand(tmp_path / "reference.txt", scn, gains, part, bounds, metrics, traj, verdict)
    _print_report_by_hand(
        scn, bounds, metrics, traj, verdict, os.path.join(str(out_dir), "trajectory.csv")
    )
    assert rc == (0 if verdict.certified else 5)
    assert (out_dir / "metrics.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    assert stdout == capsys.readouterr().out
    if edit is not None:
        assert "uncertifiable" in stdout or "reason: " in stdout


@pytest.mark.parametrize("kind,edit,gate,reason", [
    ("adaptive", None, "d2", None),
    ("continuous_static", None, "d1", None),
    ("discontinuous_static", None, None, "the discontinuous law asserts no finite radius"),
    ("observer_based", None, None, None),
    ("adaptive", ("phis = 0.005 0.005 0.005 0.005 0.005 0.005", "phis = 5 5 5 5 5 5"),
     None, "varrho = 25 must be below alpha = "),
    ("adaptive", ("7.gamma = 6", "7.gamma = 1"), "d2", "leader input samples exceed"),
], ids=["adaptive", "continuous_static", "discontinuous_static", "observer_based",
        "varrho-at-least-alpha", "leader-bound-broken"])
def test_only_the_gating_radius_says_certified(tmp_path, capsys, kind, edit, gate, reason):
    text = default_scenario() if edit is None else default_scenario().replace(*edit)
    out_dir = tmp_path / "out"
    argv = ["simulate", chain_file(tmp_path, text), "--controller", kind, "--t-end", "0.3"]
    rc = main([*argv, "--out", str(out_dir)])
    stdout = capsys.readouterr().out.splitlines()
    metrics = (out_dir / "metrics.txt").read_text().splitlines()
    flag_keys = [line.split(" = ")[0] for line in metrics if "_certified = " in line]
    flag_lines = [line for line in stdout if "(certified: " in line]
    if gate is None:
        assert flag_keys == [] and flag_lines == []
    else:
        assert flag_keys == [f"{gate}_certified"]
        assert len(flag_lines) == 1 and flag_lines[0].startswith(f"{gate.upper()} radius^2 = ")
    # every radius still prints its line
    assert any(line.startswith("D1 radius^2 = ") for line in stdout)
    certified = stdout[-1] == "verdict: certified"
    assert rc == (0 if certified else 5)
    reasons = [line for line in stdout if line.startswith("reason: ")]
    if reason is None:
        assert reasons == []
    else:
        assert not certified and len(reasons) == 1 and reason in reasons[0]
        assert stdout[-2] == reasons[0]


_EXIT_CODES = [
    # (exception, stderr prefix, exit code), as the README's exit-code table lists them
    (cli.UsageError("contain: bad flag"), "usage error", 1),
    (BadTolerance("unknown tolerance field 'x'"), "bad CONTAIN_TOL", 1),
    (ScenarioParseError("expected key = value", line=3), "scenario error", 1),
    (BadAdjacency("adjacency must be square"), "bad adjacency", 1),
    (OSError("no such file"), "i/o error", 1),
    (AssumptionViolated("asymmetric follower pairs ((1, 6),)"), "assumption failure", 2),
    (NotControllable("(A, B) is not controllable"), "not controllable", 3),
    (synthesis.NotObservable("(A, C) is not observable"), "not observable", 3),
    (Singular("Lyapunov operator is singular"), "synthesis failed", 3),
    (NoConvergence("Riccati iteration stalled"), "synthesis failed", 3),
    (NonPositiveAlpha("alpha is not positive"), "synthesis failed", 3),
    (NonFinite("K contains non-finite entries"), "synthesis failed", 3),
    (synthesis.VarrhoTooLarge(25.0, 0.5), "adaptive leakage too fast", 4),
    (NonFiniteState("state became non-finite", entry=(7, "v", 2)), "diverged", 6),
]


def test_exit_code_table_covers_every_failure():
    caught = {error for errors, _prefix, _code in cli._FAILURES for error in errors}
    assert caught == {type(exc) for exc, _prefix, _code in _EXIT_CODES}


@pytest.mark.parametrize(
    "exc,prefix,code", _EXIT_CODES, ids=[type(exc).__name__ for exc, _p, _c in _EXIT_CODES]
)
def test_each_failure_exits_with_its_code_and_one_line(tmp_path, capsys, monkeypatch, exc, prefix, code):
    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(cli, "load_scenario", fail)
    rc = main(["bound", chain_file(tmp_path)])
    assert (rc, capsys.readouterr().err) == (code, f"{prefix}: {exc}\n")


def test_an_unlisted_failure_propagates(tmp_path, monkeypatch):
    def fail(*_args, **_kwargs):
        raise KeyError("not a documented failure")

    monkeypatch.setattr(cli, "load_scenario", fail)
    with pytest.raises(KeyError):
        main(["bound", chain_file(tmp_path)])


def test_readme_scenario_example_runs(tmp_path, capsys):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    section = readme.split("## Scenario files", 1)[1]
    example = section.split("```\n", 2)[1]
    assert example.startswith("[system]")
    path = chain_file(tmp_path, example)
    for command in ("validate", "bound"):
        assert main([command, path]) == 0, capsys.readouterr().err
