import dataclasses
import json
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from contain import cli
from contain.cli import (
    ScenarioParseError,
    cmd_simulate,
    default_scenario,
    load_scenario,
    main,
    parse_scenario,
    write_trajectory_csv,
)
from contain.matlib import TOL, NoConvergence
from contain.sim import NonFiniteState, Scenario, Trajectory
from contain import synthesis
from contain.synthesis import NonPositiveAlpha
from conftest import main_without_warnings, ring_scenario

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
    # 262 144 adjacency entries go straight into float arrays: the matrix in
    # file order plus its canonical copy are 4.2 MB, and nothing else that big
    # is live at once
    text = ring_scenario(510, 1)
    tracemalloc.start()
    try:
        parse_scenario(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


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
    rc = main(["validate", chain_file(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out
    assert "1<->2" in out


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
    assert rc == 0
    out = capsys.readouterr().out
    assert "discontinuous_static" in out


def test_load_scenario_applies_overrides(tmp_path):
    parsed = load_scenario(chain_file(tmp_path), t_end=1.0, h=0.005)
    assert parsed.t_end == 1.0
    assert parsed.h == 0.005


def _write_csv_per_cell(path, topology, traj):
    """Reference writer: one repr(float(...)) per cell, row by row."""
    pairs = cli.trajectory_columns(topology, traj)
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
    several chunks, with random values and the extremes of float64."""
    rng = np.random.default_rng(4)
    specials = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1e-300, 0.1, 1e16])

    def values(shape):
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        block.flat[: specials.size] = specials[: block.size]
        return block

    return SimpleNamespace(
        scenario=SimpleNamespace(topology=ring510_topology),
        traj=wide_trajectory(ring510_topology, 100, values),
    )


@pytest.mark.parametrize("run_name", ["cont_run", "disc_run", "adaptive_run", "observer_run", "wide_run"])
def test_csv_writer_matches_per_cell_reference(run_name, request, tmp_path):
    # the default runs' 20 000 rows and the 100 wide rows each span many write
    # chunks; adaptive adds d_i, observer v columns
    run = request.getfixturevalue(run_name)
    write_trajectory_csv(str(tmp_path / "chunked.csv"), run.scenario.topology, run.traj)
    _write_csv_per_cell(str(tmp_path / "cells.csv"), run.scenario.topology, run.traj)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


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
])
def test_scenario_rules_exit_1_naming_the_key(tmp_path, capsys, edit, args, words):
    text = CHAIN_TEXT if edit is None else CHAIN_TEXT.replace(*edit)
    rc = main(["validate", chain_file(tmp_path, text), *args])
    assert_one_line_error(capsys, rc, "scenario error:", words)


def test_parse_permutes_agent_rows_into_canonical_order():
    # the leader is agent 1 in the file; canonical order puts follower 2 first
    text = CHAIN_TEXT.replace("adjacency = 0 1; 0 0", "adjacency = 0 0; 1 0")
    text = text.replace("2.gain", "1.gain").replace("2.gamma", "1.gamma")
    text = text.replace("x0 = -2; 0", "x0 = 5; -2\nv0 = 0.5; -1")
    scn = parse_scenario(text, controller="observer_based")
    assert scn.topology.labels == (2, 1)
    assert scn.x0.tolist() == [[-2.0], [5.0]]
    assert scn.v0.tolist() == [[-1.0], [0.5]]
    # only the observer-based law reads v0; a v0 of the wrong shape is still rejected
    assert parse_scenario(text).v0 is None
    with pytest.raises(ScenarioParseError, match="v0 must be 2x1"):
        parse_scenario(text.replace("v0 = 0.5; -1", "v0 = 0.5"))
    # absent v0 starts every observer at zero
    assert parse_scenario(CHAIN_TEXT, controller="observer_based").v0.tolist() == [[0.0], [0.0]]


@pytest.mark.parametrize("spec", ["abc", "solve=1e-8,nope=3", "solve=1e-8,pivot=nan", "-1"])
def test_malformed_contain_tol(tmp_path, capsys, monkeypatch, spec):
    before = dataclasses.astuple(TOL)
    monkeypatch.setenv("CONTAIN_TOL", spec)
    rc = main(["validate", chain_file(tmp_path)])
    assert_one_line_error(capsys, rc, "bad CONTAIN_TOL:")
    # the spec is checked whole before any field is assigned
    assert dataclasses.astuple(TOL) == before


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
     "synthesis failed: Lyapunov operator is singular"),
    # designs that overflow, and radii that do: an infinite radius certifies nothing
    ("bound", [("A = 0 1; -1 1", "A = 0 1; -1e308 1")], [], "synthesis failed:"),
    ("bound", [("are_weight = 4 0; 0 1", "are_weight = 1e200 0; 0 1")], [], "synthesis failed:"),
    ("bound", [("7.gamma = 6", "7.gamma = 1e308")], [], "synthesis failed: D1 radius^2 overflowed"),
    ("simulate", [("kappa = 0.1", "kappa = 1e308")], ["--t-end", "0.01"],
     "synthesis failed: D1 radius^2 overflowed"),
    # (A, B) stays controllable when B is scaled up; it is B B' that overflows
    ("bound", [("B = 0; 1", "B = 0; 1e200")], [], "synthesis failed: B B' overflows"),
])
def test_synthesis_failure_exits_3_with_one_line(tmp_path, capsys, command, edits, args, prefix):
    text = default_scenario()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    if command == "simulate":
        args = [*args, "--out", str(tmp_path / "out")]
    rc = main_without_warnings([command, chain_file(tmp_path, text), *args])
    assert_one_line_error(capsys, rc, prefix, code=3)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "bound", "simulate"])
def test_certificate_eigenvalues_taken_once(tmp_path, monkeypatch, command):
    # besides the are_weight check at parse, a command eigen-solves exactly two
    # matrices, A P + P A' - 2 B B' and P, whichever of them it prints
    solved = []

    def counting_sym_eigs(s):
        solved.append(s)
        return sym_eigs(s)

    sym_eigs = synthesis.sym_eigs
    monkeypatch.setattr(synthesis, "sym_eigs", counting_sym_eigs)
    monkeypatch.setattr(cli, "sym_eigs", counting_sym_eigs)
    args = ["--out", str(tmp_path / "out"), "--t-end", "0.01"] if command == "simulate" else []
    assert main([command, chain_file(tmp_path, default_scenario()), *args]) in (0, 5)
    weight, lmi, p = solved
    assert weight.tolist() == [[4.0, 0.0], [0.0, 1.0]]
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
    assert_one_line_error(capsys, rc, "scenario error: [controller].are_weight:", words)


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

