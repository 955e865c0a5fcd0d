"""Command-line front end: scenario files in, reports and trajectories out.

Scenario files are plain text with [section] headers and key = value entries;
values may continue on indented lines (matrix rows). The full grammar is
documented in the README and the built-in default file (contain default).

Exit codes: 0 success / certified; 1 usage, parse or input error; 2
standing-assumption failure; 3 not controllable or another synthesis failure,
including a design or radius that overflows; 4 adaptive leakage too fast
(varrho >= alpha); 5 bounds not certified by the run; 6 state diverged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import (
    ADAPTIVE,
    DISCONTINUOUS_STATIC,
    KINDS,
    OBSERVER_BASED,
    ControllerConfig,
    LeaderInputSpec,
    LinearSystem,
    Sinusoid,
)
from .graph import (
    AssumptionViolated,
    BadAdjacency,
    NoFollower,
    NoLeader,
    Topology,
    build_topology,
    check_assumption1,
    partition_laplacian,
)
from .matlib import (
    TOL,
    BadTolerance,
    NoConvergence,
    NonFinite,
    NotControllable,
    NotSymmetric,
    Singular,
    apply_tolerance_overrides,
    sym_eigs,
)
from .sim import (
    Metrics,
    NonFiniteState,
    Scenario,
    Trajectory,
    Verdict,
    compute_metrics,
    integrate,
    run_verdict,
)
from .synthesis import (
    BoundReport,
    GainSet,
    NonPositiveAlpha,
    NotObservable,
    VarrhoTooLarge,
    compute_bound_report,
    synthesize,
)


class ScenarioParseError(Exception):
    """Scenario file problem, with line/field context when known."""

    def __init__(self, message: str, line: Optional[int] = None, field: Optional[str] = None):
        self.message = message
        self.line = line
        self.field = field
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(field)
        parts.append(message)
        super().__init__(": ".join(parts))


# ---------------------------------------------------------------------------
# scenario text parsing


@dataclass
class _Value:
    fragments: list  # (text, line number) pairs

    @property
    def line(self) -> int:
        return self.fragments[0][1]

    def text(self) -> str:
        return " ".join(t for t, _ in self.fragments).strip()


def _parse_sections(text: str) -> dict:
    sections: dict = {}
    current_section = None
    current_key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if raw[0] not in " \t":
            current_key = None
        if stripped.startswith("["):
            if not (stripped.startswith("[") and stripped.endswith("]")):
                raise ScenarioParseError("malformed section header", line=lineno)
            name = stripped[1:-1].strip()
            if not name:
                raise ScenarioParseError("empty section name", line=lineno)
            if name in sections:
                raise ScenarioParseError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current_section = name
            continue
        if raw[0] in " \t":
            # continuation of the previous key
            if current_section is None or current_key is None:
                raise ScenarioParseError("continuation line with no key", line=lineno)
            sections[current_section][current_key].fragments.append((stripped, lineno))
            continue
        if current_section is None:
            raise ScenarioParseError("content before any [section]", line=lineno)
        key, sep, value = raw.partition("=")
        if not sep:
            raise ScenarioParseError("expected key = value", line=lineno)
        key = key.strip()
        if not key:
            raise ScenarioParseError("empty key", line=lineno)
        if key in sections[current_section]:
            raise ScenarioParseError(
                f"duplicate key {key!r} in [{current_section}]", line=lineno
            )
        sections[current_section][key] = _Value([(value.strip(), lineno)])
        current_key = key
    return sections


def _get(sections, section, key) -> Optional[_Value]:
    return sections.get(section, {}).get(key)


def _require(sections, section, key) -> _Value:
    if section not in sections:
        raise ScenarioParseError(f"missing section [{section}]", field=section)
    value = sections[section].get(key)
    if value is None:
        raise ScenarioParseError(f"missing key {key!r}", field=f"[{section}]")
    return value


def _matrix(value: _Value, field: str) -> np.ndarray:
    rows = [
        (piece, lineno)
        for text, lineno in value.fragments
        for piece in map(str.strip, text.split(";"))
        if piece
    ]
    if not rows:
        raise ScenarioParseError("empty matrix", line=value.line, field=field)
    mat = None
    for i, (piece, lineno) in enumerate(rows):
        try:
            # numpy's str -> float64 cast accepts and rounds exactly the tokens
            # float() does, without making a Python float per entry
            row = np.array(piece.split(), dtype=float)
        except ValueError:
            raise ScenarioParseError(
                f"bad number in matrix row {piece!r}", line=lineno, field=field
            ) from None
        if mat is None:
            mat = np.empty((len(rows), row.size))
        elif row.size != mat.shape[1]:
            raise ScenarioParseError(
                f"ragged matrix row (expected {mat.shape[1]} entries, got {row.size})",
                line=lineno,
                field=field,
            )
        mat[i] = row
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ScenarioParseError(
            f"non-finite number in matrix row {bad + 1}", line=rows[bad][1], field=field
        )
    return mat


def _vector(value: _Value, field: str) -> np.ndarray:
    mat = _matrix(value, field)
    if mat.shape[0] != 1:
        raise ScenarioParseError(
            f"expected a single row, got {mat.shape[0]}", line=value.line, field=field
        )
    return mat[0]


def _scalar(value: _Value, field: str) -> float:
    try:
        number = float(value.text())
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ScenarioParseError(
            f"expected a finite number, got {value.text()!r}", line=value.line, field=field
        )
    return number


def _sinusoids(value: _Value, field: str, n_channels: int) -> tuple:
    out = []
    text = value.text()
    if not text:
        return ()
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 4:
            raise ScenarioParseError(
                f"sinusoid must be channel:amplitude:omega:phase, got {item!r}",
                line=value.line,
                field=field,
            )
        try:
            channel = int(parts[0])
            numbers = [float(p) for p in parts[1:]]
        except ValueError:
            numbers = [math.nan]
        if not all(map(math.isfinite, numbers)):
            raise ScenarioParseError(
                f"bad sinusoid numbers in {item!r}", line=value.line, field=field
            )
        amp, omega, phase = numbers
        if not 1 <= channel <= n_channels:
            raise ScenarioParseError(
                f"sinusoid channel {channel} out of range 1..{n_channels}",
                line=value.line,
                field=field,
            )
        out.append(Sinusoid(channel - 1, amp, omega, phase))
    return tuple(out)


def _scalars(sections, section: str, keys) -> dict:
    """The finite numbers given for those keys of a section; absent keys are left out."""
    return {
        key: _scalar(value, f"[{section}].{key}")
        for key in keys
        if (value := _get(sections, section, key)) is not None
    }


def parse_scenario(
    text: str,
    *,
    controller: Optional[str] = None,
    kappa: Optional[float] = None,
    h: Optional[float] = None,
    t_end: Optional[float] = None,
) -> Scenario:
    """Parse scenario text and apply command-line overrides.

    Syntax and the checks whose message names something the runtime types
    cannot (a line, a leader, a 1-based channel) are made here; every other
    rule is checked once, by ControllerConfig, LeaderInputSpec or Scenario,
    and reported as a ScenarioParseError.
    """
    for name, value in (("--kappa", kappa), ("--h", h), ("--t-end", t_end)):
        if value is not None and not math.isfinite(value):
            raise ScenarioParseError(f"expected a finite number, got {value!r}", field=name)
    sections = _parse_sections(text)

    a = _matrix(_require(sections, "system", "A"), "[system].A")
    if a.shape[0] != a.shape[1]:
        raise ScenarioParseError(
            f"A must be square, got {a.shape}", field="[system].A"
        )
    n = a.shape[0]
    b = _matrix(_require(sections, "system", "B"), "[system].B")
    if b.shape[0] != n:
        raise ScenarioParseError(
            f"B must have {n} rows, got {b.shape[0]}", field="[system].B"
        )
    c_value = _get(sections, "system", "C")
    c = _matrix(c_value, "[system].C") if c_value is not None else np.eye(n)
    if c.shape[1] != n:
        raise ScenarioParseError(
            f"C must have {n} columns, got {c.shape[1]}", field="[system].C"
        )
    system = LinearSystem(A=a, B=b, C=c)

    adjacency = _matrix(_require(sections, "graph", "adjacency"), "[graph].adjacency")
    # N^2 tokens, most of a large file's text: drop it before the topology copies the matrix
    del sections["graph"]["adjacency"]
    topology = build_topology(adjacency)
    m = topology.n_followers
    n_agents = topology.n_agents

    kind_value = _require(sections, "controller", "kind")
    kind = controller if controller is not None else kind_value.text()
    if kind not in KINDS:
        raise ScenarioParseError(
            f"unknown controller kind {kind!r} (one of {', '.join(KINDS)})",
            line=None if controller is not None else kind_value.line,
            field="[controller].kind",
        )

    params = _scalars(sections, "controller", ("kappa", "c1_scale", "c2_scale"))
    if kappa is not None:
        params["kappa"] = kappa
    if kind == DISCONTINUOUS_STATIC:
        params.pop("kappa", None)
    if kind == ADAPTIVE:
        for key in ("taus", "phis"):
            params[key] = _vector(_require(sections, "controller", key), f"[controller].{key}")
        d0_value = _get(sections, "controller", "d0")
        params["d0"] = _vector(d0_value, "[controller].d0") if d0_value is not None else np.zeros(m)
    weight_value = _get(sections, "controller", "are_weight")
    if weight_value is not None:
        where = "[controller].are_weight"
        are_weight = _matrix(weight_value, where)
        if are_weight.shape != (n, n):
            raise ScenarioParseError(
                f"must be {n}x{n}, got {are_weight.shape[0]}x{are_weight.shape[1]}", field=where
            )
        try:
            positive = sym_eigs(are_weight)[0] > TOL.eig
        except NotSymmetric as exc:
            raise ScenarioParseError(str(exc), field=where) from None
        if not positive:
            raise ScenarioParseError("must be positive definite", field=where)
        params["are_weight"] = are_weight
    try:
        controller = ControllerConfig(kind=kind, **params)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), field="[controller]") from None

    if "leaders" not in sections:
        raise ScenarioParseError("missing section [leaders]", field="leaders")
    leader_keys = sections["leaders"]
    known = {}
    for key, value in leader_keys.items():
        label_text, sep, field_name = key.partition(".")
        if not sep or field_name not in ("gain", "sinusoids", "gamma"):
            raise ScenarioParseError(
                f"leader keys look like <label>.gain/.sinusoids/.gamma, got {key!r}",
                line=value.line,
                field="[leaders]",
            )
        try:
            label = int(label_text)
        except ValueError:
            raise ScenarioParseError(
                f"leader label {label_text!r} is not an integer",
                line=value.line,
                field="[leaders]",
            ) from None
        if label not in topology.leader_labels:
            raise ScenarioParseError(
                f"agent {label} is not a leader",
                line=value.line,
                field="[leaders]",
            )
        known.setdefault(label, {})[field_name] = value

    leader_specs = []
    for label in topology.leader_labels:
        fields = known.get(label, {})
        if "gamma" not in fields:
            raise ScenarioParseError(
                f"leader {label} needs a gamma declaration",
                field=f"[leaders].{label}.gamma",
            )
        gamma = _scalar(fields["gamma"], f"[leaders].{label}.gamma")
        if "gain" in fields:
            gain = _matrix(fields["gain"], f"[leaders].{label}.gain")
            if gain.shape != (system.p, n):
                raise ScenarioParseError(
                    f"gain must be {system.p}x{n}, got {gain.shape[0]}x{gain.shape[1]}",
                    field=f"[leaders].{label}.gain",
                )
        else:
            gain = np.zeros((system.p, n))
        sins = (
            _sinusoids(fields["sinusoids"], f"[leaders].{label}.sinusoids", system.p)
            if "sinusoids" in fields
            else ()
        )
        try:
            leader_specs.append(LeaderInputSpec(feedback_gain=gain, sinusoids=sins, gamma=gamma))
        except ValueError as exc:
            raise ScenarioParseError(str(exc), field=f"[leaders].{label}") from None

    def canonical(rows):
        """File-order agent rows in canonical order; Scenario rejects a wrong row count."""
        return rows[list(topology.user_positions)] if len(rows) == n_agents else rows

    x0 = _matrix(_require(sections, "sim", "x0"), "[sim].x0")
    v0_value = _get(sections, "sim", "v0")
    v0 = _matrix(v0_value, "[sim].v0") if v0_value is not None else None
    if kind == OBSERVER_BASED:
        v0 = np.zeros((n_agents, n)) if v0 is None else canonical(v0)
    elif v0 is not None:
        # only the observer-based law reads v0, so Scenario never sees this one
        if v0.shape != (n_agents, n):
            raise ScenarioParseError(
                f"v0 must be {n_agents}x{n}, got {v0.shape[0]}x{v0.shape[1]}", field="[sim].v0"
            )
        v0 = None
    grid = _scalars(sections, "sim", ("t_end", "h", "tail_fraction"))
    grid.update((key, value) for key, value in (("t_end", t_end), ("h", h)) if value is not None)
    try:
        return Scenario(
            system=system,
            topology=topology,
            controller=controller,
            leader_specs=tuple(leader_specs),
            x0=canonical(x0),
            v0=v0,
            **grid,
        )
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None


def load_scenario(path: str, **overrides) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), **overrides)


# ---------------------------------------------------------------------------
# output formatting


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_matrix(mat: np.ndarray, indent: str = "  ") -> str:
    lines = []
    for row in np.atleast_2d(mat):
        lines.append(indent + "  ".join(f"{v: .6g}" for v in row))
    return "\n".join(lines)


def trajectory_columns(topology: Topology, traj: Trajectory) -> list:
    """(name, column) pairs of trajectory.csv, in file order.

    t; the states of every agent, in the order the scenario file lists them;
    the inputs of every follower, same order; xi_norm and v1; then the
    adaptive gains d_i and the observer states of every agent, when present.
    """
    m = topology.n_followers
    order = sorted(range(topology.n_agents), key=topology.user_positions.__getitem__)

    def per_agent(prefix, blocks):
        """prefix<label>_<k> for every (label, (S, K) block) and k = 1..K."""
        return [
            (f"{prefix}{label}_{k + 1}", block[:, k])
            for label, block in blocks
            for k in range(block.shape[1])
        ]

    labels = [topology.labels[c] for c in order]
    states = [traj.follower_states[:, c] if c < m else traj.leader_states[:, c - m] for c in order]
    pairs = [("t", traj.times)]
    pairs += per_agent("x", zip(labels, states))
    pairs += per_agent("u", [(topology.labels[c], traj.follower_inputs[:, c]) for c in order if c < m])
    pairs += [("xi_norm", traj.xi_norm), ("v1", traj.v1)]
    if traj.adaptive_gains is not None:
        pairs += [(f"d_{i + 1}", traj.adaptive_gains[:, i]) for i in range(m)]
    if traj.observer_states is not None:
        pairs += per_agent("v", zip(labels, [traj.observer_states[:, c] for c in order]))
    return pairs


# Values converted to Python floats at a time, whatever the row width: a chunk
# is a whole number of rows (at least one), and it and its list of floats take
# about 2.5 MB. The 2 047-column rows of the 510-follower ring fit 32 to a
# chunk, the 41-column observer rows of the default scenario 1 598.
_CSV_CHUNK_VALUES = 1 << 16


def write_trajectory_csv(path: str, topology: Topology, traj: Trajectory) -> None:
    """Write the CSV; values use shortest round-trip decimals."""
    names, cols = zip(*trajectory_columns(topology, traj))
    chunk_rows = max(1, _CSV_CHUNK_VALUES // len(cols))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(traj.times), chunk_rows):
            block = np.column_stack([col[start:start + chunk_rows] for col in cols])
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())


def write_metrics(
    path: str,
    scn: Scenario,
    gains: GainSet,
    part,
    bounds: BoundReport,
    metrics: Metrics,
    traj: Trajectory,
    verdict: Verdict,
) -> None:
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
        f"d1_certified = {metrics.d1_certified}",
    ]
    if cfg.kind == ADAPTIVE:
        lines.append(f"varrho = {bounds.varrho!r}")
        if bounds.d2_radius_sq is not None:
            lines.append(f"d2_radius_sq = {bounds.d2_radius_sq!r}")
            lines.append(f"d2_certified = {metrics.d2_certified}")
        else:
            lines.append("d2_radius_sq = uncertifiable (varrho >= alpha)")
            lines.append("d2_certified = False")
        lines.append(f"d_sup = {metrics.d_sup!r}")
    lines.append(f"envelope_violations = {metrics.envelope_violations}")
    lines.append(f"chattering_index = {metrics.chattering_index!r}")
    lines.append(f"assumption2_violations = {traj.assumption2_violations}")
    lines.append(f"verdict = {verdict.label}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plot_script(path: str, topology: Topology, traj: Trajectory) -> None:
    """gnuplot script: one panel per state component, plus adaptive gains."""
    followers = set(topology.follower_labels)
    state_series = {}  # component -> one series per agent, in file order
    d_series = []
    for idx, (name, _col) in enumerate(trajectory_columns(topology, traj), start=1):
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


# ---------------------------------------------------------------------------
# commands


def cmd_validate(path: str, **overrides) -> int:
    topo = load_scenario(path, **overrides).topology
    print(f"agents: {topo.n_agents} (followers {topo.n_followers}, leaders {topo.n_leaders})")
    print("follower labels:", " ".join(str(x) for x in topo.follower_labels))
    print("leader labels:", " ".join(str(x) for x in topo.leader_labels))
    report = check_assumption1(topo)
    if not report.follower_subgraph_undirected:
        pairs = ", ".join(f"{a}<->{b}" for a, b in report.asymmetric_pairs)
        print(f"assumption check: FAIL (asymmetric follower pairs: {pairs})")
        return 2
    if report.unreachable_followers:
        missing = ", ".join(str(x) for x in report.unreachable_followers)
        print(f"assumption check: FAIL (no leader reaches followers: {missing})")
        return 2
    print("assumption check: PASS (undirected follower subgraph, all followers leader-reachable)")
    part = partition_laplacian(topo)
    print(f"lambda_min(L1) = {_fmt(part.lambda_min_L1)}")
    row_sums = part.W.sum(axis=1)
    print("W row sums:", " ".join(_fmt(v) for v in row_sums))
    w_min = float(part.W.min())
    if -1e-12 <= w_min < 0.0:
        w_min = 0.0  # clamp solver rounding dust for the report
    print(f"W min entry = {_fmt(w_min)}")
    return 0


def _gains_sidecar_path(scenario_path: str) -> str:
    stem, _ext = os.path.splitext(scenario_path)
    return stem + ".gains.json"


def cmd_synth(path: str, **overrides) -> int:
    scn = load_scenario(path, **overrides)
    part = partition_laplacian(scn.topology)
    gains = synthesize(scn, part)
    print("P =")
    print(_fmt_matrix(gains.P))
    print("K =")
    print(_fmt_matrix(gains.K))
    print("Gamma =")
    print(_fmt_matrix(gains.Gamma))
    print(f"c1 = {_fmt(gains.c1)}  (lambda_min(L1) = {_fmt(part.lambda_min_L1)})")
    print(f"c2 = {_fmt(gains.c2)}")
    print(f"alpha = {_fmt(gains.alpha)}")
    print(f"lambda_max(A P + P A' - 2 B B') = {_fmt(gains.lmi_lambda_max)}  (certificate: < 0)")
    if gains.L_obs is not None:
        print("L_obs =")
        print(_fmt_matrix(gains.L_obs))
    sidecar = _gains_sidecar_path(path)
    payload = {
        "P": gains.P.tolist(),
        "K": gains.K.tolist(),
        "Gamma": gains.Gamma.tolist(),
        "c1": gains.c1,
        "c2": gains.c2,
        "alpha": gains.alpha,
        "lmi_lambda_max": gains.lmi_lambda_max,
        "L_obs": None if gains.L_obs is None else gains.L_obs.tolist(),
    }
    try:
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"gains written to {sidecar}")
    except OSError as exc:
        print(f"warning: could not write {sidecar}: {exc}", file=sys.stderr)
    return 0


def cmd_bound(path: str, **overrides) -> int:
    scn = load_scenario(path, **overrides)
    cfg = scn.controller
    part = partition_laplacian(scn.topology)
    gains = synthesize(scn, part)
    bounds = compute_bound_report(scn, part, gains)
    if cfg.kind == ADAPTIVE and bounds.d2_radius_sq is None:
        raise VarrhoTooLarge(bounds.varrho, gains.alpha)
    print(f"alpha = {_fmt(gains.alpha)}")
    print(f"envelope offset b/alpha = {_fmt(bounds.envelope_offset)}")
    print(f"D1 radius^2 = {_fmt(bounds.d1_radius_sq)}")
    if cfg.kind == ADAPTIVE:
        print(f"beta = {_fmt(bounds.beta)}")
        print(f"varrho = {_fmt(bounds.varrho)}")
        print(f"D2 radius^2 = {_fmt(bounds.d2_radius_sq)}")
    return 0


def cmd_simulate(path: str, out_dir: str, **overrides) -> int:
    scn = load_scenario(path, **overrides)
    cfg = scn.controller
    part = partition_laplacian(scn.topology)
    gains = synthesize(scn, part)

    bounds = compute_bound_report(scn, part, gains)
    if cfg.kind == ADAPTIVE and bounds.d2_radius_sq is None:
        print(f"note: {VarrhoTooLarge(bounds.varrho, gains.alpha)}")

    traj = integrate(scn, gains, part)
    metrics = compute_metrics(traj, bounds, gains, scn.tail_fraction)
    verdict = run_verdict(cfg.kind, metrics, traj)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(csv_path, scn.topology, traj)
    write_metrics(
        os.path.join(out_dir, "metrics.txt"),
        scn, gains, part, bounds, metrics, traj, verdict,
    )
    write_plot_script(os.path.join(out_dir, "plot.gp"), scn.topology, traj)

    print(f"integrated {len(traj.times)} steps of h = {scn.h} ({cfg.kind})")
    print(f"tail sup |xi|^2 = {_fmt(metrics.tail_sup_xi_sq)}")
    print(f"D1 radius^2 = {_fmt(bounds.d1_radius_sq)} (certified: {metrics.d1_certified})")
    if cfg.kind == ADAPTIVE:
        if bounds.d2_radius_sq is not None:
            print(
                f"D2 radius^2 = {_fmt(bounds.d2_radius_sq)} "
                f"(certified: {metrics.d2_certified})"
            )
        else:
            print("D2 radius^2: uncertifiable (varrho >= alpha)")
        print(f"d_sup = {_fmt(metrics.d_sup)}")
    print(f"envelope violations = {metrics.envelope_violations}")
    print(f"chattering index = {_fmt(metrics.chattering_index)}")
    print(f"leader bound violations = {traj.assumption2_violations}")
    print(f"wrote {csv_path}, metrics.txt, plot.gp")
    if verdict.reason is not None:
        print(f"reason: {verdict.reason}")
    print(f"verdict: {verdict.label}")
    return 0 if verdict.certified else 5


def default_scenario() -> str:
    """The built-in 8-agent scenario file (6-follower ring, 2 bounded leaders)."""
    half_pi = repr(math.pi / 2)
    return f"""\
# Default containment scenario: eight agents with identical second-order
# oscillatory dynamics. Followers 1-6 form an undirected ring; leader 7 feeds
# followers 1 and 2, leader 8 feeds followers 4 and 5 (this topology is a
# choice of this tool, made to satisfy the standing assumption).
# Matrix values: rows separated by ';' or by indented continuation lines.

[system]
A = 0 1; -1 1
B = 0; 1
C = 1 0; 0 1

[graph]
adjacency =
    0 1 0 0 0 1 1 0
    1 0 1 0 0 0 1 0
    0 1 0 1 0 0 0 0
    0 0 1 0 1 0 0 1
    0 0 0 1 0 1 0 1
    1 0 0 0 1 0 0 0
    0 0 0 0 0 0 0 0
    0 0 0 0 0 0 0 0

[controller]
kind = adaptive
kappa = 0.1
taus = 5 5 5 5 5 5
phis = 0.005 0.005 0.005 0.005 0.005 0.005
d0 = 0 0 0 0 0 0
# weight chosen so the closed loop settles well before the tail window;
# the identity weight leaves a slow zero near -0.15 that dominates for ~30s
are_weight = 4 0; 0 1

[leaders]
# sinusoids are channel:amplitude:omega:phase with 1-based channels;
# 2cos(t) is encoded as 2sin(t + pi/2).
7.gain = 0 -2
7.sinusoids = 1:4:2:0
7.gamma = 6
8.gain = -1 -3
8.sinusoids = 1:2:1:{half_pi}
8.gamma = 4

[sim]
x0 =
    0.5 -0.5
    1 -1
    1.5 -1.5
    2 -2
    2.5 -2.5
    3 -3
    1 0
    -1 0
t_end = 20
h = 0.001
"""


def cmd_default(out: Optional[str]) -> int:
    text = default_scenario()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class UsageError(Exception):
    """Bad command line: an unknown flag or command, a missing or malformed argument."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises UsageError instead of printing usage and exiting 2,
    which the exit-code table gives to topology failures. Subcommand parsers
    are built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="contain",
        description="Containment control for linear multi-agent systems with bounded-input leaders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("scenario", help="scenario file path")
        sp.add_argument("--controller", choices=KINDS, help="override controller kind")
        sp.add_argument("--kappa", type=float, help="override boundary-layer width")
        sp.add_argument("--h", type=float, help="override step size [s]")
        sp.add_argument("--t-end", dest="t_end", type=float, help="override horizon [s]")

    add_common(sub.add_parser("validate", help="check topology and standing assumptions"))
    add_common(sub.add_parser("synth", help="synthesize gains and print certificates"))
    add_common(sub.add_parser("bound", help="compute residual-set radii"))
    sim = sub.add_parser("simulate", help="run the closed loop and write outputs")
    add_common(sim)
    sim.add_argument("--out", default=".", help="output directory (default: .)")
    dflt = sub.add_parser("default", help="emit the built-in default scenario file")
    dflt.add_argument("--out", default=None, help="write to this path instead of stdout")
    return parser


# An overflow surfaces as a non-finite value that a check names in one line
# (or as a non-finite state or metric), never as a numpy warning.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        apply_tolerance_overrides(os.environ.get("CONTAIN_TOL", ""))
        if args.command == "default":
            return cmd_default(args.out)
        overrides = dict(
            controller=args.controller,
            kappa=args.kappa,
            h=args.h,
            t_end=args.t_end,
        )
        if args.command == "validate":
            return cmd_validate(args.scenario, **overrides)
        if args.command == "synth":
            return cmd_synth(args.scenario, **overrides)
        if args.command == "bound":
            return cmd_bound(args.scenario, **overrides)
        if args.command == "simulate":
            return cmd_simulate(args.scenario, args.out, **overrides)
        raise AssertionError(f"unhandled command {args.command}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BadTolerance as exc:
        print(f"bad CONTAIN_TOL: {exc}", file=sys.stderr)
        return 1
    except ScenarioParseError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except BadAdjacency as exc:
        print(f"bad adjacency: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (NoLeader, NoFollower, AssumptionViolated) as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return 2
    except NotControllable as exc:
        print(f"not controllable: {exc}", file=sys.stderr)
        return 3
    except NotObservable as exc:
        print(f"not observable: {exc}", file=sys.stderr)
        return 3
    except (Singular, NoConvergence, NonPositiveAlpha, NonFinite) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 3
    except VarrhoTooLarge as exc:
        print(f"adaptive leakage too fast: {exc}", file=sys.stderr)
        return 4
    except NonFiniteState as exc:
        label, block, component = exc.entry
        entry = block if component is None else f"{block}_{component}"
        print(f"diverged: {exc} (first non-finite: agent {label} {entry})", file=sys.stderr)
        return 6


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
