"""Command-line front end: scenario files in, reports and trajectories out.

Scenario files are plain text with [section] headers and key = value entries;
values may continue on indented lines (matrix rows). The full grammar is
documented in the README and the built-in default file (contain default).

Exit codes: 0 success / certified; 5 bounds not certified by the run. A
failure exits with the code its row of _FAILURES gives, after one stderr line:
1 usage, parse or input error; 2 standing-assumption failure; 3 not
controllable or another synthesis failure, including a design or radius that
overflows; 4 adaptive leakage too fast (varrho >= alpha); 6 state diverged.
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
import orjson

from .control import (
    ADAPTIVE,
    KINDS,
    ControllerConfig,
    LeaderInputSpec,
    LinearSystem,
    Sinusoid,
)
from .graph import (
    AssumptionViolated,
    BadAdjacency,
    Topology,
    build_topology,
    partition_laplacian,
)
from .matlib import (
    BadTolerance,
    NoConvergence,
    NonFinite,
    NotControllable,
    Singular,
    apply_tolerance_overrides,
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


# The keys each section may hold. [leaders] keys are <label>.gain,
# <label>.sinusoids and <label>.gamma, which parse_scenario checks per leader.
_SECTION_KEYS = {
    "system": ("A", "B", "C"),
    "graph": ("adjacency",),
    "controller": ("kind", "kappa", "c1_scale", "c2_scale", "taus", "phis", "d0", "are_weight"),
    "leaders": None,
    "sim": ("x0", "v0", "t_end", "h", "tail_fraction"),
}


class _Section(dict):
    """A section's key -> _Value entries, and the line of its header."""

    def __init__(self, line: int):
        super().__init__()
        self.line = line


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
            sections[name] = _Section(lineno)
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
    try:
        # One C pass over every row. loadtxt splits on the whitespace
        # str.split does and reads each token with the strtod float() uses,
        # so what it accepts it rounds as float() does.
        mat = np.loadtxt([piece for piece, _ in rows], dtype=float, comments=None, ndmin=2)
    except ValueError:
        # What it rejects goes row by row: tokens only float() reads (1_0,
        # non-ASCII digits), and every bad token or ragged row, whose message
        # names its row and line.
        mat = _matrix_by_rows(rows, field)
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ScenarioParseError(
            f"non-finite number in matrix row {bad + 1}", line=rows[bad][1], field=field
        )
    return mat


def _matrix_by_rows(rows: list, field: str) -> np.ndarray:
    """The (piece, line) rows of a matrix, each cast on its own: numpy's
    str -> float64 cast accepts and rounds exactly the tokens float() does,
    without making a Python float per entry."""
    mat = None
    for i, (piece, lineno) in enumerate(rows):
        try:
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


def _build(field: Optional[str], make, **kwargs):
    """make(**kwargs), a ValueError it raises reported as a ScenarioParseError
    under field."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), field=field) from None


def parse_scenario(
    text: str,
    *,
    controller: Optional[str] = None,
    kappa: Optional[float] = None,
    h: Optional[float] = None,
    t_end: Optional[float] = None,
) -> Scenario:
    """Parse scenario text and apply command-line overrides.

    Syntax is checked here, section and key names against _SECTION_KEYS, and
    so are the rules whose message names a line, a flag or a 1-based channel,
    which the runtime types cannot name. What the values mean is checked
    once, by LinearSystem, ControllerConfig, LeaderInputSpec or Scenario, and
    each ValueError they raise is reported as a ScenarioParseError.
    """
    for name, value in (("--kappa", kappa), ("--h", h), ("--t-end", t_end)):
        if value is not None and not math.isfinite(value):
            raise ScenarioParseError(f"expected a finite number, got {value!r}", field=name)
    sections = _parse_sections(text)
    for name, entries in sections.items():
        if name not in _SECTION_KEYS:
            raise ScenarioParseError(f"unknown section (known: {', '.join(_SECTION_KEYS)})",
                                     line=entries.line, field=f"[{name}]")
        known_keys = _SECTION_KEYS[name]
        for key, value in entries.items():
            if known_keys is not None and key not in known_keys:
                raise ScenarioParseError(f"unknown key {key!r} (known: {', '.join(known_keys)})",
                                         line=value.line, field=f"[{name}]")

    a = _matrix(_require(sections, "system", "A"), "[system].A")
    b = _matrix(_require(sections, "system", "B"), "[system].B")
    c_value = _get(sections, "system", "C")
    c = _matrix(c_value, "[system].C") if c_value is not None else np.eye(a.shape[0])
    system = _build("[system]", LinearSystem, A=a, B=b, C=c)

    adjacency = _matrix(_require(sections, "graph", "adjacency"), "[graph].adjacency")
    # N^2 tokens, most of a large file's text: drop it before the topology copies the matrix
    del sections["graph"]["adjacency"]
    topology = build_topology(adjacency)
    m = topology.n_followers

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
    if kind == ADAPTIVE:
        for key in ("taus", "phis"):
            params[key] = _vector(_require(sections, "controller", key), f"[controller].{key}")
        d0_value = _get(sections, "controller", "d0")
        params["d0"] = _vector(d0_value, "[controller].d0") if d0_value is not None else np.zeros(m)
    weight_value = _get(sections, "controller", "are_weight")
    if weight_value is not None:
        params["are_weight"] = _matrix(weight_value, "[controller].are_weight")
    controller = _build("[controller]", ControllerConfig, kind=kind, **params)

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
        else:
            gain = np.zeros((system.p, system.n))
        sins = (
            _sinusoids(fields["sinusoids"], f"[leaders].{label}.sinusoids", system.p)
            if "sinusoids" in fields
            else ()
        )
        leader_specs.append(_build(f"[leaders].{label}", LeaderInputSpec,
                                   feedback_gain=gain, sinusoids=sins, gamma=gamma))

    def canonical(rows):
        """File-order agent rows in canonical order; Scenario rejects a wrong row count."""
        return rows[[label - 1 for label in topology.labels]] if len(rows) == topology.n_agents else rows

    x0 = _matrix(_require(sections, "sim", "x0"), "[sim].x0")
    v0_value = _get(sections, "sim", "v0")
    v0 = canonical(_matrix(v0_value, "[sim].v0")) if v0_value is not None else None
    grid = _scalars(sections, "sim", ("t_end", "h", "tail_fraction"))
    grid.update((key, value) for key, value in (("t_end", t_end), ("h", h)) if value is not None)
    return _build(None, Scenario, system=system, topology=topology, controller=controller,
                  leader_specs=tuple(leader_specs), x0=canonical(x0), v0=v0, **grid)


def load_scenario(path: str, **overrides) -> Scenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, numbered as parse_scenario numbers lines
        line = len((data[:exc.start].decode("utf-8") + " ").splitlines())
        raise ScenarioParseError(
            f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8", line=line
        ) from None
    del data  # a large file's bytes need not outlive its decoding
    return parse_scenario(text, **overrides)


# ---------------------------------------------------------------------------
# output formatting


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_matrix(mat: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(mat):
        lines.append("  " + "  ".join(f"{v: .6g}" for v in row))
    return "\n".join(lines)


def trajectory_columns(topology: Topology, traj: Trajectory) -> tuple:
    """(names, values) of trajectory.csv: the column names in file order, and
    values(rows), the C-ordered (steps, columns) array of the recorded steps
    in the slice rows, whose columns are those names'.

    t; the states of every agent, in the order the scenario file lists them;
    the inputs of every follower, same order; xi_norm and v1; then the
    adaptive gains d_<label> of every follower, same order, and the observer
    states of every agent, when present. values takes each recorded array's
    columns with one fancy index, not one view per column.
    """
    m = topology.n_followers
    labels = topology.labels
    order = np.array(sorted(range(topology.n_agents), key=labels.__getitem__))
    followers = order[order < m]

    def per_agent(prefix, agents, width):
        """prefix<label>_<k> for every agent and k = 1..width."""
        return [f"{prefix}{labels[c]}_{k + 1}" for c in agents for k in range(width)]

    names = ["t", *per_agent("x", order, traj.follower_states.shape[2]),
             *per_agent("u", followers, traj.follower_inputs.shape[2]), "xi_norm", "v1"]
    if traj.adaptive_gains is not None:
        names += [f"d_{labels[i]}" for i in range(m)]
    if traj.observer_states is not None:
        names += per_agent("v", order, traj.observer_states.shape[2])

    def values(rows: slice) -> np.ndarray:
        states = np.concatenate((traj.follower_states[rows], traj.leader_states[rows]), axis=1)
        steps = len(states)
        blocks = [traj.times[rows, None], states[:, order].reshape(steps, -1),
                  traj.follower_inputs[rows][:, followers].reshape(steps, -1),
                  traj.xi_norm[rows, None], traj.v1[rows, None]]
        if traj.adaptive_gains is not None:
            blocks.append(traj.adaptive_gains[rows])
        if traj.observer_states is not None:
            blocks.append(traj.observer_states[rows][:, order].reshape(steps, -1))
        return np.concatenate(blocks, axis=1, out=np.empty((steps, len(names))))

    return names, values


# Values formatted at a time, whatever the row width: a chunk is a whole number
# of rows (at least one). Its C-ordered float64 block, the block's text and the
# copies the fix-ups make peak at about 0.7 MB, below what setup holds on the
# 510-follower ring. Its 2 047-column rows fit 4 to a chunk, the 41-column
# observer rows of the default scenario 199.
_CSV_CHUNK_VALUES = 1 << 13

# orjson writes repr's shortest round-trip digits in its own notation; each
# fix-up turns one of its forms into repr's, and runs only when its marker is
# in the text. Both exponent fix-ups key on the one byte e, which a scan finds
# faster than it finds e-. The decade [1e-5, 1e-4) is matched only at a token
# start, so 10.00001 stays; the literal leads the pattern, as a leading
# lookbehind would be tried at every byte.
_REPR_NOTATION = (
    (b"e", re.compile(rb"e([0-9])"), rb"e+\1"),  # 1e16 -> 1e+16
    (b"e", re.compile(rb"e-([0-9])(?![0-9])"), rb"e-0\1"),  # 1e-7 -> 1e-07
    (b"0.0000", re.compile(rb"0\.0000(?<![0-9.]0\.0000)([1-9])([0-9]*)"),  # 0.000025 -> 2.5e-05
     lambda m: m[1] + (b"." + m[2] if m[2] else b"") + b"e-05"),
)
_NON_FINITE = re.compile(rb"null")


def csv_rows(block: np.ndarray) -> bytes:
    """The lines of trajectory.csv for a C-ordered float64 block: one line per
    row, each ended by a newline, each cell repr(float(cell)).

    orjson formats the whole block in one call; it writes null for inf, -inf
    and nan, which take repr of the block's non-finite cells, in order.
    """
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b"],[", b"\n")
    for marker, pattern, repl in _REPR_NOTATION:
        if marker in text:
            text = pattern.sub(repl, text)
    if b"n" in text:  # null is the one token with an n, and one byte scans fastest
        cells = iter(block[~np.isfinite(block)].tolist())
        text = _NON_FINITE.sub(lambda _m: repr(next(cells)).encode(), text)
    return text + b"\n"


def write_trajectory_csv(path: str, topology: Topology, traj: Trajectory) -> None:
    """Write the CSV; each value is its repr, shortest round-trip decimals."""
    names, values = trajectory_columns(topology, traj)
    chunk_rows = max(1, _CSV_CHUNK_VALUES // len(names))
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, len(traj.times), chunk_rows):
            fh.write(csv_rows(values(slice(start, start + chunk_rows))))


def run_record(
    scn: Scenario,
    part,
    gains: GainSet,
    bounds: BoundReport,
    metrics: Metrics,
    traj: Trajectory,
    verdict: Verdict,
) -> list:
    """The facts of one simulate run, in metrics.txt order.

    Each fact is (key, value, line): metrics.txt renders it as key = value,
    and simulate's stdout prints line, the fact in words, unless it is None.
    The adaptive law adds varrho, D2 (uncertifiable when varrho >= alpha) and
    d_sup; only the radius that gates the verdict adds whether the tail met it.
    """
    kind, steps = scn.controller.kind, len(traj.times)
    tail, d1, met = metrics.tail_sup_xi_sq, bounds.d1_radius_sq, bounds.gate_met(metrics.tail_sup_xi_sq)

    def radius_line(name, line):  # a radius that gates nothing is a line of stdout alone
        if bounds.gate != name:
            return None, None, line
        return f"{name}_certified", met, f"{line} (certified: {met})"

    record = [
        ("kind", kind, f"integrated {steps} steps of h = {scn.h} ({kind})"),
        ("steps", steps, None),
        ("h", scn.h, None),
        ("t_end", scn.t_end, None),
        ("alpha", gains.alpha, None),
        ("lambda_min_L1", part.lambda_min_L1, None),
        ("beta", bounds.beta, None),
        ("envelope_offset", bounds.envelope_offset, None),
        ("d1_radius_sq", d1, None),
        ("tail_sup_xi_sq", tail, f"tail sup |xi|^2 = {_fmt(tail)}"),
        radius_line("d1", f"D1 radius^2 = {_fmt(d1)}"),
    ]
    if kind == ADAPTIVE:
        record.append(("varrho", bounds.varrho, None))
        if bounds.d2_radius_sq is None:
            d2 = "uncertifiable (varrho >= alpha)"
            record.append(("d2_radius_sq", d2, f"D2 radius^2: {d2}"))
        else:
            d2 = bounds.d2_radius_sq
            record += [("d2_radius_sq", d2, None), radius_line("d2", f"D2 radius^2 = {_fmt(d2)}")]
        record.append(("d_sup", metrics.d_sup, f"d_sup = {_fmt(metrics.d_sup)}"))
    envelope, leader = metrics.envelope_violations, traj.assumption2_violations
    return record + [
        ("envelope_violations", envelope, f"envelope violations = {envelope}"),
        ("chattering_index", metrics.chattering_index,
         f"chattering index = {_fmt(metrics.chattering_index)}"),
        ("assumption2_violations", leader, f"leader bound violations = {leader}"),
        ("verdict", verdict.label, None),
    ]


def write_metrics(path: str, record: list) -> None:
    """metrics.txt, one key = value line per fact of a run_record that has a
    key: a string value as it is, any other value as its repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f"{key} = {value if isinstance(value, str) else repr(value)}\n"
            for key, value, _line in record if key is not None
        )


def write_plot_script(path: str, topology: Topology, traj: Trajectory) -> None:
    """gnuplot script: one panel per state component, plus adaptive gains."""
    followers = {str(label) for label in topology.follower_labels}
    state_series = {}  # component -> one series per agent, in file order
    d_series = []
    for idx, name in enumerate(trajectory_columns(topology, traj)[0], start=1):
        # states are x<label>_<component>; xi_norm is the one other x name
        if name[0] == "x" and name[1].isdigit():
            label, _, component = name[1:].partition("_")
            dash = 4 if label in followers else 1
            state_series.setdefault(component, []).append(
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
# commands: each takes its subparser's argparse dests as keyword arguments
# (scenario, out, and the overrides controller, kappa, h and t_end)


def cmd_validate(scenario: str, **overrides) -> int:
    topo = load_scenario(scenario, **overrides).topology
    print(f"agents: {topo.n_agents} (followers {topo.n_followers}, leaders {topo.n_leaders})")
    print("follower labels:", " ".join(str(x) for x in topo.follower_labels))
    print("leader labels:", " ".join(str(x) for x in topo.leader_labels))
    part = partition_laplacian(topo)  # a failed standing assumption raises here
    print("assumption check: PASS (undirected follower subgraph, all followers leader-reachable)")
    print(f"lambda_min(L1) = {_fmt(part.lambda_min_L1)}")
    row_sums = part.W.sum(axis=1)
    print("W row sums:", " ".join(_fmt(v) for v in row_sums))
    w_min = float(part.W.min())
    if -1e-12 <= w_min < 0.0:
        w_min = 0.0  # clamp solver rounding dust for the report
    print(f"W min entry = {_fmt(w_min)}")
    return 0


def _design(scenario: str, overrides: dict) -> tuple:
    """(scn, part, gains): the prefix synth, bound and simulate share. The
    partition checks the standing assumption, as it does for validate."""
    scn = load_scenario(scenario, **overrides)
    part = partition_laplacian(scn.topology)
    return scn, part, synthesize(scn, part)


def cmd_synth(scenario: str, **overrides) -> int:
    _scn, part, gains = _design(scenario, overrides)

    def matrix(key, mat):  # L_obs alone may be None, and then prints nothing
        if mat is None:
            return key, None, None
        return key, mat.tolist(), f"{key} =\n{_fmt_matrix(mat)}"

    # synth's facts, once, as (key, value, line): the gains sidecar holds
    # key: value, and stdout prints each line that is not None
    record = [
        matrix("P", gains.P),
        matrix("K", gains.K),
        matrix("Gamma", gains.Gamma),
        ("c1", gains.c1, f"c1 = {_fmt(gains.c1)}  (lambda_min(L1) = {_fmt(part.lambda_min_L1)})"),
        ("c2", gains.c2, f"c2 = {_fmt(gains.c2)}"),
        ("alpha", gains.alpha, f"alpha = {_fmt(gains.alpha)}"),
        ("lmi_lambda_max", gains.lmi_lambda_max,
         f"lambda_max(A P + P A' - 2 B B') = {_fmt(gains.lmi_lambda_max)}  (certificate: < 0)"),
        matrix("L_obs", gains.L_obs),
    ]
    for _key, _value, line in record:
        if line is not None:
            print(line)
    sidecar = os.path.splitext(scenario)[0] + ".gains.json"
    try:
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump({key: value for key, value, _line in record}, fh, indent=2)
            fh.write("\n")
        print(f"gains written to {sidecar}")
    except OSError as exc:
        print(f"warning: could not write {sidecar}: {exc}", file=sys.stderr)
    return 0


def cmd_bound(scenario: str, **overrides) -> int:
    scn, part, gains = _design(scenario, overrides)
    bounds = compute_bound_report(scn, part, gains)
    if bounds.varrho is not None and bounds.gate is None:  # an adaptive design without D2
        raise VarrhoTooLarge(bounds.varrho, gains.alpha)
    print(f"alpha = {_fmt(gains.alpha)}")
    print(f"envelope offset b/alpha = {_fmt(bounds.envelope_offset)}")
    print(f"D1 radius^2 = {_fmt(bounds.d1_radius_sq)}")
    if scn.controller.kind == ADAPTIVE:
        print(f"beta = {_fmt(bounds.beta)}")
        print(f"varrho = {_fmt(bounds.varrho)}")
        print(f"D2 radius^2 = {_fmt(bounds.d2_radius_sq)}")
    return 0


def cmd_simulate(scenario: str, out: str, **overrides) -> int:
    scn, part, gains = _design(scenario, overrides)
    bounds = compute_bound_report(scn, part, gains)
    traj = integrate(scn, gains, part)
    metrics = compute_metrics(traj, bounds, gains, scn.tail_fraction)
    verdict = run_verdict(bounds, metrics, traj)
    record = run_record(scn, part, gains, bounds, metrics, traj, verdict)

    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(csv_path, scn.topology, traj)
    write_metrics(os.path.join(out, "metrics.txt"), record)
    write_plot_script(os.path.join(out, "plot.gp"), scn.topology, traj)

    for _key, _value, line in record:
        if line is not None:
            print(line)
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

    def add_command(name, run, summary, scenario=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        if scenario:
            sp.add_argument("scenario", help="scenario file path")
            sp.add_argument("--controller", choices=KINDS, help="override controller kind")
            sp.add_argument("--kappa", type=float, help="override boundary-layer width")
            sp.add_argument("--h", type=float, help="override step size [s]")
            sp.add_argument("--t-end", dest="t_end", type=float, help="override horizon [s]")
        return sp

    add_command("validate", cmd_validate, "check topology and standing assumptions")
    add_command("synth", cmd_synth, "synthesize gains and print certificates")
    add_command("bound", cmd_bound, "compute residual-set radii")
    sim = add_command("simulate", cmd_simulate, "run the closed loop and write outputs")
    sim.add_argument("--out", default=".", help="output directory (default: .)")
    dflt = add_command("default", cmd_default, "emit the built-in default scenario file",
                       scenario=False)
    dflt.add_argument("--out", default=None, help="write to this path instead of stdout")
    return parser


# What main reports for each failure it catches: (exception types, stderr
# prefix, exit code). The first row whose types match wins; any other
# exception propagates.
_FAILURES = (
    ((UsageError,), "usage error", 1),
    ((BadTolerance,), "bad CONTAIN_TOL", 1),
    ((ScenarioParseError,), "scenario error", 1),
    ((BadAdjacency,), "bad adjacency", 1),
    ((OSError,), "i/o error", 1),
    ((AssumptionViolated,), "assumption failure", 2),
    ((NotControllable,), "not controllable", 3),
    ((NotObservable,), "not observable", 3),
    ((Singular, NoConvergence, NonPositiveAlpha, NonFinite), "synthesis failed", 3),
    ((VarrhoTooLarge,), "adaptive leakage too fast", 4),
    ((NonFiniteState,), "diverged", 6),
)


# An overflow surfaces as a non-finite value that a check names in one line
# (or as a non-finite state or metric), never as a numpy warning.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        apply_tolerance_overrides(os.environ.get("CONTAIN_TOL", ""))
        del args["command"]
        return args.pop("run")(**args)
    except tuple(error for errors, _prefix, _code in _FAILURES for error in errors) as exc:
        prefix, code = next((p, c) for errors, p, c in _FAILURES if isinstance(exc, errors))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
