"""Property tests of the input boundary: a mutated default scenario either
runs or exits with a documented code and at most one stderr line, with no
traceback and no warning, under every command; and a matrix value parses to
what a token-by-token float() parse gives, or fails with its message."""

import contextlib
import io
import re
import tempfile
import warnings

import numpy as np
import pytest

from contain import cli
from contain.cli import ScenarioParseError, default_scenario
from contain.control import KINDS
from conftest import main_without_warnings, random_a1_topology

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


DEFAULT_LINES = default_scenario().splitlines()
# (line, start, end) of every number in a value of the default scenario
VALUE_NUMBERS = [
    (i, m.start(), m.end())
    for i, line in enumerate(DEFAULT_LINES)
    if not line.lstrip().startswith("#")
    for m in re.finditer(r"(?<![\w.])-?\d+(\.\d+)?(e-?\d+)?", line)
    if m.start() > line.find("=")
]
EXTREME_TOKENS = ["1e308", "-1e308", "1e-308", "5e-324", "0", "-1", "1e200", "nan", "inf", "x"]


@st.composite
def mutated_default_scenario(draw):
    """The default scenario with one number swapped for an extreme or
    non-numeric token, or one line deleted or duplicated."""
    lines = list(DEFAULT_LINES)
    edit = draw(st.sampled_from(["swap", "swap", "delete", "duplicate"]))
    if edit == "swap":
        i, start, end = draw(st.sampled_from(VALUE_NUMBERS))
        lines[i] = lines[i][:start] + draw(st.sampled_from(EXTREME_TOKENS)) + lines[i][end:]
    else:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if edit == "delete" else [lines[i], lines[i]]
    return "\n".join(lines) + "\n"


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=200)
@hypothesis.given(mutated_default_scenario())
def test_mutated_scenario_runs_or_exits_with_one_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/mutated.scn"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["validate", path], ["bound", path], ["synth", path],
                     ["simulate", path, "--t-end", "0.01", "--out", f"{tmp}/out"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main_without_warnings(argv)
            assert 0 <= rc <= 6, (argv, err.getvalue())
            assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


def _matrix_per_token(value, field):
    """Reference parse of a matrix value: float() on every token, row by row,
    with the messages, lines and fields cli._matrix reports."""
    rows = [
        (piece, lineno)
        for text, lineno in value.fragments
        for piece in map(str.strip, text.split(";"))
        if piece
    ]
    if not rows:
        raise ScenarioParseError("empty matrix", line=value.line, field=field)
    parsed = []
    for piece, lineno in rows:
        try:
            row = [float(token) for token in piece.split()]
        except ValueError:
            raise ScenarioParseError(
                f"bad number in matrix row {piece!r}", line=lineno, field=field
            ) from None
        if parsed and len(row) != len(parsed[0]):
            raise ScenarioParseError(
                f"ragged matrix row (expected {len(parsed[0])} entries, got {len(row)})",
                line=lineno,
                field=field,
            )
        parsed.append(row)
    mat = np.array(parsed, dtype=float)
    for i, row in enumerate(mat):
        if not np.isfinite(row).all():
            raise ScenarioParseError(
                f"non-finite number in matrix row {i + 1}", line=rows[i][1], field=field
            )
    return mat


# tokens float() reads and numpy's C parser does not (1_0, Arabic-Indic and
# fullwidth digits), tokens neither reads (0x10, x), signed zeros, and the
# non-finite values and overflows the parse must reject
MATRIX_TOKENS = ["1_0", "\u0663", "\uff11", "-0", "0", "-0.0", "nan", "-inf", "inf",
                 "1e400", "-1e400", "1e-400", "0x10", "x", "5e-324", "1.7976931348623157e308"]
SEPARATORS = [" ", "  ", "\t", "\xa0", " \t\xa0"]


@st.composite
def matrix_text(draw):
    """A [m] section whose key x holds rows split by ';' or continuation lines,
    with mixed separators, special tokens and sometimes a ragged row."""
    width = draw(st.integers(1, 4))
    token = st.one_of(
        st.sampled_from(MATRIX_TOKENS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**20, 10**20).map(str),
    )
    # mostly clean tokens, so most texts parse and the values get compared
    clean = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from(["-0", "0", "1", "-2.5"]))
    lines = [[]]
    for _ in range(draw(st.integers(1, 5))):
        size = width + draw(st.sampled_from([0] * 8 + [-1, 1])) if width > 1 else width
        row = [draw(token if draw(st.integers(0, 5)) == 0 else clean) for _ in range(size)]
        text = "".join(tok + draw(st.sampled_from(SEPARATORS)) for tok in row)
        if lines[-1] and draw(st.booleans()):
            lines.append([])  # the next row starts a continuation line
        lines[-1].append(text)
    joined = [draw(st.sampled_from([";", "; ", " ;", ";;"])).join(row) for row in lines]
    if draw(st.booleans()):
        joined[-1] += ";"
    return "[m]\nx = " + "\n  ".join(joined) + "\n"


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=400)
@hypothesis.given(matrix_text())
def test_matrix_parse_matches_a_float_per_token(text):
    value = cli._parse_sections(text)["m"]["x"]
    try:
        expected = _matrix_per_token(value, "[m].x")
    except ScenarioParseError as exc:
        expected = exc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = cli._matrix(value, "[m].x")
        except ScenarioParseError as exc:
            got = exc
    if isinstance(expected, ScenarioParseError):
        assert isinstance(got, ScenarioParseError), (text, got)
        assert (got.message, got.line, got.field) == (expected.message, expected.line, expected.field)
    else:
        assert isinstance(got, np.ndarray), (text, got)
        assert got.dtype == np.float64 and got.shape == expected.shape
        # bit for bit, so -0.0 and 0.0 differ
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), text


def _rows(matrix) -> str:
    return "; ".join(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(matrix))


def drawn_scenario(rng, kind: str) -> str:
    """A scenario file beyond the default's shape: n in 1-4, p in 1-3, C with
    q <= n rows or absent, 1-3 leaders at shuffled file rows (from
    random_a1_topology), A scaled by 1e-3 to 1e3, a horizon of at most 0.2."""
    n, p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    adjacency = random_a1_topology(rng, n_max=6)
    leaders = [i + 1 for i, row in enumerate(adjacency) if not row.any()]
    m = len(adjacency) - len(leaders)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
    lines = ["[system]", f"A = {_rows(a)}", f"B = {_rows(rng.standard_normal((n, p)))}"]
    if rng.random() < 0.7:
        lines.append(f"C = {_rows(rng.standard_normal((int(rng.integers(1, n + 1)), n)))}")
    lines += ["[graph]", "adjacency = " + _rows(adjacency),
              "[controller]", f"kind = {kind}", f"kappa = {rng.uniform(0.01, 1.0)!r}",
              f"taus = {_rows(rng.uniform(0.5, 5.0, m))}",
              f"phis = {_rows(rng.uniform(0.0, 0.01, m))}", "[leaders]"]
    for label in leaders:
        lines += [f"{label}.gain = {_rows(rng.uniform(-1.0, 1.0, (p, n)))}",
                  f"{label}.sinusoids = {int(rng.integers(1, p + 1))}:1:{rng.uniform(0.5, 2.0)!r}:0",
                  f"{label}.gamma = {rng.uniform(1.0, 10.0)!r}"]
    lines += ["[sim]", f"x0 = {_rows(rng.uniform(-2.0, 2.0, (len(adjacency), n)))}",
              f"t_end = {rng.uniform(0.02, 0.2)!r}", "h = 0.01"]
    return "\n".join(lines) + "\n"


def test_drawn_scenarios_run_or_exit_with_one_line():
    # the mutated scenarios keep the default's n = 2, p = 1, 8 agents and
    # leaders last; these draw the shape, each law in turn
    rng = np.random.default_rng(2026)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/drawn.scn"
        for i in range(20):
            kind = KINDS[i % len(KINDS)]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(drawn_scenario(rng, kind))
            for argv in (["validate", path], ["bound", path], ["synth", path],
                         ["simulate", path, "--out", f"{tmp}/out"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main_without_warnings(argv)
                assert 0 <= rc <= 6, (i, kind, argv, err.getvalue())
                assert len(err.getvalue().splitlines()) <= 1, (i, kind, argv, err.getvalue())
