"""Property test of the input boundary: a mutated default scenario either
runs or exits with a documented code and at most one stderr line, with no
traceback and no warning, under every command."""

import contextlib
import io
import re
import tempfile

import pytest

from contain.cli import default_scenario
from conftest import main_without_warnings

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
