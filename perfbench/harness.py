"""Closed-loop measurement of `contain simulate`, with optional layer spans.

One op is one in-process `contain.cli.main([...])` call with stdout captured;
ops run one at a time. Import this module only after `run.prepare()` has
pinned the BLAS threads, because numpy reads the pin when it is imported.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import contain
import contain.cli as cli

from workloads import Workload

# Metric name -> unit, in the order they are printed.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.parse_s": "s",
    "graph.partition_s": "s",
    "synthesis.synthesize_s": "s",
    "synthesis.bounds_s": "s",
    "sim.integrate_s": "s",
    "sim.steps": "count",
    "sim.integrate_us_per_step": "us",
    "sim.integrate_us_per_agent_step": "us",
    "sim.metrics_s": "s",
    "cli.csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.csv_mb_per_s": "MB/s",
    "cli.report_s": "s",
    "cli.other_s": "s",
    "graph.agents": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Names that contain.cli.cmd_simulate looks up in its module, and the span
# each call records. matlib and control have no span: they are reached only
# through graph/synthesis and sim.integrate.
LAYER_CALLS = {
    "load_scenario": "cli.load_scenario",
    "partition_laplacian": "graph.partition_laplacian",
    "synthesize": "synthesis.synthesize",
    "compute_bound_report": "synthesis.compute_bound_report",
    "integrate": "sim.integrate",
    "compute_metrics": "sim.compute_metrics",
    "write_trajectory_csv": "cli.write_trajectory_csv",
    "write_metrics": "cli.write_metrics",
    "write_plot_script": "cli.write_plot_script",
}
ROOT_SPAN = "cli.main"
# Span name -> per-layer metric that its self time adds to. The root span's
# self time is the part of the traced call no layer span covers.
SELF_TIME_METRIC = {
    ROOT_SPAN: "cli.other_s",
    "cli.load_scenario": "cli.parse_s",
    "graph.partition_laplacian": "graph.partition_s",
    "synthesis.synthesize": "synthesis.synthesize_s",
    "synthesis.compute_bound_report": "synthesis.bounds_s",
    "sim.integrate": "sim.integrate_s",
    "sim.compute_metrics": "sim.metrics_s",
    "cli.write_trajectory_csv": "cli.csv_s",
    "cli.write_metrics": "cli.report_s",
    "cli.write_plot_script": "cli.report_s",
}

SIMULATE_EXITS = (0, 5)
# Values of metrics.txt compared with the recorded reference.
REFERENCE_KEYS = ("tail_sup_xi_sq", "d1_radius_sq", "d2_radius_sq", "d_sup", "verdict")
# Set-up is timed as the median of repeated `contain bound` calls: at least
# SETUP_MIN_REPEATS of them, and more until SETUP_MIN_SECONDS have passed.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 200
MIN_SIMULATE_OPS = 3


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans: name, start, end, parent span index, run id."""

    def __init__(self):
        self.spans: list = []
        self.run_id: Optional[int] = None
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(result, args) -> dict is taken after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record["counts"] = count(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace the layer names in contain.cli with traced versions."""
        counters = {
            "load_scenario": lambda parsed, _a: {"agents": parsed.topology.n_agents},
            "integrate": lambda traj, _a: {"steps": len(traj.times)},
            "write_trajectory_csv": lambda _h, a: {"csv_bytes": os.path.getsize(a[0])},
        }
        originals = {attr: getattr(cli, attr) for attr in LAYER_CALLS}
        try:
            for attr, name in LAYER_CALLS.items():
                setattr(cli, attr, self.wrap(name, originals[attr], counters.get(attr)))
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(cli, attr, fn)


def layer_metrics(spans: list, run_id: int) -> dict:
    """Per-layer self times and counts of one traced op.

    A span's self time is its duration minus the durations of its children;
    the children of one span never overlap because the program is sequential.
    """
    mine = [i for i, s in enumerate(spans) if s["run"] == run_id]
    child_time = {}
    for i in mine:
        parent = spans[i]["parent"]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i]["end"] - spans[i]["start"]
    out = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
    counts = {}
    for i in mine:
        s = spans[i]
        out[SELF_TIME_METRIC[s["name"]]] += s["end"] - s["start"] - child_time.get(i, 0.0)
        counts.update(s.get("counts", {}))
        if s["name"] == ROOT_SPAN:
            out["trace.wall_s"] = s["end"] - s["start"]
    steps, agents, csv_bytes = counts["steps"], counts["agents"], counts["csv_bytes"]
    out["sim.steps"] = steps
    out["graph.agents"] = agents
    out["cli.csv_bytes"] = csv_bytes
    out["sim.integrate_us_per_step"] = out["sim.integrate_s"] / steps * 1e6
    out["sim.integrate_us_per_agent_step"] = out["sim.integrate_s"] / (steps * agents) * 1e6
    out["cli.csv_mb_per_s"] = csv_bytes / out["cli.csv_s"] / 1e6
    return out


# ---------------------------------------------------------------------------
# ops and output checks


@dataclass
class Op:
    """Outcome of one contain call."""

    exit_code: Optional[int]   # None when the call raised
    wall_s: float
    cpu_s: float
    output: str                # captured stdout and stderr, plus any traceback

    def describe(self) -> str:
        lines = self.output.strip().splitlines()
        what = "raised" if self.exit_code is None else f"exit {self.exit_code}"
        return f"{what}: {lines[-1] if lines else ''}"


def call_contain(argv: list, tracer: Optional[Tracer] = None) -> Op:
    """Run contain.cli.main(argv) in-process with stdout and stderr captured.

    With a tracer, the call is the root span of that tracer's current run.
    """
    gc.collect()
    sink = io.StringIO()
    root = tracer.span(ROOT_SPAN) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with root:
                code = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crash
            code = None
            sink.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Op(exit_code=code, wall_s=wall, cpu_s=cpu, output=sink.getvalue())


def read_metrics_txt(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                values[key.strip()] = value.strip()
    return values


def check_simulate(op: Op, workload: Workload, out_dir: str, reference: Optional[dict]) -> list:
    """Reasons the simulate op failed its output checks; empty when it passed."""
    if op.exit_code not in SIMULATE_EXITS:
        return [op.describe()]
    try:
        with open(os.path.join(out_dir, "trajectory.csv"), encoding="utf-8") as fh:
            width = len(fh.readline().rstrip("\n").split(","))
            rows = [line.rstrip("\n").split(",") for line in fh]
    except OSError as exc:
        return [f"cannot read trajectory.csv: {exc}"]
    problems = []
    if width != workload.csv_columns:
        problems.append(f"csv header has {width} columns, expected {workload.csv_columns}")
    if len(rows) != workload.steps:
        problems.append(f"csv has {len(rows)} rows, expected {workload.steps}")
    if any(len(row) != width for row in rows):
        problems.append("csv has rows of the wrong width")
    else:
        try:
            values = np.array(rows, dtype=float)
        except ValueError:
            problems.append("csv holds a value that is not a number")
        else:
            if not np.isfinite(values).all():
                problems.append("csv holds a non-finite value")
    if reference is not None:
        problems += compare_reference(op.exit_code, os.path.join(out_dir, "metrics.txt"), reference)
    return problems


def compare_reference(exit_code: int, metrics_path: str, reference: dict) -> list:
    """Compare the exit code and metrics.txt values with a recorded reference."""
    problems = []
    if exit_code != reference["exit"]:
        problems.append(f"exit {exit_code}, reference {reference['exit']}")
    try:
        got = read_metrics_txt(metrics_path)
    except OSError as exc:
        return problems + [f"cannot read metrics.txt: {exc}"]
    for key, want in reference["metrics"].items():
        have = got.get(key)
        if isinstance(want, str):
            matches = have == want
        else:
            try:
                matches = math.isclose(float(have), want, rel_tol=reference["rel_tol"], abs_tol=0.0)
            except (TypeError, ValueError):
                matches = False
        if not matches:
            problems.append(f"metrics.txt {key} = {have}, reference {want}")
    return problems


def reference_values(exit_code: int, metrics_path: str, rel_tol: float) -> dict:
    """A reference entry recorded from one simulate op's outputs."""
    got = read_metrics_txt(metrics_path)
    values = {}
    for key in REFERENCE_KEYS:
        if key in got:
            values[key] = got[key] if key == "verdict" else float(got[key])
    return {"exit": exit_code, "rel_tol": rel_tol, "metrics": values}


# ---------------------------------------------------------------------------
# runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class RunResult:
    workload: str
    trace: bool
    attempted: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)   # metric -> list of values
    spans: list = field(default_factory=list)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    @property
    def units(self) -> dict:
        return PER_LAYER if self.trace else END_TO_END


def write_inputs(workload: Workload, work_dir: str) -> tuple:
    """Empty work_dir and write the scenario into it.

    Returns the scenario path, the simulate command line and its output directory.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    scenario = os.path.join(work_dir, "scenario.scn")
    out_dir = os.path.join(work_dir, "out")
    with open(scenario, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(workload.scenario)
    return scenario, ["simulate", scenario, *workload.overrides, "--out", out_dir], out_dir


def run(workload: Workload, seconds: float, trace: bool, work_dir: str,
        reference: Optional[dict] = None) -> RunResult:
    """Measure one workload for about `seconds` seconds of simulate ops."""
    scenario, simulate, out_dir = write_inputs(workload, work_dir)
    result = RunResult(workload=workload.name, trace=trace)

    if not trace:
        # The repeated bound calls count as one op, so they do not dilute the error rate.
        bound = ["bound", scenario, *workload.overrides]
        problems = []
        start = time.perf_counter()
        for repeat in range(1, SETUP_MAX_REPEATS + 1):
            op = call_contain(bound)
            if op.exit_code != 0:
                problems.append(op.describe())
            result.add("setup_s", op.wall_s)
            if repeat >= SETUP_MIN_REPEATS and time.perf_counter() - start >= SETUP_MIN_SECONDS:
                break
        result.record(f"setup ({repeat} bound calls)", problems[:1])

    tracer = Tracer()
    op_seconds = []
    start = time.perf_counter()
    index = 0
    while True:
        op_start = time.perf_counter()
        traced = trace and index % 2 == 1
        if traced:
            tracer.run_id = index
            with tracer.installed():
                op = call_contain(simulate, tracer)
        else:
            op = call_contain(simulate)
        problems = check_simulate(op, workload, out_dir, reference)
        result.record(f"simulate op {index}", problems)
        if not traced:
            result.add("wall_s", op.wall_s)
            result.add("cpu_s", op.cpu_s)
        elif not problems:
            layers = layer_metrics(tracer.spans, index)
            for name, value in layers.items():
                result.add(name, value)
            # Paired with the untraced op just before, which saw the most similar host.
            result.add("trace.overhead_s", layers["trace.wall_s"] - result.samples["wall_s"][-1])
        index += 1
        op_seconds.append(time.perf_counter() - op_start)
        elapsed = time.perf_counter() - start
        done_min = index >= (2 * MIN_SIMULATE_OPS if trace else MIN_SIMULATE_OPS)
        if done_min and elapsed + statistics.median(op_seconds) > seconds:
            break

    if trace:
        result.spans = tracer.spans
    else:
        result.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    return result


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "contain": contain.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "CONTAIN_TOL": os.environ.get("CONTAIN_TOL", "cleared"),
        "load": "closed loop, one op at a time, one process",
    }


def summary(result: RunResult, seconds: float, seed: int) -> dict:
    """Everything a run measured: environment, counts and per-metric statistics."""
    stats = {}
    for name, unit in result.units.items():
        values = result.samples.get(name)
        if values:
            q1, med, q3 = quartiles(values)
            stats[name] = {"unit": unit, "n": len(values), "median": med, "q1": q1, "q3": q3}
    coverage = None
    if result.trace and result.samples.get("trace.wall_s"):
        walls = result.samples["trace.wall_s"]
        covered = [w - o for w, o in zip(walls, result.samples["cli.other_s"])]
        coverage = {"covered_s": statistics.median(covered), "wall_s": statistics.median(walls)}
    return {
        "workload": result.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(result.trace),
        "environment": environment(),
        "attempted": result.attempted,
        "failed": len(result.failures),
        "failures": result.failures,
        "error_rate": len(result.failures) / result.attempted,
        "metrics": stats,
        "samples": result.samples,
        "coverage": coverage,
    }


def report_lines(info: dict) -> list:
    """Human-readable lines: environment, error rate, then each metric with its unit."""
    env = info["environment"]
    lines = [
        f"workload {info['workload']} seed {info['seed']} trace {info['trace']} "
        f"seconds {info['seconds']}",
        f"environment: cpu {env['cpu']!r}, nproc {env['nproc']}, python {env['python']}, "
        f"numpy {env['numpy']}, contain {env['contain']}, blas threads {env['blas_threads']}, "
        f"CONTAIN_TOL {env['CONTAIN_TOL']}, {env['load']}",
        f"error_rate = {info['error_rate']!r} ratio "
        f"({info['failed']} failed of {info['attempted']} attempted)",
    ]
    lines += [f"failure: {text}" for text in info["failures"]]
    for name, s in info["metrics"].items():
        lines.append(
            f"{name} = {s['median']!r} {s['unit']} "
            f"(median of {s['n']}, q1 {s['q1']!r}, q3 {s['q3']!r})"
        )
    if info.get("coverage"):
        c = info["coverage"]
        lines.append(
            f"layer spans cover {c['covered_s']!r} s of traced wall {c['wall_s']!r} s "
            f"(median over traced ops); the remainder is cli.other_s"
        )
    return lines
