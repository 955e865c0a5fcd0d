"""Self-test of the benchmark at tiny sizes (20 steps, a ring of 30 followers).

    python3 perfbench/selftest.py

Checks that every metric prints with its unit, that the names and units
match BENCHMARK.json, that the layer spans account for the traced call, and
that the output checks count tampered references and broken CSVs as failures.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

import run

run.prepare()

import harness  # noqa: E402  (numpy is imported only after prepare())
import workloads  # noqa: E402

TINY = {"default_t_end": 0.02, "ring_followers": 30, "ring_t_end": 0.02}
WORK = run.WORK / "selftest"
BENCHMARK = run.HERE.parent / "BENCHMARK.json"

# Keep the set-up loop short at tiny sizes.
harness.SETUP_MIN_SECONDS = 0.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def tiny_op(name: str):
    """One simulate op on a tiny workload: (workload, op, output directory)."""
    workload = workloads.make(name, 1, **TINY)
    _, simulate, out_dir = harness.write_inputs(workload, str(WORK / f"op-{name}"))
    return workload, harness.call_contain(simulate), out_dir


def test_every_metric_prints_with_its_unit():
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, units, key in ((0, harness.END_TO_END, "end_to_end"), (1, harness.PER_LAYER, "per_layer")):
        expect({m["name"]: m["unit"] for m in declared[key]} == units,
               f"BENCHMARK.json {key} differs from the metrics the harness reports")
        for name in run.WORKLOADS:
            workload = workloads.make(name, 7, **TINY)
            result = harness.run(workload, 0.0, bool(trace), str(WORK / f"{name}-{trace}"))
            info = harness.summary(result, 0.0, 7)
            expect(info["failed"] == 0, f"{name}: {info['failures']}")
            lines = harness.report_lines(info)
            expect(any(line.startswith("error_rate = 0.0 ratio") for line in lines),
                   f"{name}: no error_rate line")
            for metric, unit in units.items():
                expect(any(line.startswith(f"{metric} = ") and f" {unit} (" in line for line in lines),
                       f"{name} trace {trace}: {metric} not printed with unit {unit}")
            final = json.loads(run.result_line(info, units))
            expect(final["correct"] and final["attempted"] >= 1 and final["failed"] == 0,
                   f"{name}: bad result line {final}")
            expect({m: v["unit"] for m, v in final["metrics"].items()} == units,
                   f"{name}: result line metrics {sorted(final['metrics'])}")


def test_layer_spans_account_for_the_traced_call():
    workload = workloads.make("default-observer", 1, **TINY)
    result = harness.run(workload, 0.0, True, str(WORK / "spans"))
    expect(not result.failures, str(result.failures))
    runs = sorted({s["run"] for s in result.spans})
    expect(len(runs) >= 3, f"expected three traced ops, got {runs}")
    for run_id in runs:
        layers = harness.layer_metrics(result.spans, run_id)
        self_total = sum(layers[m] for m in set(harness.SELF_TIME_METRIC.values()))
        expect(abs(self_total - layers["trace.wall_s"]) < 1e-9,
               f"self times {self_total} do not add up to {layers['trace.wall_s']}")
        expect(layers["sim.steps"] == workload.steps, "sim.steps is not the row count")
        expect(layers["graph.agents"] == workload.n_agents, "graph.agents is not N")
        names = {s["name"] for s in result.spans if s["run"] == run_id}
        expect(names == set(harness.SELF_TIME_METRIC), f"spans recorded: {sorted(names)}")


def test_tampered_reference_counts_a_failure():
    workload, op, out_dir = tiny_op("default-adaptive")
    metrics_txt = os.path.join(out_dir, "metrics.txt")
    reference = harness.reference_values(op.exit_code, metrics_txt, 1e-6)
    expect(set(reference["metrics"]) == set(harness.REFERENCE_KEYS), str(reference))
    expect(harness.check_simulate(op, workload, out_dir, reference) == [],
           "the op fails against its own reference")

    def tampered(change):
        copy = json.loads(json.dumps(reference))
        change(copy)
        return copy

    cases = {
        "value off by 1e-4": tampered(lambda r: r["metrics"].update(
            tail_sup_xi_sq=r["metrics"]["tail_sup_xi_sq"] * (1 + 1e-4))),
        "verdict": tampered(lambda r: r["metrics"].update(
            verdict="certified" if r["metrics"]["verdict"] != "certified" else "not certified")),
        "exit code": tampered(lambda r: r.update(exit=5 if r["exit"] == 0 else 0)),
        "missing key": tampered(lambda r: r["metrics"].update(no_such_key=1.0)),
    }
    for label, bad in cases.items():
        expect(harness.check_simulate(op, workload, out_dir, bad) != [],
               f"tampered reference ({label}) passed the check")
    within = tampered(lambda r: r["metrics"].update(
        d_sup=r["metrics"]["d_sup"] * (1 + 1e-9)))
    expect(harness.check_simulate(op, workload, out_dir, within) == [],
           "a reordered-sum sized difference failed the check")

    result = harness.run(workload, 0.0, False, str(WORK / "tampered"),
                         reference=cases["verdict"])
    simulate_failures = [f for f in result.failures if f.startswith("simulate")]
    expect(len(simulate_failures) == len(result.samples["wall_s"]),
           "a run against a tampered reference did not fail every simulate op")


def test_broken_outputs_count_a_failure():
    workload, op, out_dir = tiny_op("default-observer")
    csv_path = os.path.join(out_dir, "trajectory.csv")
    with open(csv_path, encoding="utf-8") as fh:
        good = fh.read()
    expect(harness.check_simulate(op, workload, out_dir, None) == [], "a good op failed")
    lines = good.splitlines(keepends=True)

    def with_cell(value):
        cells = lines[1].rstrip("\n").split(",")
        cells[1] = value
        return lines[0] + ",".join(cells) + "\n" + "".join(lines[2:])

    broken = {
        "non-finite value": with_cell("nan"),
        "value that is not a number": with_cell("x"),
        "missing row": "".join(lines[:-1]),
        "narrow header": lines[0].split(",", 1)[1] + "".join(lines[1:]),
    }
    try:
        for label, text in broken.items():
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            expect(harness.check_simulate(op, workload, out_dir, None) != [],
                   f"a csv with a {label} passed the check")
    finally:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(good)
    for code in (None, 1, 6):
        bad = harness.Op(exit_code=code, wall_s=0.0, cpu_s=0.0, output="boom")
        expect(harness.check_simulate(bad, workload, out_dir, None) != [],
               f"exit {code} passed the check")


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception:
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
