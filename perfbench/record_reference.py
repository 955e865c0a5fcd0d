"""Record perfbench/reference.json from one simulate op per workload.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good: the benchmark counts an
op as failed when its exit code or metrics.txt values differ from this record.
"""

from __future__ import annotations

import json

import run

SEED = 1
# Loose enough for a reordered floating-point sum over the whole horizon.
REL_TOL = 1e-6


def main() -> None:
    run.prepare()
    import harness  # imports numpy, so only after prepare()
    import workloads

    recorded = {"seed": SEED, "workloads": {}}
    for name in run.WORKLOADS:
        workload = workloads.make(name, SEED)
        _, simulate, out_dir = harness.write_inputs(workload, str(run.WORK / f"reference-{name}"))
        op = harness.call_contain(simulate)
        problems = harness.check_simulate(op, workload, out_dir, reference=None)
        if problems:
            raise SystemExit(f"{name}: {'; '.join(problems)}")
        recorded["workloads"][name] = harness.reference_values(
            op.exit_code, f"{out_dir}/metrics.txt", REL_TOL)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
