"""Benchmark of `contain simulate`, run from the root of a source checkout.

    python3 perfbench/run.py --workload default-adaptive --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (wall_s, cpu_s, setup_s, peak_rss_mb);
--trace 1 prints the per-layer metrics from spans around the layer calls that
`contain simulate` makes. Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
The full record, with the run environment and the spans, is written under
perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("default-adaptive", "default-observer", "ring-adaptive")

# The program is single-threaded Python; a threaded BLAS would only add noise
# from the other core.
BLAS_PIN = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def prepare() -> None:
    """Pin BLAS threads, clear CONTAIN_TOL and put the checkout's src first on sys.path.

    Must run before numpy is imported. Raises FileNotFoundError when the
    checkout holds no contain sources.
    """
    if not (SRC / "contain" / "cli.py").is_file():
        raise FileNotFoundError(f"no contain sources under {SRC}")
    os.environ.update(BLAS_PIN)
    os.environ.pop("CONTAIN_TOL", None)
    sys.path.insert(0, str(SRC))


def load_reference(workload, seed: int) -> dict | None:
    """The recorded reference for this workload, when it was recorded on these inputs."""
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if workload.seeded and seed != recorded["seed"]:
        return None
    return recorded["workloads"][workload.name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import harness  # imports numpy, so only after prepare()
    import workloads

    workload = workloads.make(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / tag
    result = harness.run(workload, args.seconds, bool(args.trace), str(work_dir / "run"),
                         reference=load_reference(workload, args.seed))
    info = harness.summary(result, args.seconds, args.seed)
    with open(work_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    if result.spans:
        with open(work_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(result.spans, fh)
    shutil.rmtree(work_dir / "run")  # megabytes of CSV per run; the checks have read them
    for line in harness.report_lines(info):
        print(line)
    print(result_line(info, result.units))
    return 0


def result_line(info: dict, units: dict) -> str:
    """The last line of stdout: medians of every metric, and the op counts."""
    metrics = {name: {"value": stats["median"], "unit": stats["unit"]}
               for name, stats in info["metrics"].items()}
    return json.dumps({
        "correct": info["failed"] == 0 and metrics.keys() == units.keys(),
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    })


if __name__ == "__main__":
    sys.exit(main())
