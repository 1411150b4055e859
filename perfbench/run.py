"""Benchmark of the three bhlattice attractor studies.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload attractor-clouds --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh single-threaded worker process (worker.py) that
imports the program from ``src/``, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and the
metrics.  With ``--trace 0`` these are the end-to-end metrics ``setup_s``,
``run_s`` and ``peak_rss_mb``; with ``--trace 1`` the per-layer metrics of
one traced round.  Each run's record is also written to ``perfbench/results``.
See README.md for the workloads, the checks and the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("attractor-clouds", "noise-pullback", "single-trajectory")
# The worker must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bhlattice attractor-study benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "bhlattice" / "__init__.py").is_file():
        print(f"no bhlattice source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC), "--results", str(RESULTS)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in record["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": record["first_call"] - spawned, "unit": "s"},
            "run_s": {"value": record["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {"correct": record["wrong"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(
        dict(result, round_s=record["round_s"], problems=record["problems"]),
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
