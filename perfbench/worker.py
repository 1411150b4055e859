"""One benchmark run in a fresh process: set up, run whole studies, check them.

``run.py`` starts this script with single-threaded BLAS and OpenMP and with
the program's ``src`` directory on PYTHONPATH.  It prints one JSON object as
the last line of its standard output.

Rounds: the study runs again while one more round, at the median round time,
still ends within ``--seconds``.  With ``--trace 1`` the untraced rounds leave
room for one more round with the span wrappers on, whose per-layer metrics
are written to ``--results``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# A traced round takes up to this many untraced rounds' time.
TRACED_ROUND_COST = 2.0
MAX_REPORTED_PROBLEMS = 20


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def add(self, op: str, problems: list, raised: bool):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{op}: {'; '.join(problems)}")


def run_round(workload, tally: Tally) -> float:
    """Run the study once, check every operation; returns the study's time."""
    t0 = time.perf_counter()
    try:
        result = workload.run()
        error = None
    except Exception as exc:  # a study that raises fails its operations
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        error = f"raised {type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - t0
        found = workload.check(result)
    for op in workload.operations():
        if error:
            tally.add(op, [error], raised=True)
        else:
            tally.add(op, found.get(op, ["no check result"]), raised=False)
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="the program's src directory")
    ap.add_argument("--results", required=True, help="directory for trace files")
    args = ap.parse_args(argv)

    import bhlattice
    import workloads

    src = Path(args.src).resolve()
    if src not in Path(bhlattice.__file__).resolve().parents:
        print(f"bhlattice imported from {bhlattice.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    first_call = time.monotonic()

    tally = Tally()
    reserve = TRACED_ROUND_COST if args.trace else 0.0
    start = time.perf_counter()
    times = []
    while True:
        times.append(run_round(workload, tally))
        spent = time.perf_counter() - start
        if spent + statistics.median(times) * (1.0 + reserve) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            traced_s = run_round(workload, tally)
        finally:
            spans.uninstall(saved)
        per_layer = spans.layer_metrics(tracer)
        per_layer["trace.overhead_s"] = (traced_s - statistics.median(times), "s")
        spans.write(tracer, per_layer, Path(args.results),
                    f"trace-{args.workload}-seed{args.seed}", traced_s=traced_s)

    print(json.dumps({
        "first_call": first_call,
        "round_s": times,
        "run_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "problems": tally.problems,
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
