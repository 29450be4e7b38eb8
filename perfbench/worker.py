"""One workload in this interpreter: set-up, timed rounds, then the checks.

Started by run.py with the BLAS/OpenMP thread variables already set and
`src` on PYTHONPATH.  Prints one JSON line as its last line of output.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from layertrace import PER_LAYER, Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    outdir = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    workload.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(workload.max_nodes) if args.trace else None
    if tracer:
        tracer.install()
    op_s: dict[str, list[float]] = {}
    round_s, layers, problems = [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    # whole rounds only; another round starts if the last one's duration
    # says it will end within --seconds
    while not round_s or time.perf_counter() - start + round_s[-1] <= args.seconds:
        if tracer:
            tracer.reset(len(round_s))
        outputs = {}
        t0 = time.perf_counter()
        for label, op in workload.operations():
            t_op = time.perf_counter()
            try:
                outputs[label] = op()
            except Exception:
                outputs[label] = None
                failed += 1
                print(f"operation {label} failed:", file=sys.stderr)
                traceback.print_exc()
            op_s.setdefault(label, []).append(time.perf_counter() - t_op)
        round_s.append(time.perf_counter() - t0)
        attempted += len(outputs)
        if tracer:
            layers.append(dict(tracer.totals))
        problems += workload.check(outputs)
        if first is None:
            first = outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(outdir / "trace.json")
    problems += workload.verify(first)
    for line in problems:
        print(f"CHECK FAILED {args.workload}: {line}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "round_s": round_s,
        "wall_s": sum(statistics.median(times) for times in op_s.values()),
        "peak_rss_mb": peak_rss_mb,
        "per_layer": {name: statistics.median(r[name] for r in layers) for name, _, _ in PER_LAYER}
        if tracer else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
