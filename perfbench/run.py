"""Benchmark entry point for the qdelta chain.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 24 --trace 0

Run from anywhere inside a source checkout (it finds `src` next to this
directory).  Each workload runs in fresh
interpreters (worker.py) with one BLAS/OpenMP thread and `src` on the import
path: first two set-up-only cold starts, then the measured run; `setup_s` is
the median of those two set-ups and the measured run's own.  The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  `--workload all` runs
every workload in turn and ends with one combined object.  This process never
imports numpy, so the thread settings reach every interpreter that does.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity", "main_term", "expsum_window", "osc_monitor")
COLD_STARTS = 2  # set-up-only runs, besides the measured run's own set-up
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same string hashing, so the same dict layouts, in every run
    env.pop("QDELTA_CACHE_DIR", None)  # set-up must calibrate the kernel mass
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last output line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish in {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    outdir = HERE / "out" / f"{name}-seed{seed}-trace{trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--out", str(outdir)]
    setup = [
        run_worker([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
        for _ in range(COLD_STARTS)
    ]
    res = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(res["setup_s"])
    rounds = ", ".join(f"{t:.3f}" for t in res["round_s"])
    print(f"{name}: seed {seed}, trace {trace}, rounds [{rounds}] s, "
          f"setup samples {[round(s, 3) for s in setup]} s")
    if trace:
        metrics = {key: {"value": res["per_layer"][key], "unit": unit}
                   for key, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdelta" / "__init__.py").is_file():
        print(f"error: no qdelta sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, deadline)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"{name} {json.dumps(res)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
