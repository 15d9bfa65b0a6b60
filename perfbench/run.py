"""Benchmark of leecodes: three workloads, end-to-end metrics and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/BASELINE.md for why each was chosen):

  characterize  the Shiromoto characterization sweep of the tier-1 fixture
  census        maximum-Lee-distance censuses that keep many optimal codes
  library       the table and figure reproductions, the equidistant grid and
                2,058 seeded random codes through the per-code API

Each run is one closed loop with a single caller, in a child process whose
BLAS and OpenMP thread counts are pinned to 1.  A fixed reference kernel is
timed every fraction of a second during each pass (refclock.py); the gated
``norm_wall_s`` is the pass time rescaled by the speed those samples show.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
pass and reports the per-layer metrics.  Every output is checked against an oracle; the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  The
machine, the thread setting, the seed and all figures are also written to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path.cwd() / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES_AROUND = 3           # set-up-only workers before and after the run
WORKER_TIMEOUT_S = 170

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Printed and recorded, not gated: plain wall time and the item percentiles
# follow the speed of a shared 2-vCPU machine, which drifts for minutes at a
# time; over ten runs their quartile spread reached 0.31 (census wall_s) and
# 0.34 (characterize p50), beyond the largest bound the benchmark may set.
# norm_wall_s divides that drift out.  See BASELINE.md.
REPORTED = {"wall_s": "s", "item_ms.p50": "ms", "item_ms.p90": "ms"}
PER_LAYER_UNITS = {"calls": "count", "candidates": "count", "chunks": "count",
                   "codes_in": "count", "classes_out": "count", "failed": "count",
                   "spans": "count", "candidates_per_s": "1/s", "cells_per_s": "1/s",
                   "us_per_call": "us", "s_per_code": "s"}


def worker(args, env, *extra) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(env, args, result) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": result["numpy"], "blas": result["blas"],
            "threads": {v: env[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    return "ratio" if last.endswith("_frac") else "s"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("characterize", "census", "library"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})

    # Set-up samples on both sides of the measured run, so that the median
    # spans the machine's state over the whole run.  A traced run does not
    # report set-up time.
    around = 0 if args.trace else SETUP_SAMPLES_AROUND
    setups = [worker(args, env, "--setup-only")["setup_s"] for _ in range(around)]
    result = worker(args, env)
    setups.append(result["setup_s"])
    setups += [worker(args, env, "--setup-only")["setup_s"] for _ in range(around)]
    info = machine(env, args, result)

    failures = result["failures"]
    error_rate = len(failures) / result["attempted"]
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        values = dict(result, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print("machine " + json.dumps(info))
    print(f"passes {result['passes']}, items {result['items']}, "
          f"setup_s samples {[round(s, 4) for s in setups]}, "
          f"reference {result['reference']}: {result['ref_samples']} samples, "
          f"median {result['ref_ms.p50']:.4g} ms")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, unit in REPORTED.items():
        print(f"{name} {result[name]:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio ({len(failures)} of {result['attempted']})")
    for what in failures[:10]:
        print(f"FAILED {what}", file=sys.stderr)

    line = {"correct": not failures, "attempted": result["attempted"],
            "failed": len(failures), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(line, machine=info, error_rate=error_rate,
                                      passes=result["passes"], items=result["items"],
                                      setup_samples=setups,
                                      reference={k: result[k] for k in (
                                          "reference", "ref_samples", "ref_ms.p50")},
                                      reported={n: result[n] for n in REPORTED}),
                                 indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
