"""One benchmark process: set up a workload, run timed passes, check them.

Started by run.py with the BLAS thread count pinned; prints one JSON object
on its last stdout line.  ``leecodes`` is imported from ``./src`` of the
checkout it runs in, never from an installed copy.
"""

import time

T0 = time.perf_counter()

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

SRC = Path.cwd() / "src"
if not (SRC / "leecodes" / "__init__.py").is_file():
    sys.exit(f"perfbench: no leecodes package under {SRC}")
sys.path.insert(1, str(SRC))

import leecodes  # noqa: E402
import numpy  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not Path(leecodes.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: leecodes was imported from {leecodes.__file__}, not {SRC}")

OUT_DIR = Path.cwd() / ".perfbench-out"


def timed_pass(workload, clock=None, tracer=None):
    """One pass; with `clock`, timed against its reference kernel."""
    gc.collect()
    if clock is None:
        start = time.perf_counter()
        outputs, items = workload.run(tracer)
        timing = time.perf_counter() - start
    else:
        with clock.timing():
            outputs, items = workload.run(tracer)
        timing = clock.last
    if tracer is not None:
        tracer.enabled = False
    outcome = workload.check(outputs)
    return timing, items, outcome


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Closed loop, one caller: passes back to back until the next one would
    # overrun the measuring time; at least one pass.
    clock = RefClock(workload.reference)
    start = time.perf_counter()
    passes, items, attempted, failures = [], [], 0, []
    while True:
        begun = time.perf_counter()
        timing, latencies, outcome = timed_pass(workload, clock)
        passes.append(timing)
        items.extend(latencies)
        attempted += outcome.attempted
        failures.extend(outcome.failures)
        now = time.perf_counter()
        if now - start + (now - begun) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    item_ms = [1e3 * t for t in items]
    deciles = statistics.quantiles(item_ms, n=10)
    # A percentile is reported only with at least ten samples above it.
    above = sum(t > deciles[8] for t in item_ms)
    if above < 10:
        sys.exit(f"perfbench: {above} item latencies above the p90, 10 needed")

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "setup_s": setup_s,
        "passes": len(passes),
        "items": len(items),
        "reference": workload.reference,
        "ref_samples": sum(len(p.samples) for p in passes),
        "ref_ms.p50": 1e3 * statistics.median(s for p in passes for s in p.samples),
        "norm_wall_s": statistics.median(p.norm_s for p in passes),
        "wall_s": statistics.median(p.program_s for p in passes),
        "item_ms.p50": deciles[4],
        "item_ms.p90": deciles[8],
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failures": failures,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _, outcome = timed_pass(workload, tracer=tracer)
        finally:
            tracer.uninstall()
        result["attempted"] += outcome.attempted
        result["failures"] += outcome.failures
        layers = tracer.layer_metrics()
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - result["wall_s"]
        result["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
