"""One round of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED [--trace] [--setup-only]

Prints one JSON object: setup_s, and unless --setup-only also wall_s,
cpu_s, peak_rss_mb, attempted, failed and failures; with --trace the
per-layer metrics derived from the spans, which are also written to
.bench_out/ at the checkout root.  setup_s runs from the end of the numpy import to the first
timed operation: importing fracsphere, building the inputs from the
seed and constructing the program objects.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

import numpy  # noqa: F401  (imported before the set-up clock starts)

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    setup, run, check, attempted = workloads.WORKLOADS[args.workload]

    t_setup = time.perf_counter()
    sys.path.insert(0, SRC)
    import fracsphere
    if os.path.dirname(os.path.dirname(os.path.abspath(fracsphere.__file__))) != SRC:
        raise SystemExit(f"fracsphere imported from {fracsphere.__file__}, not {SRC}")
    tracer = spans.Tracer() if args.trace else None
    with spans.install(tracer) if tracer else contextlib.nullcontext():
        state = setup(args.seed, False, OUT_DIR)
        t0 = time.perf_counter()
        result = {"setup_s": t0 - t_setup}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        c0 = time.process_time()
        out = run(state)
        result["cpu_s"] = time.process_time() - c0
        result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = attempted(out)
    if tracer:
        # two lanes may finish traced rounds at once: the last one stays
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.json")
        tracer.dump(f"{path}.{os.getpid()}")
        os.replace(f"{path}.{os.getpid()}", path)
        result["layers"] = spans.layer_metrics(tracer.spans)
    failures, failed = check(out, args.seed)
    result["failures"] = failures
    result["failed"] = failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
