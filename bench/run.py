"""fracsphere benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its src/ directory.  Each round of the workload runs in a fresh worker
process (bench/worker.py), cold, the way every `fracsphere` command
pays for its rule builds.  Two lanes of rounds run side by side, one
per core, each repeating whole cycles until S seconds have passed.  The
last line of standard output is one JSON object with correct,
attempted, failed and metrics.  With --trace 0 a cycle is one round and
SETUPS_PER_ROUND set-up-only workers, and the metrics are the
end-to-end ones.  With --trace 1 a cycle is one untraced and one traced
round, and the metrics are the per-layer ones of the traced rounds and
the tracing overhead against the untraced ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-suite", "deficit-sweep", "flow-wide", "euclid-line")
LANES = 2                 # rounds run side by side, one per core
SETUPS_PER_ROUND = 3      # set-up-only workers after each round of a lane
ROUND_TIMEOUT_S = 150

# One BLAS/OpenMP thread: with two, the same flow steps spread far wider.
# Bytecode writing off: the sources compile on every import, as on the
# reference host, and the checkout stays untouched.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


class RoundFailed(RuntimeError):
    pass


def one_round(workload, seed, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), *flags]
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounds(seconds, *runners):
    """Call the runners in turn, whole cycles, in LANES side by side, until
    seconds have passed; for each runner, its results from every lane."""
    start = time.monotonic()

    def lane(_):
        out = [[] for _ in runners]
        while not out[0] or time.monotonic() - start < seconds:
            for acc, fn in zip(out, runners):
                acc.append(fn())
        return out

    with ThreadPoolExecutor(LANES) as pool:
        lanes = list(pool.map(lane, range(LANES)))
    return [sum(col, []) for col in zip(*lanes)]


def _tally(rounds):
    failures = [f for r in rounds for f in r["failures"]]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    return {"correct": not failures,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds)}


def end_to_end(workload, seed, seconds):
    rounds, *extra = _rounds(seconds, lambda: one_round(workload, seed),
                             *[lambda: one_round(workload, seed, "--setup-only")]
                             * SETUPS_PER_ROUND)
    setups = [r["setup_s"] for r in rounds + sum(extra, [])]
    # Other tenants of the host slow each core by up to 1.8x for seconds
    # to minutes at a time and never speed one up, so the fastest round
    # and the fastest set-up, sampled across the whole run on both cores,
    # are the steadiest estimates of their cost.  Memory takes the median.
    fastest = min(rounds, key=lambda r: r["wall_s"])
    metrics = {
        "wall_s": (fastest["wall_s"], "s"),
        "items_per_s": (fastest["attempted"] / fastest["wall_s"], "1/s"),
        "cpu_s": (min(r["cpu_s"] for r in rounds), "s"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    print(f"{workload}: {len(rounds)} rounds, {len(setups)} set-ups", file=sys.stderr)
    return _tally(rounds), metrics


def per_layer(workload, seed, seconds):
    import spans
    plain, traced = _rounds(seconds, lambda: one_round(workload, seed),
                            lambda: one_round(workload, seed, "--trace"))
    med = statistics.median
    metrics = {name: (med(r["layers"][name] for r in traced), unit)
               for name, unit in spans.LAYER_UNITS.items()}
    metrics["trace.overhead_s"] = (med(r["wall_s"] for r in traced)
                                   - med(r["wall_s"] for r in plain), "s")
    print(f"{workload}: {len(traced)} traced and {len(plain)} untraced rounds",
          file=sys.stderr)
    return _tally(plain + traced), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fracsphere", "__init__.py")):
        print(f"run.py: no fracsphere sources under {ROOT}/src; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        tally, metrics = measure(args.workload, args.seed, args.seconds)
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    tally["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
