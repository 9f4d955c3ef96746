"""dyadlab benchmark: one workload, end-to-end or per-module metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: two_weight, corona_cascade,
cli_mixed (see BENCHMARK.json for why each exists), and sweep_n16, which
runs but is not listed there (see README.md).  The
measured work runs in a fresh `bench.py` process; with `--trace 0` four more
processes only set up, and `setup_s` is the median of the five set-up
times.  The program is imported from this checkout's `src/`, with
`DYADLAB_WORKERS` unset so the program uses its default single worker.
The item times of `corona_cascade` and `cli_mixed` are scaled to the
reference machine speed that `speed.py` measures between items; the report
shows the raw times beside.

Every line but the last is a human-readable report: each metric with its
unit, the tail percentile and its sample count, failures, and the
environment.  The last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-module metrics with `--trace 1`.  The full result is
also written to `perfbench/out/` for `perfbench/compare.py`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "bench.py")
SETUP_PROCESSES = 5
TIMEOUT_S = 170      # for all processes of one run together

END_TO_END = {
    "wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MiB",
}


def worker(args, deadline: float, *extra) -> dict:
    """Run one bench.py process to completion and return its result line."""
    env = dict(os.environ)
    env.pop("DYADLAB_WORKERS", None)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def report(result: dict, setups: list[float]):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']} x {result['items_per_pass']} items  "
          f"trace {result['trace']}")
    if not result["trace"]:
        print(f"  wall_s        {result['wall_s']:.4f} s   (median pass; passes "
              + ", ".join(f"{w:.3f}" for w in result["pass_wall_s"])
              + f"; raw {result['wall_raw_s']:.4f} s)")
        print(f"  item_p50_ms   {result['item_p50_ms']:.3f} ms   "
              f"(raw {result['item_p50_raw_ms']:.3f} ms)")
        print(f"  item_tail_ms  {result['item_tail_ms']:.3f} ms   (p{result['tail_percentile']:.1f}"
              f" of {result['tail_samples']} samples, {result['tail_beyond']} beyond; "
              f"raw {result['item_tail_raw_ms']:.3f} ms)")
        print(f"  setup_s       {result['setup_s']:.4f} s   (median of "
              + ", ".join(f"{s:.3f}" for s in setups) + "; raw)")
        print(f"  peak_rss_mb   {result['peak_rss_mb']:.1f} MiB")
        if result["scaled"]:
            print(f"  speed scale   {result['speed_scale']:.4f}   (reference kernel "
                  f"{result['speed_reference_s'] * 1000:.2f} ms over its measured median; "
                  "times above are scaled by it)")
        else:
            print("  speed scale   1   (this workload reports raw times)")
    print(f"  failed_frac   {result['failed_frac']:.4f} ratio   "
          f"({result['failed']} of {result['attempted']} items)")
    print(f"  bench.cpu_s   {result['cpu_s_per_pass']:.3f} s per pass (diagnostic)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    if result["trace"]:
        for name, value in result["layers"].items():
            print(f"  {name:<50} {value:.6g}")
    print("  time waiting: not observable from outside (only BLAS thread "
          "synchronisation waits; no module has a queue)")
    print("  environment: " + json.dumps(result["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dyadlab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("two_weight", "sweep_n16", "corona_cascade", "cli_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "dyadlab", "__init__.py")):
        print(f"error: no dyadlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        result = worker(args, deadline)
        setups = [result["setup_s"]]
        if not args.trace:
            setups += [worker(args, deadline, "--setup-only")["setup_s"]
                       for _ in range(SETUP_PROCESSES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    report(result, setups)

    if args.trace:
        from tracer import PER_LAYER
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
