"""One benchmark process: set up a workload, run its passes, print a result.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1
                               [--setup-only]

`perfbench/run.py` starts this process (and, for set-up time, two more with
`--setup-only`); run it directly only to debug one process.  The last line
of standard output is the process's result as one JSON object.

Set-up covers the imports, input generation, reference loading and one
untimed warm-up item.  The measured part is whole passes over the workload's
items for `--seconds` (at least `min_passes`): a pass is not started when
the mean pass so far would end it after the deadline.  Items run one after
another in this process, a closed loop with one client.  Between items the
process times the reference kernel of `speed.py`, and the item times of a
workload whose `scaled` is set are scaled by it to the reference machine
speed; raw times are reported beside.  Set-up time is always raw.  With `--trace 1` the process runs `min_passes` passes untraced and
the same passes traced; the per-module metrics come from the traced passes
and the tracing overhead is the difference of the two median raw pass
times.
"""

from time import perf_counter, process_time

T_START = perf_counter()   # set-up time includes the imports below

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")

WARMUP_POLICY = ("one untimed warm-up item per process, inside set-up; setup_s is "
                 "the median over five processes; passes for --seconds; "
                 "corona_cascade and cli_mixed item times scaled by the "
                 "reference kernel of speed.py")


def import_program():
    """Import dyadlab from this checkout's src/ and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dyadlab
    from dyadlab import calibration, cli, experiments, serialize  # noqa: F401

    if not os.path.abspath(dyadlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dyadlab imported from {dyadlab.__file__}, not {SRC}")
    return dyadlab


def environment() -> dict:
    """What a comparison must hold equal; `git_commit` is the only field that
    may differ between two compared results."""
    import numpy as np
    from dyadlab import experiments

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "DYADLAB_WORKERS": os.environ.get(experiments.WORKERS_ENV, "unset"),
        "worker_count": experiments.worker_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "warmup": WARMUP_POLICY,
        "git_commit": commit,
    }


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Below eleven samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n >= 11 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


class Passes:
    """Per pass: CPU time, raw item latencies, item intervals, and the
    latencies scaled to the reference machine speed."""

    def __init__(self):
        self.cpu: list[float] = []
        self.raw: list[list[float]] = []
        self.spans: list[list[tuple[float, float]]] = []
        self.scaled: list[list[float]] = []

    def walls(self, scaled: bool = True) -> list[float]:
        return [sum(lat) for lat in (self.scaled if scaled else self.raw)]

    def pooled(self, scaled: bool = True) -> list[float]:
        return [x for lat in (self.scaled if scaled else self.raw) for x in lat]


class Run:
    """Set-up plus measured passes of one workload in this process."""

    def __init__(self, name: str, seed: int, tiny: bool = False, reference=None):
        from workloads import WORKLOADS

        self.wl = WORKLOADS[name](seed, tiny=tiny)
        if reference is None and self.wl.has_reference:
            reference = load_reference(name)
        self.reference = reference or {}
        missing = [i.key for i in self.wl.items if self.reference and i.key not in self.reference]
        if missing:
            raise ValueError(f"reference records missing for {missing}")
        self.attempted = 0
        self.failures: list[str] = []
        self.records: dict[str, dict] = {}
        self.speed = speed.Speed(enabled=self.wl.scaled)
        try:
            self.wl.run(self.wl.items[0])   # warm-up: untimed and unchecked
        except BaseException:
            self.wl.close()
            raise

    def one_pass(self, items, rec=None, pass_index: int = 0):
        """Time every item once, with a reference-kernel sample before each;
        return (cpu, latencies, intervals, outputs)."""
        lat, spans, outputs = [], [], []
        cpu = 0.0
        for k, item in enumerate(items):
            self.speed.sample()
            if rec is not None:
                rec.item = pass_index * tracer.ITEMS_STRIDE + k
            c0 = process_time()
            ti = perf_counter()
            try:
                out, err = self.wl.run(item), None
            except Exception as exc:  # an item that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            te = perf_counter()
            cpu += process_time() - c0
            lat.append(te - ti)
            spans.append((ti, te))
            outputs.append((out, err))
        self.speed.sample()
        return cpu, lat, spans, outputs

    def check(self, items, outputs):
        """Record and check one pass's outputs (untimed, untraced)."""
        for item, (out, err) in zip(items, outputs):
            self.attempted += 1
            problems = [err] if err else []
            if not err:
                try:
                    rec = self.wl.record(item, out)
                    problems += self.wl.check(item, rec, self.reference.get(item.key))
                    problems += self.wl.check_repeat(item, out)
                    self.records.setdefault(item.key, rec)
                except Exception as exc:  # a check that cannot run is a failure
                    problems.append(f"check raised {type(exc).__name__}: {exc}")
            if problems:
                self.failures.append(f"{item.key}: {'; '.join(problems)}")

    def measure(self, seconds: float | None = None, passes: int | None = None,
                rec=None, offset: int = 0) -> Passes:
        """Run and check `passes` passes, or whole passes for `seconds` (at
        least `min_passes`); traced spans get item ids from pass number
        `offset + p`."""
        got = Passes()
        t0 = perf_counter()
        while True:
            p = len(got.cpu)
            if passes is not None:
                if p >= passes:
                    break
            elif p >= self.wl.min_passes and (
                    perf_counter() + (perf_counter() - t0) / p > t0 + seconds):
                break
            items = self.wl.items_for_pass(p)
            if rec is not None:
                rec.enabled = True
            cpu, lat, spans, outputs = self.one_pass(items, rec, offset + p)
            if rec is not None:
                rec.enabled = False
            self.check(items, outputs)
            got.cpu.append(cpu)
            got.raw.append(lat)
            got.spans.append(spans)
        got.scaled = [[x * self.speed.scale(a, b) for x, (a, b) in zip(lat, spans)]
                      for lat, spans in zip(got.raw, got.spans)]
        return got

    def close(self):
        self.wl.close()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, reference=None, spans_path: str | None = None,
                 setup_start: float | None = None) -> dict:
    """Set up, measure and check one workload; return the process's result.

    `reference` replaces the committed reference records (tests use it to
    plant a wrong value); `spans_path` receives the traced spans as JSONL.
    """
    start = perf_counter() if setup_start is None else setup_start
    import_program()
    run = Run(name, seed, tiny=tiny, reference=reference)
    try:
        setup_s = perf_counter() - start
        passes = run.wl.min_passes if trace else None
        got = run.measure(seconds=seconds, passes=passes)
        walls = got.walls()
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "tiny": tiny, "passes": len(walls), "items_per_pass": len(run.wl.items),
            "pass_wall_s": walls, "pass_wall_raw_s": got.walls(scaled=False),
        }
        if trace:
            rec = tracer.Recorder()
            handle = tracer.install(rec)
            try:
                traced = run.measure(passes=passes, rec=rec, offset=passes)
            finally:
                handle.uninstall()
            overhead = (statistics.median(traced.walls(scaled=False))
                        - statistics.median(got.walls(scaled=False)))
            result["layers"] = tracer.layer_metrics(
                rec, passes, cpu_s=statistics.median(got.cpu), overhead_s=overhead)
            result["traced_pass_wall_raw_s"] = traced.walls(scaled=False)
            result["recorder"] = rec
            if spans_path:
                rec.write_jsonl(spans_path)
        lats, raw = got.pooled(), got.pooled(scaled=False)
        value, pct, beyond = tail(lats)
        result.update({
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "wall_raw_s": statistics.median(got.walls(scaled=False)),
            "item_p50_ms": 1000.0 * statistics.median(lats),
            "item_p50_raw_ms": 1000.0 * statistics.median(raw),
            "item_tail_ms": 1000.0 * value,
            "item_tail_raw_ms": 1000.0 * tail(raw)[0],
            "tail_percentile": pct,
            "tail_samples": len(lats),
            "tail_beyond": beyond,
            "scaled": run.wl.scaled,
            "speed_reference_s": speed.REFERENCE_S,
            "speed_scale": statistics.median(x / r for x, r in zip(lats, raw) if r > 0),
            "cpu_s_per_pass": statistics.median(got.cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "failed_frac": len(run.failures) / run.attempted,
            "failures": run.failures[:20],
            "records": run.records,
            "environment": environment(),
        })
        return result
    finally:
        run.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        import_program()
        run = Run(args.workload, args.seed)
        setup_s = perf_counter() - T_START
        run.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    spans = (os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
             if args.trace else None)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spans_path=spans, setup_start=T_START)
    result.pop("recorder", None)
    result.pop("records")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
