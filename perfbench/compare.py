"""Compare benchmark results of a base commit and a change.

    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json ...

Inputs are the full results that `run.py` writes to `perfbench/out/`
(copy them aside between commits).  The script refuses to compare (exit 2)
when any two results differ in their environment block other than the git
commit.  For every workload and end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles and a verdict: `regression` when the
change's median is worse than the base median by more than the metric's
bound, `unresolved` when the base's own quartile spread is wider than the
bound, `ok` otherwise.  Exit code 1 when any pairing regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(paths):
    out = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def environment_mismatch(results) -> list[str]:
    """Fields (other than git_commit) whose values differ between results."""
    envs = [{k: v for k, v in r["environment"].items() if k != "git_commit"}
            for r in results]
    keys = set().union(*envs)
    return sorted(k for k in keys if len({json.dumps(e.get(k)) for e in envs}) > 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(base, change, spec) -> tuple[list[str], bool]:
    lines, regressed = [], False
    for wl in sorted({r["workload"] for r in base + change}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r[name] for r in base if r["workload"] == wl and not r["trace"]]
            c = [r[name] for r in change if r["workload"] == wl and not r["trace"]]
            if not b or not c:
                continue
            bm, cm = statistics.median(b), statistics.median(c)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (cm - bm) / bm
            bq1, bq3 = quartiles(b)
            spread = (bq3 - bq1) / bm
            if worse > bound:
                verdict, regressed = "regression", True
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            cq1, cq3 = quartiles(c)
            lines.append(
                f"{wl:<15} {name:<13} base {bm:.4g} [{bq1:.4g}, {bq3:.4g}] n={len(b)}  "
                f"change {cm:.4g} [{cq1:.4g}, {cq3:.4g}] n={len(c)}  "
                f"worse by {100 * worse:+.1f}% (bound {100 * bound:.0f}%)  {verdict}")
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark results")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    mismatch = environment_mismatch(base + change)
    if mismatch:
        print("refusing to compare: environments differ in " + ", ".join(mismatch),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, regressed = compare(base, change, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
