"""Regenerate the seed-0 reference records under perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one pass of each named workload (all four by default) at seed 0 and
full size, without reference checks, and writes the record of every item of
that pass: the pinned inputs.  Items that later passes draw afresh are
checked against theorem-level bounds only, like other seeds.  The
theorem-level and calibration checks still run; the script refuses to write
a reference for a workload whose items fail them.  Regenerate only when a
change is meant to alter results beyond the benchmark's tolerances.
"""

import json
import os
import sys

import bench
from workloads import WORKLOADS


def make(name: str) -> dict:
    bench.import_program()
    run = bench.Run(name, 0, reference={})
    try:
        run.measure(passes=1)
    finally:
        run.close()
    if run.failures:
        raise SystemExit(f"{name}: refusing to write a failing reference: {run.failures[:3]}")
    return {
        "workload": name,
        "seed": 0,
        "environment": bench.environment(),
        "items": run.records,
    }


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    os.makedirs(bench.REFERENCE_DIR, exist_ok=True)
    for name in names:
        doc = make(name)
        path = os.path.join(bench.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} ({len(doc['items'])} items)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
