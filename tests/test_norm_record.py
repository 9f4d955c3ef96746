"""The committed norm record: testing constants with their witnesses, and the
`dense-svd` and `power-iteration` norms, of 27 shift and weight-pair cases.

The cases are the two-weight suite rows 0-23 at depth 8 and, at d=2 N=4, a
tau=1 and a tau=2 random shift and a martingale transform under an
independent cascade pair.  The testing constants are read from the
sigma-weighted Haar rows, whose every sum is a fixed-order numpy reduction,
not a BLAS one, so the constants and witnesses compare exactly.  Dense norms compare at 1e-12
relative, and power norms at 1e-9, since a reordered reduction can move the
step at which the Krylov loop stops.

`PYTHONPATH=src python tests/test_norm_record.py --exact` prints one host
line (numpy, its BLAS, the BLAS thread-count variable and numpy's CPU
dispatch targets), then every key whose value moved bitwise, and leaves
the record alone; without `--exact` the script rewrites
`tests/data/norm_record.json`.  Run either from the repository root.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadlab import (
    build_grid,
    martingale_transform,
    operator_norm,
    random_a2_weight,
    random_signs,
    random_simple_shift,
)
import dyadlab.estimates as est
import dyadlab.experiments as exp

RECORD = Path(__file__).parent / "data" / "norm_record.json"
SCANS = ("c_wb", "c_t1", "c_tstar1", "witnesses")
TOLERANCES = {"dense": 1e-12, "power": 1e-9}


def _cases():
    for i in range(24):
        yield f"two_weight_{i}", (lambda i=i: exp.two_weight_instance(i, depth=8))
    grid = build_grid(2, 4)

    def d2_case(T):
        return lambda: (T, random_a2_weight(2, 41, grid), random_a2_weight(1, 42, grid))
    yield "d2_N4_tau1", d2_case(random_simple_shift(1, 43, grid))
    yield "d2_N4_tau2", d2_case(random_simple_shift(2, 44, grid))
    yield "d2_N4_martingale", d2_case(martingale_transform(random_signs(grid, 45), grid))


def norm_record() -> dict:
    record = {}
    for name, case in _cases():
        T, sigma, mu = case()
        rep = est.testing_constants(T, sigma, mu, norm_method="dense-svd").to_dict()
        record[name] = {**{key: rep[key] for key in SCANS}, "dense": rep["full_norm"],
                        "power": operator_norm(T, sigma, mu, method="power-iteration")}
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def records():
    return json.loads(RECORD.read_text()), norm_record()


def test_norm_record_has_every_case(records):
    want, got = records
    assert got.keys() == want.keys()


@pytest.mark.parametrize("key", SCANS)
def test_scan_values_are_reproduced_exactly(records, key):
    want, got = records
    for name in want:
        assert got[name][key] == want[name][key], name


@pytest.mark.parametrize("key", sorted(TOLERANCES))
def test_norms_are_reproduced(records, key):
    want, got = records
    for name in want:
        assert got[name][key] == pytest.approx(want[name][key], rel=TOLERANCES[key],
                                               abs=0.0), name


def _moved(want, got):
    """(case, key, old, new) for every value that differs bitwise."""
    names = list(want) + [name for name in got if name not in want]
    return [(name, key, want.get(name, {}).get(key), got.get(name, {}).get(key))
            for name in names for key in (*SCANS, *TOLERANCES)
            if want.get(name, {}).get(key) != got.get(name, {}).get(key)]


def _host() -> str:
    """What a bitwise move on another machine may come from."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return (f"host: numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
            f"dispatch {' '.join(config['SIMD Extensions']['found'])}")


if __name__ == "__main__":
    fresh = norm_record()
    if "--exact" in sys.argv[1:]:
        print(_host())
        for name, key, old, new in _moved(json.loads(RECORD.read_text()), fresh):
            rel = (f" rel {abs(new - old) / abs(old):.2e}"
                   if isinstance(old, float) and isinstance(new, float) and old else "")
            print(f"{name}.{key}: {old!r} -> {new!r}{rel}")
    else:
        RECORD.parent.mkdir(exist_ok=True)
        RECORD.write_text(json.dumps(fresh, indent=1) + "\n")
