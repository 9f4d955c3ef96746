"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import bench  # noqa: E402
import compare  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)

# (item index, path to a float the checks compare with the reference)
PERTURB = {
    "two_weight": (0, ("full_norm",)),
    "sweep_n16": (2, ("norm",)),
    "corona_cascade": (1, ("h_sq_sum",)),
    "cli_mixed": (0, ("stdout", "report", "characteristic")),
}


def tiny(name, trace=False, reference=None):
    return bench.run_workload(name, 1, 0.0, trace=trace, tiny=True, reference=reference)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_smoke_run(name):
    r = tiny(name)
    assert r["passes"] == WORKLOADS[name].min_passes
    assert r["attempted"] == r["passes"] * r["items_per_pass"]
    assert r["failed"] == 0, r["failures"]
    assert r["wall_s"] > 0 and r["item_p50_ms"] > 0 and r["item_tail_ms"] > 0
    assert r["setup_s"] > 0 and r["peak_rss_mb"] > 0
    assert r["tail_samples"] == r["attempted"]


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_reference_counts_as_failure(name):
    ref = tiny(name)["records"]
    assert tiny(name, reference=ref)["failed"] == 0

    index, path = PERTURB[name]
    key = WORKLOADS[name](1, tiny=True).items[index].key
    bad = copy.deepcopy(ref)
    node = bad[key]
    for part in path[:-1]:
        node = node[part]
    assert isinstance(node[path[-1]], float)
    node[path[-1]] *= 1 + 1e-5        # beyond both the 1e-9 and the 1e-6 gate
    r = tiny(name, reference=bad)
    assert r["failed_frac"] > 0
    assert all(f.startswith(key) for f in r["failures"])


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest_and_self_times_are_nonnegative(name):
    rec = tiny(name, trace=True)["recorder"]
    assert rec.span_count() > 0
    assert min(rec.self_times()) >= -1e-9
    for k, p in enumerate(rec.parent):
        if p >= 0:
            assert rec.start[p] <= rec.start[k] <= rec.end[k] <= rec.end[p]
            assert rec.items[k] == rec.items[p]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_across_traced_runs(name):
    a = tiny(name, trace=True)["layers"]
    b = tiny(name, trace=True)["layers"]
    exact = [k for k in a if k.endswith(".calls") or k.startswith("shifts.power_iters.")
             or k in ("grid.bytes_computed", "corona.stopping_cubes", "bench.spans",
                      "serialize.bytes_written", "serialize.bytes_read",
                      "shifts.apply_values.columns", "weights.cascade_distinct_frac",
                      "shifts.operator_norm.repeat_frac")]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}


def test_speed_scale_uses_the_samples_around_an_interval():
    s = speed.Speed()
    s.times = [float(t) for t in range(20)]
    s.values = [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10
    assert s.scale(2.0, 3.0) == 1.0            # samples 1..4 and 5 to reach five
    assert s.scale(15.0, 15.5) == 0.5          # the machine ran at half speed
    assert s.scale(9.5, 9.5) in (0.5, 1.0)
    assert s.scale(-50.0, -49.0) == 1.0        # no sample near: the nearest five


def test_scaled_and_raw_times_are_both_reported():
    r = tiny("corona_cascade")
    assert r["wall_raw_s"] > 0 and r["item_p50_raw_ms"] > 0
    assert r["speed_scale"] > 0
    assert r["wall_s"] == statistics.median(r["pass_wall_s"])


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = bench.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_compare_refuses_different_environments():
    env = {"nproc": 2, "blas": "x", "git_commit": "a"}
    same = [{"environment": env}, {"environment": {**env, "git_commit": "b"}}]
    assert compare.environment_mismatch(same) == []
    other = same + [{"environment": {**env, "nproc": 4}}]
    assert compare.environment_mismatch(other) == ["nproc"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "two_weight",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
