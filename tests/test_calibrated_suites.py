"""Suite checks against the frozen calibration constants.

The theory's implicit constants were measured once on the pinned suites and
written to data/calibration.json; these tests rerun subsets of the same suites
and assert the observations stay below the frozen values.
"""

import math

import numpy as np
import pytest

from dyadlab import bold_h, corona_ab_split, qn_partition
from dyadlab import weak_boundedness_from_t1_check, weak_l1_ratio
from dyadlab.calibration import load_calibration
import dyadlab.experiments as exp

CAL = load_calibration()["constants"]
SLACK = 1.0 + 1e-9


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_weak_l1_suite_within_frozen_constant(tau):
    frozen = CAL["weak_l1"][str(tau)]
    worst = 0.0
    for t in range(exp.WEAK_L1_TRIALS):
        T, f = exp.weak_l1_trial(tau, t)
        worst = max(worst, weak_l1_ratio(T, f))
    # the frozen constant is the suite maximum normalized by 2^(tau d)
    assert worst <= frozen["constant"] * (2.0 ** tau) * SLACK
    assert worst == pytest.approx(frozen["ratio_max"], rel=1e-9)


def test_bold_h_suite_within_frozen_constant():
    frozen = CAL["bold_h_ratio_max"]
    worst = 0.0
    for i in range(15):
        w = exp.cascade_weight(i)
        T = exp.essence_shift(i)
        a2 = w.a2_characteristic()
        qn = qn_partition(w, levels=T.levels)
        for n in qn.n_values():
            rep = bold_h(qn.classes[n], T, w)
            worst = max(worst, rep.value / (2.0 ** (n / 2.0) * math.sqrt(a2)))
    assert worst <= frozen * SLACK


def test_ab_split_suite_within_frozen_constants():
    frozen = CAL["ab_split"]
    worst_a, worst_b = 0.0, 0.0
    for i in range(20):
        w = exp.cascade_weight(i)
        T = exp.essence_shift(i)
        a2 = w.a2_characteristic()
        for n, _cls, q0, corona in exp.class_coronas(w, T)[0]:
            rep = corona_ab_split(q0, n, corona, T, w)
            scale = (2.0 ** n) * a2 * w.mass(q0)
            worst_a = max(worst_a, rep.a_part / scale)
            worst_b = max(worst_b, rep.b_part / scale)
    assert worst_a <= frozen["a_ratio_max"] * SLACK
    assert worst_b <= max(frozen["b_ratio_max"] * SLACK, 1e-30)


def test_i2_ratios_within_frozen_constant():
    worst_i2, worst_large = 0.0, 0.0
    for i in range(exp.WEAK_BOUNDEDNESS_COUNT):
        T, w = exp.weak_boundedness_instance(i)
        rep = weak_boundedness_from_t1_check(T, w)
        worst_i2 = max(worst_i2, rep.i2_worst)
        worst_large = max(worst_large, rep.largescale_worst)
    assert worst_i2 <= CAL["i2_ratio_max"] * SLACK
    assert worst_large <= CAL["largescale_ratio_max"] * SLACK


def test_overlap_ratio_within_frozen_constant():
    frozen = CAL["overlap_ratio_max"]
    from dyadlab import packing_check
    worst = 0.0
    for i in range(15):
        w = exp.cascade_weight(i)
        corona = exp.corona_for(w)
        worst = max(worst, packing_check(corona).overlap_ratio)
    assert worst <= frozen * SLACK
    assert frozen <= 4.0


def test_worker_pool_reproduces_serial_sweep(monkeypatch, tmp_path):
    cfg = exp.ExperimentConfig(
        experiment_id="pool", d=1, N=6, shift_kind="hilbert",
        weights=[{"family": "power", "a": 0.0}, {"family": "power", "a": 0.5},
                 {"family": "cascade", "n": 1, "seed": 2}],
        norm_method="dense-svd",
    )
    serial = exp.run_sweep(cfg)
    monkeypatch.setenv(exp.WORKERS_ENV, "2")
    pooled = exp.run_sweep(cfg)
    assert [r.to_dict() for r in serial] == [
        {**r.to_dict(), "runtime_ms": s.to_dict()["runtime_ms"]}
        for r, s in zip(pooled, serial)
    ]
