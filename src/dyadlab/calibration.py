"""Frozen calibration constants for the asserted-but-unspecified bounds.

Several suite checks assert against constants the theory leaves implicit.
They are measured once on the pinned suites by `python -m dyadlab.calibration`
(writing `data/calibration.json`) and asserted verbatim afterwards; since the
suites are deterministic, a rerun reproduces the file.
"""

from __future__ import annotations

import argparse
import importlib.resources as resources
import json
import math
import os

DATA_NAME = "calibration.json"
SCHEMA = "dyadlab-calibration/1"


def calibration_path() -> str:
    return str(resources.files("dyadlab").joinpath("data", DATA_NAME))


def load_calibration() -> dict:
    with open(calibration_path(), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("schema") != SCHEMA:
        raise RuntimeError("calibration file has an unexpected schema")
    return obj


def compute_calibration(verbose: bool = True) -> dict:
    """Run every pinned suite and collect the observed constants."""
    from . import experiments as exp
    from .corona import carleson_check, packing_check
    from .estimates import bold_h, corona_ab_split, weak_boundedness_from_t1_check
    from .shifts import weak_l1_ratio
    from .partition import SHELL_CELLS

    def log(msg):
        if verbose:
            print(msg, flush=True)

    constants: dict = {}

    log("[1/7] testing-condition suite (200 instances, N=10) ...")
    rows = exp.run_two_weight_suite()
    constants["testing_ratio_max"] = max(r["ratio"] for r in rows)
    constants["testing_ratio_min"] = min(r["ratio"] for r in rows)

    log(f"[2/7] power-weight norm sweep (N={exp.SWEEP_DEPTH}, "
        f"refined to D={exp.SWEEP_REFINEMENT}) ...")
    chars, norms = exp.power_sweep_norms()
    constants["a2_sweep"] = exp.sweep_models(chars, norms)

    # stages 3-5 share one pass: each cascade index builds its weight, shift,
    # Q_n partition and class coronas once
    log("[3-5/7] corona overlap, essence distribution, partial-sum and "
        "corona-split constants (cascade suite, N=12) ...")
    overlap_max = carleson_max = bold_max = ab_a_max = ab_b_max = 0.0
    data = []
    for i in range(exp.CASCADE_COUNT):
        w, T = exp.cascade_weight(i), exp.essence_shift(i)
        corona = exp.corona_for(w)
        overlap_max = max(overlap_max, packing_check(corona).overlap_ratio)
        carleson_max = max(carleson_max, carleson_check(corona).worst_ratio)
        coronas, cases = exp.class_coronas(w, T)
        data += exp.essence_distributions(w, T, cases)
        if i >= 50:
            continue
        a2 = w.a2_characteristic()
        for n, cls, q0, sub in coronas:
            if i < 30:
                bold = bold_h(cls, T, w).value / (2.0 ** (n / 2.0) * math.sqrt(a2))
                bold_max = max(bold_max, bold)
            ab = corona_ab_split(q0, n, sub, T, w)
            scale = (2.0 ** n) * a2 * w.mass(q0)
            ab_a_max = max(ab_a_max, ab.a_part / scale)
            ab_b_max = max(ab_b_max, ab.b_part / scale)
    constants["overlap_ratio_max"] = overlap_max
    constants["carleson_ratio_max"] = carleson_max
    k = exp.calibrate_essence_k(data)
    leb, dua = exp.essence_aggregate_masses(data, k)
    constants["essence"] = {
        "k": k,
        "lebesgue_slope": exp.fit_slope(exp.ESSENCE_T_VALUES, leb),
        "dual_slope": exp.fit_slope(exp.ESSENCE_T_VALUES, dua),
        "lebesgue_masses": list(leb),
        "dual_masses": list(dua),
        "case_count": len(data),
    }
    constants["bold_h_ratio_max"] = bold_max
    constants["ab_split"] = {"a_ratio_max": ab_a_max, "b_ratio_max": ab_b_max}

    log("[6/7] weak-L1 spike suite (N=8) ...")
    weak = {}
    for tau in (1, 2, 3):
        worst = 0.0
        for t in range(exp.WEAK_L1_TRIALS):
            T, f = exp.weak_l1_trial(tau, t)
            worst = max(worst, weak_l1_ratio(T, f))
        weak[str(tau)] = {
            "ratio_max": worst,
            "constant": worst / (2.0 ** (tau * 1)),
        }
    constants["weak_l1"] = weak

    log("[7/7] derived weak-boundedness ratios (N=8) ...")
    i2_max, large_max = 0.0, 0.0
    for i in range(exp.WEAK_BOUNDEDNESS_COUNT):
        T, w = exp.weak_boundedness_instance(i)
        rep = weak_boundedness_from_t1_check(T, w)
        i2_max = max(i2_max, rep.i2_worst)
        large_max = max(large_max, rep.largescale_worst)
    constants["i2_ratio_max"] = i2_max
    constants["largescale_ratio_max"] = large_max

    return {
        "schema": SCHEMA,
        "provenance": {
            "suites": {
                "two_weight": {"count": exp.TWO_WEIGHT_COUNT, "depth": exp.TWO_WEIGHT_DEPTH,
                        "norm": "dense-svd"},
                "cascade": {"count": exp.CASCADE_COUNT, "depth": exp.CASCADE_DEPTH},
                "sweep": {"exponents": list(exp.SWEEP_EXPONENTS),
                          "depth": exp.SWEEP_DEPTH, "shift": "hilbert",
                          "direction": "L2(w): operator_norm(T, dual_weight(w), w)",
                          "refinement": exp.SWEEP_REFINEMENT,
                          "shell_cells": SHELL_CELLS},
                "weak_l1": {"trials": exp.WEAK_L1_TRIALS, "depth": exp.WEAK_L1_DEPTH},
            },
            "note": "regenerate with: python -m dyadlab.calibration --write",
        },
        "constants": constants,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure and freeze the suite calibration constants."
    )
    parser.add_argument("--write", action="store_true",
                        help="write data/calibration.json (default: print)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    cal = compute_calibration(verbose=not args.quiet)
    payload = json.dumps(cal, indent=2, sort_keys=True) + "\n"
    if args.write:
        path = calibration_path()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {path}")
    else:
        print(payload, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
