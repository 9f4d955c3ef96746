"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned here
from the build contract; calibrated constants come frozen from
`dyadlab/data/calibration.json` (regenerated by `python -m dyadlab.calibration
--write`, which reruns the same pinned suites).
"""

import math
import time

import numpy as np
import pytest

from dyadlab import (
    CubeSet,
    GridFunction,
    Weight,
    build_grid,
    cz_decompose,
    dual_weight,
    operator_norm,
    packing_check,
    paraproduct_identity,
    random_a2_weight,
    random_simple_shift,
)
from dyadlab.calibration import load_calibration
from dyadlab.cli import main as cli_main
from dyadlab.estimates import jn_check
import dyadlab.experiments as exp

CAL = load_calibration()["constants"]


def report(k, name, ok, detail):
    print(f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- criterion 1: exact-constant corona suite ---------------------------------

def test_criterion_1_corona_suite():
    start = time.perf_counter()
    worst_packing = 0.0
    worst_carleson_excess = -np.inf
    for i in range(100):
        w = exp.cascade_weight(i)
        corona = exp.corona_for(w)
        pk = packing_check(corona)
        worst_packing = max(worst_packing, pk.child_union_ratio)
        bound = (16.0 / 9.0) * w.a2_characteristic()
        arrays = corona.carleson_arrays()
        for j in range(w.grid.N + 1):
            excess = (arrays[j] - bound * w.sums[j]).max()
            worst_carleson_excess = max(worst_carleson_excess, float(excess))
    elapsed = time.perf_counter() - start
    ok = (worst_packing <= 0.25 + 1e-10 and worst_carleson_excess <= 1e-10
          and elapsed < 60.0)
    assert report(
        1, "corona packing and Carleson bounds", ok,
        f"packing max {worst_packing:.6f} (<= 0.25), Carleson excess "
        f"{worst_carleson_excess:.3e} (<= 1e-10), {elapsed:.1f}s (< 60s)")


# -- criterion 2: Calderon-Zygmund decomposition -------------------------------

def test_criterion_2_cz_decomposition():
    start = time.perf_counter()
    g = build_grid(1, 12)
    rng = np.random.default_rng(2024)
    worst_bad_integral = 0.0
    worst_packing_excess = -np.inf
    for trial in range(100):
        f = GridFunction(g, rng.standard_normal(g.cell_count))
        f = f * (1.0 / f.l1_norm())
        lam = 1.5 + (trial % 7) * 0.5
        cz = cz_decompose(f, lam)
        for q in cz.bad_cubes:
            worst_bad_integral = max(worst_bad_integral,
                                     abs(cz.bad_part(q).integral()))
        worst_packing_excess = max(worst_packing_excess,
                                   cz.bad_measure() - 1.0 / lam)
    elapsed = time.perf_counter() - start
    ok = (worst_bad_integral <= 1e-12 and worst_packing_excess <= 0.0
          and elapsed < 10.0)
    assert report(
        2, "CZ mean-zero bad parts and packing", ok,
        f"max |int b_Q| {worst_bad_integral:.2e} (<= 1e-12 * ||f||_1), "
        f"packing excess {worst_packing_excess:.2e} (<= 0 exactly), "
        f"{elapsed:.1f}s (< 10s)")


# -- criterion 3: unweighted shift norms ---------------------------------------

def test_criterion_3_unweighted_norms():
    start = time.perf_counter()
    g = build_grid(1, 10)
    worst_excess = -np.inf
    worst_gap = 0.0
    for seed in range(100):
        tau = 1 + seed % 3
        T = random_simple_shift(tau, 10_000 + seed, g)
        pi = operator_norm(T)
        dn = operator_norm(T, method="dense-svd")
        worst_excess = max(worst_excess, pi - (tau + 1))
        worst_gap = max(worst_gap, abs(pi - dn) / dn)
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-6 and worst_gap <= 1e-6 and elapsed < 120.0
    assert report(
        3, "L2 norm <= tau+1 and power iteration vs dense SVD", ok,
        f"max norm excess over tau+1: {worst_excess:.2e} (<= 1e-6), "
        f"max relative gap {worst_gap:.2e} (<= 1e-6), {elapsed:.1f}s (< 120s)")


# -- criteria 4 and 5: testing-condition suite ----------------------------------

@pytest.fixture(scope="module")
def two_weight_rows():
    start = time.perf_counter()
    rows = exp.run_two_weight_suite()
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_4_testing_necessity(two_weight_rows):
    rows, elapsed = two_weight_rows
    worst_slack = min(r["slack"] for r in rows)
    ok = worst_slack >= -1e-9 and elapsed < 300.0
    assert report(
        4, "testing constants never exceed the norm", ok,
        f"min(full_norm - max constant) = {worst_slack:.2e} (>= -1e-9) over "
        f"{len(rows)} instances, suite {elapsed:.1f}s (< 300s)")


def test_criterion_5_testing_sufficiency_stability(two_weight_rows):
    rows, _ = two_weight_rows
    worst = max(r["ratio"] for r in rows)
    frozen = CAL["testing_ratio_max"]
    ok = worst <= frozen * (1.0 + 1e-9)
    assert report(
        5, "norm / (C_WB + C_T1 + C_T*1) within frozen bound", ok,
        f"max ratio {worst:.12f} vs calibration {frozen:.12f}")


# -- criterion 6: linear growth in the A2 characteristic -------------------------

@pytest.fixture(scope="module")
def sweep_results():
    start = time.perf_counter()
    chars, norms = exp.power_sweep_norms()
    elapsed = time.perf_counter() - start
    return exp.sweep_models(chars, norms), elapsed


def test_criterion_6_linear_growth_window_and_fit(sweep_results):
    models, elapsed = sweep_results
    lo = CAL["a2_sweep"]["ratio_min"]
    hi = CAL["a2_sweep"]["ratio_max"]
    in_window = (models["ratio_min"] >= lo * (1 - 1e-6)
                 and models["ratio_max"] <= hi * (1 + 1e-6))
    linear_ok = models["r2_linear"] >= 0.98
    superlinear_ok = models["r2_quadratic"] <= models["r2_linear"]
    ok = in_window and linear_ok and superlinear_ok and elapsed < 600.0
    assert report(
        6, "norm/A2 ratio window and linear fit", ok,
        f"ratios [{models['ratio_min']:.4f}, {models['ratio_max']:.4f}] within "
        f"frozen [{lo:.4f}, {hi:.4f}] (c > 0), linear R2 "
        f"{models['r2_linear']:.4f} (>= 0.98), quadratic R2 "
        f"{models['r2_quadratic']:.4f} (<= linear), {elapsed:.1f}s (< 600s)")


def test_criterion_6_sqrt_model_discrimination(sweep_results):
    # The square-root model must lose to the linear one.  Both are affine
    # one-regressor fits, so comparing their R2 compares their residuals.  A
    # fixed bar such as "sqrt R2 < 0.98" cannot work: R2 is invariant under
    # y -> alpha y + beta, so for any exactly linear law the sqrt R2 depends
    # only on the five characteristics (0.9813 at the closed-form values
    # 1/((1+a)(1-a))), and only norms that curve upward could pass it.  The
    # 0.98 bar stays on the linear fit above.  The sweep measures the L2(w)
    # norm on the shell partition refined to depth SWEEP_REFINEMENT, which
    # resolves the x^a singularity the uniform depth-16 grid truncated.
    models, _ = sweep_results
    sqrt_loses = models["r2_sqrt"] < models["r2_linear"]
    chars = ", ".join(f"{c:.4f}" for c in models["chars"])
    assert report(
        6, "sqrt model fits worse than linear", sqrt_loses,
        f"sqrt R2 {models['r2_sqrt']:.4f} < linear R2 "
        f"{models['r2_linear']:.4f} at A2 [{chars}]")


def test_criterion_6_discrimination_can_fail(sweep_results):
    # At the sweep's characteristics, norms growing exactly like A2 pass the
    # check and norms growing exactly like sqrt(A2) fail it.
    models, _ = sweep_results
    chars = np.asarray(models["chars"])
    linear = exp.sweep_models(chars, chars)
    root = exp.sweep_models(chars, np.sqrt(chars))
    assert linear["r2_sqrt"] < linear["r2_linear"]
    assert not root["r2_sqrt"] < root["r2_linear"]


# -- criterion 7: paraproduct identity -------------------------------------------

def test_criterion_7_paraproduct_identity():
    g = build_grid(1, 10)
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(20_000 + i)
        w = random_a2_weight(1 + i % 4, 21_000 + i, g)
        sigma = None if i % 2 else random_a2_weight(i % 3, 22_000 + i, g)
        T = random_simple_shift(1 + i % 3, 23_000 + i, g)
        f = GridFunction(g, rng.standard_normal(g.cell_count))
        lhs, rhs = paraproduct_identity(f, T, sigma, w)
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs, 1e-300))
    ok = worst <= 1e-10
    assert report(
        7, "paraproduct square-sum identity", ok,
        f"worst relative gap {worst:.2e} (<= 1e-10) over 50 instances")


# -- criterion 8: level-set hypothesis to exponential decay ------------------------

def test_criterion_8_john_nirenberg():
    ok = True
    detail = ""
    for i in range(exp.JN_COUNT):
        fam = exp.jn_boundary_family(i)
        rep = jn_check(fam, t_values=tuple(range(1, 11)))
        if not (rep.hypothesis_ok and rep.conclusion_ok):
            ok = False
            detail = f"family {i} failed (hypothesis={rep.hypothesis_ok})"
            break
    assert report(
        8, "exponential decay under the level-set hypothesis", ok,
        detail or f"{exp.JN_COUNT} boundary-scaled families, t in 1..10, every cube")


# -- criterion 9: distributional decay of localized sums ---------------------------

def test_criterion_9_essence_decay():
    k = CAL["essence"]["k"]
    data = [row for i in range(exp.CASCADE_COUNT)
            for row in exp.essence_distributions(*exp.essence_cases(i))]
    leb, dua = exp.essence_aggregate_masses(data, k)
    slope_leb = exp.fit_slope(exp.ESSENCE_T_VALUES, leb)
    slope_dua = exp.fit_slope(exp.ESSENCE_T_VALUES, dua)
    monotone = all(a >= b - 1e-15 for a, b in zip(leb, leb[1:])) and \
        all(a >= b - 1e-15 for a, b in zip(dua, dua[1:]))

    # per-term bound: |<w, g_Q>| sup|gamma_Q| <= w(Q)/|Q| on every family cube
    seven_worst = 0.0
    for i in range(exp.CASCADE_COUNT):
        w = exp.cascade_weight(i)
        T = exp.essence_shift(i)
        coeffs = T.pairing_coefficients(w.sums)
        for a in T.levels:
            dens = w.sums[a] * (2.0 ** a)
            peak = (np.abs(coeffs[a]) * np.abs(T.gamma[a]).max(axis=-1)).max(axis=0)
            seven_worst = max(seven_worst, float((peak / dens).max()))

    # spot-run the full distributional check on the first weights
    spot_ok = True
    for i in range(10):
        w, T, cases = exp.essence_cases(i)
        from dyadlab import essence_check
        for n, q0, corona, L, fiber in cases[:3]:
            rep = essence_check(L, fiber, T, w, k_constant=k)
            spot_ok &= rep.lebesgue_curve.is_monotone()
            spot_ok &= rep.dual_curve.is_monotone()
            spot_ok &= rep.seven_single_worst <= 1.0 + 1e-12

    ok = (monotone and slope_leb is not None and slope_leb <= -0.5
          and slope_dua is not None and slope_dua <= -0.5
          and seven_worst <= 1.0 + 1e-12 and spot_ok)
    assert report(
        9, "superlevel decay and single-term bound", ok,
        f"K={k:.4f}, slopes lebesgue {slope_leb:.3f} / dual {slope_dua:.3f} "
        f"(<= -0.5), per-term ratio max {seven_worst:.6f} (<= 1), "
        f"monotone={monotone}, spot={spot_ok}")


# -- criterion 10: CLI determinism ---------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path, capsys):
    import json

    cfg = {
        "experiment_id": "determinism",
        "grid": {"d": 1, "N": 8},
        "shift": {"kind": "hilbert"},
        "weights": [{"family": "power", "a": 0.5},
                    {"family": "cascade", "n": 2, "seed": 3}],
        "norm_method": "dense-svd",
        "with_testing": True,
        "with_corona": True,
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))

    identical = True
    for args, outputs in [
        (["sweep", "--config", str(cfgp)], ["sweep.csv", "summary.json",
                                            "sweep.gnuplot"]),
        (["char", "--family", "power", "--a", "0.75", "--N", "12"], None),
        (["corona", "--family", "cascade", "--n", "3", "--seed", "5",
          "--N", "10"], None),
        (["cz", "--N", "10", "--lam", "2.0", "--seed", "1"], None),
    ]:
        if outputs is None:
            out1 = tmp_path / "f1.json"
            out2 = tmp_path / "f2.json"
            cli_main(args + ["--out", str(out1)])
            cli_main(args + ["--out", str(out2)])
            capsys.readouterr()
            identical &= out1.read_bytes() == out2.read_bytes()
        else:
            d1, d2 = tmp_path / "s1", tmp_path / "s2"
            cli_main(args + ["--out", str(d1)])
            cli_main(args + ["--out", str(d2)])
            capsys.readouterr()
            for name in outputs:
                identical &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
    with capsys.disabled():
        assert report(10, "byte-identical CLI reruns", identical,
                      "sweep outputs, char, corona, cz compared byte for byte")
