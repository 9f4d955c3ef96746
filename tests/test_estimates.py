import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadlab import (
    CubeSet,
    GridError,
    GridFunction,
    Weight,
    bold_h,
    build_corona,
    build_grid,
    corona_ab_split,
    dual_weight,
    essence_check,
    h_functional,
    h_functionals,
    hilbert_shift,
    jn_check,
    martingale_transform,
    operator_norm,
    paraproduct_apply,
    paraproduct_identity,
    qn_partition,
    random_a2_weight,
    random_signs,
    random_simple_shift,
    sufficiency_experiment,
    weak_boundedness_from_t1_check,
    zero_shift,
)
from dyadlab.corona import pn_alpha
from dyadlab.estimates import (_WB_BATCH_ENTRIES, DistributionCurve, EssenceReport,
                               ProfileFamily, affine_fit, fit_slope)
from dyadlab.haar import _indicator_fields, _indicator_sums, _tstar1_values
from dyadlab.grid import (assemble_levels, integral_pyramid, level_argmax, pool,
                          subcell_matrix, suffix_sweep)
from dyadlab.shifts import SimpleHaarShift, apply_shift, default_levels
from dyadlab.weights import WeightError, _measure
from dyadlab.estimates import testing_constants as eval_testing_constants
import dyadlab.estimates as estimates
import dyadlab.haar as haar
import dyadlab.shifts as shifts
import dyadlab.experiments as exp

from helpers import (brute_testing_constants, cube_set, masked, random_generic,
                     stopping_descendants)


# -- testing constants ---------------------------------------------------------

def test_zero_shift_all_constants_vanish():
    g = build_grid(1, 6)
    T = zero_shift(g, 2)
    w = random_a2_weight(2, 1, g)
    rep = eval_testing_constants(T, w, dual_weight(w), norm_method="dense-svd")
    assert rep.c_wb == rep.c_t1 == rep.c_tstar1 == 0.0
    assert rep.full_norm == pytest.approx(0.0, abs=1e-14)


def _descendant(Q, depth, rel):
    """Q's depth-`depth` descendant at local row-major offset `rel`."""
    s = 1 << depth
    digits = (rel,) if Q.grid.d == 1 else divmod(rel, s)
    return Q.grid.cube(Q.level + depth, [i * s + r for i, r in zip(Q.index, digits)])


def _first_maximal_wb_pair(T, sigma, mu):
    """The weak-boundedness witness from one application of T per cube Q':
    the first pair of maximal ratio in the order Q's level, Q' depth then
    offset, Q'' depth then offset, Q's index."""
    g = T.grid
    d, N = g.d, g.N
    sigma, mu = _measure(g, sigma), _measure(g, mu)
    pyramids = {}

    def ratio(qp, qs):
        if qp not in pyramids:
            out = T.apply_values(GridFunction.indicator(qp).values * sigma.values)
            pyramids[qp] = integral_pyramid(out * mu.sums[N], d, N)
        return abs(pyramids[qp][qs.level][qs.flat]) / math.sqrt(
            sigma.sums[qp.level][qp.flat] * mu.sums[qs.level][qs.flat])

    best, wit = 0.0, (g.root(), g.root())
    for jq in range(N + 1):
        depths = range(min(T.tau - 1, N - jq) + 1)
        for dp in depths:
            for relp in range(1 << (dp * d)):
                for ds in depths:
                    for rels in range(1 << (ds * d)):
                        for Q in g.cubes(jq):
                            pair = (_descendant(Q, dp, relp), _descendant(Q, ds, rels))
                            if ratio(*pair) > best:
                                best, wit = ratio(*pair), pair
    return wit


def _dyadic_shift(tau, seed, g):
    """A d=2 shift whose profiles take +-|Q|^(-1/2) on k random subcells
    each and vanish elsewhere: under Lebesgue measure every pair ratio is
    exact, so equal ratios tie bit for bit."""
    rng = np.random.default_rng(seed)
    m = 1 << (tau * g.d)

    def profile(j):
        k = rng.integers(1, m // 2 + 1)
        return rng.permutation(np.repeat([1.0, -1.0, 0.0], [k, k, m - 2 * k])) * 2.0 ** j

    levels = default_levels(g, tau)
    g_, gamma = ({j: np.stack([profile(j) for _ in range(g.level_count(j))]) for j in levels}
                 for _ in range(2))
    return SimpleHaarShift(g, tau, levels, g_, gamma)


_ORACLE_CASES = [(1, 4, 1, 0), (1, 5, 2, 1), (1, 5, 3, 2), (1, 6, 2, 3),
                 (2, 3, 1, 4), (2, 3, 2, 5)]
_TIED_CASES = [(2, 3, 2, 14), (2, 3, 3, 35)]


@pytest.mark.parametrize("d,N,tau,seed,tied", [
    pytest.param(*case, False, id="-".join(map(str, case))) for case in _ORACLE_CASES
] + [pytest.param(*case, True, id="tied-" + "-".join(map(str, case))) for case in _TIED_CASES])
def test_fast_constants_match_brute_oracle(d, N, tau, seed, tied):
    """Cascade pairs, and Lebesgue measure with a dyadic-valued shift whose
    exactly tied pairs pin the weak-boundedness witness order."""
    g = build_grid(d, N)
    if tied:
        sigma = mu = None
        T = _dyadic_shift(tau, seed, g)
    else:
        w = random_a2_weight(1 + seed % 3, 100 + seed, g)
        sigma, mu = w, dual_weight(w)
        T = random_simple_shift(tau, 200 + seed, g)
    fast = eval_testing_constants(T, sigma, mu, norm_method="dense-svd")
    brute = brute_testing_constants(T, sigma, mu)
    assert fast.c_t1 == pytest.approx(brute.c_t1, abs=1e-10)
    assert fast.c_tstar1 == pytest.approx(brute.c_tstar1, abs=1e-10)
    assert fast.c_wb == pytest.approx(brute.c_wb, abs=1e-10)
    for key in ("t1", "tstar1"):
        assert (fast.witnesses[key].level, fast.witnesses[key].flat) == (
            brute.witnesses[key].level, brute.witnesses[key].flat)
    assert fast.witnesses["wb"] == list(_first_maximal_wb_pair(T, sigma, mu))


def test_fast_constants_match_oracle_lebesgue_and_multiterm():
    g = build_grid(1, 5)
    T = random_simple_shift(2, 42, g)
    fast = eval_testing_constants(T, None, None, norm_method="dense-svd")
    brute = brute_testing_constants(T, None, None)
    assert fast.c_t1 == pytest.approx(brute.c_t1, abs=1e-12)
    assert fast.c_wb == pytest.approx(brute.c_wb, abs=1e-12)
    g2 = build_grid(2, 3)
    Tm = martingale_transform(random_signs(g2, 4), g2)
    w = random_a2_weight(1, 6, g2)
    fast = eval_testing_constants(Tm, w, dual_weight(w), norm_method="dense-svd")
    brute = brute_testing_constants(Tm, w, dual_weight(w))
    assert fast.c_t1 == pytest.approx(brute.c_t1, abs=1e-12)
    assert fast.c_tstar1 == pytest.approx(brute.c_tstar1, abs=1e-12)
    assert fast.c_wb == pytest.approx(brute.c_wb, abs=1e-12)


@given(st.sampled_from([(1, N) for N in range(1, 6)] + [(2, N) for N in range(1, 4)]),
       st.integers(1, 3), st.integers(0, 3), st.integers(0, 10**6),
       st.sampled_from(("none", "weight", "dual")), st.sampled_from(("none", "weight", "dual")),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_fast_constants_match_oracle_on_any_measure_pair(shape, tau, n, seed, sigma_kind,
                                                         mu_kind, generic):
    """Each side is Lebesgue measure (None), a cascade weight or its dual; the
    shift is a random simple shift or a generic one, which reaches the scan
    through the profiles it compiles into."""
    d, N = shape
    tau = min(tau, N)
    g = build_grid(d, N)
    w = random_a2_weight(n, seed, g)
    pick = {"none": None, "weight": w, "dual": dual_weight(w)}
    sigma, mu = pick[sigma_kind], pick[mu_kind]
    T = (random_generic(g, np.random.default_rng(seed), count=10 * tau) if generic
         else random_simple_shift(tau, seed + 1, g))
    fast = eval_testing_constants(T, sigma, mu, norm_method="dense-svd")
    brute = brute_testing_constants(T, sigma, mu)
    assert fast.c_t1 == pytest.approx(brute.c_t1, abs=1e-10)
    assert fast.c_tstar1 == pytest.approx(brute.c_tstar1, abs=1e-10)
    assert fast.c_wb == pytest.approx(brute.c_wb, abs=1e-10)


def _shadow(rows):
    """Y^'s rows with Y^ replaced by its shadow Z and each two-point value by
    its absolute value: a read-out from them is the same sums on |terms|."""
    return rows._replace(Y=rows.Z, w=[np.abs(x) for x in rows.w])


@given(st.sampled_from([(1, N) for N in range(1, 7)] + [(2, N) for N in range(1, 4)]),
       st.integers(1, 3), st.booleans(), st.integers(0, 3), st.integers(0, 10**6),
       st.sampled_from(("none", "weight", "dual")), st.sampled_from(("none", "weight", "dual")))
@settings(max_examples=60, deadline=None)
@example(shape=(2, 1), tau=1, separated=False, n=0, seed=710631, sigma_kind="none",
         mu_kind="none")
@example(shape=(2, 3), tau=3, separated=False, n=1, seed=126217, sigma_kind="weight",
         mu_kind="none")
def test_indicator_fields_are_t_of_sigma_indicators(shape, tau, separated, n, seed,
                                                    sigma_kind, mu_kind):
    """Read from Y^, m(Q') times `_indicator_fields` is b_x T(sigma 1_Q')(x)
    for every cube Q, every Q' at most tau-1 levels below it and every cell
    x of Q, within the error the read-out carries.

    The field is sum_P w_P(Q') Y^[x, P] over Q''s ancestors P and the
    constant, which on Y = M W is b_x T(sigma 1_Q')(x) / m(Q') exactly.
    Those terms cancel: the field can be far below each term.  Since
    |Y^ - Y| <= rho Z entrywise (`haar.certifies`), the error is, to first
    order, at most rho times the same read-out on the shadow (Z for Y^, |w|
    for w); the read-out's own roundings, a few per path, are of the same
    order, and in practice the error stays far below that bound.  The
    oracle, T.apply_values, adds its own 1e-13 of the field with |g| and
    |gamma|.  Cubes and cells are located through the layout's Morton maps
    and checked to nest."""
    d, N = shape
    tau = min(tau, N)
    g = build_grid(d, N)
    w = random_a2_weight(n, seed, g)
    pick = {"none": None, "weight": w, "dual": dual_weight(w)}
    sigma, mu = pick[sigma_kind], pick[mu_kind]
    T = random_simple_shift(tau, seed + 1, g, separated=separated)
    T_abs = SimpleHaarShift(g, tau, T.levels, {a: np.abs(T.g[a]) for a in T.levels},
                            {a: np.abs(T.gamma[a]) for a in T.levels}, validate=False)
    rows = haar.haar_rows(T, sigma, mu)
    shadow = _shadow(rows)
    B, B_shadow = _indicator_sums(rows), _indicator_sums(shadow)
    density = _measure(g, sigma).values
    b = np.sqrt(_measure(g, mu).values * g.cell_volume)
    for jq in range(N + 1):
        depth = min(tau - 1, N - jq)
        fields = _indicator_fields(rows, B[jq], jq, depth)
        bounds = rows.rho * _indicator_fields(shadow, B_shadow[jq], jq, depth)
        width = sum(1 << (e * d) for e in range(depth + 1))
        assert fields.shape == (g.level_count(jq), width, 1 << ((N - jq) * d))
        for q in range(g.level_count(jq)):
            Q = g.cube(jq, int(rows.z[jq][q]))
            cells = rows.z[N][q * fields.shape[2]:(q + 1) * fields.shape[2]]
            assert all(Q.contains(g.cube(N, int(x))) for x in cells)
            k = 0
            for e in range(depth + 1):
                for r in range(1 << (e * d)):
                    pos = (q << (e * d)) + r
                    Qp = g.cube(jq + e, int(rows.z[jq + e][pos]))
                    assert Q.contains(Qp)
                    f = GridFunction.indicator(Qp).values * density
                    scale = (b * T_abs.apply_values(f))[cells].max()
                    got, bound = (rows.mass[jq + e][pos] * x[q, k] for x in (fields, bounds))
                    assert (np.abs(got - (b * T.apply_values(f))[cells])
                            <= bound + 1e-13 * scale).all()
                    k += 1


@given(st.sampled_from([(1, N) for N in range(1, 7)] + [(2, N) for N in range(1, 4)]),
       st.integers(1, 3), st.integers(0, 3), st.integers(0, 10**6),
       st.sampled_from(("none", "weight", "dual")), st.sampled_from(("none", "weight", "dual")))
@settings(max_examples=60, deadline=None)
@example(shape=(2, 3), tau=3, n=0, seed=158, sigma_kind="none", mu_kind="none")
@example(shape=(2, 1), tau=1, n=0, seed=19674, sigma_kind="none", mu_kind="none")
def test_tstar1_values_are_t_star_of_mu_indicators(shape, tau, n, seed, sigma_kind, mu_kind):
    """Read from Y^(T, sigma, mu), `_tstar1_values` is ||1_Q T*(mu 1_Q)||^2_sigma
    / mu(Q) for every cube Q, with T* applied to mu 1_Q, within the error the
    read-out carries.

    The value is (sum_P c_P(Q)^2 + m(Q) A(Q)^2) / mu(Q), with c_P(Q) and A(Q)
    signed sums of Y^'s entries, which cancel.  As for the fields, each sum
    is within rho times its shadow read-out (Z for Y^, |w| for w) of its
    exact value, to first order, so a square c^2 is within 2 rho cbar^2 of
    it: the error is at most 2 rho times the shadow value.  The oracle adds
    1e-13 of the value with |g| and |gamma|.  Cubes are located through
    the layout's Morton maps."""
    d, N = shape
    tau = min(tau, N)
    g = build_grid(d, N)
    w = random_a2_weight(n, seed, g)
    pick = {"none": None, "weight": w, "dual": dual_weight(w)}
    sigma, mu = pick[sigma_kind], pick[mu_kind]
    T = random_simple_shift(tau, seed + 1, g)
    T_abs = SimpleHaarShift(g, tau, T.levels, {a: np.abs(T.g[a]) for a in T.levels},
                            {a: np.abs(T.gamma[a]) for a in T.levels}, validate=False)
    rows = haar.haar_rows(T, sigma, mu)
    mu_mass = haar._cube_masses(g, haar.measure_scalings(g, mu, sigma)[0][rows.z[N]])
    values, shadow = (_tstar1_values(r, _indicator_sums(r), mu_mass)
                      for r in (rows, _shadow(rows)))
    s, m = _measure(g, sigma), _measure(g, mu)
    adj, adj_abs = T.adjoint(), T_abs.adjoint()
    for j in range(N + 1):
        assert values[j].shape == (g.level_count(j),)
        for q in range(g.level_count(j)):
            Q = g.cube(j, int(rows.z[j][q]))
            f = GridFunction.indicator(Q).values * m.values
            want, scale = (float((Q.cell_values(op.apply_values(f)) ** 2
                                  * Q.cell_values(s.sums[N])).sum()) / m.sums[j][Q.flat]
                           for op in (adj, adj_abs))
            assert abs(values[j][q] - want) <= 2 * rows.rho * shadow[j][q] + 1e-13 * scale


def test_testing_constants_build_one_haar_matrix(monkeypatch):
    """Under either norm method, one call builds Y^ once, for (T, sigma, mu),
    runs one Krylov loop (on Y^ for `dense-svd`) and builds no dense matrix;
    a `dense-svd` call takes no adjoint."""
    T, sigma, mu = exp.two_weight_instance(5, depth=6)
    builds, counts = [], {"_golub_kahan": 0, "dense_matrix": 0, "adjoint": 0}
    haar_rows = haar.haar_rows

    def counting_rows(shift, s, m):
        builds.append((shift, s, m))
        return haar_rows(shift, s, m)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (shifts, estimates):
        monkeypatch.setattr(module, "haar_rows", counting_rows)
    for name in ("_golub_kahan", "dense_matrix"):
        monkeypatch.setattr(shifts, name, counting(name, getattr(shifts, name)))
    monkeypatch.setattr(SimpleHaarShift, "adjoint",
                        counting("adjoint", SimpleHaarShift.adjoint))
    for method in ("dense-svd", "power-iteration"):
        builds.clear()
        counts.update(_golub_kahan=0, dense_matrix=0, adjoint=0)
        eval_testing_constants(T, sigma, mu, norm_method=method)
        assert len(builds) == 1
        shift, s, m = builds[0]
        assert shift is T and s is sigma and m is mu
        assert counts["_golub_kahan"] == 1 and counts["dense_matrix"] == 0
        if method == "dense-svd":
            assert counts["adjoint"] == 0


@pytest.mark.parametrize("k", [600, -600])
def test_testing_constants_are_scale_safe(k):
    """(sigma 2^k, mu 2^-k) keeps every testing constant; (sigma 2^k, mu)
    scales them and the norm by 2^(k/2).  Nothing over- or underflows: the
    constants are read as ratios of Haar-basis quantities."""
    for i in (1, 4):
        T, sigma, mu = exp.two_weight_instance(i, depth=6)
        base = eval_testing_constants(T, sigma, mu, norm_method="dense-svd")
        up, down = (Weight(w.values * 2.0 ** e, T.grid) for w, e in ((sigma, k), (mu, -k)))
        both = eval_testing_constants(T, up, down, norm_method="dense-svd")
        one = eval_testing_constants(T, up, mu, norm_method="dense-svd")
        for key in ("c_t1", "c_tstar1", "c_wb"):
            assert getattr(both, key) == pytest.approx(getattr(base, key), rel=1e-12, abs=0.0)
        for key in ("c_t1", "c_tstar1", "c_wb", "full_norm"):
            assert getattr(one, key) == pytest.approx(getattr(base, key) * 2.0 ** (k // 2),
                                                      rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k_sigma,k_mu", [(300, 300), (-300, -300), (300, -300)])
def test_far_scaled_measures_scale_the_norms_and_constants(k_sigma, k_mu):
    """(sigma 4^k_sigma, mu 4^k_mu) gives 2^(k_sigma + k_mu) times every norm
    and testing constant, with the same witnesses: both measures are moved
    back into the window by exact powers of four."""
    scale = 2.0 ** (k_sigma + k_mu)
    T, sigma, mu = exp.two_weight_instance(1, depth=6)
    far_sigma, far_mu = (Weight(np.ldexp(w.values, 2 * k), T.grid)
                         for w, k in ((sigma, k_sigma), (mu, k_mu)))
    for method in ("dense-svd", "power-iteration"):
        assert (operator_norm(T, far_sigma, far_mu, method=method)
                == scale * operator_norm(T, sigma, mu, method=method))
    base = eval_testing_constants(T, sigma, mu)
    far = eval_testing_constants(T, far_sigma, far_mu)
    for key in ("c_wb", "c_t1", "c_tstar1", "full_norm"):
        assert getattr(far, key) == scale * getattr(base, key) > 0.0
    assert far.witnesses == base.witnesses


def test_far_scaled_bracket_is_scaled_back(monkeypatch):
    monkeypatch.setattr(shifts, "_KRYLOV_STEPS", 2)
    T, sigma, mu = exp.two_weight_instance(1, depth=6)
    far = Weight(np.ldexp(sigma.values, 600), T.grid)
    brackets = []
    for s in (sigma, far):
        with pytest.raises(shifts.OperatorNormError) as err:
            operator_norm(T, s, mu)
        brackets.append(err.value.bracket)
    assert brackets[1] == tuple(2.0 ** 300 * e for e in brackets[0])


@pytest.mark.parametrize("method", ["dense-svd", "power-iteration"])
def test_testing_constants_scale_a_bracket_back_like_operator_norm(monkeypatch, method):
    """For sigma times 2^600 and a loop that stops with bracket (1, 2), the
    testing constants' norm raises the bracket `operator_norm` raises,
    (2^300, 2^301): both run in `shifts.window`."""
    def no_convergence(*args):
        raise shifts.OperatorNormError("did not converge", bracket=(1.0, 2.0))

    monkeypatch.setattr(shifts, "_golub_kahan", no_convergence)
    T, sigma, mu = exp.two_weight_instance(1, depth=6)
    far = Weight(np.ldexp(sigma.values, 600), T.grid)
    for norm in (lambda: operator_norm(T, far, mu, method=method),
                 lambda: eval_testing_constants(T, far, mu, norm_method=method)):
        with pytest.raises(shifts.OperatorNormError) as err:
            norm()
        assert err.value.bracket == (2.0 ** 300, 2.0 ** 301)


def test_constant_measures_far_from_one_give_c_times_the_norm():
    grid = build_grid(1, 3)
    T = random_simple_shift(1, 4, grid)
    for method in ("dense-svd", "power-iteration"):
        unit = operator_norm(T, None, None, method=method)
        for c in (1e160, 1e-160, 1e-300):
            w = Weight(GridFunction.constant(grid, c))
            assert operator_norm(T, w, w, method=method) == pytest.approx(c * unit, rel=1e-14)


@pytest.mark.parametrize("method", ["dense-svd", "power-iteration"])
def test_a_weight_with_no_haar_basis_raises_weight_error(method):
    """Sibling cells 2^1100 apart in mass leave no floating-point Haar
    basis.  Only sigma needs one: as mu the same weight gives the brute
    oracle's constants and witnesses, although its squares would overflow."""
    grid = build_grid(1, 3)
    values = np.ones(grid.cell_count)
    values[:2] = 2.0 ** -550, 2.0 ** 550
    w = Weight(values, grid)
    T = random_simple_shift(1, 4, grid)
    for sigma, mu in ((w, None), (w, dual_weight(w))):
        with pytest.raises(WeightError, match="sigma has no Haar basis"):
            eval_testing_constants(T, sigma, mu, norm_method=method)
    fast = eval_testing_constants(T, None, w, norm_method=method)
    brute = brute_testing_constants(T, None, w)
    for key in ("c_t1", "c_tstar1", "c_wb"):
        assert math.isfinite(getattr(brute, key))
        assert getattr(fast, key) == pytest.approx(getattr(brute, key), rel=1e-10, abs=0.0)
    assert fast.witnesses == brute.witnesses


def test_a_measure_with_a_cell_mass_out_of_the_normal_range_raises_weight_error():
    """mu divides the testing ratios by mu(Q)^(1/2): a cell mass that is
    subnormal or zero (values spanning more than the float range, so that no
    power of four moves them into it) raises WeightError naming mu."""
    grid = build_grid(1, 3)
    T = random_simple_shift(1, 4, grid)
    for tiny in (1e-320, 5e-324):
        values = np.ones(grid.cell_count)
        values[:2] = tiny, 1e300
        w = Weight(values, grid)
        for method in ("dense-svd", "power-iteration"):
            with pytest.raises(WeightError, match="^mu "):
                eval_testing_constants(T, None, w, norm_method=method)


def test_necessity_on_sample_instances():
    for i in (0, 1, 2, 3, 17, 30):
        T, sigma, mu = exp.two_weight_instance(i, depth=8)
        rep = eval_testing_constants(T, sigma, mu, norm_method="dense-svd")
        assert rep.c_wb <= rep.full_norm + 1e-9
        assert rep.c_t1 <= rep.full_norm + 1e-9
        assert rep.c_tstar1 <= rep.full_norm + 1e-9


def test_wb_range_is_tau_minus_one():
    # for tau=1 the scan degenerates to the diagonal (Q, Q, Q)
    g = build_grid(1, 5)
    T = random_simple_shift(1, 3, g)
    w = random_a2_weight(2, 4, g)
    rep = eval_testing_constants(T, w, dual_weight(w), norm_method="dense-svd")
    q1, q2 = rep.witnesses["wb"]
    assert (q1.level, q1.flat) == (q2.level, q2.flat)


# -- paraproduct ----------------------------------------------------------------

def test_paraproduct_zero_shift():
    g = build_grid(1, 6)
    T = zero_shift(g, 2)
    w = random_a2_weight(2, 7, g)
    f = GridFunction.constant(g, 1.0)
    assert np.abs(paraproduct_apply(f, T, None, w).values).max() == 0.0


def test_paraproduct_telescoping_identity():
    # with unit input and Lebesgue averages the paraproduct telescopes to the
    # mean-zero (in w) part of the shifted unit function
    g = build_grid(1, 7)
    T = random_simple_shift(2, 8, g)
    w = random_a2_weight(3, 9, g)
    one = GridFunction.constant(g, 1.0)
    p = paraproduct_apply(one, T, None, w)
    from dyadlab import apply_shift, inner_product
    tg = apply_shift(T, one)
    w_mean = inner_product(tg, one, w) / w.total_mass()
    assert np.abs(p.values - (tg.values - w_mean)).max() < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_paraproduct_norm_identity(seed):
    g = build_grid(1, 7)
    rng = np.random.default_rng(seed)
    w = random_a2_weight(1 + seed % 4, 300 + seed, g)
    sigma = random_a2_weight(seed % 3, 400 + seed, g) if seed % 2 else None
    T = random_simple_shift(1 + seed % 3, 500 + seed, g)
    f = GridFunction(g, rng.standard_normal(g.cell_count))
    lhs, rhs = paraproduct_identity(f, T, sigma, w)
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs, 1e-30)


# -- localized partial sums ------------------------------------------------------

def test_h_functional_trivial_cases():
    g = build_grid(1, 7)
    T = random_simple_shift(2, 10, g)
    w = random_a2_weight(2, 11, g)
    assert np.abs(h_functional(g.root(), CubeSet.empty(g), T, w).values).max() == 0.0
    one = Weight(GridFunction.constant(g, 1.0))
    fam = CubeSet.all_under(g, g.root())
    assert np.abs(h_functional(g.root(), fam, T, one).values).max() < 1e-12
    assert bold_h(CubeSet.empty(g), T, w).value == 0.0
    assert bold_h(fam, T, one).value < 1e-12


def test_h_functional_matches_masked_application():
    g = build_grid(1, 7)
    T = random_simple_shift(2, 12, g)
    w = random_a2_weight(3, 13, g)
    cubes = [g.cube(0, 0), g.cube(2, 1), g.cube(3, 6), g.cube(5, 17)]
    sel = cube_set(g, cubes)
    got = h_functional(g.root(), sel, T, w)
    direct = np.zeros(g.cell_count)
    for c in cubes:
        mask = {c.level: np.zeros(g.level_count(c.level), dtype=bool)}
        mask[c.level][c.flat] = True
        direct += masked(T, mask).apply_values(w.values)
    assert np.abs(got.values - direct).max() < 1e-12
    # restriction under a smaller top drops the cubes outside it
    top = g.cube(1, 0)
    got_top = h_functional(top, sel, T, w)
    direct_top = np.zeros(g.cell_count)
    for c in cubes:
        if top.contains(c):
            mask = {c.level: np.zeros(g.level_count(c.level), dtype=bool)}
            mask[c.level][c.flat] = True
            direct_top += masked(T, mask).apply_values(w.values)
    assert np.abs(got_top.values - direct_top).max() < 1e-12


def test_bold_h_matches_direct_scan():
    g = build_grid(1, 6)
    T = random_simple_shift(2, 14, g)
    w = random_a2_weight(3, 15, g)
    qn = qn_partition(w)
    cls = qn.classes[max(qn.n_values())]
    rep = bold_h(cls, T, w)
    best = 0.0
    from dyadlab import l2_norm
    for q0 in cls.cubes():
        h = h_functional(q0, cls, T, w)
        best = max(best, l2_norm(h, dual_weight(w)) / math.sqrt(w.mass(q0)))
    assert rep.value == pytest.approx(best, rel=1e-12)


# -- corona split -----------------------------------------------------------------

def test_ab_split_trivial_cases():
    g = build_grid(1, 10)
    one = Weight(GridFunction.constant(g, 1.0))
    T = random_simple_shift(2, 16, g, separated=True)
    qn = qn_partition(one, levels=T.levels)
    cls = qn.classes[0]
    corona = build_corona(one, cls, g.root(), stopping_levels=T.levels)
    rep = corona_ab_split(g.root(), 0, corona, T, one)
    assert rep.a_part == pytest.approx(0.0, abs=1e-20)
    assert rep.b_part == pytest.approx(0.0, abs=1e-20)
    assert rep.stopping_count == 1  # single stopping cube forces B = 0


def test_ab_split_values_match_direct_sum():
    w, T, cases = exp.essence_cases(33)
    g = w.grid
    dual_cells = g.cell_volume / w.values
    seen = 0
    for n, q0, corona, L0, fiber in cases:
        rep = corona_ab_split(q0, n, corona, T, w)
        stops = [L for L in corona.stopping_cubes() if q0.contains(L)]
        a_direct, b_direct = 0.0, 0.0
        h_loc = {}
        for L in stops:
            h = np.abs(h_functional(L, corona.corona_of(L), T, w).values)
            h_loc[(L.level, L.flat)] = h
            a_direct += float((h ** 2 * dual_cells).sum())
        for L in stops:
            for Lp in stopping_descendants(corona, L):
                if q0.contains(Lp):
                    b_direct += float(
                        (h_loc[(L.level, L.flat)] * h_loc[(Lp.level, Lp.flat)]
                         * dual_cells).sum()
                    )
        assert rep.a_part == pytest.approx(a_direct, rel=1e-12, abs=1e-15)
        assert rep.b_part == pytest.approx(b_direct, rel=1e-12, abs=1e-15)
        seen += 1
        if seen >= 3:
            break
    assert seen > 0


# -- John-Nirenberg ----------------------------------------------------------------

def test_jn_zero_family():
    g = build_grid(1, 8)
    fam = ProfileFamily(g, 2, {j: np.zeros((g.level_count(j), 4))
                               for j in range(0, g.N - 1)})
    rep = jn_check(fam)
    assert rep.hypothesis_ok and rep.conclusion_ok
    assert rep.hypothesis_worst == 0.0


def _jn_epsilon_family(grid, tau, eps, seed):
    """Small random sign multiples of a fixed profile shape on every cube."""
    rng = np.random.default_rng(seed)
    m = 1 << (tau * grid.d)
    shape = np.concatenate([np.ones(m // 2), -np.ones(m - m // 2)])
    profiles = {}
    for j in range(0, grid.N - tau + 1):
        signs = rng.integers(0, 2, size=(grid.level_count(j), 1)) * 2.0 - 1.0
        profiles[j] = eps * signs * shape[None, :]
    return ProfileFamily(grid, tau, profiles)


def test_jn_epsilon_family_passes():
    g = build_grid(1, 10)
    for tau, eps in ((1, 0.04), (2, 0.05), (3, 0.08)):
        fam = _jn_epsilon_family(g, tau, eps, seed=tau)
        rep = jn_check(fam)
        assert rep.hypothesis_ok
        assert rep.conclusion_ok


def test_jn_hypothesis_violation_reported():
    # aligned full-amplitude profiles stack along the grid and overflow the
    # level-set budget; the conclusion is then not evaluated
    g = build_grid(1, 8)
    tau = 1
    profiles = {
        j: np.tile([1.0, -1.0], (g.level_count(j), 1)) for j in range(0, g.N)
    }
    rep = jn_check(ProfileFamily(g, tau, profiles))
    assert not rep.hypothesis_ok
    assert rep.hypothesis_worst > 1.0
    assert rep.conclusion_ok is None
    assert rep.hypothesis_witness is not None


def test_jn_boundary_families_subset():
    for i in (0, 1, 2, 7):
        fam = exp.jn_boundary_family(i)
        rep = jn_check(fam)
        assert rep.hypothesis_ok
        assert rep.conclusion_ok
        assert rep.hypothesis_worst <= 1.0 + 1e-12


def test_profile_family_validation():
    g = build_grid(1, 4)
    with pytest.raises(Exception):
        ProfileFamily(g, 1, {0: np.array([[1.5, -1.5]])})
    with pytest.raises(Exception):
        ProfileFamily(g, 1, {0: np.array([[1.0, -1.0, 0.0]])})
    with pytest.raises(GridError, match="not finite"):
        ProfileFamily(g, 1, {0: np.array([[np.nan, -1.0]])})


# -- essence lemma ------------------------------------------------------------------

def test_essence_trivial_for_lebesgue():
    g = build_grid(1, 10)
    one = Weight(GridFunction.constant(g, 1.0))
    T = random_simple_shift(2, 18, g, separated=True)
    fam = CubeSet.all_under(g, g.root(), levels=T.levels)
    rep = essence_check(g.root(), fam, T, one, k_constant=0.5)
    assert all(m == 0.0 for m in rep.lebesgue_curve.masses)
    assert all(m == 0.0 for m in rep.dual_curve.masses)
    # pairings against a constant weight vanish up to rounding
    assert rep.seven_single_worst < 1e-12


def test_essence_term_bounds_and_monotone_curves():
    w, T, cases = exp.essence_cases(42)
    k = 0.2
    checked = 0
    for n, q0, corona, L, fiber in cases:
        rep = essence_check(L, fiber, T, w, k_constant=k)
        assert rep.lebesgue_curve.is_monotone()
        assert rep.dual_curve.is_monotone()
        # single terms obey the density bound exactly, and the alpha windows
        # cap densities by four times their dyadic band
        assert rep.seven_single_worst <= 1.0 + 1e-12
        assert rep.alpha_window_worst <= 1.0 + 1e-12
        assert rep.lebesgue_curve.masses[0] <= L.volume + 1e-15
        # the dual curve is dominated by the total dual mass of L
        assert rep.dual_curve.masses[0] <= rep.dual_curve.total_mass + 1e-15
        checked += 1
        if checked >= 8:
            break
    assert checked > 0


def test_distribution_curve_slope_and_monotonicity():
    curve = DistributionCurve("lebesgue", (1, 2, 3, 4), (1.0, 0.5, 0.25, 0.125),
                              1.0, 1.0)
    assert curve.is_monotone()
    assert fit_slope(curve.t_values, curve.masses) == pytest.approx(-math.log(2), rel=1e-12)
    flat = DistributionCurve("lebesgue", (1, 2), (0.0, 0.0), 1.0, 1.0)
    assert fit_slope(flat.t_values, flat.masses) is None
    assert not DistributionCurve("x", (1, 2), (0.1, 0.2), 1.0, 1.0).is_monotone()


def test_affine_fit_exact_line_and_degenerate_x():
    slope, r2 = affine_fit([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert (slope, r2) == (2.0, 1.0)
    assert affine_fit([2.0], [5.0]) == (None, 1.0)
    # x takes one value: no slope, and the horizontal fit explains nothing
    assert affine_fit([1.0, 1.0, 1.0], [0.5, 0.25, 2.0]) == (None, 0.0)



# -- one restriction rule for H: bitwise against the masked-coefficient code ---------

def _old_masked(T, w, cubes):
    """Pairing coefficients zeroed off `cubes`, before the fields are formed."""
    coeffs = T.pairing_coefficients(w.sums)
    return {a: coeffs[a] * cubes.mask(a)[None, :] for a in T.levels}


def _old_h(Q0, cubes, T, w):
    g = T.grid
    out = assemble_levels(T.output_fields(_old_masked(T, w, cubes.restrict_under(Q0))),
                          g.d, g.N)
    return np.zeros(g.cell_count) if out is None else out


def _old_bold_h(cubes, T, w):
    """(value, witness) of the supremum over Q0 in `cubes`."""
    g = T.grid
    d, N = g.d, g.N
    rows = []
    for j, s in suffix_sweep(T.output_fields(_old_masked(T, w, cubes)), d, N, T.tau):
        flats = np.nonzero(cubes.mask(j))[0]
        if flats.size:
            rows.append((j, (pool(s * s * w.dual_sums[N], d, N - j) / w.sums[j])[flats],
                         flats))
    best, wit = level_argmax(g, rows)
    return math.sqrt(max(best, 0.0)), wit


def _old_essence_check(L, cubes, T, w, k_constant, t_values=tuple(range(1, 9))):
    g = T.grid
    d, N, vol = g.d, g.N, g.cell_volume
    dens_l = w.density(L)
    local = np.abs(L.cell_values(_old_h(L, cubes, T, w)))
    local_dual = L.cell_values(w.dual_sums[N])
    leb, dual = [], []
    for t in t_values:
        sel = local > k_constant * t * dens_l
        leb.append(float(sel.sum()) * vol)
        dual.append(float(local_dual[sel].sum()))
    strata = pn_alpha(L, cubes, w)
    coeffs = _old_masked(T, w, cubes)
    seven, window, weak_worst = 0.0, 0.0, 0.0
    for alpha in strata.alpha_values():
        members = strata.classes[alpha]
        for a in members.levels():
            idx = np.nonzero(members.masks[a])[0]
            if a not in T.g or idx.size == 0:
                continue
            dens_q = w.sums[a][idx] * (2.0 ** (a * d))
            sup_gamma = np.abs(T.gamma[a][:, idx, :]).max(axis=-1)
            term_peak = (np.abs(coeffs[a][:, idx]) * sup_gamma).max(axis=0)
            seven = max(seven, float((term_peak / dens_q).max()))
            window = max(window, float((dens_q / (4.0 * (2.0 ** (-alpha)) * dens_l)).max()))
        masked = {a: coeffs[a] * members.mask(a)[None, :] for a in T.levels}
        for j, s in suffix_sweep(T.output_fields(masked), d, N, T.tau):
            sel = members.mask(j)
            if not sel.any():
                continue
            rows = np.sort(np.abs(subcell_matrix(s, d, N - j)), axis=1)[:, ::-1]
            weak = (rows * np.arange(1, rows.shape[1] + 1)[None, :]).max(axis=1) * vol
            denom = (2.0 ** (-alpha)) * dens_l * (2.0 ** (-j * d))
            weak_worst = max(weak_worst, float((weak[sel] / denom).max()))
    scale = k_constant * dens_l
    return EssenceReport(
        DistributionCurve("lebesgue", tuple(t_values), tuple(leb), L.volume, scale),
        DistributionCurve("dual", tuple(t_values), tuple(dual), float(local_dual.sum()), scale),
        seven, window, weak_worst, k_constant, tuple(strata.alpha_values()))


def _old_essence_distributions(w, T, cases):
    rows = []
    for *_, L, fiber in cases:
        u = np.abs(L.cell_values(_old_h(L, fiber, T, w))) / w.density(L)
        duals = L.cell_values(w.dual_sums[w.grid.N])
        order = np.argsort(u)[::-1]
        rows.append({"u_sorted": u[order], "dual_cum": np.cumsum(duals[order]),
                     "cell_volume": w.grid.cell_volume, "lebesgue_total": L.volume,
                     "dual_total": float(duals.sum())})
    return rows


def _assert_rows_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                assert a[key].tobytes() == b[key].tobytes(), key
            else:
                assert float(a[key]).hex() == float(b[key]).hex(), key


def _partial_sum_shift(kind, tau, seed, g, separated):
    """One-term random shift, or the martingale transform (three terms at d=2)."""
    if kind == "martingale":
        return martingale_transform(random_signs(g, seed), g, separated=separated)
    return random_simple_shift(tau, seed, g, separated=separated)


@given(st.sampled_from(((1, 4), (1, 7), (1, 10), (2, 3), (2, 5))), st.integers(0, 5),
       st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(("random", "martingale")),
       st.booleans(), st.sampled_from((0.0, 0.1, 0.5, 1.0)), st.data())
@settings(max_examples=40, deadline=None)
def test_partial_sums_are_bitwise_the_masked_coefficient_code(shape, n, seed, tau, kind,
                                                              separated, density, data):
    """H, bold H, the essence check and the essence rows, on random cube sets
    and Q0, equal the code that masked the coefficients, sign bits included."""
    d, N = shape
    g = build_grid(d, N)
    T = _partial_sum_shift(kind, min(tau, N), seed, g, separated)
    w = random_a2_weight(n, seed + 7, g)
    rng = np.random.default_rng(seed)
    cubes = CubeSet(g, {j: rng.random(g.level_count(j)) < density for j in range(N + 1)})
    j0 = data.draw(st.integers(0, N))
    Q0 = g.cube(j0, data.draw(st.integers(0, g.level_count(j0) - 1)))
    assert h_functional(Q0, cubes, T, w).values.tobytes() == _old_h(Q0, cubes, T, w).tobytes()
    rep, (value, witness) = bold_h(cubes, T, w), _old_bold_h(cubes, T, w)
    assert (rep.value.hex(), rep.witness) == (value.hex(), witness)
    assert repr(essence_check(Q0, cubes, T, w, k_constant=0.2)) == \
        repr(_old_essence_check(Q0, cubes, T, w, k_constant=0.2))
    cases = [(0, Q0, None, Q0, cubes), (0, g.root(), None, g.root(), cubes)]
    _assert_rows_bitwise(exp.essence_distributions(w, T, cases),
                         _old_essence_distributions(w, T, cases))
    assert [h.values.tobytes() for h in h_functionals([(Q0, cubes), (g.root(), cubes)], T, w)] \
        == [_old_h(q, cubes, T, w).tobytes() for q in (Q0, g.root())]


def test_essence_rows_are_bitwise_the_per_case_code_on_the_cascade_prefix():
    """Cascade indices 0-23 at N=12: every row of the suite's first 111 cases."""
    count = 0
    for i in range(24):
        w, T, cases = exp.essence_cases(i)
        _assert_rows_bitwise(exp.essence_distributions(w, T, cases),
                             _old_essence_distributions(w, T, cases))
        count += len(cases)
    assert count == 111


def test_essence_check_is_the_masked_coefficient_code_on_class_fibers():
    """CLI-style fibers: the deepest Q_n class corona's first stops, d=1 and d=2."""
    checked = 0
    for d, N, tau in ((1, 8, 2), (1, 10, 2), (2, 5, 1), (2, 6, 2)):
        g = build_grid(d, N)
        for seed in (1, 2):
            w = random_a2_weight(3, seed, g)
            T = random_simple_shift(tau, seed, g, separated=True)
            qn = qn_partition(w, levels=T.levels)
            corona = exp.class_corona(w, qn.classes[max(qn.n_values())], T.levels)[1]
            for L in corona.stopping_cubes()[:4]:
                fiber = corona.corona_of(L)
                assert repr(essence_check(L, fiber, T, w, k_constant=0.15)) == \
                    repr(_old_essence_check(L, fiber, T, w, k_constant=0.15))
                checked += 1
    assert checked >= 16


# -- weights and cube sets from another grid ---------------------------------------

def _foreign_grid_calls():
    g8, g10 = build_grid(1, 8), build_grid(1, 10)
    T8 = random_simple_shift(2, 3, g8, separated=True)
    w8, w10 = random_a2_weight(2, 5, g8), random_a2_weight(2, 5, g10)
    fam8 = CubeSet.all_under(g8, g8.root(), levels=T8.levels)
    fam10 = CubeSet.all_under(g10, g10.root(), levels=T8.levels)
    corona8 = build_corona(w8, fam8, g8.root(), stopping_levels=T8.levels)
    f8 = GridFunction.constant(g8, 1.0)
    return {
        "h_functional": lambda: h_functional(g8.root(), fam8, T8, w10),
        "h_functionals-cubes": lambda: h_functionals(
            [(g8.root(), fam8), (g10.root(), fam10)], T8, w8),
        "bold_h-weight": lambda: bold_h(fam8, T8, w10),
        "bold_h-cubes": lambda: bold_h(fam10, T8, w8),
        "essence_check": lambda: essence_check(g8.root(), fam8, T8, w10, k_constant=0.2),
        "corona_ab_split": lambda: corona_ab_split(g8.root(), 0, corona8, T8, w10),
        "corona_ab_split-no-stops": lambda: corona_ab_split(g8.cube(8, 0), 0, corona8, T8, w10),
        "testing_constants": lambda: eval_testing_constants(T8, w10, None),
        "operator_norm": lambda: operator_norm(T8, w10, None),
        "weak_boundedness": lambda: weak_boundedness_from_t1_check(T8, w10),
        "apply_shift": lambda: apply_shift(T8, f8, w10),
    }


@pytest.mark.parametrize("entry", sorted(_foreign_grid_calls()))
def test_weight_or_cubes_from_another_grid_raise_grid_error(entry):
    """d=1 level sizes do not depend on N, so an N=10 weight or cube set fits
    an N=8 shift's coarse levels; each entry point refuses it."""
    with pytest.raises(GridError):
        _foreign_grid_calls()[entry]()

# -- derived weak boundedness and sufficiency -----------------------------------------

def _reference_weak_boundedness(T, w):
    """The cube-by-cube weak-boundedness scan: one application of T per cube."""
    grid = T.grid
    d, N, tau = grid.d, grid.N, T.tau
    a2 = w.a2_characteristic()
    dual_cells = w.dual_sums[N]
    i2_worst = i3_worst = large_worst = chain_worst = 0.0
    for j in range(N + 1):
        for flat in range(grid.level_count(j)):
            q = grid.cube(j, flat)
            out = T.apply_values(GridFunction.indicator(q).values * w.values)
            pyr = integral_pyramid(out * dual_cells, d, N)
            wq = w.sums[j][flat]
            loc = float((q.cell_values(out) ** 2 * q.cell_values(dual_cells)).sum())
            i3_worst = max(i3_worst, loc / (a2 ** 2 * wq))
            for lr in range(max(0, j - (tau + 1)), min(N, j + (tau + 1)) + 1):
                rights = a2 * np.sqrt(wq * w.dual_sums[lr])
                i2_worst = max(i2_worst, float((np.abs(pyr[lr]) / rights).max()))
            for lr in range(max(0, j - (tau + 1)), j + 1):
                anc = q.parent(q.level - lr)
                inner = float(pyr[lr][anc.flat]) - float(pyr[j][flat])
                denom = wq * w.dual_sums[lr][anc.flat] * (2.0 ** (lr * d))
                if q != anc:
                    large_worst = max(large_worst, abs(inner) / denom)
                chain = math.sqrt(wq * w.dual_sums[lr][anc.flat]) * (2.0 ** (lr * d))
                chain_worst = max(chain_worst, chain / math.sqrt(a2))
    return i2_worst, i3_worst, large_worst, chain_worst, a2


def _assert_matches_reference(T, w):
    """Every field within 1e-13 relative: the batched application of T may
    round a coefficient differently from one column at a time."""
    rep = weak_boundedness_from_t1_check(T, w)
    got = rep.i2_worst, rep.i3_worst, rep.largescale_worst, rep.chain_worst, rep.a2
    for g, r in zip(got, _reference_weak_boundedness(T, w)):
        assert abs(g - r) <= 1e-13 * abs(r), (got, r)


@given(st.sampled_from([(1, N) for N in range(1, 9)] + [(2, N) for N in range(1, 5)]),
       st.sampled_from((1, 2, 3, "hilbert")), st.sampled_from((None, 0, 1, 2, 3)),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_batched_weak_boundedness_matches_the_cube_by_cube_scan(shape, shift, n, seed):
    """Cascade weights (n=0 included) and the constant-one weight (n None)."""
    d, N = shape
    g = build_grid(d, N)
    if shift == "hilbert" and d == 1 and N >= 2:
        T = hilbert_shift(g)
    else:           # the Hilbert shift exists only at d=1, N >= 2
        T = random_simple_shift(min(2 if shift == "hilbert" else shift, N), seed + 1, g)
    w = Weight(GridFunction.constant(g, 1.0)) if n is None else random_a2_weight(n, seed, g)
    _assert_matches_reference(T, w)


@pytest.mark.parametrize("d,N", [(1, 8), (2, 4)])
def test_batched_weak_boundedness_splits_the_finest_level(d, N):
    g = build_grid(d, N)
    assert _WB_BATCH_ENTRIES >> (N * d) < g.level_count(N) // 2    # several batches
    for T in (random_simple_shift(2, 31, g), *([hilbert_shift(g)] if d == 1 else [])):
        _assert_matches_reference(T, random_a2_weight(3, 32, g))


def test_weak_boundedness_suite_keeps_its_calibrated_maxima():
    """Calibration's derived weak-boundedness suite reads the same i2 and
    large-scale ratios as the cube-by-cube scan, bit for bit."""
    for i in range(exp.WEAK_BOUNDEDNESS_COUNT):
        T, w = exp.weak_boundedness_instance(i)
        rep = weak_boundedness_from_t1_check(T, w)
        i2, _, large, _, _ = _reference_weak_boundedness(T, w)
        assert (rep.i2_worst, rep.largescale_worst) == (i2, large)


def test_weak_boundedness_chain_holds_exactly():
    g = build_grid(1, 7)
    for seed in (0, 1):
        w = random_a2_weight(2 + seed, 600 + seed, g)
        T = random_simple_shift(2, 700 + seed, g)
        rep = weak_boundedness_from_t1_check(T, w)
        assert rep.chain_worst <= 1.0 + 1e-12
        assert rep.i2_worst >= 0.0
        assert math.isfinite(rep.largescale_worst)


def test_weak_boundedness_lebesgue_finite():
    g = build_grid(1, 6)
    one = Weight(GridFunction.constant(g, 1.0))
    T = random_simple_shift(1, 19, g)
    rep = weak_boundedness_from_t1_check(T, one)
    assert rep.a2 == pytest.approx(1.0, abs=1e-12)
    assert rep.chain_worst <= 1.0 + 1e-12
    assert math.isfinite(rep.i2_worst)


def test_sufficiency_unweighted_bound():
    g = build_grid(1, 8)
    one = Weight(GridFunction.constant(g, 1.0))
    shifts = [random_simple_shift(tau, 800 + tau, g) for tau in (1, 2, 3)]
    rep = sufficiency_experiment(one, one, shifts)
    assert rep.two_weight_a2 == pytest.approx(1.0, abs=1e-14)
    for tau, nrm in zip((1, 2, 3), rep.norms):
        assert nrm <= tau + 1 + 1e-6
    assert rep.a_infty_alpha == pytest.approx(0.5, abs=1e-12)


def test_sufficiency_standard_pair_recovers_characteristic():
    g = build_grid(1, 8)
    w = random_a2_weight(3, 900, g)
    rep = sufficiency_experiment(w, dual_weight(w),
                                 [random_simple_shift(2, 901, g)])
    assert rep.two_weight_a2 == w.a2_characteristic()
    assert rep.worst_norm > 0
    assert rep.ratio_to_sqrt_a2 == pytest.approx(
        rep.worst_norm / math.sqrt(rep.two_weight_a2), rel=1e-12)


def test_sufficiency_independent_cascade_pair():
    g = build_grid(1, 8)
    alpha = random_a2_weight(2, 910, g)
    beta = random_a2_weight(1, 911, g)
    shifts = [random_simple_shift(2, 912 + k, g) for k in range(3)]
    rep = sufficiency_experiment(alpha, beta, shifts)
    assert math.isfinite(rep.two_weight_a2)
    assert all(math.isfinite(n) for n in rep.norms)
    assert 0 < rep.a_infty_alpha < 1 and 0 < rep.a_infty_beta < 1


def test_sufficiency_independent_pair_suite():
    # bounded pair constants give finite norms across the pair suite; the
    # normalized ratios are recorded as the experiment's observable
    g = build_grid(1, 8)
    ratios = []
    for k in range(10):
        alpha = random_a2_weight(1 + k % 3, 920 + k, g)
        beta = random_a2_weight(1 + (k // 3) % 3, 950 + k, g)
        T = random_simple_shift(1 + k % 3, 980 + k, g)
        rep = sufficiency_experiment(alpha, beta, [T])
        assert math.isfinite(rep.worst_norm)
        ratios.append(rep.ratio_to_sqrt_a2)
    assert all(math.isfinite(r) and r >= 0 for r in ratios)
