"""Operator-level identities and the dense norm oracle against independent checks.

The `dense-svd` norm runs the Krylov loop once, through M = C G^T with
row-sparse factors (one value and column per cell and (level, term)), by
gathers and bincounts, and certifies its value s, a lower bound for |M|, with
one Cholesky factorization of s^2 (1 + eps) I - H.  A simple shift whose
column count K (terms x family cubes) is at most n/2 first tries H =
L^T (C^T C) L (G^T G = L L^T), which is K x K, with both Gram matrices
pooled level by level and eps' from the rounding bounds of
`shifts._factored_gram`.  `_dense_factors` builds the same factors as dense
n x K arrays and is their oracle: the row-sparse values are its nonzeros,
the products match its products, and each pooled Gram entry, a sum of at
most n products, stays within gamma_n |F|^T |F| of the exact one.  Other
shifts (tau=1 at d=1, the d=2 martingale transform, a generic shift whose
split entries pad its cubes past n/2 columns, an entry-less one with K = 0)
and a factored certificate that does not pass (G^T G singular, an
unconverged Krylov run, a refused certificate) certify on H = M^T M, and
when that fails too, LAPACK's symmetric eigensolver takes over.  Both
certificates are checked against the full SVD of M and against a value
below the norm, the route by counting Krylov runs, `dense_matrix`,
`apply_values` and eigensolver calls, and the fast paths by the suite
prefix, which must certify without a fallback.  The property tests
cover the oracle on random grids and weight pairs, the duality identities at
d=1 and d=2 (<Tf, g> = <f, T*g> for simple and generic shifts, and the same
dense norm for T and its adjoint), the dual-weight involution, and the
profiles a generic shift compiles into against the matrix of its entries.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    GenericHaarShift,
    GridFunction,
    OperatorNormError,
    SimpleHaarShift,
    Weight,
    apply_shift,
    build_grid,
    dense_matrix,
    dual_weight,
    inner_product,
    martingale_transform,
    operator_norm,
    random_a2_weight,
    random_signs,
    random_simple_shift,
    zero_shift,
)
import dyadlab.experiments as exp
from dyadlab import shifts
from dyadlab.grid import ancestor_map, expand, scatter_subcells

from helpers import generic_dense_matrix, masked, random_generic

MAX_N = {1: 7, 2: 4}
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw, max_n=MAX_N):
    d = draw(st.sampled_from((1, 2)))
    return build_grid(d, draw(st.integers(1, max_n[d])))


def _full_svd_norm(T, sigma, mu):
    return float(np.linalg.svd(dense_matrix(T, sigma, mu), compute_uv=False)[0])


def _d2_cascade_case():
    g = build_grid(2, 5)
    return random_simple_shift(2, 31, g), random_a2_weight(2, 32, g), None


@pytest.mark.parametrize(
    "case",
    [pytest.param(lambda i=i: exp.two_weight_instance(i), id=f"two_weight_{i}")
     for i in range(8)]
    + [pytest.param(_d2_cascade_case, id="d2_cascade")],
)
def test_dense_norm_matches_full_svd(case):
    T, sigma, mu = case()
    assert operator_norm(T, sigma, mu, method="dense-svd") == pytest.approx(
        _full_svd_norm(T, sigma, mu), rel=1e-12
    )


def test_dense_norm_of_zero_shift_is_zero():
    g = build_grid(1, 6)
    w = random_a2_weight(1, 5, g)
    for T in (zero_shift(g, 2), GenericHaarShift(g, 1, [])):    # K = 31 and K = 0
        norm = operator_norm(T, w, dual_weight(w), method="dense-svd")
        assert norm == 0.0 and math.copysign(1.0, norm) == 1.0
        assert _full_svd_norm(T, w, dual_weight(w)) == 0.0


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts the dense oracle's eigensolver fallbacks."""
    calls = []
    solve = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_certificate_refuses_a_value_below_the_norm():
    T, sigma, mu = exp.two_weight_instance(3, depth=7)
    M = dense_matrix(T, sigma, mu)
    s = float(np.linalg.svd(M, compute_uv=False)[0])
    gram = M.T @ M
    err = shifts._gram_error(gram)
    assert shifts._certifies(gram, s, err)
    assert not shifts._certifies(gram, s * (1.0 - 1e-6), err)
    assert not shifts._certifies(gram, 0.0, err)
    # the factored certificate on a tau=2 instance: K = 63 columns, n = 128,
    # 6 (level, term) slots a cell
    T, sigma, mu = exp.two_weight_instance(4, depth=7)
    s = _full_svd_norm(T, sigma, mu)
    factors = shifts._low_rank_factors(T, sigma, mu)
    assert factors.cols.shape == (128, 6)
    H, err = shifts._factored_gram(factors)
    assert H.shape == (63, 63)
    assert shifts._certifies(H, s, err)
    assert not shifts._certifies(H, s * (1.0 - 1e-6), err)
    assert not shifts._certifies(H, 0.0, err)


def test_zero_shift_takes_the_eigensolver_fallback(eigvalsh_calls):
    g = build_grid(1, 6)
    w = random_a2_weight(1, 5, g)
    norm = operator_norm(zero_shift(g, 2), w, dual_weight(w), method="dense-svd")
    assert norm == 0.0 and math.copysign(1.0, norm) == 1.0
    assert eigvalsh_calls == [(64, 64)]


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_unconverged_krylov_run_takes_the_fallback_and_never_raises(eigvalsh_calls, max_iter):
    T, sigma, mu = exp.two_weight_instance(5, depth=7)
    with pytest.raises(OperatorNormError):
        operator_norm(T, sigma, mu, max_iter=max_iter)
    norm = operator_norm(T, sigma, mu, method="dense-svd", max_iter=max_iter)
    assert eigvalsh_calls == [(128, 128)]
    assert norm == pytest.approx(_full_svd_norm(T, sigma, mu), rel=1e-12)


@pytest.fixture
def dense_builds(monkeypatch):
    """Counts the Krylov runs (`_golub_kahan` calls) and the n x n route's
    builds of M: `dense_matrix` calls and the simple-shift applications
    behind them."""
    calls = {"_golub_kahan": 0, "dense_matrix": 0, "apply_values": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_golub_kahan", "dense_matrix"):
        monkeypatch.setattr(shifts, name, counting(name, getattr(shifts, name)))
    monkeypatch.setattr(SimpleHaarShift, "apply_values",
                        counting("apply_values", SimpleHaarShift.apply_values))
    return calls


def test_suite_prefix_certifies_without_the_eigensolver(dense_builds, eigvalsh_calls):
    """Every row runs the Krylov loop once; tau=1 rows certify on the n x n
    route, tau >= 2 rows never build M, and their value is the full SVD's
    to 1e-13."""
    for i in range(24):
        T, sigma, mu = exp.two_weight_instance(i)
        dense_builds.update(_golub_kahan=0, dense_matrix=0, apply_values=0)
        norm = operator_norm(T, sigma, mu, method="dense-svd")
        if T.tau == 1:      # K = n - 1 columns: the n x n certificate
            assert dense_builds == {"_golub_kahan": 1, "dense_matrix": 1, "apply_values": 1}
            continue
        assert dense_builds == {"_golub_kahan": 1, "dense_matrix": 0, "apply_values": 0}
        full = _full_svd_norm(T, sigma, mu)
        assert abs(norm - full) <= 1e-13 * full
    assert eigvalsh_calls == []


@pytest.mark.parametrize("case", ["generic", "martingale_d2", "zero", "masked"])
def test_the_n_by_n_route_builds_m_once(case, dense_builds):
    """Shifts with K > n/2 skip the factored certificate; a zero or masked
    tau=2 shift (K = 31 <= 32) tries it and falls through on a singular
    G^T G.  Either way the Krylov loop runs once, through the factors."""
    grid = build_grid(1, 6) if case != "martingale_d2" else build_grid(2, 3)
    w = random_a2_weight(1, 5, grid)
    if case == "generic":
        T = random_generic(grid, np.random.default_rng(7), count=40)
    elif case == "martingale_d2":       # three terms per cube: K = n - 1
        T = martingale_transform(random_signs(grid, 5), grid)
    elif case == "zero":                # G^T G = 0
        T = zero_shift(grid, 2)
    else:                               # zeroed cubes leave G^T G singular
        rng = np.random.default_rng(3)
        T = masked(random_simple_shift(2, 11, grid),
                   {j: rng.random(grid.level_count(j)) < 0.5 for j in range(grid.N - 1)})
    factors = shifts._low_rank_factors(T, w, dual_weight(w))
    assert (factors.K <= grid.cell_count // 2) == (case in ("zero", "masked"))
    norm = operator_norm(T, w, dual_weight(w), method="dense-svd")
    assert dense_builds["_golub_kahan"] == 1 and dense_builds["dense_matrix"] == 1
    assert norm == pytest.approx(_full_svd_norm(T, w, dual_weight(w)), rel=1e-12, abs=0.0)


def _dense_factors(T, sigma, mu):
    """The n x K factors C, G of M = C G^T as dense arrays: one column per
    (level, term, cube) at col + count * term + cube, holding the expanded
    profile on the cube's cells and zeros elsewhere."""
    grid, tau = T.grid, T.tau
    n, d, N = grid.cell_count, grid.d, grid.N
    K = sum(T.g[j].shape[0] * grid.level_count(j) for j in T.levels)
    a, b = shifts._measure_scalings(grid, sigma, mu)
    C, G = np.zeros((n, K)), np.zeros((n, K))
    rows, col = np.arange(n)[:, None], 0
    for j in T.levels:
        terms, count = T.g[j].shape[:2]
        cols = col + count * np.arange(terms) + ancestor_map(d, N, j)[:, None]
        for F, prof in ((C, T.gamma[j]), (G, T.g[j])):
            F[rows, cols] = expand(scatter_subcells(prof.transpose(1, 2, 0), d, tau),
                                   d, N - j - tau)
        col += terms * count
    return C * b[:, None], G * (a * grid.cell_volume)[:, None]


@st.composite
def factored_cases(draw):
    """A random simple shift on d=1, N <= 7 (tau 1..3, separated or not) or
    d=2, N <= 4, kept on a random subset of its family levels with K <= n/2
    (at d=1, tau=1 that drops level N-1 unless it is alone), possibly with
    some or all cubes' terms zeroed, and each side None, w or its dual."""
    grid = draw(grids())
    tau, seed = draw(st.integers(1, min(grid.N, 3))), draw(SEEDS)
    T = random_simple_shift(tau, seed, grid, separated=draw(st.booleans()))
    levels = sorted(draw(st.sets(st.sampled_from(T.levels), min_size=1)))
    if grid.d == 1 and tau == 1 and len(levels) > 1:
        levels = [j for j in levels if j != grid.N - 1]
    T = SimpleHaarShift(grid, tau, levels, T.g, T.gamma, separated=T.separated, validate=False)
    kind = draw(st.sampled_from(("random", "masked", "zero")))
    rng = np.random.default_rng(seed)
    share = {"random": 1.0, "masked": 0.5, "zero": 0.0}[kind]      # of cubes kept
    keep = {j: rng.random(grid.level_count(j)) < share for j in levels}
    w = random_a2_weight(draw(st.integers(0, 2)), seed, grid)
    sides = st.sampled_from((None, w, dual_weight(w)))
    return masked(T, keep), draw(sides), draw(sides), not all(m.all() for m in keep.values())


@given(factored_cases())
@settings(max_examples=80, deadline=None)
def test_row_sparse_factors_match_the_dense_oracle(case):
    """The row-sparse factors hold the dense factors' nonzeros, and C G^T is
    `dense_matrix`; their products match the dense ones to 1e-14 of
    |C| |G|^T |x|; each Gram matrix lies within gamma_n |F|^T |F| of the exact
    one (an extended-precision product) and so within twice that of the dense
    F^T F, with exact zeros wherever |F|^T |F| is zero, as F^T F has; a
    zeroed cube leaves G^T G singular."""
    T, sigma, mu, zeroed = case
    factors = shifts._low_rank_factors(T, sigma, mu)
    C, G = _dense_factors(T, sigma, mu)
    n, K = C.shape
    assert factors.K == K and K <= n // 2 and factors.cols.shape == factors.C.shape
    for sparse, dense in ((factors.C, C), (factors.G, G)):
        assert np.array_equal(np.take_along_axis(dense, factors.cols, axis=1), sparse)
        assert np.count_nonzero(dense) == np.count_nonzero(sparse)
    M = dense_matrix(T, sigma, mu)
    assert np.all(np.abs(C @ G.T - M) <= 1e-14 * (np.abs(C) @ np.abs(G).T))
    forward, backward = shifts._factor_products(factors)
    x = np.random.default_rng(n + K).standard_normal(n)
    for got, want, scale in ((forward(x), C @ (G.T @ x), np.abs(C) @ (np.abs(G).T @ np.abs(x))),
                             (backward(x), G @ (C.T @ x), np.abs(G) @ (np.abs(C).T @ np.abs(x)))):
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
    gn = shifts._gamma(n)
    for got, F in zip(shifts._factor_grams(factors), (C, G)):
        magnitude = np.abs(F).T @ np.abs(F)
        bound = gn * magnitude / (1.0 - gn)
        exact = F.astype(np.longdouble).T @ F.astype(np.longdouble)
        assert np.all(np.abs(got - exact) <= bound * (1.0 + 1e-9))
        assert np.all(np.abs(got - F.T @ F) <= 2.0 * bound)
        assert not got[magnitude == 0.0].any() and not (F.T @ F)[magnitude == 0.0].any()
    if zeroed:
        with pytest.raises(np.linalg.LinAlgError):
            shifts._factored_gram(factors)
    else:
        H, err = shifts._factored_gram(factors)
        assert H.shape == (K, K) and 0.0 < err < np.inf


@st.composite
def dense_norm_cases(draw):
    """A shift on a grid with d=1, N <= 7 or d=2, N <= 4 (random, zero, or
    random with some cubes' terms zeroed, which leaves it rank-deficient),
    and each side None, a cascade weight w, or its dual."""
    grid = draw(grids())
    seed = draw(SEEDS)
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(("random", "zero", "masked")))
    T = zero_shift(grid, 1) if kind == "zero" else _random_simple(grid, rng)
    if kind == "masked":
        T = masked(T, {j: rng.random(grid.level_count(j)) < 0.5 for j in T.levels})
    w = random_a2_weight(draw(st.integers(0, 2)), seed, grid)
    sides = st.sampled_from((None, w, dual_weight(w)))
    return T, draw(sides), draw(sides)


@given(dense_norm_cases())
@settings(max_examples=80, deadline=None)
def test_dense_norm_matches_full_svd_on_random_pairs(case):
    T, sigma, mu = case
    full = _full_svd_norm(T, sigma, mu)
    assert operator_norm(T, sigma, mu, method="dense-svd") == pytest.approx(
        full, rel=1e-12, abs=0.0)


def _random_weight(grid, rng):
    return random_a2_weight(int(rng.integers(0, 3)), int(rng.integers(0, 2**31)), grid)


def _random_simple(grid, rng):
    tau = int(rng.integers(1, min(grid.N, 3) + 1))
    return random_simple_shift(tau, int(rng.integers(0, 2**31)), grid)


@given(grids(), SEEDS, st.booleans())
@settings(max_examples=30, deadline=None)
def test_dense_norm_equals_dense_norm_of_adjoint(grid, seed, generic):
    rng = np.random.default_rng(seed)
    T = (random_generic if generic else _random_simple)(grid, rng)
    sigma, mu = _random_weight(grid, rng), _random_weight(grid, rng)
    assert operator_norm(T, sigma, mu, "dense-svd") == pytest.approx(
        operator_norm(T.adjoint(), mu, sigma, "dense-svd"), rel=1e-12
    )


@given(grids(), SEEDS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_shift_adjointness(grid, seed, generic):
    rng = np.random.default_rng(seed)
    T = (random_generic if generic else _random_simple)(grid, rng)
    f = GridFunction(grid, rng.standard_normal(grid.cell_count))
    h = GridFunction(grid, rng.standard_normal(grid.cell_count))
    lhs = inner_product(apply_shift(T, f), h)
    rhs = inner_product(f, apply_shift(T.adjoint(), h))
    scale = math.sqrt(inner_product(f, f) * inner_product(h, h))
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


@given(grids(), SEEDS)
@settings(max_examples=40, deadline=None)
def test_dual_weight_is_an_involution(grid, seed):
    w = _random_weight(grid, np.random.default_rng(seed))
    dual = dual_weight(w)
    assert dual_weight(dual) is w
    np.testing.assert_array_equal(dual.values, 1.0 / w.values)
    # a weight rebuilt from the dual's values has no shared cache to lean on
    again = dual_weight(Weight(GridFunction(grid, dual.values)))
    np.testing.assert_allclose(again.values, w.values, rtol=4e-16, atol=0.0)
    assert dual.a2_characteristic() == pytest.approx(w.a2_characteristic(), rel=1e-12)


@pytest.mark.parametrize("d,N", [(1, 6), (2, 3)])
def test_generic_batched_apply_equals_column_stack(d, N):
    grid = build_grid(d, N)
    rng = np.random.default_rng(40 + d)
    T = random_generic(grid, rng, count=40)
    block = rng.standard_normal((grid.cell_count, 7))
    stacked = np.stack([T.apply_values(block[:, i]) for i in range(7)], axis=1)
    batched = T.apply_values(block)
    assert batched.shape == block.shape
    assert np.abs(batched - stacked).max() <= 1e-13 * max(np.abs(stacked).max(), 1.0)
    oracle = generic_dense_matrix(T) @ block
    assert np.abs(batched - oracle).max() <= 1e-13 * max(np.abs(oracle).max(), 1.0)
    np.testing.assert_allclose(T.apply_values(np.zeros((grid.cell_count, 3))), 0.0)


@given(grids(max_n={1: 6, 2: 3}), SEEDS, st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_compiled_generic_dense_matrix_matches_the_entry_oracle(grid, seed, count):
    """The profiles a generic shift compiles into (index min(tau+1, N),
    re-parented and split entries, zero-padded terms) give the matrix of its
    entries, built through `haar_basis`, to 1e-13 relative."""
    T = random_generic(grid, np.random.default_rng(seed), count=count)
    assert isinstance(T, SimpleHaarShift) and T.tau <= grid.N
    oracle = generic_dense_matrix(T)
    assert np.abs(dense_matrix(T) - oracle).max() <= 1e-13 * np.abs(oracle).max()
