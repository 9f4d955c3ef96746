"""Operator-level identities and the dense norm oracle against independent checks.

The `dense-svd` norm certifies a Krylov value: s = |M v| for the Ritz vector
v of a Golub-Kahan-Lanczos run on the dense matrix M is a lower bound, and a
Cholesky factorization of s^2 (1 + eps) I - M^T M proves the upper bound;
when the factorization fails, or the Krylov run does not converge, the value
comes from LAPACK's symmetric eigensolver on M^T M instead.  Both paths are
checked against the full SVD of M, the certificate against a value below
the norm, the fallback by counting eigensolver calls, and the fast path by
the suite prefix that must certify without one.  The property tests cover
the oracle on random grids and weight pairs, the duality identities at d=1
and d=2 (<Tf, g> = <f, T*g> for both shift classes, and the same dense norm
for T and its adjoint), and the dual-weight involution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    DyadicCube,
    GenericHaarShift,
    GridFunction,
    OperatorNormError,
    Weight,
    apply_shift,
    build_grid,
    dense_matrix,
    dual_weight,
    inner_product,
    operator_norm,
    random_a2_weight,
    random_simple_shift,
    zero_shift,
)
import dyadlab.experiments as exp
from dyadlab import shifts

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
    T = zero_shift(g, 2)
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
    assert shifts._certifies(gram, s)
    assert not shifts._certifies(gram, s * (1.0 - 1e-6))
    assert not shifts._certifies(gram, 0.0)


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


def test_suite_prefix_certifies_without_the_eigensolver(eigvalsh_calls):
    for i in range(24):
        T, sigma, mu = exp.two_weight_instance(i)
        assert operator_norm(T, sigma, mu, method="dense-svd") > 0.0
    assert eigvalsh_calls == []


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
        T = T.masked({j: rng.random(grid.level_count(j)) < 0.5 for j in T.levels})
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


def _random_generic(grid, rng, count=12):
    """Generic shift with random in-range entries and coefficients up to the bound."""
    tau = int(rng.integers(1, grid.N + 1))
    patterns = max(1, (1 << grid.d) - 1)
    entries = []
    for _ in range(count):
        level = int(rng.integers(0, grid.N))
        src = DyadicCube(grid, level,
                         tuple(int(k) for k in rng.integers(0, 1 << level, grid.d)))
        parent = src.parent(int(rng.integers(0, min(tau, level) + 1)))
        depth = int(rng.integers(0, min(tau, grid.N - 1 - parent.level) + 1))
        dst = DyadicCube(grid, parent.level + depth, tuple(
            (k << depth) + int(rng.integers(0, 1 << depth)) for k in parent.index))
        bound = math.sqrt(src.volume * dst.volume) / parent.volume
        entries.append((parent, (src, int(rng.integers(0, patterns))),
                        (dst, int(rng.integers(0, patterns))),
                        float(rng.uniform(-bound, bound))))
    return GenericHaarShift(grid, tau, entries)


@given(grids(), SEEDS, st.booleans())
@settings(max_examples=30, deadline=None)
def test_dense_norm_equals_dense_norm_of_adjoint(grid, seed, generic):
    rng = np.random.default_rng(seed)
    T = (_random_generic if generic else _random_simple)(grid, rng)
    sigma, mu = _random_weight(grid, rng), _random_weight(grid, rng)
    assert operator_norm(T, sigma, mu, "dense-svd") == pytest.approx(
        operator_norm(T.adjoint(), mu, sigma, "dense-svd"), rel=1e-12
    )


@given(grids(), SEEDS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_shift_adjointness(grid, seed, generic):
    rng = np.random.default_rng(seed)
    T = (_random_generic if generic else _random_simple)(grid, rng)
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
    T = _random_generic(grid, rng, count=40)
    block = rng.standard_normal((grid.cell_count, 7))
    stacked = np.stack([T.apply_values(block[:, i]) for i in range(7)], axis=1)
    batched = T.apply_values(block)
    assert batched.shape == block.shape
    assert np.abs(batched - stacked).max() <= 1e-13 * max(np.abs(stacked).max(), 1.0)
    np.testing.assert_allclose(T.apply_values(np.zeros((grid.cell_count, 3))), 0.0)
