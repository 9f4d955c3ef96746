"""Operator-level identities and the dense norm oracle against independent checks.

The `dense-svd` norm works on one matrix, Y^ = fl(M W) in the
sigma-weighted Haar basis: it runs the Krylov loop once on Y^, by one gather
and one einsum forward and one einsum and one bincount backward, and
certifies the value s, a lower bound for |M|, on the same Y^.  W, the
constant and the two-point functions of every cube for the masses
m = (a |cell|)^2 in `dense_matrix` coordinates, is orthogonal, so
|M| = |M W|; Y = M W has nonzeros only where a column's support holds the
cell, and Y^T Y only between nested supports, so one Cholesky factorization
of s^2 (1 + eps) I - H^ runs over the tree of supports with no fill.
`_dense_rows` scatters Y^ into an n x n array and is the oracle of its
products, once its columns are renumbered the products' way.  A test-side W
built from its definition (in long double, by the triple product) is the
oracle of the Haar route: it is orthogonal, Y^ lies within rho Z (Z the
shadow, the same construction on absolute values) of M W formed in extended
precision on its slots and is negligible off them, the tree Gram lies within
gamma_n |Y^|^T |Y^| of the exact Y^T Y^ with exact zeros off the nested
pattern, err covers its Gram and Y^ terms, and the tree verdict is
`np.linalg.cholesky`'s on the finest-first permuted dense matrix at
s^2 (1 +- 1e-6).  The norm never builds M: a zero shift is +0.0 with no
Y^ and no Krylov run, an unconverged run raises OperatorNormError, and a
sigma with no two-point basis in floating point raises WeightError.  The
route tests count Y^ builds, Krylov runs, `dense_matrix` and `apply_values`
calls; the suite prefix must certify without M; a tracemalloc guard keeps
a tau=1 N=10 norm below one n x n array; and sigma scaled by 2^+-600 scales
the norm exactly and still certifies.  The property tests cover the oracle
on random grids and weight pairs, the duality identities at d=1 and d=2
(<Tf, g> = <f, T*g> for simple and generic shifts, and the same dense norm
for T and its adjoint), the dual-weight involution, and the profiles a
generic shift compiles into against the matrix of its entries.
"""

import math
import pickle
import tracemalloc
import warnings

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
from dyadlab.weights import WeightError
import dyadlab.experiments as exp
from dyadlab import shifts
from dyadlab.grid import ancestor_flat, ancestor_map, descendant_offset, expand, scatter_subcells

from helpers import generic_dense_matrix, masked, random_generic

MAX_N = {1: 7, 2: 4}
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw, max_n=MAX_N):
    d = draw(st.sampled_from((1, 2)))
    return build_grid(d, draw(st.integers(1, max_n[d])))


def _full_svd_norm(T, sigma, mu):
    return float(np.linalg.svd(shifts.dense_matrix(T, sigma, mu), compute_uv=False)[0])


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


def test_certificate_refuses_a_value_below_the_norm():
    """The tree certificate passes the full SVD's norm and refuses it less
    1e-6, and 0, at tau=1 and tau=2 on 128 cells: 8 and 14 Haar slots a
    cell."""
    for i, slots in ((3, 8), (4, 14)):
        T, sigma, mu = exp.two_weight_instance(i, depth=7)
        s = _full_svd_norm(T, sigma, mu)
        rows = shifts._haar_rows(T, sigma, mu)
        assert rows.Y.shape == rows.Z.shape == (slots, 128)
        assert shifts._certifies(rows, s)
        assert not shifts._certifies(rows, s * (1.0 - 1e-6))
        assert not shifts._certifies(rows, 0.0)


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


def test_suite_prefix_certifies_without_the_eigensolver(dense_builds):
    """Every row, tau=1 included, runs the Krylov loop once and certifies
    without building M, and its value is the full SVD's to 1e-13."""
    for i in range(24):
        T, sigma, mu = exp.two_weight_instance(i)
        dense_builds.update(_golub_kahan=0, dense_matrix=0, apply_values=0)
        norm = operator_norm(T, sigma, mu, method="dense-svd")
        assert dense_builds == {"_golub_kahan": 1, "dense_matrix": 0, "apply_values": 0}, i
        full = _full_svd_norm(T, sigma, mu)
        assert abs(norm - full) <= 1e-13 * full


def test_a_zero_shift_is_plus_zero_with_no_krylov_run(dense_builds, monkeypatch):
    """The zero shift, an empty generic shift and a shift with every cube
    masked have no term whose g and gamma are both nonzero: their dense norm
    is +0.0 with no Y^ build, no Krylov run and no M."""
    builds = []
    monkeypatch.setattr(shifts, "_haar_rows", lambda *args: builds.append(args))
    g = build_grid(1, 6)
    w = random_a2_weight(1, 5, g)
    for T in (zero_shift(g, 2), GenericHaarShift(g, 1, []),
              masked(random_simple_shift(2, 11, g), {})):
        norm = operator_norm(T, w, dual_weight(w), method="dense-svd")
        assert norm == 0.0 and math.copysign(1.0, norm) == 1.0
    assert builds == []
    assert dense_builds == {"_golub_kahan": 0, "dense_matrix": 0, "apply_values": 0}


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_an_unconverged_dense_run_raises(max_iter, monkeypatch):
    """A Krylov loop cut at 1-3 steps raises OperatorNormError under
    `dense-svd` too; for sigma times 4^300, which `_in_window` moves back,
    the bracket is the same times 2^300."""
    monkeypatch.setattr(shifts, "_KRYLOV_STEPS", max_iter)
    T, sigma, mu = exp.two_weight_instance(5, depth=7)
    brackets = []
    for s in (sigma, Weight(np.ldexp(sigma.values, 600), T.grid)):
        with pytest.raises(OperatorNormError) as err:
            operator_norm(T, s, mu, method="dense-svd")
        brackets.append(err.value.bracket)
    assert brackets[0][1] > 0.0
    assert brackets[1] == tuple(None if e is None else 2.0 ** 300 * e for e in brackets[0])


def test_a_refused_certificate_raises_with_the_krylov_value(monkeypatch):
    """A certificate that refuses raises OperatorNormError with bracket
    (None, s), s the Krylov value; for sigma times 4^300 the bracket is
    (None, s 2^300), scaled back like an unconverged run's."""
    T, sigma, mu = exp.two_weight_instance(5, depth=7)
    s = operator_norm(T, sigma, mu, method="dense-svd")
    monkeypatch.setattr(shifts, "_certifies", lambda rows, s: False)
    for k in (0, 300):
        with pytest.raises(OperatorNormError, match="certificate refuses") as err:
            operator_norm(T, Weight(np.ldexp(sigma.values, 2 * k), T.grid), mu,
                          method="dense-svd")
        assert err.value.bracket == (None, s * 2.0 ** k)


def test_operator_norm_error_pickles_with_its_bracket():
    """A worker process sends the error back whole: message and bracket."""
    err = pickle.loads(pickle.dumps(OperatorNormError("no value", bracket=(None, 2.5))))
    assert type(err) is OperatorNormError
    assert (str(err), err.bracket) == ("no value", (None, 2.5))


@pytest.mark.parametrize("case", ["generic", "martingale_d2", "masked"])
def test_the_n_by_n_route_builds_m_once(case, dense_builds):
    """Only the test oracle builds M, once: a generic shift, the d=2
    martingale transform and a masked shift (zeroed cubes, so
    rank-deficient) certify with one Krylov run and no M."""
    grid = build_grid(1, 6) if case != "martingale_d2" else build_grid(2, 3)
    w = random_a2_weight(1, 5, grid)
    sigma, mu = w, dual_weight(w)
    if case == "generic":
        T = random_generic(grid, np.random.default_rng(7), count=40)
    elif case == "martingale_d2":       # three terms per cube
        T = martingale_transform(random_signs(grid, 5), grid)
    else:
        rng = np.random.default_rng(3)
        T = masked(random_simple_shift(2, 11, grid),
                   {j: rng.random(grid.level_count(j)) < 0.5 for j in range(grid.N - 1)})
    norm = operator_norm(T, sigma, mu, method="dense-svd")
    assert dense_builds == {"_golub_kahan": 1, "dense_matrix": 0, "apply_values": 0}
    assert norm == pytest.approx(_full_svd_norm(T, sigma, mu), rel=1e-12, abs=0.0)
    assert dense_builds["dense_matrix"] == 1


def test_a_tau_one_norm_builds_no_n_by_n_array():
    """A tau=1 d=1 N=10 suite row's dense norm peaks below one 1024 x 1024
    float64 array (8 MiB)."""
    T, sigma, mu = exp.two_weight_instance(0)
    assert T.tau == 1 and T.grid.cell_count == 1024
    operator_norm(T, sigma, mu, method="dense-svd")      # warm the caches
    tracemalloc.start()
    try:
        operator_norm(T, sigma, mu, method="dense-svd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 8


@pytest.mark.parametrize("i", [3, 4, 5])
def test_the_certificate_is_scale_safe(i):
    """sigma times 2^+-600 scales the norm by 2^+-300 and still certifies:
    the two-point values are ratios, so nothing over- or underflows, and
    the certificate refuses the scaled value less 1e-9."""
    T, sigma, mu = exp.two_weight_instance(i)
    base = operator_norm(T, sigma, mu, method="dense-svd")
    for k in (600, -600):
        scaled = Weight(sigma.values * 2.0 ** k, T.grid)
        norm = operator_norm(T, scaled, mu, method="dense-svd")
        assert norm == pytest.approx(base * 2.0 ** (k // 2), rel=1e-12, abs=0.0)
        assert not shifts._certifies(shifts._haar_rows(T, scaled, mu), norm * (1.0 - 1e-9))


def _profile_factors(T):
    """The n x K profile matrices Gamma, G0 of T (M = diag(b) Gamma G0^T
    diag(a |cell|)): one column per (level, term, cube) at col + count *
    term + cube, holding the expanded profile on the cube's cells and zeros
    elsewhere."""
    grid, tau = T.grid, T.tau
    n, d, N = grid.cell_count, grid.d, grid.N
    K = sum(T.g[j].shape[0] * grid.level_count(j) for j in T.levels)
    C, G = np.zeros((n, K)), np.zeros((n, K))
    rows, col = np.arange(n)[:, None], 0
    for j in T.levels:
        terms, count = T.g[j].shape[:2]
        cols = col + count * np.arange(terms) + ancestor_map(d, N, j)[:, None]
        for F, prof in ((C, T.gamma[j]), (G, T.g[j])):
            F[rows, cols] = expand(scatter_subcells(prof.transpose(1, 2, 0), d, tau),
                                   d, N - j - tau)
        col += terms * count
    return C, G


def test_a_sigma_with_no_haar_basis_raises_weight_error():
    """Two sibling cells 2^1100 apart in mass overflow the ratio m_B/m_A, so
    sigma has no two-point basis in floating point: `dense-svd` and `auto`
    raise WeightError, and `power-iteration`, which needs no basis, matches
    the full SVD."""
    grid = build_grid(1, 3)
    values = np.ones(grid.cell_count)
    values[:2] = 2.0 ** -550, 2.0 ** 550
    sigma = Weight(values, grid)
    T = random_simple_shift(1, 4, grid)
    for method in ("dense-svd", "auto"):
        with pytest.raises(WeightError, match="sigma has no Haar basis in floating point"):
            operator_norm(T, sigma, None, method=method)
    assert operator_norm(T, sigma, None) == pytest.approx(_full_svd_norm(T, sigma, None),
                                                          rel=1e-12)


@pytest.mark.parametrize("method", ["dense-svd", "power-iteration"])
def test_a_sigma_whose_scaling_overflows_raises_weight_error(method):
    """sigma = (5e-324, 1e308, 1, ...) on 8 cells spans more than the float
    range, so `_in_window` leaves it unmoved and sqrt(sigma/|cell|)
    overflows: either method raises WeightError naming sigma, with no
    overflow warning."""
    grid = build_grid(1, 3)
    values = np.ones(grid.cell_count)
    values[:2] = 5e-324, 1e308
    sigma = Weight(values, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightError, match="sigma"):
            operator_norm(random_simple_shift(1, 4, grid), sigma, None, method=method)


@st.composite
def shift_cases(draw):
    """A shift on d=1, N <= 7 or d=2, N <= 4, and each side None, w or its
    dual: a random simple shift (tau 1..3, separated or not) kept on a
    random subset of its family levels, a generic shift, a martingale
    transform, a random simple shift with some cubes' terms zeroed, or a
    zero shift."""
    grid = draw(grids())
    tau, seed = draw(st.integers(1, min(grid.N, 3))), draw(SEEDS)
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(("random", "generic", "martingale", "masked", "zero")))
    if kind == "generic":
        T = random_generic(grid, rng, count=draw(st.integers(1, 40)))
    elif kind == "martingale":
        T = martingale_transform(random_signs(grid, seed), grid, separated=draw(st.booleans()))
    elif kind == "zero":
        T = zero_shift(grid, tau)
    else:
        T = random_simple_shift(tau, seed, grid, separated=draw(st.booleans()))
        levels = sorted(draw(st.sets(st.sampled_from(T.levels), min_size=1)))
        T = SimpleHaarShift(grid, tau, levels, T.g, T.gamma, separated=T.separated,
                            validate=False)
        if kind == "masked":
            T = masked(T, {j: rng.random(grid.level_count(j)) < 0.5 for j in levels})
    w = random_a2_weight(draw(st.integers(0, 2)), seed, grid)
    sides = st.sampled_from((None, w, dual_weight(w)))
    return T, draw(sides), draw(sides)


# the two-point splits of a cube's children by local row-major offset: at d=2
# the halves by the first index, then each half by the second
SPLITS = {1: [((0,), (1,))], 2: [((0, 1), (2, 3)), ((0,), (1,)), ((2,), (3,))]}


def _exact_haar_basis(grid, sigma):
    """W in long double from its definition: column 0 is the constant
    1/sqrt(m(root)) and column 2^(p d) + E flat(P) + e the two-point function
    (m_B 1_A - m_A 1_B) / sqrt(m_A m_B (m_A + m_B)) of split e of P's
    children, each times a |cell|, for the masses m = (a |cell|)^2."""
    d, N, n = grid.d, grid.N, grid.cell_count
    a, _ = shifts._measure_scalings(grid, sigma, None)
    root = (a * grid.cell_volume).astype(np.longdouble)
    m = root * root
    W = np.zeros((n, n), dtype=np.longdouble)
    W[:, 0] = root / np.sqrt(m.sum())
    for p in range(N):
        cube = ancestor_map(d, N, p)
        child = descendant_offset(d, p, p + 1, ancestor_map(d, N, p + 1))
        for e, (A, B) in enumerate(SPLITS[d]):
            in_a, in_b = np.isin(child, A), np.isin(child, B)
            m_a, m_b = (np.zeros(grid.level_count(p), dtype=np.longdouble) for _ in range(2))
            np.add.at(m_a, cube[in_a], m[in_a])
            np.add.at(m_b, cube[in_b], m[in_b])
            f = np.where(in_a, m_b[cube], 0.0) - np.where(in_b, m_a[cube], 0.0)
            f = f / np.sqrt(m_a * m_b * (m_a + m_b))[cube]
            W[np.arange(n), (1 << (p * d)) + len(SPLITS[d]) * cube + e] = root * f
    return W


def _slot_columns(rows):
    """The column of W that each slot holds at each Morton-ordered cell:
    slot start + E r + e of level p is column 2^(p d) + E flat(P) + e, P the
    r-th level-p cube of the cell's support cube in Morton order (column 0
    for the constant)."""
    d, N, n = rows.grid.d, rows.grid.N, rows.grid.cell_count
    E = len(SPLITS[d])
    cols = np.zeros(rows.Y.shape, dtype=np.intp)
    for p, low, start, stop in rows.levels[1:]:
        # in Morton order a level-p cube's cells are consecutive
        cubes = ancestor_flat(d, N, p, rows.z[-1][::1 << ((N - p) * d)])
        count = 1 << (low * d)
        col = (1 << (p * d)) + E * cubes.reshape(count, -1, 1) + np.arange(E)
        cols[start:stop] = np.repeat(col.reshape(count, -1).T, n // count, axis=1)
    return cols


def _dense_rows(rows):
    """Y^, Z and the slot mask of a `_HaarRows` as n x n arrays by cell."""
    n = rows.grid.cell_count
    cols = _slot_columns(rows)
    out = [np.zeros((n, n)) for _ in range(2)] + [np.zeros((n, n), dtype=bool)]
    for F, values in zip(out, (rows.Y, rows.Z, True)):
        F[rows.z[-1][None, :], cols] = values
    return out


def _function_columns(rows):
    """The column of W behind each function coordinate of `_haar_products`
    (level by level, then support cube in Morton order, then slot): a slot
    holds one function on all the cells of its support cube."""
    n, d = rows.grid.cell_count, rows.grid.d
    cols = _slot_columns(rows)
    return np.concatenate([cols[start:stop, ::n >> (low * d)].T.ravel()
                           for _, low, start, stop in rows.levels])


@given(shift_cases())
@settings(max_examples=80, deadline=None)
def test_haar_products_match_the_dense_oracle(case):
    """The function coordinates number the columns of Y^ one to one, and
    the forward and backward products are those of the n x n Y^ (cells in
    Morton order, columns renumbered the products' way) to 1e-14 of
    |Y^| |x|."""
    T, sigma, mu = case
    rows = shifts._haar_rows(T, sigma, mu)
    n = T.grid.cell_count
    columns = _function_columns(rows)
    assert np.array_equal(np.sort(columns), np.arange(n))
    Y = _dense_rows(rows)[0][rows.z[-1]][:, columns]
    forward, backward = shifts._haar_products(rows)
    x = np.random.default_rng(n).standard_normal(n)
    for got, A in ((forward(x), Y), (backward(x), Y.T)):
        assert np.all(np.abs(got - A @ x) <= 1e-14 * (np.abs(A) @ np.abs(x)))


@pytest.mark.parametrize("d,N", [(1, 5), (2, 3)])
@pytest.mark.parametrize("tau", [1, 2, 3])
def test_slots_view_is_the_haar_rows_layout(d, N, tau):
    """For every function level p and a <= j <= p (j = 0 for the constant),
    `_slots(Y, level, j, d)[..., q, r, l, e, x]` is Y[..., start + E (r L +
    l) + e, (q A + r) C + x], with A level-j cubes per support cube, L level-p
    cubes per level-j cube and C cells per level-j cube (the `_HaarRows`
    layout), on an unstacked and a stacked Y; a write through it lands in Y
    at exactly those entries."""
    _, levels = shifts._haar_layout(d, N, tau)
    n = 1 << (N * d)
    rng = np.random.default_rng(10 * d + tau)
    for lead in ((), (2,)):
        Y = rng.standard_normal(lead + (levels[-1][3], n))
        for level in levels:
            p, low, start, _ = level
            E = 1 if p < 0 else (1 << d) - 1
            for j in range(low, max(p, 0) + 1):
                A, L, C = 1 << ((j - low) * d), 1 << ((p - j) * d if p >= 0 else 0), n >> (j * d)
                q, r, l, e, x = np.ix_(*(np.arange(k) for k in (1 << (low * d), A, L, E, C)))
                slot, cell = start + E * (r * L + l) + e, (q * A + r) * C + x
                assert np.array_equal(shifts._slots(Y, level, j, d), Y[..., slot, cell])
                got, want = np.zeros_like(Y), np.zeros_like(Y)
                view = shifts._slots(got, level, j, d)
                view[...] = 1.0 + np.arange(view.size).reshape(view.shape)
                want[..., slot, cell] = 1.0 + np.arange(view.size).reshape(view.shape)
                assert np.array_equal(got, want)


def _dense_tree_gram(rows, grams):
    """The tree Gram blocks scattered into an n x n symmetric array, and the
    mask of the entries they hold."""
    n, d = rows.grid.cell_count, rows.grid.d
    cols = _slot_columns(rows)
    H, pattern = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    for (_, low, start, stop), block in zip(rows.levels, grams):
        cells = n >> (low * d)
        for q in range(block.shape[0]):
            here = cols[:stop, q * cells]
            H[np.ix_(here[start:], here)] = block[q]
            H[np.ix_(here[:start], here[start:])] = block[q][:, :start].T
            pattern[np.ix_(here[start:], here)] = pattern[np.ix_(here, here[start:])] = True
    return H, pattern


@given(shift_cases())
@settings(max_examples=50, deadline=None)
def test_haar_route_matches_the_dense_oracle(case):
    """W is orthogonal; Y^ lies within rho Z of M W formed in long double on
    its slots and is negligible off them; the tree Gram lies within
    gamma_n |Y^|^T |Y^| of the exact Y^T Y^, which is zero off its pattern;
    err covers gamma_n ||Y^||^2 + e (2 |Y^| + e), e = rho |Z|; and the tree
    verdict is `np.linalg.cholesky`'s on the finest-first permuted matrix
    at s^2 (1 +- 1e-6)."""
    T, sigma, mu = case
    grid = T.grid
    n, d = grid.cell_count, grid.d
    W = _exact_haar_basis(grid, sigma)
    assert np.abs(W.T @ W - np.eye(n)).max() <= 1e-13
    C, G = _profile_factors(T)
    a, b = shifts._measure_scalings(grid, sigma, mu)
    ld = np.longdouble
    scale = b.astype(ld)[:, None], (a * grid.cell_volume).astype(ld)[None, :]
    M = scale[0] * (C.astype(ld) @ G.astype(ld).T) * scale[1]
    Y = M @ W
    # the long-double rounding, far below rho Z
    slack = 1e-16 * ((scale[0] * (np.abs(C).astype(ld) @ np.abs(G).astype(ld).T) * scale[1])
                     @ np.abs(W))
    rows = shifts._haar_rows(T, sigma, mu)
    got, Z, on = _dense_rows(rows)
    assert np.all(np.abs(got - Y)[on] <= (rows.rho * Z + slack)[on])
    assert np.all(np.abs(Y)[~on] <= slack[~on])
    grams = shifts._tree_gram(rows)
    H, pattern = _dense_tree_gram(rows, grams)
    exact = got.astype(ld).T @ got.astype(ld)
    gn = shifts._gamma(n)
    assert np.all(np.abs(H - exact) <= gn * (np.abs(got).T @ np.abs(got)) * (1.0 + 1e-9))
    assert not exact[~pattern].any()
    norm_y, norm_abs, norm_z = (float(np.linalg.svd(F, compute_uv=False)[0])
                                for F in (got, np.abs(got), Z))
    e = rows.rho * norm_z
    err = shifts._certificate_error(rows)
    assert err >= (gn * norm_abs ** 2 + e * (2.0 * norm_y + e)) * (1.0 - 1e-12)
    s = _full_svd_norm(T, sigma, mu)
    # finest level first: column c is at level (bit_length(c) - 1) // d
    order = np.argsort([-((c.bit_length() - 1) // d) for c in range(n)], kind="stable")
    for t in (s * s * (1.0 + 1e-6), s * s * (1.0 - 1e-6)):
        shifted = t * np.eye(n) - H[np.ix_(order, order)]
        try:
            np.linalg.cholesky(shifted)
            dense = True
        except np.linalg.LinAlgError:
            dense = False
        assert shifts._tree_cholesky(rows, grams, t) == dense == (s > 0.0 and t > s * s)


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
