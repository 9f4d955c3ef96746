"""Property tests of the level-array primitives against independent oracles.

Each primitive is checked against a computation that does not use it: level
arrays are carried to the finest level by indexing with `ancestor_map`
instead of `expand`, cube cells are addressed through
`corona._extent_indices` instead of reshaped blocks, descendant numbering is
checked against `DyadicCube.child` chains, batched calls against the
column-by-column stack of 1-D calls, and `level_argmax` against a sort of
every scanned (level, flat, value) triple.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.corona import _extent_indices
from dyadlab.grid import (
    ancestor_map,
    assemble_levels,
    build_grid,
    cube_view,
    descendant_flat,
    descendant_offset,
    expand,
    level_argmax,
    pool,
    scatter_subcells,
    subcell_matrix,
    suffix_sweep,
)

MAX_N = {1: 7, 2: 4}


@st.composite
def grids(draw, max_n=MAX_N):
    d = draw(st.sampled_from((1, 2)))
    return d, draw(st.integers(1, max_n[d]))


def _to_finest(arr, d, level, N):
    """Level-`level` array carried to the cells by ancestor lookup."""
    return arr[ancestor_map(d, N, level)]


@given(grids(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_suffix_sweep_equals_naive_suffix_sums(dn, tau, seed, data):
    d, N = dn
    tau = min(tau, N)
    levels = data.draw(st.sets(st.integers(0, N - tau)))
    rng = np.random.default_rng(seed)
    fields = {j + tau: rng.standard_normal(1 << ((j + tau) * d)) for j in levels}
    swept = list(suffix_sweep(fields, d, N, tau))
    assert [j for j, _ in swept] == list(range(N, -1, -1))
    for j, s in swept:        # every yielded array is kept: none may alias another
        naive = np.zeros(1 << (N * d))
        for k in levels:
            if k >= j:
                naive += _to_finest(fields[k + tau], d, k + tau, N)
        np.testing.assert_allclose(s, naive, rtol=1e-12, atol=1e-12)


@given(grids(), st.booleans(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_assemble_levels_equals_sum_of_expansions(dn, batched, seed, data):
    d, N = dn
    levels = data.draw(st.sets(st.integers(0, N)))
    rng = np.random.default_rng(seed)
    batch = (3,) if batched else ()
    pieces = {lev: rng.standard_normal((1 << (lev * d),) + batch) for lev in levels}
    out = assemble_levels(pieces, d, N)
    if not levels:
        assert out is None
        return
    naive = sum(_to_finest(p, d, lev, N) for lev, p in pieces.items())
    assert out.shape == naive.shape
    np.testing.assert_allclose(out, naive, rtol=1e-12, atol=1e-12)


@given(grids(max_n={1: 4, 2: 4}), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cube_view_writes_the_cube_cells(dn, seed):
    d, N = dn
    grid = build_grid(d, N)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(grid.cell_count)
    for cube in grid.cubes():
        idx = _extent_indices(grid, cube, grid.N)
        local = rng.standard_normal(idx.size)
        via_view = base.copy()
        view = cube_view(via_view, cube)
        view[...] = local.reshape(view.shape)
        via_index = base.copy()
        via_index[idx] = local
        assert np.array_equal(via_view, via_index)
        assert np.array_equal(cube.cell_values(base), base[idx])


@given(grids(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pool_and_expand_are_adjoint(dn, steps, seed):
    d, N = dn
    steps = min(steps, N)
    j = N - steps
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1 << (N * d))
    y = rng.standard_normal(1 << (j * d))
    lhs = float(pool(x, d, steps) @ y)
    rhs = float(x @ expand(y, d, steps))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(x).sum() * np.abs(y).max())


@given(grids(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pool_adds_children_in_its_stated_order(dn, seed):
    """c0 + c1 at d=1 and (c00 + c01) + (c10 + c11) at d=2, children found by
    `descendant_flat`; bitwise, signed zeros included."""
    d, N = dn
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1 << (N * d))
    x[::3] = -0.0
    kids = [x[descendant_flat(d, N - 1, N, np.arange(1 << ((N - 1) * d)), c)]
            for c in range(1 << d)]
    want = kids[0] + kids[1] if d == 1 else (kids[0] + kids[1]) + (kids[2] + kids[3])
    assert pool(x, d).tobytes() == want.tobytes()


@given(grids(max_n={1: 6, 2: 4}), st.data())
@settings(max_examples=60, deadline=None)
def test_descendant_flat_follows_child_chains_in_local_row_major_order(dn, data):
    d, N = dn
    grid = build_grid(d, N)
    j = data.draw(st.integers(0, N))
    t = data.draw(st.integers(0, N - j))
    base = np.arange(grid.level_count(j))
    rels = np.arange(1 << (t * d))
    table = descendant_flat(d, j, j + t, base[:, None], rels)
    for b in base:
        chain = [grid.cube(j, int(b))]
        for _ in range(t):
            chain = [c for q in chain for c in q.children()]
        row_major = sorted(chain, key=lambda c: c.index)
        if t == 1:       # build_corona pairs children with parents in child order
            assert row_major == chain
        assert table[b].tolist() == [c.flat for c in row_major]
        assert [int(descendant_flat(d, j, j + t, b, rel)) for rel in rels] == table[b].tolist()
    # descendant_offset inverts it: each descendant's local offset in its ancestor
    assert np.array_equal(descendant_offset(d, j, j + t, table),
                          np.broadcast_to(rels, table.shape))


@given(grids(), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_primitives_equal_the_column_stack(dn, steps, k, seed):
    d, N = dn
    steps = min(steps, N)
    rng = np.random.default_rng(seed)
    fine = rng.standard_normal((1 << (N * d), k))
    fine[::3] = -0.0
    coarse = fine[:1 << ((N - steps) * d)]
    for op, arr in ((pool, fine), (expand, coarse), (subcell_matrix, fine),
                    (scatter_subcells, subcell_matrix(fine, d, steps))):
        batched = op(arr, d, steps)
        stacked = np.stack([op(arr[..., c], d, steps) for c in range(k)], axis=-1)
        assert batched.shape == stacked.shape
        assert batched.tobytes() == stacked.tobytes()   # bitwise, signed zeros included


@given(grids(max_n={1: 5, 2: 3}), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_level_argmax_witness_is_the_first_maximal_cube(dn, seed, data):
    """Small integer values force ties within and across levels; subset rows
    carry their flat indices."""
    d, N = dn
    grid = build_grid(d, N)
    rng = np.random.default_rng(seed)
    rows, triples = [], []
    for j in sorted(data.draw(st.sets(st.integers(0, N)))):
        vals = rng.integers(-2, 3, size=grid.level_count(j)).astype(np.float64)
        if data.draw(st.booleans()):
            flats = np.flatnonzero(rng.random(vals.size) < 0.5)
            rows.append((j, vals[flats], flats))
        else:
            flats = np.arange(vals.size)
            rows.append((j, vals, None))
        triples += [(j, int(k), vals[k]) for k in flats]
    best, wit = level_argmax(grid, rows)
    if not triples:
        assert best == -np.inf and wit is None
        return
    top = max(v for _, _, v in triples)
    j, k, _ = min((j, k, v) for j, k, v in triples if v == top)
    assert best == top and (wit.level, wit.flat) == (j, k)


def test_level_argmax_ties_and_empty_scans():
    grid = build_grid(2, 2)
    ones = np.ones(4)
    assert level_argmax(grid, []) == (-np.inf, None)
    assert level_argmax(grid, [(1, np.zeros(0), np.zeros(0, int))]) == (-np.inf, None)
    # a tie across levels goes to the coarser level, within a level to the lower index
    best, wit = level_argmax(grid, [(1, ones, None),
                                    (2, np.array([1.0, 2.0, 2.0]), np.array([3, 5, 9]))])
    assert best == 2.0 and (wit.level, wit.flat) == (2, 5)
    best, wit = level_argmax(grid, [(0, np.ones(1), None), (1, ones, None)])
    assert best == 1.0 and (wit.level, wit.flat) == (0, 0)
