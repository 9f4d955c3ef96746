"""Cube, corona, shift and partition queries that only the tests use.

They read the library's own arrays (a corona's anchor arrays and stopping
forest, a shift's profile blocks) and answer one cube at a time, or build a
dense matrix, which the library itself never needs.  A generic shift's
entries also give its matrix directly, through `haar_basis`: the oracle for
the profiles they compile into.  The testing constants have a brute-force
oracle too, one operator application per indicator.
"""

import math

import numpy as np

from dyadlab import (CubeSet, DyadicCube, GenericHaarShift, GridError, GridFunction, ShiftError,
                     SimpleHaarShift, TestingReport, operator_norm)
from dyadlab.corona import CoronaStructureError
from dyadlab.grid import check_cube, haar_basis, integral_pyramid
from dyadlab.weights import _measure
from dyadlab.partition import hilbert_compressed


def cube_set(grid, cubes):
    """The `CubeSet` holding exactly the given cubes."""
    masks = {}
    for c in cubes:
        masks.setdefault(c.level, np.zeros(grid.level_count(c.level), dtype=bool))[c.flat] = True
    return CubeSet(grid, masks)


def total_cube_count(grid):
    return sum(grid.level_count(j) for j in range(grid.N + 1))


def masked(T, level_masks):
    """T with the terms of cubes excluded by per-level boolean masks zeroed;
    a family level without a mask loses every term."""
    g, gamma = {}, {}
    for j in T.levels:
        mask = level_masks.get(j)
        keep = (np.zeros(T.grid.level_count(j), dtype=bool) if mask is None
                else np.asarray(mask, dtype=bool))
        g[j] = T.g[j] * keep[None, :, None]
        gamma[j] = T.gamma[j] * keep[None, :, None]
    return SimpleHaarShift(T.grid, T.tau, T.levels, g, gamma,
                           separated=T.separated, meta=T.meta, validate=False)


def random_generic(grid, rng, count=12):
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


def generic_dense_matrix(T):
    """The cell-value matrix of a generic shift from its entries alone:
    sum of a h_Q'' (x) h_Q' |cell|, each h from `haar_basis`."""
    grid = T.grid
    M = np.zeros((grid.cell_count, grid.cell_count))
    for _, qp, ep, qpp, epp, a in T.entries:
        src = haar_basis(qp)[ep].as_grid_function().values
        dst = haar_basis(qpp)[epp].as_grid_function().values
        M += a * np.outer(dst, src) * grid.cell_volume
    return M


def lambda_of(corona, cube):
    """The minimal stopping cube containing `cube`."""
    check_cube(corona.grid, cube)
    p = int(corona.anchor[cube.level][cube.flat])
    if p < 0:
        raise CoronaStructureError(f"{cube!r} lies outside the top cube")
    return _cubes(corona, [p])[0]


def stopping_parent(corona, cube):
    """The next stopping cube strictly above a stopping cube."""
    if cube.level == corona.top.level:
        return None
    return lambda_of(corona, cube.parent())


def _position(corona, cube):
    """The forest position of a cube, -1 when it is not a stop."""
    check_cube(corona.grid, cube)
    p = int(corona.anchor[cube.level][cube.flat])
    return p if p >= 0 and corona.forest.level[p] == cube.level else -1


def _cubes(corona, positions):
    forest = corona.forest
    return [corona.grid.cube(j, f) for j, f in zip(forest.level[positions].tolist(),
                                                   forest.flat[positions].tolist())]


def stopping_children(corona, cube):
    """Immediate (maximal) stopping descendants of a stopping cube."""
    p = _position(corona, cube)
    return [] if p < 0 else _cubes(corona, np.flatnonzero(corona.forest.parent == p))


def stopping_descendants(corona, cube):
    """All stopping cubes strictly inside a stopping cube."""
    if _position(corona, cube) < 0:
        return []
    return _cubes(corona, np.flatnonzero(corona.stops_under(cube)
                                         & (corona.forest.level > cube.level)))


def alpha_of(strata, cube):
    """The alpha band of a `pn_alpha` partition that holds `cube`."""
    for a, cs in strata.classes.items():
        if cs.contains(cube):
            return a
    raise KeyError(f"{cube!r} not classified")


def compressed_matrix(part, sigma, mu):
    """Dense matrix of f -> P T(sigma f) from L2(sigma) to L2(mu) in
    orthonormal coordinates; the same matrix as `shifts.dense_matrix` when
    the partition is a uniform grid."""
    if part.cell_count > 4096:
        raise ShiftError("dense matrix limited to partitions with at most 4096 cells")
    a, b = np.sqrt(sigma.values), np.sqrt(mu.values)
    return b[:, None] * hilbert_compressed(part, np.diag(a))


def brute_testing_constants(T, sigma, mu):
    """`testing_constants` by one operator application per indicator (small
    grids): each T1-type ratio from T(sigma 1_Q) or T*(mu 1_Q) on Q's cells,
    divided by the square root of the tested mass before it is squared, and
    each WB ratio from the integrals of T(sigma 1_Q'); witnesses are the first
    maximal cube, or pair, in scan order.  The norm is `dense-svd`'s."""
    grid = T.grid
    if grid.cell_count > 4096:
        raise GridError("brute-force testing constants limited to 4096 cells")
    d, N, tau = grid.d, grid.N, T.tau
    sigma, mu = _measure(grid, sigma), _measure(grid, mu)

    def t1_side(op, s, m):
        best, wit = 0.0, grid.root()
        pyrs = {}
        for j in range(N + 1):
            for flat in range(grid.level_count(j)):
                cube = grid.cube(j, flat)
                out = op.apply_values(GridFunction.indicator(cube).values * s.values)
                pyrs[(j, flat)] = integral_pyramid(out * m.sums[N], d, N)
                scaled = cube.cell_values(out) / math.sqrt(s.sums[j][flat])
                ratio = math.sqrt(float((scaled ** 2 * cube.cell_values(m.sums[N])).sum()))
                if ratio > best:
                    best, wit = ratio, cube
        return best, wit, pyrs

    c_t1, wit_t1, pyrs = t1_side(T, sigma, mu)
    c_tstar1, wit_tstar1, _ = t1_side(T.adjoint(), mu, sigma)

    c_wb, wit_wb = 0.0, (grid.root(), grid.root())
    for j in range(N + 1):
        for flat in range(grid.level_count(j)):
            q = grid.cube(j, flat)
            members = [q]
            frontier = [q]
            for _ in range(min(tau - 1, N - j)):
                frontier = [c for f in frontier for c in f.children()]
                members.extend(frontier)
            for qp in members:
                pyr = pyrs[(qp.level, qp.flat)]
                for qs in members:
                    val = abs(pyr[qs.level][qs.flat])
                    den = math.sqrt(sigma.sums[qp.level][qp.flat] * mu.sums[qs.level][qs.flat])
                    if val / den > c_wb:
                        c_wb, wit_wb = val / den, (qp, qs)
    full = operator_norm(T, sigma, mu, method="dense-svd")
    return TestingReport(
        c_wb=c_wb, c_t1=c_t1, c_tstar1=c_tstar1, full_norm=full, tau=T.tau,
        witnesses={"t1": wit_t1, "tstar1": wit_tstar1, "wb": list(wit_wb)},
    )
