"""Cube, corona, shift and partition queries that only the tests use.

They read the library's own arrays (a corona's anchor arrays and stopping
forest, a shift's profile blocks) and answer one cube at a time, or build a
dense matrix, which the library itself never needs.  A generic shift's
entries also give its matrix directly, through `haar_basis`: the oracle for
the profiles they compile into.
"""

import math

import numpy as np

from dyadlab import CubeSet, DyadicCube, GenericHaarShift, ShiftError, SimpleHaarShift
from dyadlab.corona import CoronaStructureError
from dyadlab.grid import check_cube, haar_basis
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
