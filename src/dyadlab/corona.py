"""Stopping-cube (corona) decompositions and density stratifications.

A corona decomposition of a cube family under a top cube, relative to a
weight's measure, is the classical stopping-time construction: starting from
the top, the maximal descendants whose density exceeds four times the current
stopping cube's density become new stopping cubes, recursively.  Every family
cube is assigned to its minimal stopping ancestor, and the fibers of that
assignment partition the family.  The construction gives, by design, the
strict four-fold density drop between nested stopping cubes and the four-fold
density cap inside each corona.  `build_corona` numbers the stops as it
finds them: the stopping forest lists them in level then index order with
their stopping parents and depths, and each cube's anchor is the forest
position of its minimal stopping ancestor.  Fibers, exports, packing and
the forest checks all read these two.

The module also provides the packing and overlap diagnostics of the stopping
family, the Carleson-sum check against the A2 characteristic, and the two
density stratifications used by the quantitative estimates: dyadic classes of
the product density (w(Q)/|Q|)(w^{-1}(Q)/|Q|), and dyadic bands of w-density
relative to a stopping cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    DyadicCube,
    DyadicGrid,
    GridError,
    ancestor_flat,
    check_cube,
    descendant_flat,
    flat_to_index,
    expand,
    integral_pyramid,
    level_argmax,
    pool,
)
from .weights import Weight

STOPPING_FACTOR = 4.0
CARLESON_CONSTANT = 16.0 / 9.0     # stopping mass under Q <= this * ||w||_A2 * w(Q)


class CoronaStructureError(RuntimeError):
    """A structural assumption of a corona-based computation was violated."""


class CubeSet:
    """Set of dyadic cubes stored as per-level boolean masks."""

    __slots__ = ("grid", "masks")

    def __init__(self, grid: DyadicGrid, masks: dict[int, np.ndarray] | None = None):
        self.grid = grid
        self.masks = {}
        for j, m in (masks or {}).items():
            m = np.asarray(m, dtype=bool)
            if m.size != grid.level_count(j):
                raise GridError(f"mask size mismatch at level {j}")
            if m.any():
                self.masks[j] = m

    @classmethod
    def empty(cls, grid: DyadicGrid) -> "CubeSet":
        return cls(grid, {})

    @classmethod
    def all_under(cls, grid: DyadicGrid, top: DyadicCube,
                  levels=None) -> "CubeSet":
        """All cubes contained in `top`, optionally restricted to given levels."""
        check_cube(grid, top)
        allowed = range(top.level, grid.N + 1) if levels is None else levels
        masks = {}
        for j in allowed:
            if j >= top.level:
                masks[j] = np.zeros(grid.level_count(j), dtype=bool)
                masks[j][_extent_indices(grid, top, j)] = True
        return cls(grid, masks)

    def mask(self, level: int) -> np.ndarray:
        m = self.masks.get(level)
        return np.zeros(self.grid.level_count(level), dtype=bool) if m is None else m

    def levels(self) -> list[int]:
        return sorted(self.masks)

    def contains(self, cube: DyadicCube) -> bool:
        check_cube(self.grid, cube)
        m = self.masks.get(cube.level)
        return bool(m is not None and m[cube.flat])

    def count(self) -> int:
        return int(sum(m.sum() for m in self.masks.values()))

    def cubes(self) -> list[DyadicCube]:
        cube = self.grid.cube
        return [cube(j, flat) for j in self.levels()
                for flat in np.flatnonzero(self.masks[j]).tolist()]

    def restrict_under(self, top: DyadicCube) -> "CubeSet":
        check_cube(self.grid, top)
        masks = {}
        for j, m in self.masks.items():
            if j >= top.level:
                idx = _extent_indices(self.grid, top, j)
                masks[j] = np.zeros_like(m)
                masks[j][idx] = m[idx]
        return CubeSet(self.grid, masks)


def _extent_indices(grid: DyadicGrid, top: DyadicCube, level: int):
    """Flat level indices of the cubes contained in `top`, in local row-major order."""
    return descendant_flat(grid.d, top.level, level, top.flat,
                           np.arange(1 << ((level - top.level) * grid.d)))


class StoppingForest(NamedTuple):
    """The stops of a corona in level then index order, as parallel arrays.

    A stop's `parent` holds the position of its stopping parent (-1 for the
    top) and `depth` the number of stops above it, so stops of one depth are
    disjoint.
    """

    level: np.ndarray
    flat: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    mass: np.ndarray
    density: np.ndarray


class CoronaDecomposition:
    """Stopping forest over a cube family with the minimal-ancestor assignment.

    `forest` holds the stops; `anchor[j]` gives, for every level-j cube under
    the top, the forest position of its minimal stopping ancestor (the cube
    itself when it is stopping); entries outside the top are -1.
    """

    def __init__(self, measure: Weight, family: CubeSet, top: DyadicCube,
                 stopping: CubeSet, forest: StoppingForest, anchor: list[np.ndarray]):
        self.measure = measure
        self.family = family
        self.top = top
        self.stopping = stopping
        self.forest = forest
        self.anchor = anchor
        self._carleson = None

    @property
    def grid(self) -> DyadicGrid:
        return self.measure.grid

    def stopping_cubes(self) -> list[DyadicCube]:
        return self.stopping.cubes()

    def corona_of(self, stopping_cube: DyadicCube) -> CubeSet:
        """Family cubes whose minimal stopping ancestor is the given cube."""
        j = check_cube(self.grid, stopping_cube).level
        p = self.anchor[j][stopping_cube.flat]
        if p < 0 or self.forest.level[p] != j:     # not a stop
            return CubeSet.empty(self.grid)
        return CubeSet(self.grid, {k: self.fiber_positions(k) == p for k in self.family.levels()})

    def fibers(self) -> list[tuple[DyadicCube, CubeSet]]:
        """(L, corona_of(L)) for every stop L with a nonempty fiber, in level
        then index order."""
        pos = {j: self.fiber_positions(j) for j in self.family.levels()}
        held = np.unique(np.concatenate([[-1], *pos.values()]))[1:]     # drop the -1
        return [(self.grid.cube(j, f), CubeSet(self.grid, {k: q == p for k, q in pos.items()}))
                for p, j, f in zip(held.tolist(), self.forest.level[held].tolist(),
                                   self.forest.flat[held].tolist())]

    def fiber_positions(self, level: int) -> np.ndarray:
        """Per level-j cube, the forest position of the stop whose fiber
        (`corona_of`) holds it; -1 for cubes outside the family."""
        return np.where(self.family.mask(level), self.anchor[level], -1)

    def stops_under(self, cube: DyadicCube) -> np.ndarray:
        """Mask over the forest of the stops contained in `cube`, itself included."""
        level, flat = self.forest[:2]
        out = level >= check_cube(self.grid, cube).level
        out[out] = ancestor_flat(self.grid.d, level[out], cube.level, flat[out]) == cube.flat
        return out

    def carleson_arrays(self) -> list[np.ndarray]:
        """Per level: sum of w(L) over stopping cubes L inside each cube."""
        if self._carleson is None:
            g = self.grid
            acc = None
            arrays = [None] * (g.N + 1)
            for j in range(g.N, -1, -1):
                own = np.where(self.stopping.mask(j), self.measure.sums[j], 0.0)
                acc = own if acc is None else own + pool(acc, g.d)
                arrays[j] = acc
            self._carleson = arrays
        return self._carleson

    def export(self) -> dict:
        """JSON-ready stopping forest with densities."""
        forest = self.forest
        nodes = [{"cube": {"level": j, "index": list(flat_to_index(self.grid.d, j, f))},
                  "density": dens, "mass": mass, "children": []}
                 for j, f, dens, mass in zip(forest.level.tolist(), forest.flat.tolist(),
                                             forest.density.tolist(), forest.mass.tolist())]
        # children of a stop follow it in level then index order
        for node, p in zip(nodes, forest.parent.tolist()):
            if p >= 0:
                nodes[p]["children"].append(node)
        return {
            "top": self.top.address(),
            "stopping_count": self.stopping.count(),
            "family_count": self.family.count(),
            "forest": nodes[0],
        }


def build_corona(mu: Weight, family: CubeSet, top: DyadicCube,
                 stopping_levels=None) -> CoronaDecomposition:
    """Greedy stopping-time decomposition of `family` under `top` for measure mu.

    Scanning top-down in level then index order, a cube becomes stopping when
    its mu-density exceeds four times the density of its current stopping
    ancestor; the scan can be restricted to `stopping_levels` (used when all
    cubes in play live on a scale-separated sublattice).  The top cube is
    always a member of the stopping family.

    The four-fold density cap on corona members is guaranteed for family
    cubes whose level is an allowed stopping level (every level by default);
    restricted scans should pair with families on the same sublattice.

    Each stop gets its forest position when it stops: a level's new stops
    follow the stops above in index order, under the stop that governed
    their parent cube.
    """
    grid = mu.grid
    check_cube(grid, top)
    if family.grid != grid:
        raise GridError("family and measure live on different grids")
    for j, m in family.masks.items():
        if j < top.level or (ancestor_flat(grid.d, j, top.level, np.flatnonzero(m))
                             != top.flat).any():
            raise GridError("family must be contained in the top cube")
    dens = [mu.sums[j] * (2.0 ** (j * grid.d)) for j in range(grid.N + 1)]
    allowed = set(range(grid.N + 1)) if stopping_levels is None else set(stopping_levels)

    anchor = [np.full(grid.level_count(j), -1, dtype=np.int64) for j in range(grid.N + 1)]
    anchor[top.level][top.flat] = 0
    levels, flats, parents, depths = [top.level], [np.array([top.flat])], [[-1]], [[0]]
    count = 1

    # per scanned cube: its governing stop's density, position and depth
    gov_dens = np.array([dens[top.level][top.flat]])
    gov = np.array([0])
    gov_depth = np.array([0])
    idx = np.array([top.flat])
    children = np.arange(1 << grid.d)

    for j in range(top.level + 1, grid.N + 1):
        # children grouped per parent in child order, matching np.repeat
        idx = descendant_flat(grid.d, j - 1, j, idx[:, None], children).reshape(-1)
        gov_dens, gov, gov_depth = (np.repeat(a, 1 << grid.d) for a in (gov_dens, gov, gov_depth))
        here = dens[j][idx]
        new = np.flatnonzero(here > STOPPING_FACTOR * gov_dens) if j in allowed else []
        if len(new):
            # at d=2 the children of one parent are not adjacent in index order
            new = new[np.argsort(idx[new])]
            levels.append(j)
            flats.append(idx[new])
            parents.append(gov[new])
            depths.append(gov_depth[new] + 1)
            gov_dens[new] = here[new]
            gov[new] = np.arange(count, count + new.size)
            gov_depth[new] += 1
            count += new.size
        anchor[j][idx] = gov

    level = np.repeat(levels, [f.size for f in flats])
    flat = np.concatenate(flats)
    mass = np.concatenate([mu.sums[j][f] for j, f in zip(levels, flats)])
    # Weight.density: the mass over the exact volume 2^(-level d)
    forest = StoppingForest(level, flat, np.concatenate(parents), np.concatenate(depths),
                            mass, mass / np.ldexp(1.0, -level * grid.d))
    stopping = CubeSet(grid, {j: np.bincount(f, minlength=grid.level_count(j)) > 0
                              for j, f in zip(levels, flats)})
    return CoronaDecomposition(mu, family, top, stopping, forest, anchor)


@dataclass(frozen=True)
class PackingReport:
    """Worst-case packing and overlap ratios of a stopping family."""

    child_union_ratio: float
    overlap_ratio: float
    child_witness: DyadicCube | None
    overlap_witness: DyadicCube | None


def packing_check(corona: CoronaDecomposition) -> PackingReport:
    """Max over stopping L of |union of immediate stopping descendants| / |L|,
    and of ||sum of indicators of stopping cubes inside L||_2 / |L|^(1/2).

    count(j) is the number of stopping cubes containing each level-j cube,
    the depth of its anchor plus one, and depth = count(N) the same per cell:
    the cells of L with depth > count(L) make up the union of its stopping
    descendants, and count(L) - 1 stops lie above L."""
    grid, forest = corona.grid, corona.forest
    d, N, vol = grid.d, grid.N, grid.cell_volume

    def count(j):
        anchor = corona.anchor[j]
        return np.where(anchor >= 0, forest.depth[anchor] + 1.0, 0.0)

    depth = count(N)
    depth_pyr = integral_pyramid(depth * vol, d, N)
    depth2_pyr = integral_pyramid(depth * depth * vol, d, N)

    child_rows, overlap_rows = [], []
    for j in np.unique(forest.level).tolist():
        flats, here = forest.flat[forest.level == j], count(j)
        vol_j = 2.0 ** (-j * d)
        covered = pool((depth > expand(here, d, N - j)) * vol, d, N - j)[flats]
        above = here[flats] - 1.0
        # ||sum 1_{L' subset L}||_2^2 = int_L (depth - above)^2
        sq = (depth2_pyr[j][flats] - 2.0 * above * depth_pyr[j][flats]
              + above * above * vol_j)
        child_rows.append((j, covered / vol_j, flats))
        overlap_rows.append((j, np.sqrt(np.maximum(sq, 0.0) / vol_j), flats))
    child_ratio, child_wit = level_argmax(grid, child_rows)
    overlap_ratio, overlap_wit = level_argmax(grid, overlap_rows)
    return PackingReport(child_ratio, overlap_ratio, child_wit, overlap_wit)


def carleson_sum(corona: CoronaDecomposition, cube: DyadicCube) -> float:
    """Sum of w(L) over stopping cubes L contained in the given cube."""
    return float(corona.carleson_arrays()[cube.level][cube.flat])


@dataclass(frozen=True)
class CarlesonReport:
    worst_ratio: float
    bound_constant: float
    a2: float
    witness: DyadicCube | None


def carleson_check(corona: CoronaDecomposition) -> CarlesonReport:
    """Worst ratio over all cubes of the stopping mass sum against
    CARLESON_CONSTANT * ||w||_A2 * w(Q)."""
    grid = corona.grid
    w = corona.measure
    a2 = w.a2_characteristic()
    arrays = corona.carleson_arrays()
    bound = CARLESON_CONSTANT * a2
    worst, wit = level_argmax(grid, ((j, arrays[j] / (bound * w.sums[j]), None)
                                     for j in range(grid.N + 1)))
    return CarlesonReport(worst, CARLESON_CONSTANT, a2, wit)


def descendant_mass_drop(corona: CoronaDecomposition) -> float:
    """Worst ratio over stopping L of w(union of strict stopping descendants)
    against (1 - (1/CARLESON_CONSTANT)/||w||_A2) * w(L), 1/CARLESON_CONSTANT = 9/16."""
    w = corona.measure
    a2 = w.a2_characteristic()
    factor = 1.0 - (1.0 / CARLESON_CONSTANT) / a2
    forest = corona.forest
    kids = forest.parent >= 0
    # bincount adds each stop's children one by one in level then index order
    covered = np.bincount(forest.parent[kids], weights=forest.mass[kids],
                          minlength=forest.flat.size)
    bound = factor * forest.mass
    return float(np.append(0.0, covered[bound > 0] / bound[bound > 0]).max())


def corona_invariant_violation(corona: CoronaDecomposition) -> float:
    """Largest violation of the two density constraints (0 when all hold).

    Checks the strict four-fold drop between nested stopping cubes and the
    four-fold cap of every family cube against its assigned stopping cube.
    """
    worst = 0.0
    # four-fold cap inside coronas
    forest = corona.forest
    for j in corona.family.levels():
        pos = corona.fiber_positions(j)
        held = pos >= 0
        gap = (corona.measure.sums[j][held] * (2.0 ** (j * corona.grid.d))
               - STOPPING_FACTOR * forest.density[pos[held]])
        worst = max(worst, float(gap.max()))
    # strict four-fold growth downward along the stopping forest
    kids = forest.parent >= 0
    gap = STOPPING_FACTOR * forest.density[forest.parent[kids]] - forest.density[kids]
    return max(worst, float(np.append(0.0, gap).max()))


# ---------------------------------------------------------------------------
# density stratifications
# ---------------------------------------------------------------------------

@dataclass
class QnPartition:
    """Dyadic classes of the product density (w(Q)/|Q|)(w^{-1}(Q)/|Q|).

    Class n holds the cubes with product in (2^(n-1), 2^n]; class 0 absorbs
    product exactly 1 (the Cauchy-Schwarz floor).
    """

    weight: Weight
    classes: dict[int, CubeSet]
    a2: float

    def n_values(self) -> list[int]:
        return sorted(self.classes)


def qn_partition(w: Weight, levels=None) -> QnPartition:
    """Classify every cube (optionally only given levels) by product density."""
    grid = w.grid
    allowed = range(grid.N + 1) if levels is None else sorted(set(levels))
    masks: dict[int, dict[int, np.ndarray]] = {}
    for j in allowed:
        inv_vol = 2.0 ** (j * grid.d)
        prod = (w.sums[j] * inv_vol) * (w.dual_sums[j] * inv_vol)
        n_arr = np.ceil(np.log2(np.maximum(prod, 1.0)) - 1e-12).astype(int)
        n_arr = np.maximum(n_arr, 0)
        for n in np.unique(n_arr):
            mask = n_arr == n
            masks.setdefault(int(n), {})[j] = mask
    classes = {n: CubeSet(grid, m) for n, m in masks.items()}
    return QnPartition(w, classes, w.a2_characteristic())


@dataclass
class PnAlphaPartition:
    """Dyadic bands of w-density relative to a stopping cube.

    Band alpha holds cubes with density in [2^(1-alpha), 2^(2-alpha)) times
    the stopping cube's density; density at the open top boundary (exactly
    four times) is assigned to alpha = 0, and anything above lands in the
    residue (empty for coronas built with the four-fold cap).
    """

    stopping_cube: DyadicCube
    base_density: float
    classes: dict[int, CubeSet]
    residue: CubeSet
    convention: str = "alpha = max(0, ceil(1 - log2(density ratio))); top boundary to alpha 0"

    def alpha_values(self) -> list[int]:
        return sorted(self.classes)


def pn_alpha(L: DyadicCube, cubes: CubeSet, w: Weight) -> PnAlphaPartition:
    """Stratify the corona of L by dyadic density bands relative to L."""
    grid = w.grid
    base = w.density(L)
    masks: dict[int, dict[int, np.ndarray]] = {}
    residue: dict[int, np.ndarray] = {}
    for j in cubes.levels():
        sel = cubes.masks[j]
        idx = np.nonzero(sel)[0]
        if idx.size == 0:
            continue
        dens = w.sums[j][idx] * (2.0 ** (j * grid.d))
        ratio = dens / base
        alpha = np.ceil(1.0 - np.log2(ratio) - 1e-12).astype(int)
        alpha = np.maximum(alpha, 0)
        over = ratio > STOPPING_FACTOR * (1.0 + 1e-9)
        for a in np.unique(alpha[~over]):
            mask = np.zeros(grid.level_count(j), dtype=bool)
            mask[idx[(alpha == a) & ~over]] = True
            masks.setdefault(int(a), {})[j] = mask
        if over.any():
            mask = np.zeros(grid.level_count(j), dtype=bool)
            mask[idx[over]] = True
            residue[j] = mask
    classes = {a: CubeSet(grid, m) for a, m in masks.items()}
    return PnAlphaPartition(L, base, classes, CubeSet(grid, residue))
