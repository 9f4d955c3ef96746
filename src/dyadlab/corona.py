"""Stopping-cube (corona) decompositions and density stratifications.

A corona decomposition of a cube family under a top cube, relative to a
weight's measure, is the classical stopping-time construction: starting from
the top, the maximal descendants whose density exceeds four times the current
stopping cube's density become new stopping cubes, recursively.  Every family
cube is assigned to its minimal stopping ancestor, and the fibers of that
assignment partition the family.  The construction gives, by design, the
strict four-fold density drop between nested stopping cubes and the four-fold
density cap inside each corona.

The module also provides the packing and overlap diagnostics of the stopping
family, the Carleson-sum check against the A2 characteristic, and the two
density stratifications used by the quantitative estimates: dyadic classes of
the product density (w(Q)/|Q|)(w^{-1}(Q)/|Q|), and dyadic bands of w-density
relative to a stopping cube.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DyadicCube,
    DyadicGrid,
    GridError,
    descendant_flat,
    expand,
    integral_pyramid,
    level_argmax,
    pool,
)
from .weights import Weight

STOPPING_FACTOR = 4.0


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
    def from_cubes(cls, grid: DyadicGrid, cubes) -> "CubeSet":
        masks = {}
        for c in cubes:
            masks.setdefault(c.level, np.zeros(grid.level_count(c.level), dtype=bool))[
                c.flat
            ] = True
        return cls(grid, masks)

    @classmethod
    def all_under(cls, grid: DyadicGrid, top: DyadicCube,
                  levels=None) -> "CubeSet":
        """All cubes contained in `top`, optionally restricted to given levels."""
        allowed = range(top.level, grid.N + 1) if levels is None else levels
        masks = {}
        for j in allowed:
            if j < top.level:
                continue
            mask = np.zeros(grid.level_count(j), dtype=bool)
            mask[_extent_indices(grid, top, j)] = True
            masks[j] = mask
        return cls(grid, masks)

    def mask(self, level: int) -> np.ndarray:
        m = self.masks.get(level)
        if m is None:
            return np.zeros(self.grid.level_count(level), dtype=bool)
        return m

    def levels(self) -> list[int]:
        return sorted(self.masks)

    def contains(self, cube: DyadicCube) -> bool:
        m = self.masks.get(cube.level)
        return bool(m is not None and m[cube.flat])

    def count(self) -> int:
        return int(sum(m.sum() for m in self.masks.values()))

    def cubes(self) -> list[DyadicCube]:
        out = []
        for j in self.levels():
            for flat in np.nonzero(self.masks[j])[0]:
                out.append(self.grid.cube(j, int(flat)))
        return out

    def intersect(self, other: "CubeSet") -> "CubeSet":
        masks = {}
        for j in self.masks:
            if j in other.masks:
                masks[j] = self.masks[j] & other.masks[j]
        return CubeSet(self.grid, masks)

    def restrict_under(self, top: DyadicCube) -> "CubeSet":
        masks = {}
        for j, m in self.masks.items():
            if j < top.level:
                continue
            keep = np.zeros_like(m)
            idx = _extent_indices(self.grid, top, j)
            keep[idx] = m[idx]
            masks[j] = keep
        return CubeSet(self.grid, masks)


def _extent_indices(grid: DyadicGrid, top: DyadicCube, level: int):
    """Flat level indices of the cubes contained in `top`, in local row-major order."""
    return descendant_flat(grid.d, top.level, level, top.flat,
                           np.arange(1 << ((level - top.level) * grid.d)))


class CoronaDecomposition:
    """Stopping forest over a cube family with the minimal-ancestor assignment.

    `anchor_level[j]` / `anchor_flat[j]` give, for every level-j cube under the
    top, the address of its minimal stopping ancestor (the cube itself when it
    is stopping); entries outside the top are -1.
    """

    def __init__(self, measure: Weight, family: CubeSet, top: DyadicCube,
                 stopping: CubeSet, anchor_level, anchor_flat):
        self.measure = measure
        self.family = family
        self.top = top
        self.stopping = stopping
        self.anchor_level = anchor_level
        self.anchor_flat = anchor_flat
        self._carleson = None

    @property
    def grid(self) -> DyadicGrid:
        return self.measure.grid

    def stopping_cubes(self) -> list[DyadicCube]:
        return self.stopping.cubes()

    def lambda_of(self, cube: DyadicCube) -> DyadicCube:
        lev = int(self.anchor_level[cube.level][cube.flat])
        if lev < 0:
            raise CoronaStructureError(f"{cube!r} lies outside the top cube")
        return self.grid.cube(lev, int(self.anchor_flat[cube.level][cube.flat]))

    def corona_of(self, stopping_cube: DyadicCube) -> CubeSet:
        """Family cubes whose minimal stopping ancestor is the given cube."""
        masks = {}
        for j in self.family.levels():
            if j < stopping_cube.level:
                continue
            sel = (
                self.family.masks[j]
                & (self.anchor_level[j] == stopping_cube.level)
                & (self.anchor_flat[j] == stopping_cube.flat)
            )
            masks[j] = sel
        return CubeSet(self.grid, masks)

    def stopping_parent(self, cube: DyadicCube) -> DyadicCube | None:
        """The next stopping cube strictly above a stopping cube."""
        if cube.level == self.top.level:
            return None
        return self.lambda_of(cube.parent())

    def stopping_children(self, cube: DyadicCube) -> list[DyadicCube]:
        """Immediate (maximal) stopping descendants of a stopping cube."""
        return self._forest().get((cube.level, cube.flat), [])

    def stopping_descendants(self, cube: DyadicCube) -> list[DyadicCube]:
        """All stopping cubes strictly inside a stopping cube."""
        out = []
        frontier = list(self.stopping_children(cube))
        while frontier:
            c = frontier.pop()
            out.append(c)
            frontier.extend(self.stopping_children(c))
        return sorted(out, key=lambda c: (c.level, c.flat))

    def _forest(self):
        if not hasattr(self, "_forest_cache"):
            forest = {}
            for c in self.stopping_cubes():
                parent = self.stopping_parent(c)
                if parent is not None:
                    forest.setdefault((parent.level, parent.flat), []).append(c)
            for v in forest.values():
                v.sort(key=lambda c: (c.level, c.flat))
            self._forest_cache = forest
        return self._forest_cache

    def density(self, cube: DyadicCube) -> float:
        return self.measure.density(cube)

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
        def node(c):
            return {
                "cube": c.address(),
                "density": self.density(c),
                "mass": self.measure.mass(c),
                "children": [node(ch) for ch in self.stopping_children(c)],
            }

        return {
            "top": self.top.address(),
            "stopping_count": self.stopping.count(),
            "family_count": self.family.count(),
            "forest": node(self.top),
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
    """
    grid = mu.grid
    if family.count():
        inside = family.intersect(CubeSet.all_under(grid, top))
        if inside.count() != family.count():
            raise GridError("family must be contained in the top cube")
    dens = [mu.sums[j] * (2.0 ** (j * grid.d)) for j in range(grid.N + 1)]
    allowed = set(range(grid.N + 1)) if stopping_levels is None else set(stopping_levels)

    anchor_level = [np.full(grid.level_count(j), -1, dtype=np.int64)
                    for j in range(grid.N + 1)]
    anchor_flat = [np.full(grid.level_count(j), -1, dtype=np.int64)
                   for j in range(grid.N + 1)]
    stop_masks = {top.level: np.zeros(grid.level_count(top.level), dtype=bool)}
    stop_masks[top.level][top.flat] = True

    anchor_level[top.level][top.flat] = top.level
    anchor_flat[top.level][top.flat] = top.flat
    gov_dens = np.array([dens[top.level][top.flat]])
    gov_lev = np.array([top.level])
    gov_flat = np.array([top.flat])
    idx = np.array([top.flat])
    children = np.arange(1 << grid.d)

    for j in range(top.level + 1, grid.N + 1):
        # children grouped per parent in child order, matching np.repeat
        idx = descendant_flat(grid.d, j - 1, j, idx[:, None], children).reshape(-1)
        gov_dens = np.repeat(gov_dens, 1 << grid.d)
        gov_lev = np.repeat(gov_lev, 1 << grid.d)
        gov_flat = np.repeat(gov_flat, 1 << grid.d)
        here = dens[j][idx]
        if j in allowed:
            is_stop = here > STOPPING_FACTOR * gov_dens
        else:
            is_stop = np.zeros(here.shape, dtype=bool)
        if is_stop.any():
            mask = np.zeros(grid.level_count(j), dtype=bool)
            mask[idx[is_stop]] = True
            stop_masks[j] = mask
            gov_dens = np.where(is_stop, here, gov_dens)
            gov_lev = np.where(is_stop, j, gov_lev)
            gov_flat = np.where(is_stop, idx, gov_flat)
        anchor_level[j][idx] = gov_lev
        anchor_flat[j][idx] = gov_flat

    return CoronaDecomposition(mu, family, top, CubeSet(grid, stop_masks),
                               anchor_level, anchor_flat)


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

    count[j] is the number of stopping cubes containing each level-j cube and
    depth the same per cell: the cells of L with depth > count(L) make up the
    union of its stopping descendants, and count(L) - 1 stops lie above L."""
    grid, stopping = corona.grid, corona.stopping
    d, N, vol = grid.d, grid.N, grid.cell_volume
    counts, depth, prev = {}, None, None
    for j in stopping.levels():
        here = stopping.masks[j].astype(np.float64)
        depth = here if depth is None else expand(depth, d, j - prev) + here
        counts[j], prev = depth, j
    depth = expand(depth, d, N - prev)
    depth_pyr = integral_pyramid(depth * vol, d, N)
    depth2_pyr = integral_pyramid(depth * depth * vol, d, N)

    child_rows, overlap_rows = [], []
    for j, count in counts.items():
        flats = np.nonzero(stopping.masks[j])[0]
        vol_j = 2.0 ** (-j * d)
        covered = pool((depth > expand(count, d, N - j)) * vol, d, N - j)[flats]
        above = count[flats] - 1.0
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


def carleson_check(corona: CoronaDecomposition,
                   constant: float = 16.0 / 9.0) -> CarlesonReport:
    """Worst ratio over all cubes of the stopping mass sum against
    constant * ||w||_A2 * w(Q)."""
    grid = corona.grid
    w = corona.measure
    a2 = w.a2_characteristic()
    arrays = corona.carleson_arrays()
    worst, wit = level_argmax(grid, ((j, arrays[j] / (constant * a2 * w.sums[j]), None)
                                     for j in range(grid.N + 1)))
    return CarlesonReport(worst, constant, a2, wit)


def descendant_mass_drop(corona: CoronaDecomposition) -> float:
    """Worst ratio over stopping L of w(union of strict stopping descendants)
    against (1 - (9/16)/||w||_A2) * w(L)."""
    w = corona.measure
    a2 = w.a2_characteristic()
    factor = 1.0 - (9.0 / 16.0) / a2
    worst = 0.0
    for L in corona.stopping_cubes():
        kids = corona.stopping_children(L)
        covered = sum(w.mass(k) for k in kids)
        bound = factor * w.mass(L)
        if bound > 0:
            worst = max(worst, covered / bound)
    return worst


def corona_invariant_violation(corona: CoronaDecomposition) -> float:
    """Largest violation of the two density constraints (0 when all hold).

    Checks the strict four-fold drop between nested stopping cubes and the
    four-fold cap of every family cube against its assigned stopping cube.
    """
    worst = 0.0
    # four-fold cap inside coronas
    for j in corona.family.levels():
        mask = corona.family.masks[j]
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        dens_here = corona.measure.sums[j][idx] * (2.0 ** (j * corona.grid.d))
        anchors_lev = corona.anchor_level[j][idx]
        anchors_flat = corona.anchor_flat[j][idx]
        for lev in np.unique(anchors_lev):
            sel = anchors_lev == lev
            anchor_dens = corona.measure.sums[int(lev)][anchors_flat[sel]] * (
                2.0 ** (int(lev) * corona.grid.d)
            )
            worst = max(
                worst, float((dens_here[sel] - STOPPING_FACTOR * anchor_dens).max())
            )
    # strict four-fold growth downward along the stopping forest
    for L in corona.stopping_cubes():
        parent = corona.stopping_parent(L)
        if parent is not None:
            gap = STOPPING_FACTOR * corona.density(parent) - corona.density(L)
            worst = max(worst, float(gap) if gap >= 0 else 0.0)
    return worst


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

    def alpha_of(self, cube: DyadicCube) -> int:
        for a, cs in self.classes.items():
            if cs.contains(cube):
                return a
        raise KeyError(f"{cube!r} not classified")


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
