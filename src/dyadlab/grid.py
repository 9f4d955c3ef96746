"""Finite dyadic grids on the unit cube [0,1)^d with exact integration.

Everything downstream (weights, shifts, coronas) works with real-valued
functions that are constant on the finest-level cells of a grid, so every
integral is a finite sum and carries no quadrature error.  The module also
provides the Haar system on the grid and a small toolkit of "level array"
operations: a level-j array holds one value per dyadic cube of level j, in
row-major order over the index vectors, and the toolkit moves data between
levels (pooling children into parents, expanding parents onto descendants,
grouping descendants under an ancestor).  These index rules, with descendant
numbering, ancestor lookup and the tensor Haar sign table, live only here, and
so do the witness rule of a cube supremum (`level_argmax`) and the JSON form
of a report with its witness cubes (`report_dict`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

MAX_DEPTH = {1: 24, 2: 12}


class GridError(ValueError):
    """Invalid grid configuration or mismatched grid operands."""


def check_natural(value, name: str, error: type[Exception]) -> int:
    """`value` as an int; raises `error` unless it is a non-negative integer.

    The one rule for seeds and for the integer fields of headers and configs.
    int() would truncate 2.5 and read true as 1, and NumPy's generators refuse
    a negative seed with a bare ValueError, so the type is checked first.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise error(f"{name} must be a non-negative integer, not {value!r}")
    return int(value)


def check_real(value, name: str, error: type[Exception]):
    """`value` itself; raises `error` unless it is a finite real number.

    The one rule for the real parameters of generators and configs.  A bool
    would read as 0 or 1, a string or None would fail later with a bare
    TypeError, and an int too large for a float counts as not finite.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not abs(value) <= sys.float_info.max):       # NaN fails too
        raise error(f"{name} must be a finite number, not {value!r}")
    return value


# ---------------------------------------------------------------------------
# grid and cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicGrid:
    """Dyadic grid on [0,1)^d truncated at depth N (finest cells of side 2^-N)."""

    d: int
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {self.d}")
        if not 1 <= self.N <= MAX_DEPTH[self.d]:
            raise GridError(
                f"depth N={self.N} out of range [1, {MAX_DEPTH[self.d]}] for d={self.d}"
            )

    @property
    def cell_count(self) -> int:
        return 1 << (self.N * self.d)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.N * self.d)

    def level_count(self, level: int) -> int:
        """Number of dyadic cubes at the given level."""
        if not 0 <= level <= self.N:
            raise GridError(f"level {level} out of range [0, {self.N}]")
        return 1 << (level * self.d)

    def root(self) -> "DyadicCube":
        return DyadicCube(self, 0, (0,) * self.d)

    def cube(self, level: int, index) -> "DyadicCube":
        if isinstance(index, int):
            return DyadicCube(self, level, flat_to_index(self.d, level, index))
        return DyadicCube(self, level, tuple(int(i) for i in index))

    def cubes(self, level: int | None = None):
        """Iterate cubes, level ascending then row-major; one level if given."""
        levels = range(self.N + 1) if level is None else (level,)
        for j in levels:
            for flat in range(self.level_count(j)):
                yield DyadicCube(self, j, flat_to_index(self.d, j, flat))


def check_cube(grid: DyadicGrid, cube: "DyadicCube") -> "DyadicCube":
    """`cube` itself; raises GridError unless it is a cube of `grid`."""
    if cube.grid != grid:
        raise GridError(f"{cube!r} is a cube of the d={cube.grid.d}, N={cube.grid.N} "
                        f"grid, not of the d={grid.d}, N={grid.N} grid")
    return cube


def build_grid(d: int, N: int) -> DyadicGrid:
    """Build the dyadic grid on [0,1)^d with 2^(N*d) cells."""
    return DyadicGrid(d, N)


def flat_to_index(d: int, level: int, flat: int) -> tuple[int, ...]:
    if d == 1:
        return (flat,)
    m = 1 << level
    return (flat // m, flat % m)


def index_to_flat(d: int, level: int, index) -> int:
    if d == 1:
        return int(index[0])
    return int(index[0]) * (1 << level) + int(index[1])


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube at (level, index): the product of [k 2^-j, (k+1) 2^-j)."""

    grid: DyadicGrid
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.level <= self.grid.N:
            raise GridError(f"cube level {self.level} out of range")
        if len(self.index) != self.grid.d:
            raise GridError("index length must equal dimension")
        side = 1 << self.level
        if any(not 0 <= k < side for k in self.index):
            raise GridError(f"cube index {self.index} out of range at level {self.level}")

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.grid.d)

    @property
    def flat(self) -> int:
        return index_to_flat(self.grid.d, self.level, self.index)

    def bounds(self) -> tuple[tuple[float, float], ...]:
        s = self.side
        return tuple((k * s, (k + 1) * s) for k in self.index)

    def parent(self, t: int = 1) -> "DyadicCube":
        """The t-fold parent; defined only when level >= t."""
        if t < 0 or self.level - t < 0:
            raise GridError(f"cube at level {self.level} has no {t}-fold parent")
        return DyadicCube(self.grid, self.level - t, tuple(k >> t for k in self.index))

    def child(self, local: int) -> "DyadicCube":
        d = self.grid.d
        if self.level >= self.grid.N:
            raise GridError("cube at finest level has no children")
        if not 0 <= local < (1 << d):
            raise GridError("local child index out of range")
        if d == 1:
            idx = (2 * self.index[0] + local,)
        else:
            idx = (2 * self.index[0] + (local >> 1), 2 * self.index[1] + (local & 1))
        return DyadicCube(self.grid, self.level + 1, idx)

    def children(self) -> list["DyadicCube"]:
        return [self.child(c) for c in range(1 << self.grid.d)]

    def contains(self, other: "DyadicCube") -> bool:
        if other.level < self.level:
            return False
        t = other.level - self.level
        return tuple(k >> t for k in other.index) == self.index

    def cell_slice(self) -> slice:
        """Flat cell range for d=1 cubes (contiguous)."""
        if self.grid.d != 1:
            raise GridError("cell_slice is only defined for d=1")
        w = 1 << (self.grid.N - self.level)
        return slice(self.index[0] * w, (self.index[0] + 1) * w)

    def cell_values(self, cells: np.ndarray) -> np.ndarray:
        """This cube's finest-cell values out of a full cell array (local row-major)."""
        return cube_view(cells, self).reshape(-1)

    def address(self) -> dict:
        return {"level": self.level, "index": list(self.index)}

    def __repr__(self):
        return f"DyadicCube(level={self.level}, index={self.index})"


def report_dict(report):
    """The JSON form of a report: a dataclass's fields by name, a cube as its
    `address()`, lists, tuples and dicts item by item, anything else as is.
    Report classes bind it as their `to_dict`."""
    if isinstance(report, DyadicCube):
        return report.address()
    if is_dataclass(report):
        return {f.name: report_dict(getattr(report, f.name)) for f in fields(report)}
    if isinstance(report, (list, tuple)):
        return [report_dict(v) for v in report]
    if isinstance(report, dict):
        return {k: report_dict(v) for k, v in report.items()}
    return report


def cube_view(cells: np.ndarray, cube: DyadicCube) -> np.ndarray:
    """The cube's finest cells inside a contiguous full cell array, as a view.

    A slice for d=1, a (2^t, 2^t) block for d=2 (t = N - level); writing
    through the view writes into `cells`.
    """
    grid = cube.grid
    if grid.d == 1:
        return cells[cube.cell_slice()]
    m = 1 << grid.N
    w = 1 << (grid.N - cube.level)
    i0, i1 = cube.index
    return cells.reshape(m, m)[i0 * w:(i0 + 1) * w, i1 * w:(i1 + 1) * w]


# ---------------------------------------------------------------------------
# level-array toolkit
# ---------------------------------------------------------------------------

def _side_of(count: int) -> int:
    m = math.isqrt(count)
    if m * m != count:
        raise GridError(f"array of length {count} is not a d=2 level array")
    return m


def pool(arr: np.ndarray, d: int, steps: int = 1) -> np.ndarray:
    """Sum children into parents, repeated `steps` times.

    Accepts a flat level array with any trailing batch shape.  The children
    are added through strided views in one fixed order, c0 + c1 at d=1 and
    (c00 + c01) + (c10 + c11) at d=2 (child (c0, c1) in row c0, column c1),
    so every column of a batch is pooled bit for bit as it would be alone.
    """
    tail = arr.shape[1:]
    for _ in range(steps):
        if d == 1:
            arr = arr[0::2] + arr[1::2]
        else:
            h = _side_of(arr.shape[0]) // 2
            a = arr.reshape((h, 2, h, 2) + tail)
            arr = ((a[:, 0, :, 0] + a[:, 0, :, 1])
                   + (a[:, 1, :, 0] + a[:, 1, :, 1])).reshape((h * h,) + tail)
    return arr


def expand(arr: np.ndarray, d: int, steps: int = 1) -> np.ndarray:
    """Copy parent values onto their depth-`steps` descendants."""
    if steps == 0:
        return arr
    s = 1 << steps
    if d == 1:
        return np.repeat(arr, s, axis=0)
    m = _side_of(arr.shape[0])
    tail = arr.shape[1:]
    a = np.repeat(np.repeat(arr.reshape((m, m) + tail), s, axis=0), s, axis=1)
    return a.reshape((m * m * s * s,) + tail)


def subcell_matrix(arr: np.ndarray, d: int, t: int) -> np.ndarray:
    """Group a level-j array by level-(j-t) ancestors.

    Returns shape (count(j-t), 2^(t*d)) with columns in local row-major
    order, matching profile storage in shifts; a trailing batch shape, empty
    or not, is carried through.
    """
    s = 1 << t
    tail = arr.shape[1:]
    if d == 1:
        return arr.reshape((arr.shape[0] >> t, s) + tail)
    h = _side_of(arr.shape[0]) >> t
    a = arr.reshape((h, s, h, s) + tail).swapaxes(1, 2)
    return a.reshape((h * h, s * s) + tail)


def scatter_subcells(mat: np.ndarray, d: int, t: int) -> np.ndarray:
    """Inverse of subcell_matrix: lay rows back out as a flat level array."""
    s = 1 << t
    tail = mat.shape[2:]
    if d == 1:
        return mat.reshape((-1,) + tail)
    h = math.isqrt(mat.shape[0])
    a = mat.reshape((h, h, s, s) + tail).swapaxes(1, 2)
    return a.reshape((h * s * h * s,) + tail)


def ancestor_map(d: int, j_from: int, j_to: int) -> np.ndarray:
    """Flat index of the level-j_to ancestor for every level-j_from cube."""
    if j_to > j_from:
        raise GridError("ancestor level must not exceed descendant level")
    return ancestor_flat(d, j_from, j_to, np.arange(1 << (j_from * d)))


def ancestor_flat(d: int, j_from, j_to: int, flat) -> np.ndarray:
    """Flat level-j_to index of the ancestor of each level-j_from cube `flat`
    (j_from >= j_to); `j_from` and `flat` broadcast."""
    t = j_from - j_to
    if d == 1:
        return flat >> t
    m = 1 << j_from
    i0, i1 = flat // m, flat % m
    return (i0 >> t) * (1 << j_to) + (i1 >> t)


def descendant_flat(d: int, j_from: int, j_to: int, base, rel) -> np.ndarray:
    """Flat level-j_to index of each base cube's descendant at local offset rel.

    Local offsets number the depth-(j_to - j_from) descendants of a cube in
    row-major order over their index vectors; base and rel broadcast.
    """
    t = j_to - j_from
    if t < 0:
        raise GridError("descendant level must not precede base level")
    if d == 1:
        return (base << t) + rel
    m_from = 1 << j_from
    i0, i1 = base // m_from, base % m_from
    r0, r1 = rel >> t, rel & ((1 << t) - 1)
    return ((i0 << t) + r0) * (1 << j_to) + (i1 << t) + r1


def descendant_offset(d: int, j_from: int, j_to: int, flat) -> np.ndarray:
    """Local offset of each level-j_to cube `flat` within its level-j_from
    ancestor, in the row-major order of `descendant_flat` (its inverse)."""
    t = j_to - j_from
    if t < 0:
        raise GridError("descendant level must not precede base level")
    low = (1 << t) - 1
    if d == 1:
        return flat & low
    i0, i1 = flat >> j_to, flat & ((1 << j_to) - 1)
    return ((i0 & low) << t) | (i1 & low)


def integral_pyramid(cell_integrals: np.ndarray, d: int, N: int) -> list[np.ndarray]:
    """Per-level cube integrals: pyr[j][k] = sum of cell integrals inside cube k."""
    pyr = [None] * (N + 1)
    pyr[N] = np.asarray(cell_integrals, dtype=np.float64)
    for j in range(N - 1, -1, -1):
        pyr[j] = pool(pyr[j + 1], d)
    return pyr


def suffix_sweep(fields: dict, d: int, N: int, tau: int):
    """Yield (j, S_j) for j = N, ..., 0, where S_j is the cell array of the
    sum of the fields of all family levels >= j.

    `fields[j + tau]` is the level-(j + tau) field of family level j (the
    layout of `SimpleHaarShift.output_fields`).  Each S_j is a fresh array,
    built from S_(j+1) by one expansion and one addition.
    """
    s = np.zeros(1 << (N * d))
    for j in range(N, -1, -1):
        if j + tau in fields:
            s = s + expand(fields[j + tau], d, N - (j + tau))
        yield j, s


def level_argmax(grid: DyadicGrid, rows) -> tuple[float, DyadicCube | None]:
    """Supremum of cube values with its witness: the first cube, in level then
    index order, that attains the maximum; (-inf, None) when nothing is scanned.

    `rows` yields (level, values, flats), one level at a time in ascending
    order; `flats` is None when `values` covers the whole level, else the
    ascending flat indices of the cubes that `values` holds.
    """
    best, where = -np.inf, None
    for j, values, flats in rows:
        if len(values) == 0:
            continue
        k = int(np.argmax(values))
        if values[k] > best:
            best, where = float(values[k]), (j, k if flats is None else int(flats[k]))
    return best, None if where is None else grid.cube(*where)


def assemble_levels(pieces: dict, d: int, N: int) -> np.ndarray | None:
    """Cell array of the sum of expand(pieces[lev], d, N - lev); None if empty.

    Pieces are level arrays keyed by level, with an optional trailing batch
    axis.  They are summed coarse to fine, the running total expanded across
    each gap between levels, so the cost is one expansion per level.
    """
    out, prev = None, None
    for lev in sorted(pieces):
        out = pieces[lev] if out is None else expand(out, d, lev - prev) + pieces[lev]
        prev = lev
    return None if out is None else expand(out, d, N - prev)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

class GridFunction:
    """Real function constant on the finest cells of a grid.

    Values are stored row-major over the cell index vectors and are frozen
    after construction; all integrals are exact finite sums.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: DyadicGrid, values):
        vals = np.array(values, dtype=np.float64).reshape(-1)
        if vals.size != grid.cell_count:
            raise GridError(
                f"expected {grid.cell_count} cell values, got {vals.size}"
            )
        if not np.isfinite(vals).all():
            raise GridError("cell values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @classmethod
    def constant(cls, grid: DyadicGrid, c: float) -> "GridFunction":
        return cls(grid, np.full(grid.cell_count, float(c)))

    @classmethod
    def zeros(cls, grid: DyadicGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.cell_count))

    @classmethod
    def indicator(cls, cube: DyadicCube) -> "GridFunction":
        vals = np.zeros(cube.grid.cell_count)
        cube_view(vals, cube)[...] = 1.0
        return cls(cube.grid, vals)

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def cube_integral(self, cube: DyadicCube) -> float:
        return float(cube.cell_values(self.values).sum() * self.grid.cell_volume)

    def pyramid(self) -> list[np.ndarray]:
        return integral_pyramid(self.values * self.grid.cell_volume, self.grid.d, self.grid.N)

    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum() * self.grid.cell_volume)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def _check(self, other):
        if not isinstance(other, GridFunction) or other.grid != self.grid:
            raise GridError("grid mismatch")


def _measure_cells(grid: DyadicGrid, measure) -> np.ndarray | None:
    """Cell densities of a measure argument: None (Lebesgue), Weight, GridFunction."""
    if measure is None:
        return None
    vals = getattr(measure, "values", None)
    if vals is None:
        raise GridError(f"unsupported measure object {measure!r}")
    vals = np.asarray(vals, dtype=np.float64)
    if vals.size != grid.cell_count:
        raise GridError("grid mismatch between function and measure")
    return vals


def inner_product(f: GridFunction, g: GridFunction, measure=None) -> float:
    """Exact integral of f*g against Lebesgue measure or a weight's measure."""
    if f.grid != g.grid:
        raise GridError("grid mismatch")
    dens = _measure_cells(f.grid, measure)
    prod = f.values * g.values if dens is None else f.values * g.values * dens
    return float(prod.sum() * f.grid.cell_volume)


def l2_norm(f: GridFunction, measure=None) -> float:
    return math.sqrt(max(inner_product(f, f, measure), 0.0))


# ---------------------------------------------------------------------------
# Haar system
# ---------------------------------------------------------------------------

# Tensor Haar sign table, (patterns, children) per dimension.  For d=2 the
# patterns are epsilon = (0,1), (1,0), (1,1), and child (c0,c1), local index
# 2*c0 + c1, has the sign (-1)^(e0*c0 + e1*c1) under epsilon (e0,e1).
_HAAR_SIGNS = {
    1: np.array([[1.0, -1.0]]),
    2: np.array([[1.0, -1.0, 1.0, -1.0],
                 [1.0, 1.0, -1.0, -1.0],
                 [1.0, -1.0, -1.0, 1.0]]),
}


@dataclass(frozen=True)
class HaarFunction:
    """Mean-zero function supported on a cube, constant on its children."""

    cube: DyadicCube
    child_values: tuple[float, ...]

    def __post_init__(self):
        d = self.cube.grid.d
        if len(self.child_values) != (1 << d):
            raise GridError("one value per child required")
        if self.cube.level >= self.cube.grid.N:
            raise GridError("cube at finest level has no children")
        bound = self.cube.volume ** -0.5
        if max(abs(v) for v in self.child_values) > bound * (1 + 1e-12):
            raise GridError("sup norm exceeds |Q|^(-1/2)")
        if abs(sum(self.child_values)) > 1e-12 * max(bound, 1.0):
            raise GridError("child values must sum to zero")

    def as_grid_function(self) -> GridFunction:
        vals = np.zeros(self.cube.grid.cell_count)
        for local, child in enumerate(self.cube.children()):
            cube_view(vals, child)[...] = self.child_values[local]
        return GridFunction(self.cube.grid, vals)


def haar_basis(cube: DyadicCube) -> list[HaarFunction]:
    """Orthonormal Haar functions spanning mean-zero child-constant functions on the cube.

    One function for d=1 (value +|Q|^(-1/2) on the left child, negative on the
    right); three for d=2 in tensor sign-pattern order.
    """
    if cube.level >= cube.grid.N:
        raise GridError("cube at finest level has no Haar functions")
    scale = cube.volume ** -0.5
    return [HaarFunction(cube, tuple((scale * row).tolist()))
            for row in _HAAR_SIGNS[cube.grid.d]]


def haar_coefficient(f: GridFunction, h: HaarFunction) -> float:
    """Exact pairing of f with a Haar function, via child integrals."""
    if f.grid != h.cube.grid:
        raise GridError("grid mismatch")
    total = 0.0
    for local, child in enumerate(h.cube.children()):
        total += h.child_values[local] * f.cube_integral(child)
    return total
