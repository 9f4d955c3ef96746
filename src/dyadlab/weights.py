"""Weights on dyadic grids: A_p characteristics, dual weights, test families.

A Weight wraps a strictly positive cell-constant function and caches the cube
masses w(Q) and the dual masses w^{-1}(Q) on every level, so density scans and
characteristic computations are exact and cheap.  Two generator families are
provided: exact cell averages of power functions x^a (d=1), and a seeded
multiplicative cascade whose realized A2 characteristic is steered into a
dyadic target window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DyadicCube,
    DyadicGrid,
    GridError,
    GridFunction,
    integral_pyramid,
    scatter_subcells,
    subcell_matrix,
)


class WeightError(ValueError):
    """Invalid weight data or parameters."""


class Weight:
    """Strictly positive grid function with cached cube and dual-cube masses."""

    __slots__ = ("base", "meta", "_sums", "_dual_sums", "_dual", "_a2")

    def __init__(self, base, grid: DyadicGrid | None = None, meta: dict | None = None):
        if not isinstance(base, GridFunction):
            if grid is None:
                raise WeightError("grid required when constructing from raw values")
            base = GridFunction(grid, base)
        if base.values.min() <= 0.0:
            raise WeightError("weight values must be strictly positive")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "meta", dict(meta or {}))
        object.__setattr__(self, "_sums", None)
        object.__setattr__(self, "_dual_sums", None)
        object.__setattr__(self, "_dual", None)
        object.__setattr__(self, "_a2", None)

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @property
    def grid(self) -> DyadicGrid:
        return self.base.grid

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    @property
    def sums(self) -> list[np.ndarray]:
        """w(Q) for every cube, as per-level arrays."""
        if self._sums is None:
            g = self.grid
            object.__setattr__(
                self, "_sums", integral_pyramid(self.values * g.cell_volume, g.d, g.N)
            )
        return self._sums

    @property
    def dual_sums(self) -> list[np.ndarray]:
        """w^{-1}(Q) for every cube, as per-level arrays."""
        if self._dual_sums is None:
            g = self.grid
            object.__setattr__(
                self,
                "_dual_sums",
                integral_pyramid(g.cell_volume / self.values, g.d, g.N),
            )
        return self._dual_sums

    def mass(self, cube: DyadicCube) -> float:
        return float(self.sums[cube.level][cube.flat])

    def density(self, cube: DyadicCube) -> float:
        return self.mass(cube) / cube.volume

    def total_mass(self) -> float:
        return float(self.sums[0][0])

    def a2_characteristic(self) -> float:
        if self._a2 is None:
            object.__setattr__(self, "_a2", ap_characteristic(self, 2.0).characteristic)
        return self._a2


def dual_weight(w: Weight) -> Weight:
    """Pointwise reciprocal weight; an exact involution (dual of dual is w itself)."""
    if w._dual is not None:
        return w._dual
    dual = Weight(GridFunction(w.grid, 1.0 / w.values), meta={"family": "dual", "of": w.meta})
    # share the cached pyramids so the pair is exactly consistent
    object.__setattr__(dual, "_sums", w.dual_sums)
    object.__setattr__(dual, "_dual_sums", w.sums)
    object.__setattr__(dual, "_dual", w)
    object.__setattr__(w, "_dual", dual)
    return dual


@dataclass(frozen=True)
class ApReport:
    """Supremum defining the A_p characteristic, with the cube attaining it."""

    p: float
    characteristic: float
    witness: DyadicCube

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "characteristic": self.characteristic,
            "witness": self.witness.address(),
        }


def ap_characteristic(w: Weight, p: float = 2.0) -> ApReport:
    """Maximum over all grid cubes of the A_p product (dyadic characteristic).

    For p=2 this is (w(Q)/|Q|) * (w^{-1}(Q)/|Q|); for general p > 1 the second
    factor is the (p-1) power of the average of w^{-1/(p-1)}.
    """
    if not p > 1.0:
        raise WeightError(f"p must exceed 1, got {p}")
    g = w.grid
    if p == 2.0:
        dual = w.dual_sums
    else:
        cell_int = w.values ** (-1.0 / (p - 1.0)) * g.cell_volume
        dual = integral_pyramid(cell_int, g.d, g.N)
    return _ap_scan(g, p, w.sums, dual)


def two_weight_a2(alpha: Weight, beta: Weight) -> ApReport:
    """sup over cubes of (alpha(Q)/|Q|) * (beta(Q)/|Q|) for a weight pair."""
    if alpha.grid != beta.grid:
        raise GridError("grid mismatch")
    return _ap_scan(alpha.grid, 2.0, alpha.sums, beta.sums)


def _ap_scan(g: DyadicGrid, p: float, sums, other) -> ApReport:
    """Max over all cubes of (sums(Q)/|Q|) * (other(Q)/|Q|)^(p-1), first
    attaining cube in level then index order as witness."""
    best, best_level, best_flat = -np.inf, 0, 0
    for j in range(g.N + 1):
        inv_vol = 2.0 ** (j * g.d)
        prod = (sums[j] * inv_vol) * (other[j] * inv_vol) ** (p - 1.0)
        k = int(np.argmax(prod))
        if prod[k] > best:
            best, best_level, best_flat = float(prod[k]), j, k
    return ApReport(p, best, g.cube(best_level, best_flat))


def power_weight(a: float, grid: DyadicGrid) -> Weight:
    """Discretization of x^a on d=1 grids by exact cell averages.

    The value on [lo, hi) is (hi^(a+1) - lo^(a+1)) / ((a+1)(hi - lo)), which
    keeps every cube mass w(Q) exact.
    """
    if grid.d != 1:
        raise WeightError("power weights are defined for d=1 only")
    if not -1.0 < a < 1.0:
        raise WeightError(f"exponent must lie in (-1, 1), got {a}")
    n = grid.cell_count
    edges = np.arange(n + 1, dtype=np.float64) / n
    prim = edges ** (a + 1.0) / (a + 1.0)
    vals = (prim[1:] - prim[:-1]) * n
    return Weight(GridFunction(grid, vals), meta={"family": "power", "parameters": {"a": a}})


_CASCADE_DELTA_CAP = 0.999


def random_a2_weight(n: float, seed: int, grid: DyadicGrid) -> Weight:
    """Multiplicative cascade weight steered to an A2 characteristic near 2^n.

    Children averages are parent * (1 +/- delta) in balanced pairs, so parent
    averages (hence all cube masses) are preserved exactly.  The signs are
    drawn once from the seed; delta is then found by bisection so the realized
    characteristic lands in [2^(n-1), 2^(n+1)].
    """
    if n < 0:
        raise WeightError("target exponent must be nonnegative")
    d, N = grid.d, grid.N
    rng = np.random.default_rng(seed)
    # one sign per child pair: d=1 has one pair per cube, d=2 has two
    signs = [
        rng.integers(0, 2, size=((1 << (j * d)), 1 << (d - 1))) * 2.0 - 1.0
        for j in range(N)
    ]

    def realize(delta: float) -> Weight:
        avg = np.ones(1)
        for j in range(N):
            pair_factors = 1.0 + delta * signs[j]          # (count_j, 2^(d-1))
            factors = np.concatenate([pair_factors, -pair_factors + 2.0], axis=1)
            child = avg[:, None] * factors                 # (count_j, 2^d) local row-major
            avg = scatter_subcells(child, d, 1)
        return Weight(GridFunction(grid, avg))

    target = 2.0 ** n
    if n == 0:
        w = realize(0.0)
        delta = 0.0
    else:
        hi_char = realize(_CASCADE_DELTA_CAP).a2_characteristic()
        if hi_char < target:
            raise WeightError(
                f"target 2^{n} unreachable at depth {N}: achievable range [1, {hi_char:.6g}]"
            )
        lo, hi = 0.0, _CASCADE_DELTA_CAP
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if realize(mid).a2_characteristic() < target:
                lo = mid
            else:
                hi = mid
        delta = hi
        w = realize(delta)
    char = w.a2_characteristic()
    if not 2.0 ** (n - 1) <= char <= 2.0 ** (n + 1):
        raise WeightError(
            f"bisection failed to land in [2^{n - 1}, 2^{n + 1}]: got {char:.6g}"
        )
    w.meta.update(
        {
            "family": "cascade",
            "parameters": {"n": n, "delta": delta},
            "seed": seed,
            "realized_A2": char,
        }
    )
    return w


def a_infty_modulus(mu: Weight, eps: float) -> float:
    """Largest mass fraction mu(E)/mu(Q) over cubes Q and cell subsets E with |E| <= eps|Q|.

    The extremal E packs the heaviest cells first, which is exact for
    cell-constant measures; the returned eta is the smallest level at which
    "small Lebesgue fraction implies small mu fraction" holds on this grid.
    """
    if not 0.0 < eps < 1.0:
        raise WeightError("eps must lie in (0, 1)")
    g = mu.grid
    cells = mu.values * g.cell_volume
    eta = 0.0
    for j in range(g.N + 1):
        m = 1 << ((g.N - j) * g.d)
        k = int(math.floor(eps * m + 1e-9))
        if k == 0:
            continue
        rows = subcell_matrix(cells, g.d, g.N - j)
        part = np.partition(rows, m - k, axis=1)[:, m - k:]
        frac = part.sum(axis=1) / rows.sum(axis=1)
        eta = max(eta, float(frac.max()))
    return eta
