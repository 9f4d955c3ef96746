"""Weights on dyadic grids: A_p characteristics, dual weights, test families.

A Weight wraps a strictly positive cell-constant function and caches the cube
masses w(Q) and the dual masses w^{-1}(Q) on every level, so density scans and
characteristic computations are exact and cheap.  Two generator families are
provided: exact cell averages of power functions x^a (d=1), and a seeded
multiplicative cascade whose realized A2 characteristic is steered into a
dyadic target window.

The cascade's A2 has a closed form: with e = fl(1 + delta) - 1 every cube at
level j has A2 product (1 - e^2)^-(N-j), whatever the signs and d, up to
rounding.  The bisection decides each step from that closed form and realizes
the weight only when the closed form lies within the relative margin
m = 64 (N+1) eps / (1 - e) of the target, over a hundred times the largest
rounding deviation measured.  Such a step reads the root's product
w(root) w^{-1}(root) instead of scanning every cube whenever
fl((1 - e)(1 + e)) < 1 - 8 m: every computed product lies within m/16 of its
closed form (the tests pin this), so a product at level j >= 1 is at most
(1 - e^2)^j (1 + m/16) < 1 - m/16 times the root's closed form, the computed
root at least 1 - m/16 times it: the root attains the maximum strictly, and
the scan would return its product, the same float.  Targets within about
1e-11 of 1 fail that guard, and their zone steps scan.
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
    ancestor_map,
    check_natural,
    check_real,
    integral_pyramid,
    level_argmax,
    report_dict,
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


def _measure(grid: DyadicGrid, w: Weight | None) -> Weight:
    """w itself, or Lebesgue measure as the constant-one Weight when w is None.

    The one rule for a measure argument of None, shared by `shifts` and
    `estimates`; a Weight of another grid raises GridError.
    """
    if w is not None and w.grid != grid:
        raise GridError("measure lives on another grid")
    return Weight(np.ones(grid.cell_count), grid) if w is None else w


_WINDOW = 128       # measures with every cell value in [2^-128, 2^128] are used as given


def _in_window(w: Weight | None) -> tuple[Weight | None, int]:
    """(w, 0) when w is None or every cell value lies in [2^-_WINDOW, 2^_WINDOW];
    else (w 4^-k, k), the exact power of four that centres the binary
    exponents of its smallest and largest cell values on zero.

    A norm or testing constant of f -> T(sigma f) from L2(sigma) to L2(mu) is
    sqrt(c_sigma c_mu) times the one of (sigma, mu) for (c_sigma sigma,
    c_mu mu), so `shifts._window` moves both measures into the window, for
    the norms and the testing constants alike, and the caller multiplies by
    2^(k_sigma + k_mu) (`_times_two_to`): squares of norms neither overflow
    nor become subnormal.  A measure whose values span more than the window
    stays as it is when the move would leave a value out of the normal range.
    """
    if w is None:
        return w, 0
    lo, hi = float(w.values.min()), float(w.values.max())
    if 2.0 ** -_WINDOW <= lo and hi <= 2.0 ** _WINDOW:
        return w, 0
    e_lo, e_hi = math.frexp(lo)[1], math.frexp(hi)[1]
    k = (e_lo + e_hi + 2) // 4
    if k == 0 or e_lo - 2 * k < -1021 or e_hi - 2 * k > 1024:
        return w, 0
    return Weight(np.ldexp(w.values, -2 * k), w.grid), k


def _times_two_to(value: float, k: int) -> float:
    """value 2^k, exact (inf if it overflows)."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, k))


@dataclass(frozen=True)
class ApReport:
    """Supremum defining the A_p characteristic, with the cube attaining it."""

    p: float
    characteristic: float
    witness: DyadicCube

    to_dict = report_dict


def ap_characteristic(w: Weight, p: float = 2.0) -> ApReport:
    """Maximum over all grid cubes of the A_p product (dyadic characteristic).

    For p=2 this is (w(Q)/|Q|) * (w^{-1}(Q)/|Q|); for general p > 1 the second
    factor is the (p-1) power of the average of w^{-1/(p-1)}.
    """
    if not 1.0 < p < math.inf:          # NaN fails too
        raise WeightError(f"p must be finite and exceed 1, got {p}")
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
    """Max over all cubes of (sums(Q)/|Q|) * (other(Q)/|Q|)^(p-1), with the
    witness of `grid.level_argmax`."""
    def rows():
        for j in range(g.N + 1):
            inv_vol = 2.0 ** (j * g.d)
            yield j, (sums[j] * inv_vol) * (other[j] * inv_vol) ** (p - 1.0), None

    return ApReport(p, *level_argmax(g, rows()))


def power_weight(a: float, grid: DyadicGrid) -> Weight:
    """Discretization of x^a on d=1 grids by exact cell averages.

    The value on [lo, hi) is (hi^(a+1) - lo^(a+1)) / ((a+1)(hi - lo)), which
    keeps every cube mass w(Q) exact.
    """
    if grid.d != 1:
        raise WeightError("power weights are defined for d=1 only")
    if not -1.0 < check_real(a, "exponent", WeightError) < 1.0:
        raise WeightError(f"exponent must lie in (-1, 1), got {a}")
    n = grid.cell_count
    edges = np.arange(n + 1, dtype=np.float64) / n
    prim = edges ** (a + 1.0) / (a + 1.0)
    vals = (prim[1:] - prim[:-1]) * n
    return Weight(GridFunction(grid, vals), meta={"family": "power", "parameters": {"a": a}})


_CASCADE_DELTA_CAP = 0.999
_EPS = float(np.finfo(np.float64).eps)


def _cascade_a2_closed_form(delta: float, N: int) -> float:
    """(1 - e^2)^-N with e = fl(1 + delta) - 1: the cascade's A2 in exact arithmetic.

    Every child pair realizes as (1 + e, 1 - e), up to rounding, so a cube's
    w-average is its ancestor product and its w^{-1}-average is the inverse
    ancestor product times (1 - e^2)^-(levels below it); the ancestor factors
    cancel and the root attains the maximum.  1 - e and 1 + e are exact.
    """
    e = (1.0 + delta) - 1.0
    return ((1.0 - e) * (1.0 + e)) ** -N


def _cascade_a2_margin(delta: float, N: int) -> float:
    """Relative distance within which the computed A2 may differ from the closed form.

    Each of the N+1 levels adds a few rounding errors of relative size eps;
    the - pairs round 1 - delta and 1 + delta separately, which perturbs
    1 / ((1 - e)(1 + e)) by up to eps / (1 - e) per level.  The largest
    deviation measured is (N+1) eps / (1 - e) / 2, so the 64 leaves a factor
    of over 100.
    """
    e = (1.0 + delta) - 1.0
    return 64.0 * (N + 1) * _EPS / (1.0 - e)


def random_a2_weight(n: float, seed: int, grid: DyadicGrid) -> Weight:
    """Multiplicative cascade weight steered to an A2 characteristic near 2^n.

    Children averages are parent * (1 +/- delta) in balanced pairs, so parent
    averages (hence all cube masses) are preserved exactly.  The signs are
    drawn once from the seed; delta is then found by a 60-step bisection on
    [0, _CASCADE_DELTA_CAP] so the realized characteristic lands in
    [2^(n-1), 2^(n+1)].

    Each bisection step asks whether A2(delta) < 2^n.  In exact arithmetic the
    answer depends on delta alone: A2 = (1 - e^2)^-N with e = fl(1 + delta) - 1,
    whatever the signs and d.  A step therefore realizes the weight only when
    that closed form lies within m = _cascade_a2_margin of the target, where
    rounding could decide.  There, if fl((1 - e)(1 + e)) < 1 - 8 m, the root
    strictly dominates every other cube (see the module docstring), so the
    step compares w(root) w^{-1}(root), the float the full scan would return;
    otherwise it scans.  Every decision, and hence the weight, delta and meta,
    is the one the full scan gives.  The same rule settles reachability at
    the cap, and the loop ends once the bracket holds two adjacent floats,
    after which every step would repeat.  The weight last realized at the
    upper end is the one returned, and its realized_A2 is one full scan.
    A realization is one gather per level: each cube's parent average times
    its factor, the products of `scatter_subcells`'s layout in flat order.
    """
    if check_real(n, "target exponent", WeightError) < 0:
        raise WeightError("target exponent must be nonnegative")
    try:
        target = 2.0 ** n
    except OverflowError:
        target = math.inf
    if not math.isfinite(target):
        raise WeightError(f"target exponent must be finite with 2^n representable, got {n}")
    d, N = grid.d, grid.N
    seed = check_natural(seed, "seed", WeightError)
    rng = np.random.default_rng(seed)
    # one sign draw per child pair (d=1 has one pair per cube, d=2 has two):
    # draw 1 gives the pair (1 + delta, 2 - (1 + delta)), draw 0 gives
    # (1 - delta, 2 - (1 - delta)); steps[j] holds each level-(j+1) cube's
    # parent and the code of its factor in that four-entry table, in flat order
    steps = []
    for j in range(N):
        up = rng.integers(0, 2, size=(1 << (j * d), 1 << (d - 1)))
        pick = np.concatenate([2 - 2 * up, 3 - 2 * up], axis=1)
        steps.append((ancestor_map(d, j + 1, j), scatter_subcells(pick, d, 1)))

    def realize(delta: float) -> Weight:
        plus, minus = 1.0 + delta, 1.0 - delta
        table = np.array([plus, 2.0 - plus, minus, 2.0 - minus])
        avg = np.ones(1)
        for parent, code in steps:
            avg = avg[parent] * table[code]
        return Weight(GridFunction(grid, avg))

    def below_target(delta: float) -> tuple[bool, Weight | None]:
        """Whether realize(delta) has A2 below the target, and that weight if
        the closed form could not decide and it had to be realized."""
        closed, margin = _cascade_a2_closed_form(delta, N), _cascade_a2_margin(delta, N)
        if abs(closed - target) > target * margin:
            return closed < target, None
        w = realize(delta)
        e = (1.0 + delta) - 1.0
        if (1.0 - e) * (1.0 + e) < 1.0 - 8.0 * margin:
            # the root attains the scan's maximum strictly: its product is that float
            return float(w.sums[0][0]) * float(w.dual_sums[0][0]) < target, w
        return w.a2_characteristic() < target, w

    if n == 0:
        w = realize(0.0)
        delta = 0.0
    else:
        lo, hi = 0.0, _CASCADE_DELTA_CAP
        below, hi_weight = below_target(hi)
        if below:
            hi_char = (realize(hi) if hi_weight is None else hi_weight).a2_characteristic()
            raise WeightError(
                f"target 2^{n} unreachable at depth {N}: achievable range [1, {hi_char:.6g}]"
            )
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            below, mid_weight = below_target(mid)
            if below:
                lo = mid
            else:
                hi, hi_weight = mid, mid_weight
        delta = hi
        w = realize(delta) if hi_weight is None else hi_weight
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
    cells = mu.sums[g.N]
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
