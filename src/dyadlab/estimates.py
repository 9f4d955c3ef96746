"""Quantitative estimates: testing constants, paraproducts, partial-sum
functionals, corona splits, and distributional checks.

The central object is the localized partial sum H(Q0, F) = sum over family
cubes Q inside Q0 of <w, g_Q> gamma_Q, whose weighted norms drive every bound
here.  Every H follows one rule: T's output fields at full pairing with w, once
per call (`_full_fields`; `h_functionals` shares them across many Q0 and cube
sets), zeroed level by level off the kept family cubes (`_restricted`).
All scans share one trick: per-level "suffix" cell arrays accumulate the
output fields of all family levels at or below a level j, so quantities
indexed by every cube of the grid cost O(N 2^(Nd)) in total instead of one
operator application per cube.  Indicator testing (the T1-style and
weak-boundedness constants) works in the sigma-weighted Haar basis of the
Nazarov-Treil-Volberg T1 theorem: one matrix, the shift's in that basis,
Y^ (`shifts._haar_rows`), which the `dense-svd` norm shares, gives
T(sigma 1_Q') through its rows, read through the view that wrote them
(`shifts._slots`), and the coefficients of T*(mu 1_Q) through its column
sums; a brute-force oracle on small grids pins the fast path down in the
tests.

Elsewhere, cube and cell masses come only from a Weight's cached pyramids:
w(Q) is `w.sums`, w^{-1}(Q) is `w.dual_sums`, and the finest level of each
holds the cell masses; the testing constants use the basis's own masses
for sigma and the same expression, `shifts._cube_masses`, for mu.
A measure argument of None means Lebesgue measure;
`weights._measure` resolves it, for this module and `shifts` alike, to the
constant-one Weight.
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
    assemble_levels,
    check_cube,
    descendant_flat,
    expand,
    integral_pyramid,
    level_argmax,
    pool,
    report_dict,
    scatter_subcells,
    subcell_matrix,
    suffix_sweep,
)
from .weights import (Weight, WeightError, _measure, _times_two_to, a_infty_modulus,
                      two_weight_a2)
from .corona import (
    CoronaDecomposition,
    CoronaStructureError,
    CubeSet,
    pn_alpha,
)
from .shifts import (SimpleHaarShift, _cube_masses, _dense_norm, _haar_rows,
                     _measure_scalings, _norm_method, _slots, _weak_type, _window, _zpool,
                     operator_norm)

ESSENCE_T_VALUES = tuple(range(1, 9))   # thresholds K t w(L)/|L| of `essence_check`'s curves
_AB_SPLIT_TOL = 1e-12       # relative spread of H_L on a descendant that is one value
_SUFFICIENCY_EPS = 0.5      # the A-infinity flatness level of `sufficiency_experiment`


# ---------------------------------------------------------------------------
# testing constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestingReport:
    """Two-weight testing constants of a shift against the pair (sigma, mu)."""

    c_wb: float
    c_t1: float
    c_tstar1: float
    full_norm: float
    tau: int
    witnesses: dict

    @property
    def testing_sum(self) -> float:
        return self.c_wb + self.c_t1 + self.c_tstar1

    to_dict = report_dict


def _indicator_sums(rows) -> list:
    """B[k], k = 0..N, in Morton cell order: b T(m 1_Q) / m(Q) on each
    level-k cube Q.  1_Q / m(Q) is w_0 w_0 plus w_P(Q) w_P over Q's
    ancestors P, whose slots Q's cells hold: one running sum per cell."""
    d = rows.grid.d
    B = [rows.w[0][0, 0, 0] * rows.Y[0]]
    for p in range(rows.grid.N):
        slots = _slots(rows.Y, rows.levels[p + 1], p, d)
        count, E = rows.mass[p].size, slots.shape[3]
        coef = rows.w[p + 1][:, 0].reshape(count, 1 << d, E)
        step = np.einsum("qce,qecx->qcx", coef, slots.reshape(count, E, 1 << d, -1))
        B.append(B[-1] + step.ravel())
    return B


def _indicator_fields(rows, B: np.ndarray, j: int, depth: int) -> np.ndarray:
    """b T(m 1_Q') / m(Q') on the cells of each level-j cube Q for each Q' at
    most `depth` < tau levels below, shape (count at j, Q' by depth then Morton
    offset, cells of Q): B[j]'s running sum goes on with Q''s ancestors."""
    count, d = rows.mass[j].size, rows.grid.d
    out = [B.reshape(count, 1, -1)]
    for p in range(j, j + depth):
        coef = rows.w[p + 1][:, 0].reshape(count, out[-1].shape[1], 1 << d, -1)
        slots = _slots(rows.Y, rows.levels[p + 1], j, d)
        step = np.einsum("qlce,qlex->qlcx", coef, slots.reshape((count,) + slots.shape[2:]))
        out.append((out[-1][:, :, None] + step).reshape(count, -1, B.size // count))
    return np.concatenate(out, axis=1)


def _tstar1_values(rows, B: list, mu_mass: list) -> list:
    """||1_Q T*(mu 1_Q)||^2_sigma / mu(Q) for every cube Q, per level in
    Morton order, from Y^ = Y^(T, sigma, mu) and the `_indicator_sums` B.

    The sigma-Haar coefficients of T*(mu 1_Q) are c_P(Q) = sum_{x in Q} b_x
    Y^[x, P].  On Q the functions P inside Q keep theirs, and the ancestors
    and the constant leave one constant, A(Q) = sum_{x in Q} b_x B(x); so
    the norm is sum_{P in Q} c_P(Q)^2 + m(Q) A(Q)^2.  c_P(Q) is a sum over
    Q's cells, pooled level by level, for Q below P's support cube (at most
    tau - 1 levels up), and at or above it P's full column sum, whose squares
    pool upward.  Q's sums are carried times 2^-2e(Q), e(Q) half mu(Q)'s
    binary exponent: exact, and no square overflows unless its value does."""
    d, N = rows.grid.d, rows.grid.N
    e = [np.frexp(m)[1] // 2 for m in mu_mass]
    own, part = ([np.zeros(m.size) for m in mu_mass] for _ in range(2))
    for p, low, start, stop in rows.levels[1:]:
        count, R = 1 << (low * d), 1 << ((p - low) * d)
        # c_P(Q) of each slot on every level-p cube Q of its support cube
        c = (rows.Y[start:stop] * rows.b).reshape(R, -1, count, R, 1 << ((N - p) * d)).sum(4)
        for j in range(p, low - 1, -1):
            if j < p:
                c = c.reshape(R, -1, count, c.shape[3] >> d, 1 << d).sum(4)
            width = c.shape[3]              # level-j cubes in a support cube
            held = np.einsum("aleqa->qale", c.reshape(width, R // width, -1, count, width))
            held = np.ldexp(held, -e[j].reshape(count, width, 1, 1))      # Q holds P
            (own if j == low else part)[j] += np.square(held).reshape(own[j].size, -1).sum(1)
    values = []
    for j in range(N, -1, -1):
        if j < N:                           # the supports below Q
            own[j] += _zpool(np.ldexp(own[j + 1], 2 * (e[j + 1] - np.repeat(e[j], 1 << d))), d)
        A = np.ldexp((rows.b * B[j]).reshape(own[j].size, -1).sum(1), -e[j])
        values.append((own[j] + part[j] + rows.mass[j] * A * A)
                      / np.ldexp(mu_mass[j], -2 * e[j]))
    return values[::-1]


def _supremum(rows, values: list):
    """The square root of the largest of the per-level Morton-order `values`
    and its `level_argmax` witness.  Values within Y^'s rounding bound rho of
    the maximum count as equal to it, so that an exact tie stays a tie."""
    values = [v[np.argsort(z)] for v, z in zip(values, rows.z)]
    top = max(v.max() for v in values)
    best, wit = level_argmax(rows.grid, ((k, np.where(v >= top * (1.0 - rows.rho), top, v), None)
                                         for k, v in enumerate(values)))
    return math.sqrt(max(best, 0.0)), wit


def _wb_supremum(rows, mu_mass: list, B: list, tau: int):
    """C_WB and its witness: sqrt(m(Q')) |sum_{x in Q''} b_x F(x)| / sqrt(mu(Q''))
    is the ratio, F the `_indicator_fields` of Q'; ties as in `_supremum`."""
    grid, d, N = rows.grid, rows.grid.d, rows.grid.N
    morton = [np.argsort(z) for z in rows.z]        # Morton position of each flat index
    depths = range(min(tau, N + 1))
    # cubes under a cube by depth then row-major offset, and their field index
    under = [(e, r) for e in depths for r in range(1 << (e * d))]
    order = np.concatenate([((1 << (e * d)) - 1) // ((1 << d) - 1) + morton[e] for e in depths])
    ratios = []
    for j in range(N + 1):
        count, deep = rows.mass[j].size, min(tau - 1, N - j)
        fields = _indicator_fields(rows, B[j], j, deep) * rows.b.reshape(count, 1, -1)
        width = fields.shape[1]
        ratio = np.concatenate([
            np.abs(fields.reshape(count, width, 1 << (e * d), -1).sum(axis=3))
            / np.sqrt(mu_mass[j + e]).reshape(count, 1, -1) for e in range(deep + 1)], axis=2)
        ratio *= np.concatenate([np.sqrt(rows.mass[j + e]).reshape(count, -1)
                                 for e in range(deep + 1)], axis=1)[:, :, None]
        ratios.append(ratio[np.ix_(morton[j], order[:width], order[:width])].transpose(1, 2, 0))
    best = max(float(r.max()) for r in ratios)
    for j, ratio in enumerate(ratios):
        hits = ratio >= best * (1.0 - rows.rho)
        if hits.any():
            *pair, c = np.unravel_index(np.argmax(hits), hits.shape)
            return best, tuple(grid.cube(j + e, int(descendant_flat(d, j, j + e, int(c), r)))
                               for e, r in (under[k] for k in pair))
    return best, (grid.root(), grid.root())


def testing_constants(T: SimpleHaarShift, sigma: Weight | None, mu: Weight | None,
                      norm_method: str = "auto") -> TestingReport:
    """Weak-boundedness and indicator-testing constants with the full norm.

    C_T1 maximizes ||1_Q T(sigma 1_Q)||_{L2(mu)} / sigma(Q)^(1/2) over all
    cubes; C_T*1 swaps the roles through the adjoint; C_WB maximizes
    |integral over Q'' of T(sigma 1_Q') dmu| / (sigma(Q') mu(Q''))^(1/2) over
    cubes Q', Q'' lying in a common Q at most tau-1 levels up.  Each constant
    is a restricted-supremum lower bound for the norm of f -> T(sigma f) from
    L2(sigma) to L2(mu).

    All three are read from one matrix, the shift's in the sigma-weighted
    Haar basis, Y^(T, sigma, mu) (`shifts._haar_rows`), which the `dense-svd`
    norm shares; C_T*1 from its column sums (`_tstar1_values`).  mu enters
    only through its scalings and cube masses, so a sigma with no Haar basis
    in floats, or a mu with a cell mass that is not a positive normal number,
    raises WeightError naming it.  T1 witnesses follow `level_argmax`; the
    WB witness is the first maximal pair in the order: Q's level, Q' depth
    then offset, Q'' depth then offset, Q's index.
    Like `operator_norm`, it runs in `shifts._window`, which scales a norm
    error's bracket back; the four values are scaled back here.
    """
    grid = T.grid
    with _window(sigma, mu) as (sigma, mu, k):
        rows = _haar_rows(T, sigma, mu)
        mu_mass = _cube_masses(grid, _measure_scalings(grid, mu, sigma)[0][rows.z[-1]])
        if mu_mass is None:
            raise WeightError("mu has a cell mass that is not a positive normal number, "
                              "or a total mass that overflows")
        B = _indicator_sums(rows)
        c_t1, wit_t1 = _supremum(rows, [m * np.square(field).reshape(m.size, -1).sum(1)
                                        for m, field in zip(rows.mass, B)])
        c_tstar1, wit_tstar1 = _supremum(rows, _tstar1_values(rows, B, mu_mass))
        c_wb, wit_wb = _wb_supremum(rows, mu_mass, B, T.tau)
        full = (_dense_norm(T, lambda: rows) if _norm_method(grid, norm_method) == "dense-svd"
                else operator_norm(T, sigma, mu, method=norm_method))
    c_wb, c_t1, c_tstar1, full = (_times_two_to(x, k) for x in (c_wb, c_t1, c_tstar1, full))
    return TestingReport(
        c_wb=c_wb, c_t1=c_t1, c_tstar1=c_tstar1, full_norm=full, tau=T.tau,
        witnesses={"t1": wit_t1, "tstar1": wit_tstar1, "wb": list(wit_wb)},
    )


# ---------------------------------------------------------------------------
# paraproduct
# ---------------------------------------------------------------------------

def _paraproduct(f: GridFunction, T: SimpleHaarShift, sigma: Weight | None, w: Weight):
    """Cell values of P f, with the pieces it pairs: the sigma-averages a[j] of
    f (levels < N) and the w-averages avg[j] of T(sigma 1) (levels <= N)."""
    grid = f.grid
    if grid != T.grid or grid != w.grid:
        raise GridError("grid mismatch")
    d, N = grid.d, grid.N
    sigma = _measure(grid, sigma)
    g_cells = T.apply_values(sigma.values)  # T(sigma 1)
    f_pyr = integral_pyramid(f.values * sigma.sums[N], d, N)
    a = [f_pyr[j] / sigma.sums[j] for j in range(N)]
    g_pyr = integral_pyramid(g_cells * w.sums[N], d, N)
    avg = [g_pyr[j] / w.sums[j] for j in range(N + 1)]
    out = np.zeros(grid.cell_count)
    for j in range(N):
        diff = expand(avg[j + 1], d, N - (j + 1)) - expand(avg[j], d, N - j)
        out += expand(a[j], d, N - j) * diff
    return out, a, avg


def paraproduct_apply(f: GridFunction, T: SimpleHaarShift, sigma: Weight | None,
                      w: Weight) -> GridFunction:
    """Paraproduct pairing sigma-averages of f with the w-martingale
    differences of T(sigma 1), summed over all cubes with children."""
    return GridFunction(f.grid, _paraproduct(f, T, sigma, w)[0])


def paraproduct_identity(f: GridFunction, T: SimpleHaarShift, sigma: Weight | None,
                         w: Weight) -> tuple[float, float]:
    """Both sides of ||P f||^2_{L2(w)} = sum_Q a_Q^2 ||D_Q^w T(sigma 1)||^2_{L2(w)}."""
    d, N = f.grid.d, f.grid.N
    out, a, avg = _paraproduct(f, T, sigma, w)
    lhs = float((out ** 2 * w.sums[N]).sum())
    rhs = 0.0
    for j in range(N):
        diff = avg[j + 1] - expand(avg[j], d, 1)
        normsq = pool(w.sums[j + 1] * diff * diff, d, 1)
        rhs += float((a[j] ** 2 * normsq).sum())
    return lhs, rhs


# ---------------------------------------------------------------------------
# localized partial sums H and their suprema
# ---------------------------------------------------------------------------

def _full_fields(T: SimpleHaarShift, w: Weight, *cube_sets: CubeSet):
    """T's pairing coefficients with w and their output fields over every
    family cube; w is checked by `_measure`'s rule, and a cube set from
    another grid than T's raises GridError."""
    if any(c.grid != T.grid for c in cube_sets):
        raise GridError("shift and cube set live on different grids")
    coeffs = T.pairing_coefficients(_measure(T.grid, w).sums)
    return coeffs, T.output_fields(coeffs)


def _restricted(T: SimpleHaarShift, fields: dict, keep) -> dict:
    """The one restriction rule for a partial sum H: the `_full_fields` fields
    zeroed off the level-a family cubes where `keep(a)` is false, on the
    levels that keep any.  Kept cells carry the full fields' own bits."""
    d, tau = T.grid.d, T.tau
    return {a + tau: np.where(expand(m, d, tau), fields[a + tau], 0.0)
            for a in T.levels if (m := keep(a)).any()}


def _h_cells(T: SimpleHaarShift, fields: dict, keep) -> np.ndarray:
    """Cell values of the partial sum H over the cubes `keep` selects."""
    out = assemble_levels(_restricted(T, fields, keep), T.grid.d, T.grid.N)
    return np.zeros(T.grid.cell_count) if out is None else out


def h_functional(Q0: DyadicCube, cubes: CubeSet, T: SimpleHaarShift,
                 w: Weight) -> GridFunction:
    """Partial sum of <w, g_Q> gamma_Q over family cubes in `cubes` inside Q0."""
    return h_functionals([(Q0, cubes)], T, w)[0]


def h_functionals(pairs, T: SimpleHaarShift, w: Weight) -> list[GridFunction]:
    """`h_functional` of each (Q0, cubes) pair, from T's fields computed once."""
    pairs = list(pairs)
    _, fields = _full_fields(T, w, *(cubes for _, cubes in pairs))
    return [GridFunction(T.grid, _h_cells(T, fields, cubes.restrict_under(Q0).mask))
            for Q0, cubes in pairs]


@dataclass(frozen=True)
class BoldHReport:
    value: float
    witness: DyadicCube | None


def bold_h(cubes: CubeSet, T: SimpleHaarShift, w: Weight) -> BoldHReport:
    """sup over Q0 in `cubes` of ||H(Q0, cubes)||_{L2(w^{-1})} / w(Q0)^(1/2)."""
    d, N = T.grid.d, T.grid.N
    _, fields = _full_fields(T, w, cubes)
    dual_cells = w.dual_sums[N]

    def rows():
        for j, s in suffix_sweep(_restricted(T, fields, cubes.mask), d, N, T.tau):
            flats = np.flatnonzero(cubes.mask(j))
            if flats.size:
                yield j, (pool(s * s * dual_cells, d, N - j) / w.sums[j])[flats], flats

    best, wit = level_argmax(T.grid, rows())
    return BoldHReport(math.sqrt(max(best, 0.0)), wit)


# ---------------------------------------------------------------------------
# corona split A + 2B
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ABSplitReport:
    a_part: float
    b_part: float
    stopping_count: int
    single_value_dev: float


def corona_ab_split(Q0: DyadicCube, n: int, corona: CoronaDecomposition,
                    T: SimpleHaarShift, w: Weight) -> ABSplitReport:
    """Diagonal and off-diagonal parts of the stopping-family square expansion.

    A sums ||H_L||^2_{L2(w^{-1})} over stopping cubes; B sums the pairwise
    integrals of |H_L| against |H_L'| for nested stopping pairs.  Requires a
    scale-separated setup so H_L is single-valued on each strict stopping
    descendant; a violation raises CoronaStructureError.

    H_L is `h_functional(L, corona.corona_of(L), T, w)`: T's output fields,
    computed once, restricted to L's fiber and assembled.  Stops, stopping
    parents and depths are read from `corona.forest`, each family cube's stop
    from `fiber_positions`.  Stops of one forest depth are disjoint, so one
    assembly per depth holds all of their H_L.  A
    term is the pair (L, L), and every term sums the same cells in the same
    order as a stop-by-stop loop; A and B add the terms up in that loop's order.
    """
    d, N = T.grid.d, T.grid.N
    inside = corona.stops_under(check_cube(T.grid, Q0))
    w = _measure(T.grid, w)
    stops = np.flatnonzero(inside)
    if not stops.size:
        return ABSplitReport(0.0, 0.0, 0, 0.0)
    _, fields = _full_fields(T, w)
    forest = corona.forest
    level, flat, depth = forest.level, forest.flat, forest.depth
    # depth of the stop whose fiber holds each family cube; -1 off Q0 (the
    # appended entry, read by position -1) and outside the family
    stop_depth = np.append(np.where(inside, depth, -1), -1)
    fiber_depth = {a: stop_depth[corona.fiber_positions(a)] for a in T.levels}
    h = np.stack([np.abs(_h_cells(T, fields, lambda a: fiber_depth[a] == k))
                  for k in range(int(depth[stops].max()) + 1)], axis=1)

    # pairs (L, L'): every stop L' in Q0 with itself and each stopping ancestor in Q0
    upper, lower = [stops], [stops]
    up, low = forest.parent[stops], stops
    while low.size:
        keep = up >= 0
        keep[keep] = inside[up[keep]]
        up, low = up[keep], low[keep]
        upper.append(up)
        lower.append(low)
        up = forest.parent[up]
    upper, lower = np.concatenate(upper), np.concatenate(lower)
    terms, dev, peak = (np.zeros(upper.size) for _ in range(3))
    for j in np.unique(level[lower]).tolist():
        i = np.flatnonzero(level[lower] == j)
        f, cells = flat[lower[i]], subcell_matrix(h, d, N - j)   # cells of L', local row-major
        seg = cells[f, :, depth[upper[i]]]
        terms[i] = (seg * cells[f, :, depth[lower[i]]]
                    * subcell_matrix(w.dual_sums[N], d, N - j)[f]).sum(axis=1)
        peak[i] = seg.max(axis=1)
        dev[i] = peak[i] - seg.min(axis=1)
    own = upper == lower
    scale = np.ones(level.size)
    scale[lower[own]] = np.maximum(1.0, peak[own])
    dev[own] = 0.0
    if (dev > _AB_SPLIT_TOL * scale[upper]).any():
        raise CoronaStructureError(
            "H is not single-valued on a stopping descendant; "
            "build the decomposition on a scale-separated family"
        )
    order = np.lexsort((lower, upper))
    return ABSplitReport(_sequential_sum(terms[order][own[order]]),
                         _sequential_sum(terms[order][~own[order]]), int(stops.size),
                         float(dev.max()))


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum 0.0 + v0 + v1 + ..., the order of a `+=` loop."""
    return float(np.cumsum(np.append(0.0, values))[-1])


# ---------------------------------------------------------------------------
# John-Nirenberg style check
# ---------------------------------------------------------------------------

class ProfileFamily:
    """Cube-indexed bounded profiles: phi_Q supported on Q, constant on the
    level(Q)+tau subcells, sup norm at most one."""

    __slots__ = ("grid", "tau", "levels", "profiles")

    def __init__(self, grid: DyadicGrid, tau: int, profiles: dict[int, np.ndarray],
                 validate: bool = True):
        self.grid = grid
        self.tau = int(tau)
        self.levels = tuple(sorted(profiles))
        self.profiles = {}
        for j in self.levels:
            block = np.asarray(profiles[j], dtype=np.float64)
            m = 1 << (self.tau * grid.d)
            if block.shape != (grid.level_count(j), m):
                raise GridError(f"profile block shape mismatch at level {j}")
            if validate and block.size and not np.abs(block).max() <= 1.0 + 1e-12:
                raise GridError(f"profile at level {j} is not finite with sup norm at most one")
            self.profiles[j] = block

    def scaled(self, s: float) -> "ProfileFamily":
        return ProfileFamily(
            self.grid, self.tau,
            {j: self.profiles[j] * s for j in self.levels}, validate=False,
        )


@dataclass(frozen=True)
class JNReport:
    hypothesis_ok: bool
    hypothesis_worst: float
    hypothesis_witness: DyadicCube | None
    conclusion_ok: bool | None
    conclusion_worst: dict | None
    t_values: tuple


def jn_check(family: ProfileFamily, t_values=tuple(range(1, 11))) -> JNReport:
    """Level-set hypothesis and exponential-decay conclusion for a profile family.

    Hypothesis: for every cube Q, |{x in Q : |sum_{Q' inside Q} phi_{Q'}| > 1}|
    is at most 2^(-tau d - 1) |Q|.  When it holds, the superlevel sets at
    heights 2 tau t must decay like tau 2^(-t+1) |Q|, checked at each t.
    """
    grid = family.grid
    d, N, tau = grid.d, grid.N, family.tau
    vol = grid.cell_volume
    fields = {j + tau: scatter_subcells(family.profiles[j], d, tau) for j in family.levels}
    hyp_rows = []
    conc_worst = {t: 0.0 for t in t_values}
    for j, suffix in suffix_sweep(fields, d, N, tau):
        absval = np.abs(suffix)
        over = pool((absval > 1.0).astype(np.float64) * vol, d, N - j)
        bound = (2.0 ** (-tau * d - 1)) * (2.0 ** (-j * d))
        hyp_rows.append((j, over / bound, None))
        for t in t_values:
            over_t = pool((absval > 2.0 * tau * t).astype(np.float64) * vol, d, N - j)
            bound_t = tau * (2.0 ** (-t + 1)) * (2.0 ** (-j * d))
            conc_worst[t] = max(conc_worst[t], float((over_t / bound_t).max()))
    hyp_worst, hyp_wit = level_argmax(grid, hyp_rows)
    hyp_ok = hyp_worst <= 1.0 + 1e-12
    if not hyp_ok:
        return JNReport(False, hyp_worst, hyp_wit, None, None, tuple(t_values))
    conc_ok = all(v <= 1.0 + 1e-12 for v in conc_worst.values())
    return JNReport(True, hyp_worst, hyp_wit, conc_ok, conc_worst, tuple(t_values))


# ---------------------------------------------------------------------------
# distributional estimates on a corona fiber
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionCurve:
    """Superlevel masses of a localized sum at thresholds t * scale."""

    kind: str
    t_values: tuple
    masses: tuple
    total_mass: float
    scale: float

    def is_monotone(self) -> bool:
        return all(a >= b - 1e-15 for a, b in zip(self.masses, self.masses[1:]))


def affine_fit(x, y) -> tuple[float | None, float]:
    """Slope and R^2 of the affine least-squares fit of y against x.

    Sums run in point order.  R^2 = 1 - SSres/SStot with the residuals of the
    fitted line; when x takes one value the slope is None and R^2 is 1.0 for
    constant y, else 0.0.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    xbar, ybar = sum(x) / len(x), sum(y) / len(y)
    den = sum((t - xbar) ** 2 for t in x)
    ss_tot = sum((v - ybar) ** 2 for v in y)
    if den == 0:
        return None, 1.0 if ss_tot == 0 else 0.0
    slope = sum((t - xbar) * (v - ybar) for t, v in zip(x, y)) / den
    if ss_tot == 0:
        return slope, 1.0
    intercept = ybar - slope * xbar
    ss_res = sum((v - (intercept + slope * t)) ** 2 for t, v in zip(x, y))
    return slope, 1.0 - ss_res / ss_tot


def fit_slope(t_values, masses) -> float | None:
    """Least-squares slope of log(mass) against t over positive masses."""
    points = [(t, math.log(m)) for t, m in zip(t_values, masses) if m > 0]
    return affine_fit(*zip(*points))[0] if points else None


@dataclass(frozen=True)
class EssenceReport:
    lebesgue_curve: DistributionCurve
    dual_curve: DistributionCurve
    seven_single_worst: float
    alpha_window_worst: float
    weak_type_worst: float
    k_constant: float
    alpha_values: tuple


def essence_check(L: DyadicCube, cubes: CubeSet, T: SimpleHaarShift, w: Weight,
                  k_constant: float) -> EssenceReport:
    """Distributional data for H(L, fiber) at thresholds K t w(L)/|L|.

    Returns the superlevel masses in Lebesgue and dual measure, the worst
    single-term ratio against w(Q)/|Q| (with its four-fold alpha-window bound),
    and the worst weak-type ratio of the alpha-class partial sums below their
    class members.
    """
    grid = T.grid
    d, N = grid.d, grid.N
    coeffs, fields = _full_fields(T, w, cubes)
    dens_l = w.density(L)
    dual_cells = w.dual_sums[N]
    local = np.abs(L.cell_values(_h_cells(T, fields, cubes.restrict_under(L).mask)))
    local_dual = L.cell_values(dual_cells)
    vol = grid.cell_volume

    leb_masses, dual_masses = [], []
    for t in ESSENCE_T_VALUES:
        thr = k_constant * t * dens_l
        sel = local > thr
        leb_masses.append(float(sel.sum()) * vol)
        dual_masses.append(float(local_dual[sel].sum()))
    leb_curve = DistributionCurve("lebesgue", ESSENCE_T_VALUES, tuple(leb_masses),
                                  L.volume, k_constant * dens_l)
    dual_curve = DistributionCurve("dual", ESSENCE_T_VALUES, tuple(dual_masses),
                                   float(local_dual.sum()), k_constant * dens_l)

    strata = pn_alpha(L, cubes, w)
    seven_worst, window_worst, weak_worst = 0.0, 0.0, 0.0
    for alpha in strata.alpha_values():
        members = strata.classes[alpha]
        band_cap = 4.0 * (2.0 ** (-alpha)) * dens_l
        for a in members.levels():
            if a not in T.g:
                continue
            idx = np.flatnonzero(members.masks[a])
            if idx.size == 0:
                continue
            dens_q = w.sums[a][idx] * (2.0 ** (a * d))
            coef = coeffs[a][:, idx]
            sup_gamma = np.abs(T.gamma[a][:, idx, :]).max(axis=-1)
            term_peak = (np.abs(coef) * sup_gamma).max(axis=0)
            seven_worst = max(seven_worst, float((term_peak / dens_q).max()))
            window_worst = max(window_worst, float((dens_q / band_cap).max()))
        # weak-type ratio of the class partial sums below each class member
        for j, s in suffix_sweep(_restricted(T, fields, members.mask), d, N, T.tau):
            sel = members.mask(j)
            if not sel.any():
                continue
            weak = _weak_type(subcell_matrix(s, d, N - j)) * vol
            denom = (2.0 ** (-alpha)) * dens_l * (2.0 ** (-j * d))
            weak_worst = max(weak_worst, float((weak[sel] / denom).max()))
    return EssenceReport(
        lebesgue_curve=leb_curve, dual_curve=dual_curve,
        seven_single_worst=seven_worst, alpha_window_worst=window_worst,
        weak_type_worst=weak_worst, k_constant=k_constant,
        alpha_values=tuple(strata.alpha_values()),
    )


# ---------------------------------------------------------------------------
# derived weak boundedness and sufficiency experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WbFromT1Report:
    i2_worst: float
    i3_worst: float
    largescale_worst: float
    chain_worst: float
    a2: float

    to_dict = report_dict


# Cell values per batch of the weak-boundedness scan (cells x columns).  On
# 2 vCPUs, `lemmas` at d=2, N=5 took 70 ms with 2^14, 130 ms with 2^13 and
# 420 ms one cube at a time; 2^14 added about 1 MiB to its peak RSS, while
# 2^20 ran no faster and raised that peak from 41 to 94 MiB.
_WB_BATCH_ENTRIES = 1 << 14


def weak_boundedness_from_t1_check(T: SimpleHaarShift, w: Weight) -> WbFromT1Report:
    """Diagnostic ratios for deriving weak boundedness from indicator testing.

    Scans every cube pair (Q, R) with |R| within 2^(+-(tau+1)d) of |Q| for the
    pairing of T(w 1_Q) against w^{-1} 1_R normalized by ||w||_A2
    sqrt(w(Q) w^{-1}(R)); reports the worst such ratio, the indicator-testing
    ratio normalized by ||w||_A2^2 w(Q), the large-scale off-cube ratio
    against w(Q) w^{-1}(R)/|R| over nested pairs, and the elementary chain
    sqrt(w(Q) w^{-1}(R))/|R| <= sqrt(||w||_A2) over nested pairs.

    Each level j runs in batches of level-j cubes: T is applied once to the
    columns w 1_Q, one integral pyramid of T(w 1_Q) w^{-1} holds every
    pairing, and the ratios are maxima over (Q, R) arrays.  A batch holds at
    most `_WB_BATCH_ENTRIES` cell values, so its arrays stay a few hundred
    KiB whatever the grid.  Each ratio is the elementwise expression of a
    cube-by-cube scan, and each <T(w 1_Q)^2, w^{-1} 1_Q> is a 1-D sum over Q's
    cells in local row-major order; only the batched application of T may
    round differently, by an ulp in a coefficient.
    """
    grid = T.grid
    d, N, tau = grid.d, grid.N, T.tau
    w = _measure(grid, w)
    a2 = w.a2_characteristic()
    dual_cells = w.dual_sums[N]
    batch = max(1, _WB_BATCH_ENTRIES >> (N * d))
    i2_worst = i3_worst = large_worst = chain_worst = 0.0
    for j in range(N + 1):
        owner = ancestor_map(d, N, j)                       # level-j cube of each cell
        local_dual = subcell_matrix(dual_cells, d, N - j)
        # level-lr ancestor of every level-j cube, for the nested pairs
        coarse = {lr: ancestor_map(d, j, lr) for lr in range(max(0, j - (tau + 1)), j + 1)}
        for lr, anc in coarse.items():
            chain = np.sqrt(w.sums[j] * w.dual_sums[lr][anc]) * (2.0 ** (lr * d))
            chain_worst = max(chain_worst, float((chain / math.sqrt(a2)).max()))
        for start in range(0, grid.level_count(j), batch):
            flats = np.arange(start, min(start + batch, grid.level_count(j)))
            cols = np.arange(flats.size)
            out = T.apply_values((owner[:, None] == flats) * w.values[:, None])
            pyr = integral_pyramid(out * dual_cells[:, None], d, N)
            wq = w.sums[j][flats]
            local = subcell_matrix(out, d, N - j)[flats, :, cols] ** 2 * local_dual[flats]
            loc = local.sum(axis=1)
            i3_worst = max(i3_worst, float((loc / (a2 ** 2 * wq)).max()))
            for lr in range(min(coarse), min(N, j + (tau + 1)) + 1):
                rights = a2 * np.sqrt(wq * w.dual_sums[lr][:, None])
                i2_worst = max(i2_worst, float((np.abs(pyr[lr]) / rights).max()))
            for lr in range(min(coarse), j):
                anc = coarse[lr][flats]
                inner = pyr[lr][anc, cols] - pyr[j][flats, cols]
                denom = wq * w.dual_sums[lr][anc] * (2.0 ** (lr * d))
                large_worst = max(large_worst, float((np.abs(inner) / denom).max()))
    return WbFromT1Report(i2_worst, i3_worst, large_worst, chain_worst, a2)


@dataclass(frozen=True)
class SufficiencyReport:
    two_weight_a2: float
    a_infty_alpha: float
    a_infty_beta: float
    eps: float
    norms: tuple
    worst_norm: float
    ratio_to_sqrt_a2: float

    to_dict = report_dict


def sufficiency_experiment(alpha: Weight, beta: Weight, shifts) -> SufficiencyReport:
    """Measure shift norms from L2(alpha) to L2(beta) against the pair constant.

    Reports the joint supremum constant sup_Q (alpha(Q)/|Q|)(beta(Q)/|Q|), the
    flatness moduli of both weights at eps = `_SUFFICIENCY_EPS`, the norms
    over the shift family (`operator_norm`'s `auto` method), and the worst
    norm normalized by the square root of the pair constant.
    """
    a2_pair = two_weight_a2(alpha, beta).characteristic
    mod_a = a_infty_modulus(alpha, _SUFFICIENCY_EPS)
    mod_b = a_infty_modulus(beta, _SUFFICIENCY_EPS)
    norms = tuple(operator_norm(T, sigma=alpha, mu=beta, method="auto") for T in shifts)
    worst = max(norms) if norms else 0.0
    return SufficiencyReport(
        two_weight_a2=a2_pair, a_infty_alpha=mod_a, a_infty_beta=mod_b,
        eps=_SUFFICIENCY_EPS, norms=norms, worst_norm=worst,
        ratio_to_sqrt_a2=worst / math.sqrt(a2_pair) if a2_pair > 0 else 0.0,
    )
