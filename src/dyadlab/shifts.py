"""Haar shift operators on dyadic grids.

Every shift is a `SimpleHaarShift`: per family cube Q it pairs the input
against localized mean-zero profiles g_Q and emits profiles gamma_Q, both
stored as values on the level(Q)+tau subcells of Q and sup-bounded by
|Q|^(-1/2).  A generic shift, sparse Haar-to-Haar coefficients a_{Q',Q''}
under a common parent with the size bound sqrt(|Q'||Q''|)/|Q|, is compiled
into such profiles by `GenericHaarShift`, one term per entry.  Application is
matrix-free: one integral pyramid, one pairing pass per level, one expansion
pass, costing O((2^(tau d) + N) 2^(Nd)).

The module also provides operator norms between weighted L^2 spaces
(matrix-free Golub-Kahan-Lanczos bidiagonalization, and a certified norm that
runs the same loop once, on the shift's matrix in the sigma-weighted Haar
basis, and certifies its value with one Cholesky factorization of that
matrix's Gram over the tree of dyadic cubes: see `operator_norm`), the
dyadic Calderon-Zygmund decomposition, and a weak-L1 superlevel diagnostic.

The certificate works in the sigma-weighted Haar basis, the basis of the
Nazarov-Treil-Volberg T1 theorem.  With the masses m_i = a_i^2 |cell|^2,
the constant and the two-point functions h_P^sigma of every cube P are an
orthonormal basis of L^2(m); in `dense_matrix` coordinates they are the
columns of an orthogonal W, so |M| = |M W|.  Column (P, e) of M W is
b T(m w_{P,e}): a family cube more than tau - 1 levels above P sees w as
constant and pairs it to zero, so the column lives on the level
max(p - tau + 1, 0) ancestor of P (the support rule), a cell holds
1 + (2^d - 1) sum_p 2^(min(tau - 1, p) d) slots (11, 20 and 36 at d=1,
N=10, tau = 1, 2, 3), and (M W)^T (M W) meets only columns whose supports
nest.  Eliminating the finest level first, each cube's columns meet only
their ancestors' columns, which already meet each other: no fill, so the
Cholesky factorization runs cube by cube with no n x n array.  The same
Y^ and its basis give `estimates.testing_constants` T(sigma 1_Q) on Q.

A reduction whose value reaches an output is a fixed-order numpy reduction
(`np.einsum`, `np.bincount`, `pool`), never a BLAS dot or norm, whose partial
sums split by thread: the outputs are the same bytes at any BLAS thread
count.  BLAS products that only decide a certificate's pass or fail
(the tree Gram and its Schur updates) may stay.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import (
    DyadicCube,
    DyadicGrid,
    GridError,
    GridFunction,
    _HAAR_SIGNS,
    ancestor_flat,
    assemble_levels,
    check_natural,
    cube_view,
    descendant_flat,
    descendant_offset,
    expand,
    integral_pyramid,
    scatter_subcells,
    subcell_matrix,
)
from .weights import Weight, WeightError, _in_window, _measure, _times_two_to


class ShiftError(ValueError):
    """Invalid shift data or incompatible operands."""


class OperatorNormError(RuntimeError):
    """The norm has no value: the Krylov iteration did not converge, or the
    `dense-svd` certificate refused it; `bracket` holds the last two
    estimates, which increase towards the norm (None where there is none)."""

    def __init__(self, message, bracket):
        super().__init__(message)
        self.bracket = bracket

    def __reduce__(self):       # worker processes send it back with its bracket
        return type(self), (str(self), self.bracket)


def _check_profile_block(block: np.ndarray, level: int, tau: int, grid: DyadicGrid):
    """Profiles must be finite, mean zero over their cube and sup-bounded by |Q|^(-1/2)."""
    count = grid.level_count(level)
    m = 1 << (tau * grid.d)
    if block.shape[-2:] != (count, m):
        raise ShiftError(
            f"profile block at level {level} must have shape (*, {count}, {m})"
        )
    bound = 2.0 ** (level * grid.d / 2.0)
    if block.size and not np.abs(block).max() <= bound * (1 + 1e-12):   # NaN fails <=
        raise ShiftError(f"profile at level {level} is not finite with sup <= |Q|^(-1/2)")
    if block.size and np.abs(block.sum(axis=-1)).max() > 1e-9 * max(bound, 1.0):
        raise ShiftError(f"profile not mean zero at level {level}")


def default_levels(grid: DyadicGrid, tau: int, separated: bool = False) -> tuple[int, ...]:
    """Cube family levels: all of 0..N-tau, or every tau-th level when separated."""
    top = grid.N - tau
    if top < 0:
        raise ShiftError(f"tau={tau} exceeds grid depth {grid.N}")
    step = tau if separated else 1
    return tuple(range(0, top + 1, step))


class SimpleHaarShift:
    """Sum over a cube family of single pairings <f, g_Q> gamma_Q.

    Profiles are stored per level as arrays of shape (terms, count, 2^(tau*d)):
    the values each profile takes on the level+tau subcells of its cube, in
    local row-major order.  Almost every shift has one term per cube; the d=2
    martingale transform carries one term per tensor Haar pattern, and a
    compiled generic shift one per entry.
    """

    __slots__ = ("grid", "tau", "levels", "g", "gamma", "separated", "meta")

    def __init__(self, grid, tau, levels, g, gamma, separated=False, meta=None,
                 validate=True):
        self.grid = grid
        self.tau = int(tau)
        if self.tau < 1:
            raise ShiftError("index tau must be a positive integer")
        self.levels = tuple(sorted(levels))
        self.g = {}
        self.gamma = {}
        for j in self.levels:
            if j + self.tau > grid.N:
                raise ShiftError(f"family level {j} too deep for tau={self.tau}")
            gb = np.asarray(g[j], dtype=np.float64)
            cb = np.asarray(gamma[j], dtype=np.float64)
            if gb.ndim == 2:
                gb = gb[None, :, :]
            if cb.ndim == 2:
                cb = cb[None, :, :]
            if validate:
                _check_profile_block(gb, j, self.tau, grid)
                _check_profile_block(cb, j, self.tau, grid)
            if gb.shape != cb.shape:
                raise ShiftError(f"g and gamma blocks at level {j} must have matching shapes")
            self.g[j] = gb
            self.gamma[j] = cb
        self.separated = bool(separated)
        self.meta = dict(meta or {})

    def adjoint(self) -> "SimpleHaarShift":
        """Swap g and gamma per cube; the exact Lebesgue adjoint."""
        return SimpleHaarShift(
            self.grid, self.tau, self.levels, self.gamma, self.g,
            separated=self.separated, meta={**self.meta, "adjoint": True},
            validate=False,
        )

    # -- application -------------------------------------------------------

    def pairing_coefficients(self, pyr) -> dict[int, np.ndarray]:
        """<h, g_Q> for every family cube, from the integral pyramid of h.

        `pyr[j]` holds the integrals of h over the level-j cubes (a Weight's
        `sums` is the pyramid of its density); a trailing batch axis is
        carried through.  Returns per-level arrays of shape (terms, count).
        """
        out = {}
        for j in self.levels:
            sub = subcell_matrix(pyr[j + self.tau], self.grid.d, self.tau)
            out[j] = np.einsum("kcm,cm...->kc...", self.g[j], sub)
        return out

    def output_fields(self, coeffs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Per-level output pieces sum_k coef * gamma, keyed and laid out at level j+tau."""
        return {
            j + self.tau: scatter_subcells(
                np.einsum("kc...,kcm->cm...", coeffs[j], self.gamma[j]), self.grid.d, self.tau
            )
            for j in self.levels
        }

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """Matrix-free application to raw cell values (1D, or 2D batched columns)."""
        grid = self.grid
        values = np.asarray(values, dtype=np.float64)
        fields = self.output_fields(self.pairing_coefficients(
            integral_pyramid(values * grid.cell_volume, grid.d, grid.N)
        ))
        out = assemble_levels(fields, grid.d, grid.N)
        return np.zeros_like(values) if out is None else out


class GenericHaarShift(SimpleHaarShift):
    """Sparse Haar-to-Haar shift sum a_{Q',Q''} <f, h_Q'> h_Q'', compiled
    into a multi-term simple shift; `entries` keeps the checked list.

    Entries are (Q, (Q', e'), (Q'', e''), a) with Q', Q'' inside Q, at most tau
    levels deeper, and |a| <= sqrt(|Q'||Q''|)/|Q|; e picks the tensor Haar
    pattern (always 0 for d=1).  h_Q' is constant on the cells tau+1 levels
    below Q, so the compiled index is tau_c = min(tau+1, N), and a parent
    deeper than N - tau_c is replaced by its ancestor P at that level.  Each
    entry becomes a term on P with g = alpha h_Q'^e' and gamma = (a/alpha)
    h_Q''^e'', alpha = sqrt(|Q'|/|P|), so |g| <= |P|^(-1/2); a re-parented
    entry with |a| above sqrt(|Q'||Q''|)/|P| is split into ceil(ratio) equal
    terms, so |gamma| <= |P|^(-1/2) too.  Cubes with fewer terms than the
    most on their level carry zero terms.
    """

    __slots__ = ("entries",)

    # perfbench's tracer wraps `apply_values` from each class's own __dict__
    apply_values = SimpleHaarShift.apply_values

    def __init__(self, grid, tau, entries, meta=None):
        tau, d = int(tau), grid.d
        tau_c = min(tau + 1, grid.N)
        checked, terms = [], {}     # (level, flat) of P -> [(g, gamma)] on its subcells
        for parent, src, dst, a in entries:
            qp, ep = src if isinstance(src, tuple) else (src, 0)
            qpp, epp = dst if isinstance(dst, tuple) else (dst, 0)
            for q, e in ((qp, ep), (qpp, epp)):
                if not parent.contains(q):
                    raise ShiftError("entry cube not contained in its parent cube")
                if q.level > parent.level + tau:
                    raise ShiftError("entry cube more than tau levels below parent")
                if q.level >= grid.N:
                    raise ShiftError("Haar cube must be above the finest level")
                if not 0 <= e < len(_HAAR_SIGNS[d]):
                    raise ShiftError("bad Haar pattern index")
            bound = math.sqrt(qp.volume * qpp.volume) / parent.volume
            if not abs(a) <= bound * (1 + 1e-12):     # NaN fails <=
                raise ShiftError("coefficient not finite with |a| <= sqrt(|Q'||Q''|)/|Q|")
            checked.append((parent, qp, ep, qpp, epp, float(a)))
            top = parent.parent(max(parent.level - (grid.N - tau_c), 0))
            # |a| |P| / sqrt(|Q'||Q''|) and a / alpha |Q''|^(-1/2), by powers of two
            split = max(1, math.ceil(abs(a) * 2.0 ** ((qp.level + qpp.level) * d / 2.0
                                                      - top.level * d)))
            g = 2.0 ** (top.level * d / 2.0) * _pattern_on_subcells(top, qp, ep, tau_c)
            gamma = (a / split * 2.0 ** ((qp.level + qpp.level - top.level) * d / 2.0)
                     * _pattern_on_subcells(top, qpp, epp, tau_c))
            terms.setdefault((top.level, top.flat), []).extend([(g, gamma)] * split)
        self.entries = tuple(checked)
        width = {}
        for (j, _), pairs in terms.items():
            width[j] = max(width.get(j, 0), len(pairs))
        g, gamma = ({j: np.zeros((w, grid.level_count(j), 1 << (tau_c * d)))
                     for j, w in width.items()} for _ in range(2))
        for (j, flat), pairs in terms.items():
            g[j][:len(pairs), flat], gamma[j][:len(pairs), flat] = map(np.array, zip(*pairs))
        super().__init__(grid, tau_c, width, g, gamma, meta=meta)


def _pattern_on_subcells(top: DyadicCube, cube: DyadicCube, e: int, tau: int) -> np.ndarray:
    """The signs of Haar pattern e of a cube inside `top`, on top's level+tau
    subcells in local row-major order, zero off the cube."""
    d, depth = top.grid.d, cube.level - top.level
    span = 1 << (tau - depth)       # subcells per side of the cube
    local = np.zeros((1 << tau,) * d)
    offsets = (k - (t << depth) for k, t in zip(cube.index, top.index))
    local[tuple(slice(o * span, (o + 1) * span) for o in offsets)] = np.kron(
        _HAAR_SIGNS[d][e].reshape((2,) * d), np.ones((span // 2,) * d))
    return local.ravel()


# ---------------------------------------------------------------------------
# application and adjoint entry points
# ---------------------------------------------------------------------------

def apply_shift(T, f: GridFunction, sigma: Weight | None = None) -> GridFunction:
    """T(sigma f) as an exact finite sum; sigma=None applies T to f itself."""
    if f.grid != T.grid:
        raise GridError("grid mismatch between shift and argument")
    vals = f.values if sigma is None else f.values * _measure(T.grid, sigma).values
    return GridFunction(T.grid, T.apply_values(vals))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def hilbert_shift(grid: DyadicGrid, separated: bool = False) -> SimpleHaarShift:
    """The index-2 dyadic model of the Hilbert transform (d=1).

    Each cube maps its Haar function to the normalized difference of the
    children's Haar functions: g_Q = h_Q and gamma_Q = (h_{Q-} - h_{Q+})/sqrt(2),
    with profile sup norms exactly |Q|^(-1/2).
    """
    if grid.d != 1:
        raise ShiftError("the dyadic Hilbert shift is defined for d=1 only")
    if grid.N < 2:
        raise ShiftError("need depth N >= 2")
    tau = 2
    levels = default_levels(grid, tau, separated)
    g, gamma = {}, {}
    for j in levels:
        count = grid.level_count(j)
        scale = 2.0 ** (j / 2.0)
        g[j] = np.tile(scale * np.array([1.0, 1.0, -1.0, -1.0]), (count, 1))
        gamma[j] = np.tile(scale * np.array([1.0, -1.0, -1.0, 1.0]), (count, 1))
    return SimpleHaarShift(grid, tau, levels, g, gamma, separated=separated,
                           meta={"kind": "hilbert"})


def martingale_transform(signs, grid: DyadicGrid, separated: bool = False) -> SimpleHaarShift:
    """Haar multiplier T f = sum eps_Q <f, h_Q> h_Q with eps in {-1, +1}.

    `signs` maps DyadicCube -> sign for d=1, or (DyadicCube, pattern) -> sign
    for d=2 (one sign per tensor Haar pattern); missing keys default to +1.
    """
    tau = 1
    levels = default_levels(grid, tau, separated)
    sign_table = _HAAR_SIGNS[grid.d]
    npat = sign_table.shape[0]
    eps = {j: np.ones((npat, grid.level_count(j))) for j in levels}
    for key, val in signs.items():
        cube, pat = key if isinstance(key, tuple) else (key, None)
        block = eps.get(cube.level)
        if block is None:
            continue
        if val not in (-1, 1):
            raise ShiftError("signs must be -1 or +1")
        block[slice(None) if pat is None else pat, cube.flat] = val
    g = {j: np.tile(sign_table[:, None, :] * 2.0 ** (j * grid.d / 2.0),
                    (1, grid.level_count(j), 1)) for j in levels}
    gamma = {j: g[j] * eps[j][:, :, None] for j in levels}
    return SimpleHaarShift(grid, tau, levels, g, gamma, separated=separated,
                           meta={"kind": "martingale"})


def random_signs(grid: DyadicGrid, seed: int) -> dict:
    """Seeded +/-1 sign assignment for every cube (and pattern at d=2)."""
    rng = np.random.default_rng(check_natural(seed, "seed", ShiftError))
    out = {}
    npat = len(_HAAR_SIGNS[grid.d])
    for j in range(grid.N):
        draw = rng.integers(0, 2, size=(grid.level_count(j), npat)) * 2 - 1
        for flat in range(grid.level_count(j)):
            cube = grid.cube(j, flat)
            if grid.d == 1:
                out[cube] = int(draw[flat, 0])
            else:
                for p in range(npat):
                    out[(cube, p)] = int(draw[flat, p])
    return out


def random_simple_shift(tau: int, seed: int, grid: DyadicGrid,
                        separated: bool = False) -> SimpleHaarShift:
    """Seeded simple shift: uniform profiles projected to mean zero and
    rescaled to sup norm exactly |Q|^(-1/2)."""
    if tau < 1:
        raise ShiftError("tau must be at least 1")
    levels = default_levels(grid, tau, separated)
    seed = check_natural(seed, "seed", ShiftError)
    rng = np.random.default_rng(seed)
    m = 1 << (tau * grid.d)
    g, gamma = {}, {}
    for j in levels:
        count = grid.level_count(j)
        scale = 2.0 ** (j * grid.d / 2.0)
        blocks = []
        for _ in range(2):
            raw = rng.uniform(-1.0, 1.0, size=(count, m))
            raw -= raw.mean(axis=1, keepdims=True)
            peak = np.abs(raw).max(axis=1)
            flat_rows = peak < 1e-12
            if flat_rows.any():
                raw[flat_rows] = np.tile(
                    np.concatenate([np.ones(m // 2), -np.ones(m - m // 2)]),
                    (int(flat_rows.sum()), 1),
                )
                peak = np.abs(raw).max(axis=1)
            blocks.append(raw * (scale / peak)[:, None])
        g[j], gamma[j] = blocks
    return SimpleHaarShift(grid, tau, levels, g, gamma, separated=separated,
                           meta={"kind": "random", "seed": seed})


def zero_shift(grid: DyadicGrid, tau: int = 1) -> SimpleHaarShift:
    levels = default_levels(grid, tau)
    m = 1 << (tau * grid.d)
    z = {j: np.zeros((grid.level_count(j), m)) for j in levels}
    return SimpleHaarShift(grid, tau, levels, z, z, meta={"kind": "zero"})


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

_POWER_SEED = 0x0D7AD1C         # the Krylov loop's start vector
_KRYLOV_TOL = 1e-8              # its stopping rule: residual at most this times s
_KRYLOV_STEPS = 10_000          # its step cap (at most n steps run)
_DENSE_CELLS = 4096


def _measure_scalings(grid, sigma, mu):
    vol = grid.cell_volume
    # input scaling: L2(sigma) isometry composed with (sigma .); output: L2(mu) isometry
    with np.errstate(over="ignore"):
        a = np.sqrt(_measure(grid, sigma).values / vol)
    b = np.sqrt(_measure(grid, mu).values * vol)
    return a, b


def _norm_method(grid, method: str) -> str:
    """`method`, `auto` resolved by the 4096-cell gate; ShiftError if it cannot run."""
    if method == "auto":
        method = "dense-svd" if grid.cell_count <= _DENSE_CELLS else "power-iteration"
    if method not in ("dense-svd", "power-iteration"):
        raise ShiftError(f"unknown method {method!r}")
    if method == "dense-svd" and grid.cell_count > _DENSE_CELLS:
        raise ShiftError(f"dense matrix limited to grids with at most {_DENSE_CELLS} cells")
    return method


def dense_matrix(T, sigma: Weight | None = None, mu: Weight | None = None) -> np.ndarray:
    """Dense matrix of f -> T(sigma f) between the scaled coordinates of
    L2(sigma) and L2(mu); its largest singular value is the operator norm.
    The tests' oracle: no norm here builds it."""
    _norm_method(T.grid, "dense-svd")       # the 4096-cell gate
    a, b = _measure_scalings(T.grid, sigma, mu)
    return b[:, None] * T.apply_values(np.diag(a))


def operator_norm(T, sigma: Weight | None = None, mu: Weight | None = None,
                  method: str = "power-iteration") -> float:
    """Norm of f -> T(sigma f) from L2(sigma) to L2(mu).

    `power-iteration` runs Golub-Kahan-Lanczos bidiagonalization from a fixed
    seeded start vector (see `power_iteration_norm` for the stopping rule);
    `dense-svd`, for grids of at most 4096 cells, certifies its value; `auto`
    picks `dense-svd` when it is available (`_norm_method`).

    `dense-svd` works on one matrix, Y^ = fl(M W) (`_haar_rows`; M the
    matrix of `dense_matrix`, W the sigma-weighted Haar basis, so
    |M| = |M W|).  It runs the same loop once (same `_KRYLOV_TOL`,
    `_KRYLOV_STEPS` and `_POWER_SEED`) on x -> Y^ x and y -> Y^T y
    (`_haar_products`) and takes s = |Y^ v| for its unit right Ritz vector v.  The certificate (`_certifies`) factors
    the same Y^: a Cholesky factorization of s^2 (1 + eps) I - H^,
    H^ = fl(Y^T Y^) (`_tree_gram`), run supernode by supernode over the tree
    of support cubes (`_tree_cholesky`) in O(n (N width)^2) work, width a
    supernode's slots; no n x n array is formed (eps' at most 2.0e-10 on the
    two-weight suite rows 0-199).  Its four outcomes are `_dense_norm`'s:
    a refused certificate or an unconverged loop raises OperatorNormError,
    so a wrong Krylov value never passes.  A sigma with no Haar basis, or
    for `power-iteration` a sigma scaling that overflows, raises WeightError.

    Either method runs on sigma and mu moved by `_window`, which scales the
    bracket of an OperatorNormError back; the value is scaled back here.
    """
    method = _norm_method(T.grid, method)
    with _window(sigma, mu) as (sigma, mu, k):
        if method == "dense-svd":
            s = _dense_norm(T, lambda: _haar_rows(T, sigma, mu))
        else:
            a, b = _measure_scalings(T.grid, sigma, mu)
            if not np.isfinite(a).all():        # b = sqrt(mu |cell|) is always finite
                raise WeightError("sigma's scaling sqrt(sigma/|cell|) overflows")
            T_adj = T.adjoint()
            s = power_iteration_norm(lambda v: b * T.apply_values(a * v),
                                     lambda w: a * T_adj.apply_values(b * w), T.grid.cell_count)
    return _times_two_to(s, k)


@contextmanager
def _window(sigma, mu):
    """(sigma, mu, k): the measures moved into `weights._in_window` by exact
    powers of four, and k = k_sigma + k_mu.  A norm or testing constant of
    the moved pair times 2^k is the one of (sigma, mu); the caller scales its
    values, and an OperatorNormError leaves with its bracket scaled here."""
    (sigma, k_sigma), (mu, k_mu) = _in_window(sigma), _in_window(mu)
    k = k_sigma + k_mu
    try:
        yield sigma, mu, k
    except OperatorNormError as exc:
        raise OperatorNormError(str(exc), tuple(
            None if e is None else _times_two_to(e, k) for e in exc.bracket)) from None


def _dense_norm(T, rows) -> float:
    """The `dense-svd` norm of T on Y^ = rows(), T's `_haar_rows`: +0.0, with
    no build, when no term of T has both profiles nonzero (T = 0 exactly);
    the Krylov value s = |Y^ v| when `_certifies` passes; OperatorNormError
    when it refuses (bracket (None, s)) or the loop does not converge; and
    `_haar_rows`' WeightError when sigma has no Haar basis in floats."""
    if not any(((T.g[j] != 0).any(2) & (T.gamma[j] != 0).any(2)).any() for j in T.levels):
        return 0.0
    rows = rows()
    forward, backward = _haar_products(rows)
    _, v = _golub_kahan(forward, backward, T.grid.cell_count)
    s = _norm(forward(v))
    if not _certifies(rows, s):
        raise OperatorNormError(f"the tree certificate refuses the Krylov value {s!r}",
                                bracket=(None, s))
    return s


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny
_LEAST_SQUARE = 2.0 ** -900      # below this s^2 underflow could matter; refuse
_PANEL = 16                      # rows of a supernode eliminated one at a time

# the two-point splits of a cube's children (local row-major offsets): at d=1
# the two children; at d=2 the halves by the first index, then each half by
# the second
_TWO_POINT = {1: (((0,), (1,)),), 2: (((0, 1), (2, 3)), ((0,), (1,)), ((2,), (3,)))}


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


class _HaarRows(NamedTuple):
    """Y^ = fl(M W) row-sparse, slot-major: the cell in Morton position i
    (flat index z[N][i]) holds Y[:, i] and its shadow Z[:, i].  Slots run
    by ascending function level p (-1 for the constant); `levels` holds
    (p, a, start, stop) per level: slot start + E r + e of a cell is the
    function of pattern e on the r-th level-p cube, in Morton order, of the
    cell's level-a ancestor (its support cube), and `_slots` is the one
    view of that layout.  rho bounds |Y^ - M W| <= rho Z entrywise.  In
    Morton order: z[l] maps level l to flat indices, mass[l] holds its cube
    masses, w the `_two_point_values`, b the cell scalings."""
    Y: np.ndarray
    Z: np.ndarray
    z: list
    levels: tuple
    rho: float
    grid: DyadicGrid
    mass: list
    w: list
    b: np.ndarray


def _haar_layout(d: int, N: int, tau: int):
    """Each level's cubes in Morton order (the cubes inside any coarser cube
    are consecutive, a cube's children in local row-major order), and the
    (p, a, start, stop) of each function level's slots."""
    z = [np.zeros(1, dtype=np.intp)]
    for l in range(N):
        z.append(descendant_flat(d, l, l + 1, z[-1][:, None], np.arange(1 << d)).ravel())
    levels, start = [(-1, 0, 0, 1)], 1
    for p in range(N):
        low = max(p - tau + 1, 0)
        width = ((1 << d) - 1) << ((p - low) * d)
        levels.append((p, low, start, start + width))
        start += width
    return z, tuple(levels)


def _zpool(arr: np.ndarray, d: int) -> np.ndarray:
    """`pool` for a Morton-ordered level array: the same sums, in its order."""
    a = arr.reshape((-1, 1 << d) + arr.shape[1:])
    return a[:, 0] + a[:, 1] if d == 1 else (a[:, 0] + a[:, 1]) + (a[:, 2] + a[:, 3])


def _cube_masses(grid: DyadicGrid, a: np.ndarray):
    """Cube masses, root level first, of the measure with Morton-order input
    scaling a: cell masses (a |cell|)^2, pooled in Morton order; None when a
    cell mass is not a positive normal number or the root mass overflows."""
    with np.errstate(all="ignore"):
        root = a * grid.cell_volume
        mass = [root * root]
        for _ in range(grid.N):
            mass.append(_zpool(mass[-1], grid.d))
    mass.reverse()
    return mass if mass[-1].min() >= _TINY and np.isfinite(mass[0]).all() else None


def _slots(Y: np.ndarray, level: tuple, j: int, d: int) -> np.ndarray:
    """The writable view of Y's level-p slots under each level-j cube, on that
    cube's cells, for `level` = (p, a, start, stop) and a <= j <= p (j = 0
    for the constant): shape (..., support cubes, level-j cubes in one,
    level-p cubes in a level-j cube, E, cells of a level-j cube), in Morton
    order, leading axes carried through.  The reshape only splits axes, so
    writes land in Y."""
    p, low, start, stop = level
    A, L = 1 << ((j - low) * d), 1 << (max(p - j, 0) * d)
    view = Y[..., start:stop, :].reshape(
        Y.shape[:-2] + (A, L, -1, 1 << (low * d), A, Y.shape[-1] >> (j * d)))
    return np.einsum("...rleqry->...qrley", view)


def _two_point_values(mass, d):
    """w[l] of shape (count_l, 2, E), Morton order: on each level-l cube, the
    value of each two-point function of its parent, (m_B 1_A - m_A 1_B) /
    sqrt(m_A m_B (m_A + m_B)), and its absolute value.  It is evaluated as
    +-sqrt(m_B/m_A) / sqrt(m_A + m_B), so no triple product over- or
    underflows; w[0] is the constant 1/sqrt(m(root)).  The masses are
    finite normal numbers; None when a ratio over- or underflows, leaving a
    value zero or not finite."""
    child = np.concatenate(mass[1:]).reshape(-1, 1 << d)     # all levels' children
    vals = np.zeros(child.shape + (len(_TWO_POINT[d]),))
    for e, halves in enumerate(_TWO_POINT[d]):
        m_a, m_b = (child[:, c[0]] if len(c) == 1 else child[:, c[0]] + child[:, c[1]]
                    for c in halves)
        total = np.sqrt(m_a + m_b)
        for c, v in zip(halves, (np.sqrt(m_b / m_a) / total, -np.sqrt(m_a / m_b) / total)):
            if not (np.isfinite(v).all() and v.all()):
                return None
            vals[:, list(c), e] = v[:, None]
    vals = vals.reshape(-1, vals.shape[2])
    both = [np.stack((v, np.abs(v)), axis=1) for v in (1.0 / np.sqrt(mass[0])[:, None], vals)]
    return [both[0]] + np.split(both[1], np.cumsum([len(m) for m in mass[1:-1]]))


def _haar_rows(T, sigma, mu):
    """Y^ = fl(M W) and its shadow in the sigma-weighted Haar basis; WeightError
    when the basis is not well defined in floating point (a cell mass not a
    positive normal number, a root mass that overflows, or a two-point value
    zero or not finite).

    Column (P, e) of W is the two-point function w_{P,e} of `_TWO_POINT` for
    the masses m_i = a_i^2 |cell|^2, times a |cell| (its `dense_matrix`
    coordinates); column 0 is the constant 1/sqrt(m(root)).  Y's column is b
    T(m w) and lives on the level-a ancestor of P, a = max(p - tau + 1, 0):

        b [w(x) F_{>p}(x) + sum_{Q, k} (sum_c w(c) <m 1_c, g_Qk>) gamma_Qk(x)],

    with F_{>p} the suffix field of T(m) over the family levels > p, c the
    children of P, and Q the family cubes containing x and P at the levels
    a..p; a farther ancestor's g_Q is constant on P and pairs to zero with
    m w.  Both sums run on the pairings <m 1_c, g_Q>, the pools of g_Q m over
    the level-(j + tau) cells of Q.  Every level array is in Morton order,
    so the cells of a cube and the slots of its level-p cubes are
    consecutive, and each level-j term is written into the slots of the
    cubes under its Q through `_slots`.  The same steps on |g|, |gamma| and
    |w| give the shadow Z, one stacked axis apart.
    """
    grid = T.grid
    d, N, tau, n = grid.d, grid.N, T.tau, grid.cell_count
    z, levels = _haar_layout(d, N, tau)
    a, b = (x[z[N]] for x in _measure_scalings(grid, sigma, mu))     # Morton order
    mass = _cube_masses(grid, a)
    with np.errstate(all="ignore"):     # w: (count, 2, E) per level
        w = None if mass is None else _two_point_values(mass, d)
    if w is None:
        raise WeightError("sigma has no Haar basis in floating point: a cell mass is not "
                          "a positive normal number, or a two-point value over- or underflows")
    pairs, gamma, pieces = {}, {}, {}
    for j in T.levels:
        cube = ancestor_flat(d, j + tau, j, z[j + tau])
        local = descendant_offset(d, j, j + tau, z[j + tau])
        g, c = (np.stack((x, np.abs(x)), axis=1)
                for x in (T.g[j][:, cube, local].T, T.gamma[j][:, cube, local].T))
        chain = [g * mass[j + tau][:, None, None]]
        for _ in range(tau):
            chain.append(_zpool(chain[-1], d))
        pairs[j] = chain[::-1]              # pairs[j][l - j]: <m 1_c, g_Q> at level l
        pieces[j] = (np.repeat(chain[-1], 1 << (tau * d), axis=0) * c).sum(axis=2)
        gamma[j] = np.ascontiguousarray(np.repeat(c, 1 << ((N - j - tau) * d), axis=0).reshape(
            1 << (j * d), -1, 2, c.shape[2]).transpose(2, 0, 3, 1))    # (2, count_j, K, cells)
    suffix = [np.zeros((n, 2))]             # suffix[-1 - l]: F of family levels >= l
    for l in range(N - 1, -1, -1):
        field = np.repeat(pieces[l], 1 << ((N - l - tau) * d), axis=0) if l in pieces else 0.0
        suffix.append(suffix[-1] + field)
    suffix.reverse()
    rows = np.zeros((2, levels[-1][3], n))
    for level in levels:
        p, low = level[:2]
        E = w[p + 1].shape[2]
        own = np.repeat(w[p + 1], 1 << ((N - p - 1) * d), axis=0) * suffix[p + 1][:, :, None]
        diagonal = _slots(rows, level, max(p, 0), d)
        diagonal[...] = own.reshape(diagonal.shape[1:3] + (-1, 2, E)).transpose(
            3, 0, 1, 4, 2)[:, :, :, None]
        for j in (j for j in T.levels if low <= j <= p):
            coef = _zpool(w[p + 1][:, :, :, None] * pairs[j][p + 1 - j][:, :, None, :], d)
            width, K = 1 << ((p - j) * d), coef.shape[3]
            coef = coef.reshape(-1, width, 2, E, K).transpose(2, 0, 1, 3, 4).reshape(
                2, -1, width * E, K)
            diagonal = _slots(rows, level, j, d)
            diagonal += np.einsum("scik,sckx->scix", coef, gamma[j]).reshape(diagonal.shape)
    rows *= b
    terms = max([T.g[j].shape[0] for j in T.levels], default=0)
    m = 4 * N * d + N + tau * (d + 1) + terms + 12
    return _HaarRows(rows[0], rows[1], z, levels, _gamma(m) / (1.0 - _gamma(m)), grid,
                     mass, w, b)


def _haar_products(rows):
    """x -> Y^ x and y -> Y^T y, one einsum each: x by function (level by
    level, then support cube in Morton order, then slot), y by Morton cell
    position.  Every support cube is a union of the finest ones (level
    `fine`), so index[slot, q] names the function a slot holds on the cells
    of the finest support cube q: a gather feeds the forward product and a
    bincount sums the backward one."""
    d, n = rows.grid.d, rows.grid.cell_count
    fine = rows.levels[-1][1]
    cubes = np.arange(1 << (fine * d))
    index, offset = [], 0
    for _, low, start, stop in rows.levels:
        index.append(offset + (stop - start) * (cubes >> ((fine - low) * d))
                     + np.arange(stop - start)[:, None])
        offset += (stop - start) << (low * d)
    index = np.concatenate(index)
    Y = rows.Y.reshape(index.shape + (-1,))

    def forward(x):
        return np.einsum("sqc,sq->qc", Y, x[index]).ravel()

    def backward(y):
        return np.bincount(index.ravel(), weights=np.einsum(
            "sqc,qc->sq", Y, y.reshape(len(cubes), -1)).ravel(), minlength=n)
    return forward, backward


def _tree_gram(rows):
    """H^ = fl(Y^T Y^) by supernodes: per function level p, the row block
    H^[start:stop, :stop] on each of its level-a support cubes, one batched
    product over the cube's cells (consecutive in Morton order).  Two
    columns meet only on nested supports, and a level-p column's coarser
    partners are the slots [0, start) of the cells under its support, so
    nothing else is nonzero."""
    out = []
    for _, low, start, stop in rows.levels:
        group = rows.Y[:stop].reshape(stop, 1 << (low * rows.grid.d), -1)
        out.append(np.matmul(group[start:stop].transpose(1, 0, 2), group.transpose(1, 2, 0)))
    return out


def _tree_cholesky(rows, grams, t: float) -> bool:
    """Whether the Cholesky factorization of fl(t I - H^) runs to completion,
    multifrontal, finest level first.

    A supernode is one level's slots on one support cube; its coarser
    neighbours are the slots [0, start) of its ancestors' supernodes, which
    already meet each other, so eliminating it creates no fill.  Its front
    is the row block of t I - H^ less its children's update matrices; its
    rows are eliminated one at a time within panels of `_PANEL` rows, each
    panel updating the rows after it by one batched product (blocked
    right-looking Cholesky: every entry is still a_ij less a sum of
    products, in some order), and when the next level's supports
    are the parents, one batched product over each parent's children both
    forms and sums (in `pool`'s order for what came from below) the update
    it passes on.  A pivot that is not positive leaves a diagonal of R that
    is NaN or zero, checked once per level; a non-finite entry of H^ reaches
    some pivot as NaN or -inf, since every row is some supernode's pivot row.
    """
    d = rows.grid.d
    update = None
    with np.errstate(all="ignore"):
        for (_, low, start, stop), gram in zip(reversed(rows.levels), reversed(grams)):
            front = np.negative(gram)
            diagonal = np.einsum("qii->qi", front[:, :, start:stop])
            diagonal += t
            if update is not None:
                front -= update[:, start:stop]
            for c0 in range(0, stop - start, _PANEL):
                c1 = min(c0 + _PANEL, stop - start)
                for c in range(c0, c1):
                    front[:, c] /= np.sqrt(front[:, c, start + c])[:, None]
                    front[:, c + 1:c1] -= (front[:, c, start + c + 1:start + c1, None]
                                           * front[:, c, None, :])
                panel = front[:, c0:c1]
                front[:, c1:] -= np.matmul(panel[:, :, start + c1:stop].transpose(0, 2, 1), panel)
            if not (diagonal > 0.0).all():     # NaN fails too
                return False
            off = front[:, :, :start]
            carry = None if update is None else update[:, :start, :start]
            if low > 0:         # the next level's support cubes are the parents
                off = off.reshape(-1, (1 << d) * (stop - start), start)
                carry = None if carry is None else _zpool(carry, d)
            schur = np.matmul(off.transpose(0, 2, 1), off)
            update = schur if carry is None else carry + schur
    return True


def _certifies(rows, s: float) -> bool:
    """Whether the tree Cholesky factorization proves |M| <= s sqrt((1 + eps)
    (1 + eta)), M = diag(b) T diag(a) in exact arithmetic on the float
    scalings and profiles.

    W (exact masses m_i = a_i^2 |cell|^2, exact values) is orthogonal, so
    |M| = |M W| = |Y|.  Hats are computed values (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed.); each bound is entrywise
    with a symmetric right side, so it holds on the triangle that is read.
      - Y^: every entry is a sum of products of the inputs a, b, g, gamma
        and the computed w, each with at most m roundings on its path, so
        |Y^ - Y| <= gamma_m Ybar, Ybar the same sum of absolute values, and
        the shadow Z, the same steps on |g|, |gamma|, |w|, is at least
        (1 - gamma_m) Ybar: |Y^ - Y| <= rho Z, rho = gamma_m / (1 - gamma_m).
        On one path: a cell mass 1, a pyramid level d each, so a cube mass
        <= 1 + N d (= mu); w = sqrt(m_B/m_A) / sqrt(m_A + m_B) <= 3 mu + 4;
        then in Y^ the pairing's product and pools (1 + (tau-1) d), the
        product with w and the pool over the children (1 + d), the product
        with gamma and the sum over terms (terms), the sums over the
        family levels a..p (tau) and the term w F_{>p} (1), and b (1); or
        for w F_{>p}: the full pairing (1 + tau d), gamma and the terms
        (terms), the suffix sums (<= N), w (1) and the same last steps.
        m = 4 N d + N + tau (d + 1) + terms + 12 covers both.
      - the Gram: |H^ - Y^T Y^| <= gamma_n |Y^|^T |Y^|, each entry a sum of
        at most n products in some order.
    A nonnegative symmetric B has |B|_2 <= |B 1|_inf, which bounds |Y^|_2^2
    and ||Y^||_2^2 by y2 = |(|Y^|^T |Y^|) 1|_inf and |Z|_2^2 by z2 (both read
    the row-sparse values).  With e = rho sqrt(z2) >= |Y - Y^|_2,
    |Y|^2 <= (|Y^| + e)^2 <= lambda_max(H^) + gamma_n y2 + e (2 sqrt(y2) + e),
    and err is that excess over (1 - gamma_{2n})^3: y2 and z2 are computed
    sums of at most 2n nonnegative terms, and the third factor covers
    forming err.  Products that underflow add at most 2^-1074 each; with
    s^2 >= 2^-900 and n <= 4096 their total is far below that factor's
    slack, so smaller s refuses.

    Rounding enters twice more, relative to t = s^2 (1 + eps):
      - the shift: fl(t I - H^) rounds only the diagonal, by at most u t
        when 0 <= H^_ii <= t (a larger H^_ii leaves a negative pivot);
      - Cholesky (Thm 10.5, whatever the order of each entry's sum): when
        it runs to completion on A = fl(t I - H^), R^T R = A + dA with
        |dA| <= gamma_{n+1} |R^T| |R|, of 2-norm at most gamma_{n+1}
        trace(A) / (1 - gamma_{n+1}), and trace(A) <= n t (1 + u).
    Since R^T R is positive semidefinite, success gives |M|^2 <= t (1 + eta)
    with

        eta = n gamma_{n+1} / (1 - n gamma_{n+1}) + u + err / s^2.

    Conversely (Thm 10.7), to first order the factorization is sure to
    succeed once the margin t - |M|^2 exceeds eta t, so eps = 2 eta leaves
    half the margin for the Krylov value's own shortfall below |M|.  A
    non-finite Y^ or Z, or s^2 below 2^-900, never certifies.
    """
    if not s * s >= _LEAST_SQUARE:
        return False
    if not (np.isfinite(rows.Y).all() and np.isfinite(rows.Z).all()):
        return False
    n = rows.grid.cell_count
    chol = n * _gamma(n + 1)
    eta = chol / (1.0 - chol) + _UNIT_ROUNDOFF + _certificate_error(rows) / (s * s)
    t = s * s * (1.0 + 2.0 * eta)
    return math.isfinite(t) and _tree_cholesky(rows, _tree_gram(rows), t)


def _certificate_error(rows) -> float:
    """err of `_certifies`: |M|^2 <= lambda_max(H^) + err, from the Gram
    rounding gamma_n y2 and the entrywise bound rho Z on Y^.  A column's
    entries are one slot's values on the cells of its support cube."""
    n, d = rows.grid.cell_count, rows.grid.d
    y2, z2 = (max(float(weighted[start:stop].reshape(stop - start, 1 << (low * d), -1)
                        .sum(axis=2).max()) for _, low, start, stop in rows.levels)
              for A in (np.abs(rows.Y), rows.Z) for weighted in (A * A.sum(axis=0),))
    e = rows.rho * math.sqrt(z2)
    return (_gamma(n) * y2 + e * (2.0 * math.sqrt(y2) + e)) / (1.0 - _gamma(2 * n)) ** 3


def power_iteration_norm(forward, backward, n: int) -> float:
    """Largest singular value of a matrix M given as x -> Mx and y -> M^T y.

    Golub-Kahan-Lanczos bidiagonalization from a seeded Gaussian start, with
    full reorthogonalization of both Krylov bases; each step applies M and
    M^T once.  After k steps M V_k = U_k B_k with B_k upper bidiagonal, and
    the top singular triple (s, p, q) of B_k leaves the residual
    |M^T U_k p - s V_k q| = beta_k |e_k^T p|.  The loop stops when that is at
    most `_KRYLOV_TOL` * s, and returns s, a lower bound for |M| that
    increases with k by interlacing.  A zero alpha means the Krylov space is
    invariant and B_k holds the exact top singular value (0.0 when M kills
    the start).  At most min(`_KRYLOV_STEPS`, n) steps run; the start is
    seeded by `_POWER_SEED`.
    """
    return _golub_kahan(forward, backward, n)[0]


def _golub_kahan(forward, backward, n):
    """The loop of `power_iteration_norm`: the estimate s and the unit right
    Ritz vector V_k q that goes with it."""
    v = np.random.default_rng(_POWER_SEED).standard_normal(n)
    v /= _norm(v)
    V, U, alphas, betas = [], [], [], []
    est = est_prev = None
    for _ in range(min(_KRYLOV_STEPS, n)):
        u = forward(v) - (betas[-1] * U[-1] if U else 0.0)
        for x in U:         # full reorthogonalization, in place
            u -= np.einsum("i,i", x, u) * x
        alpha = _norm(u)
        alphas.append(alpha)
        left, s, right = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        est_prev, est = est, float(s[0])
        V.append(v)
        if alpha == 0.0:
            return est, _ritz_vector(V, right[0])
        U.append(u / alpha)
        p = backward(U[-1]) - alpha * v
        for x in V:
            p -= np.einsum("i,i", x, p) * x
        beta = _norm(p)
        if beta * abs(left[-1, 0]) <= _KRYLOV_TOL * est:
            return est, _ritz_vector(V, right[0])
        betas.append(beta)
        v = p / beta
    raise OperatorNormError(
        f"Golub-Kahan-Lanczos did not converge in {len(alphas)} steps",
        bracket=(est_prev, est),
    )


def _ritz_vector(V, q):
    """sum_i q_i V_i, normalized; one vector of workspace."""
    x = q[0] * V[0]
    for c, b in zip(q[1:], V[1:]):
        x += c * b
    return x / _norm(x)


def _norm(x) -> float:
    """|x| by numpy's own summation loop (the module's reduction rule)."""
    return math.sqrt(np.einsum("i,i", x, x))


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------

@dataclass
class CZDecomposition:
    """Dyadic splitting f = g + sum_Q b_Q at height lam.

    Bad cubes are the maximal ones where the average of |f| exceeds lam; each
    bad part is the mean-zero localization (f - g) 1_Q = (f - avg_Q f) 1_Q,
    and the good part equals f off the bad cubes and the cube average on them.
    """

    source: GridFunction
    lam: float
    good: GridFunction
    bad_cubes: list[DyadicCube]
    _bad_keys: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        self._bad_keys = frozenset((c.level, c.flat) for c in self.bad_cubes)

    def bad_part(self, cube: DyadicCube) -> GridFunction:
        if (cube.level, cube.flat) not in self._bad_keys:
            raise ShiftError(f"{cube!r} is not a bad cube of this decomposition")
        vals = np.zeros(self.source.grid.cell_count)
        cube_view(vals, cube)[...] = (cube_view(self.source.values, cube)
                                      - cube_view(self.good.values, cube))
        return GridFunction(self.source.grid, vals)

    def bad_integrals(self) -> np.ndarray:
        """The integral of every bad part, in `bad_cubes` order.

        One integral pyramid of (f - g)|cell| holds them all, since each bad
        part is (f - g) 1_Q: O(cells + bad cubes) work, where summing each
        `bad_part` costs a full cell array per cube.
        """
        grid = self.source.grid
        pyr = integral_pyramid((self.source.values - self.good.values) * grid.cell_volume,
                               grid.d, grid.N)
        return np.array([pyr[c.level][c.flat] for c in self.bad_cubes], dtype=np.float64)

    def bad_measure(self) -> float:
        return sum(c.volume for c in self.bad_cubes)


def cz_decompose(f: GridFunction, lam: float) -> CZDecomposition:
    """Dyadic Calderon-Zygmund decomposition of f at a finite height lam > 0.

    One pass per level, coarse to fine.  When lam exceeds the root average
    of |f|, the good part is bounded by 2^d lam and the bad cubes satisfy
    sum |Q| <= ||f||_1 / lam with constant 1.
    """
    if not 0.0 < lam < math.inf:       # NaN fails too
        raise ShiftError(f"height lam must be finite and positive, got {lam}")
    grid = f.grid
    d, N = grid.d, grid.N
    abs_pyr = integral_pyramid(np.abs(f.values) * grid.cell_volume, d, N)
    sgn_pyr = f.pyramid()
    good = f.values
    bad_cubes = []
    alive = np.ones(1, dtype=bool)
    for j in range(N + 1):
        is_bad = alive & (abs_pyr[j] * (2.0 ** (j * d)) > lam)
        flats = np.nonzero(is_bad)[0]
        if flats.size:
            bad_cubes.extend(grid.cube(j, int(k)) for k in flats)
            avg = sgn_pyr[j] / 2.0 ** (-j * d)
            good = np.where(expand(is_bad, d, N - j), expand(avg, d, N - j), good)
        if j < N:
            alive = expand(alive & ~is_bad, d, 1)
    return CZDecomposition(f, lam, GridFunction(grid, good), bad_cubes)


def weak_l1_ratio(T, f: GridFunction) -> float:
    """sup over lam > 0 of lam * |{|Tf| > lam}| / ||f||_1, scanned exactly.

    For cell-constant output the supremum is attained in the limit at the
    distinct values v of |Tf|, where it equals v * |{|Tf| >= v}|.
    """
    l1 = f.l1_norm()
    if l1 == 0.0:
        raise ShiftError("input must be nonzero")
    return float(_weak_type(apply_shift(T, f).values)) * f.grid.cell_volume / l1


def _weak_type(values: np.ndarray) -> np.ndarray:
    """max over k of k times the k-th largest |value|, along the last axis:
    the weak-type supremum of cell-constant values, in units of a cell."""
    order = np.sort(np.abs(values), axis=-1)[..., ::-1]
    return (order * np.arange(1, order.shape[-1] + 1)).max(axis=-1)
