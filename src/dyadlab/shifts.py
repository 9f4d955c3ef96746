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
(matrix-free Golub-Kahan-Lanczos bidiagonalization, and a dense oracle that
runs the same loop once, through the row-sparse factors of the shift, and
certifies its value with one Cholesky factorization: see `operator_norm`),
the dyadic Calderon-Zygmund decomposition, and a weak-L1 superlevel
diagnostic.

A reduction whose value reaches an output is a fixed-order numpy reduction
(`np.einsum`, `np.bincount`, `pool`), never a BLAS dot or norm, whose partial
sums split by thread: the outputs are the same bytes at any BLAS thread
count.  BLAS products that only decide a certificate's pass or fail
(M^T M, the congruence, l2) may stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import (
    DyadicCube,
    DyadicGrid,
    GridError,
    GridFunction,
    _HAAR_SIGNS,
    ancestor_map,
    assemble_levels,
    check_natural,
    cube_view,
    descendant_flat,
    expand,
    integral_pyramid,
    pool,
    scatter_subcells,
    subcell_matrix,
)
from .weights import Weight, _measure


class ShiftError(ValueError):
    """Invalid shift data or incompatible operands."""


class OperatorNormError(RuntimeError):
    """The Krylov norm iteration did not converge; `bracket` holds its last
    two top Ritz values, which increase towards the norm."""

    def __init__(self, message, bracket):
        super().__init__(message)
        self.bracket = bracket


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


def adjoint(T):
    """The Lebesgue-adjoint shift: g and gamma swapped per cube."""
    return T.adjoint()


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

_POWER_SEED = 0x0D7AD1C
_DENSE_CELLS = 4096


def _measure_scalings(grid, sigma, mu):
    vol = grid.cell_volume
    # input scaling: L2(sigma) isometry composed with (sigma .); output: L2(mu) isometry
    a = np.sqrt(_measure(grid, sigma).values / vol)
    b = np.sqrt(_measure(grid, mu).values * vol)
    return a, b


def dense_matrix(T, sigma: Weight | None = None, mu: Weight | None = None) -> np.ndarray:
    """Dense matrix of f -> T(sigma f) between the scaled coordinates of
    L2(sigma) and L2(mu); its largest singular value is the operator norm."""
    if T.grid.cell_count > _DENSE_CELLS:
        raise ShiftError("dense matrix limited to grids with at most 4096 cells")
    a, b = _measure_scalings(T.grid, sigma, mu)
    return b[:, None] * T.apply_values(np.diag(a))


def operator_norm(T, sigma: Weight | None = None, mu: Weight | None = None,
                  method: str = "power-iteration", tol: float = 1e-8,
                  max_iter: int = 10_000, seed: int = _POWER_SEED) -> float:
    """Norm of f -> T(sigma f) from L2(sigma) to L2(mu).

    `power-iteration` runs Golub-Kahan-Lanczos bidiagonalization from a fixed
    seeded start vector (see `power_iteration_norm` for the stopping rule);
    `dense-svd` is the oracle for grids of at most 4096 cells; `auto` picks
    the oracle when it is available.

    The oracle runs the loop once (same `tol`, `max_iter` and `seed`)
    through the row-sparse n x K factors of M = C G^T (`_low_rank_factors`,
    M the matrix of `dense_matrix`), by one bincount and one gather per
    product, and takes s = |C G^T v| for its unit right Ritz vector v.  The
    shift's size only picks what certifies s with one Cholesky factorization
    (`_certifies`): the K x K `_factored_gram` when 0 < K <= n/2 (eps' at most
    6e-9 on the two-weight suite; no n x K or n x n array is formed), and
    when K is larger, G^T G is not positive definite or that certificate
    refuses, M^T M with the bound of `_gram_error` (eps about 2.5e-10 at 1024
    cells).  When that fails too, or the loop raises, the norm is the square
    root of the top eigenvalue of the same M^T M from LAPACK's symmetric
    eigensolver.  A wrong Krylov value therefore never passes, the dense
    branch never raises `OperatorNormError`, and M = 0 (s = 0, which the
    certificate rejects) gives +0.0 through the fallback, never NaN.
    """
    if method == "auto":
        method = "dense-svd" if T.grid.cell_count <= _DENSE_CELLS else "power-iteration"
    if method == "dense-svd":
        n = T.grid.cell_count
        if n > _DENSE_CELLS:
            raise ShiftError("dense matrix limited to grids with at most 4096 cells")
        factors = _low_rank_factors(T, sigma, mu)
        forward, backward = _factor_products(factors)
        try:
            _, v = _golub_kahan(forward, backward, n, tol, max_iter, seed)
            s = _norm(forward(v))
        except OperatorNormError:
            s = 0.0
        if 0 < factors.K <= n // 2:
            try:
                H, err = _factored_gram(factors)
                if _certifies(H, s, err):
                    return s
            except np.linalg.LinAlgError:       # G^T G not positive definite
                pass
        M = dense_matrix(T, sigma, mu)
        gram = M.T @ M
        del M
        if _certifies(gram, s, _gram_error(gram)):
            return s
        top = float(np.linalg.eigvalsh(gram)[-1])
        return math.sqrt(top) if top > 0.0 else 0.0
    if method != "power-iteration":
        raise ShiftError(f"unknown method {method!r}")

    grid = T.grid
    a, b = _measure_scalings(grid, sigma, mu)
    T_adj = T.adjoint()
    return power_iteration_norm(
        lambda v: b * T.apply_values(a * v),
        lambda w: a * T_adj.apply_values(b * w),
        grid.cell_count, tol=tol, max_iter=max_iter, seed=seed,
    )


class _RowSparse(NamedTuple):
    """Row-sparse n x K factors of M = C G^T: cell i holds C[i] and G[i] in
    columns cols[i], one slot per (family level, term), by ascending level."""
    C: np.ndarray
    G: np.ndarray
    cols: np.ndarray
    level: np.ndarray
    K: int
    grid: DyadicGrid


def _profile_columns(T):
    """(g, gamma, level): T's profiles on the cells, one column per family
    level and term by ascending level, each cell holding the profile of its
    cube at that level; level gives each column's family level."""
    d, N, tau = T.grid.d, T.grid.N, T.tau

    def on_cells(profiles):
        return np.concatenate([np.zeros((T.grid.cell_count, 0))] + [
            expand(scatter_subcells(np.moveaxis(profiles[j], 0, -1), d, tau), d, N - j - tau)
            for j in T.levels], axis=1)

    level = np.repeat(T.levels, [T.g[j].shape[0] for j in T.levels])
    return on_cells(T.g), on_cells(T.gamma), level


def _low_rank_factors(T, sigma, mu):
    """C = diag(b) Gamma and G = diag(a |cell|) G0 with M = C G^T (a, b as in
    `dense_matrix`), one column per (level, term, cube), numbered col +
    count * term + cube, holding the expanded profile on the cube's cells.
    A cell lies in one cube per level, so only its (level, term) slots are
    stored; a shift with no family cube gives K = 0 columns."""
    grid = T.grid
    d, N = grid.d, grid.N
    a, b = _measure_scalings(grid, sigma, mu)
    g, gamma, level = _profile_columns(T)
    cols, K = [np.zeros((grid.cell_count, 0), dtype=np.intp)], 0
    for j in T.levels:
        terms, count = T.g[j].shape[:2]
        cols.append(K + count * np.arange(terms) + ancestor_map(d, N, j)[:, None])
        K += terms * count
    return _RowSparse(gamma * b[:, None], g * (a * grid.cell_volume)[:, None],
                      np.hstack(cols), level, K, grid)


def _factor_products(f):
    """x -> C (G^T x) and y -> G (C^T y): one bincount, then one gather."""
    flat = f.cols.ravel()

    def through(A, B):
        return lambda x: np.einsum("ij,ij->i", A, np.bincount(
            flat, weights=(B * x[:, None]).ravel(), minlength=f.K)[f.cols])
    return through(f.C, f.G), through(f.G, f.C)


def _factor_grams(f):
    """C^T C and G^T G, stacked.  For slots p, q at levels j <= k the entry
    sums F_p F_q over q's cube, so it is pool(F_j F_k, d, N - k) there: one
    pool per level k, for both factors and all slots of level <= k, and one
    scatter (entry and mirror) at the columns held on each level-k cube's
    first cell.  The rest stay exact zeros, and each entry sums <= n products."""
    K, d, N = f.K, f.grid.d, f.grid.N
    both = np.stack((f.C, f.G), axis=1)
    vals, rows, cols = [], [], []
    for k in np.unique(f.level).tolist():
        start, stop = np.searchsorted(f.level, (k, k + 1))
        block = pool(both[:, :, :stop, None] * both[:, :, None, start:stop], d, N - k)
        vals.append(np.moveaxis(block, 1, 0).reshape(2, -1))
        first = f.cols[descendant_flat(d, k, N, np.arange(1 << (k * d)), 0)]
        r, c = np.broadcast_arrays(first[:, :stop, None], first[:, None, start:stop])
        rows.append(r.ravel())
        cols.append(c.ravel())
    vals, rows, cols = (np.concatenate(x, axis=-1) for x in (vals, rows, cols))
    grams = np.zeros((2, K, K))
    grams[:, rows, cols] = grams[:, cols, rows] = vals
    return grams


def _factored_gram(f):
    """H^ = fl(L^T (C^T C) L) with G^T G = L L^T, and err with |C G^T|^2 <=
    lambda_max(H^) + err; LinAlgError when G^T G is not positive definite.

    Hats are computed values (Higham, as in `_certifies`); each bound is
    entrywise with a symmetric right side, so it holds on the triangle
    LAPACK reads.  The rounding errors:
      - two Gram matrices (`_factor_grams`): P^ = C^T C + E1, fl(G^T G) =
        G^T G + E2, |E1| <= gamma_n |C|^T |C|, |E2| <= gamma_n |G|^T |G|,
        since each entry is a sum of at most n products in some order;
      - Cholesky (Thm 10.5): L^ L^T = fl(G^T G) + E3, |E3| <= gamma_{K+1} |L^| |L^T|;
      - two K-term congruence products: W^ = P^ L^ + E4, H^ = L^T W^ + E5,
        |E4| <= gamma_K |P^| |L^|, |E5| <= gamma_K |L^T| |W^|, where
        |P^| <= (1 + gamma_n) |C|^T |C| and |W^| <= (1 + gamma_K) |P^| |L^|.
    A nonnegative symmetric B has |B|_2 <= |B 1|_inf, which bounds |C|_2^2,
    ||G|^T |G||_2 and ||L^||_2^2 by c2 = |(|C|^T |C|) 1|_inf, g2 (likewise;
    both read the row-sparse values) and l2 = |(|L^| |L^T|) 1|_inf.  In
    lambda_max(M M^T) = lambda_max(C G^T G C^T):
      - G^T G = L^ L^T - E2 - E3 adds at most c2 (gamma_n g2 + gamma_{K+1} l2)
        to lambda_max(L^T C^T C L^);
      - L^T C^T C L^ = H^ - L^T E1 L^ - L^T E4 - E5, the last three bounded
        by (gamma_n + gamma_K (2 + gamma_K)(1 + gamma_n)) |L^T| |C|^T |C| |L^|,
        of 2-norm at most that factor times c2 l2.
    err is their sum over (1 - gamma_{n+K})^3: each of c2, g2, l2 is a computed
    sum of nonnegative terms, at most 1 / (1 - gamma_{n+K}) times its value,
    and the third factor covers forming err.  Nothing is inverted, so err
    does not grow with the condition of G^T G.
    """
    n, K = len(f.cols), f.K
    CtC, GtG = _factor_grams(f)
    L = np.linalg.cholesky(GtG)
    H = L.T @ (CtC @ L)
    Lt = np.abs(L.T)
    c2, g2 = (float(np.bincount(f.cols.ravel(), (A * A.sum(axis=1)[:, None]).ravel()).max())
              for A in map(np.abs, (f.C, f.G)))
    l2 = float((Lt.T @ Lt.sum(axis=1)).max())
    gn, gk = _gamma(n), _gamma(K)
    err = (c2 * (gn * g2 + (_gamma(K + 1) + gn + gk * (2.0 + gk) * (1.0 + gn)) * l2)
           / (1.0 - _gamma(n + K)) ** 3)
    return H, err


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _gram_error(gram: np.ndarray) -> float:
    """err of `_certifies` for G = fl(M^T M), M with n rows: |G - M^T M| <=
    gamma_n |M|^T |M|, of 2-norm at most gamma_n trace(G) / (1 - gamma_n)."""
    return _gamma(len(gram)) * float(np.trace(gram)) / (1.0 - _gamma(len(gram)))


def _certifies(H: np.ndarray, s: float, err: float) -> bool:
    """Whether a Cholesky factorization proves |M| <= s sqrt((1+eps)(1+eta)),
    given a computed k x k matrix H with |M|^2 <= lambda_max(H) + err.

    Rounding enters twice more (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed.), relative to t = s^2 (1 + eps):
      - the shift: fl(t I - H) rounds only the diagonal, by at most u t when
        0 <= H_ii <= t (a negative diagonal entry refuses);
      - Cholesky (Thm 10.5): when it runs to completion on A = fl(t I - H),
        R^T R = A + dA with |dA| <= gamma_{k+1} |R^T| |R|, of 2-norm at most
        gamma_{k+1} trace(A) / (1 - gamma_{k+1}), and trace(A) <= k t (1 + u).
    Since R^T R is positive semidefinite, success gives |M|^2 <= t (1 + eta) with

        eta = k gamma_{k+1} / (1 - k gamma_{k+1}) + u + err / s^2.

    Conversely (Thm 10.7), to first order the factorization is sure to
    succeed once the margin t - |M|^2 exceeds eta t, so eps = 2 eta leaves
    half the margin for the Krylov value's own shortfall below |M|.  s <= 0
    never certifies.
    """
    if not s > 0.0 or np.diagonal(H).min() < 0.0:
        return False
    k = H.shape[0]
    chol = k * _gamma(k + 1)
    eta = chol / (1.0 - chol) + _UNIT_ROUNDOFF + err / (s * s)
    shifted = np.negative(H)
    shifted.flat[::k + 1] += s * s * (1.0 + 2.0 * eta)
    try:
        # LAPACK reads one triangle, and each triangle of H meets the bound
        # behind err; the transposed view is the one it reads without a copy
        np.linalg.cholesky(shifted.T)
    except np.linalg.LinAlgError:
        return False
    return True


def power_iteration_norm(forward, backward, n: int, tol: float = 1e-8,
                         max_iter: int = 10_000, seed: int = _POWER_SEED) -> float:
    """Largest singular value of a matrix M given as x -> Mx and y -> M^T y.

    Golub-Kahan-Lanczos bidiagonalization from a seeded Gaussian start, with
    full reorthogonalization of both Krylov bases; each step applies M and
    M^T once.  After k steps M V_k = U_k B_k with B_k upper bidiagonal, and
    the top singular triple (s, p, q) of B_k leaves the residual
    |M^T U_k p - s V_k q| = beta_k |e_k^T p|.  The loop stops when that is at
    most `tol` * s, and returns s, a lower bound for |M| that increases with
    k by interlacing.  A zero alpha means the Krylov space is invariant and
    B_k holds the exact top singular value (0.0 when M kills the start).
    At most min(max_iter, n) steps run.
    """
    return _golub_kahan(forward, backward, n, tol, max_iter, seed)[0]


def _golub_kahan(forward, backward, n, tol, max_iter, seed):
    """The loop of `power_iteration_norm`: the estimate s and the unit right
    Ritz vector V_k q that goes with it."""
    rng = np.random.default_rng(check_natural(seed, "seed", ShiftError))
    v = rng.standard_normal(n)
    v /= _norm(v)
    V, U, alphas, betas = [], [], [], []
    est = est_prev = None
    for _ in range(min(max_iter, n)):
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
        if beta * abs(left[-1, 0]) <= tol * est:
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
