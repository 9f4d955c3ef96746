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
basis, and certifies its value on that matrix, which `haar` owns: see
`operator_norm`), the dyadic Calderon-Zygmund decomposition, and a weak-L1
superlevel diagnostic.

A reduction whose value reaches an output is a fixed-order numpy reduction
(`np.einsum`, `np.bincount`, `pool`), never a BLAS dot or norm, whose partial
sums split by thread: the outputs are the same bytes at any BLAS thread
count.  `haar` keeps the same rule.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DyadicCube,
    DyadicGrid,
    GridError,
    GridFunction,
    _HAAR_SIGNS,
    assemble_levels,
    check_natural,
    cube_view,
    expand,
    integral_pyramid,
    scatter_subcells,
    subcell_matrix,
)
from .haar import certifies, haar_products, haar_rows, measure_scalings
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


def resolve_method(grid, method: str) -> str:
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
    resolve_method(T.grid, "dense-svd")       # the 4096-cell gate
    a, b = measure_scalings(T.grid, sigma, mu)
    return b[:, None] * T.apply_values(np.diag(a))


def operator_norm(T, sigma: Weight | None = None, mu: Weight | None = None,
                  method: str = "power-iteration") -> float:
    """Norm of f -> T(sigma f) from L2(sigma) to L2(mu).

    `power-iteration` runs Golub-Kahan-Lanczos bidiagonalization from a fixed
    seeded start vector (see `power_iteration_norm` for the stopping rule);
    `dense-svd`, for grids of at most 4096 cells, runs the same loop once on
    Y^ = fl(M W) (`haar.haar_rows`; M the matrix of `dense_matrix`) and
    certifies its value on the same Y^ (`dense_norm`); `auto` picks
    `dense-svd` when it is available (`resolve_method`).  A sigma with no
    Haar basis, or for `power-iteration` a sigma scaling that overflows,
    raises WeightError.

    Either method runs on sigma and mu moved by `window`, which scales the
    bracket of an OperatorNormError back; the value is scaled back here.
    """
    method = resolve_method(T.grid, method)
    with window(sigma, mu) as (sigma, mu, k):
        if method == "dense-svd":
            s = dense_norm(T, lambda: haar_rows(T, sigma, mu))
        else:
            a, b = measure_scalings(T.grid, sigma, mu)
            if not np.isfinite(a).all():        # b = sqrt(mu |cell|) is always finite
                raise WeightError("sigma's scaling sqrt(sigma/|cell|) overflows")
            T_adj = T.adjoint()
            s = power_iteration_norm(lambda v: b * T.apply_values(a * v),
                                     lambda w: a * T_adj.apply_values(b * w), T.grid.cell_count)
    return _times_two_to(s, k)


@contextmanager
def window(sigma, mu):
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


def dense_norm(T, rows) -> float:
    """The `dense-svd` norm of T on Y^ = rows(), T's `haar_rows`: +0.0, with
    no build, when no term of T has both profiles nonzero (T = 0 exactly);
    the Krylov value s = |Y^ v|, v the loop's unit right Ritz vector on
    `haar_products`, when `certifies` passes; OperatorNormError when it
    refuses (bracket (None, s)) or the loop does not converge, so a wrong
    Krylov value never passes; and `haar_rows`' WeightError when sigma has
    no Haar basis in floats."""
    if not any(((T.g[j] != 0).any(2) & (T.gamma[j] != 0).any(2)).any() for j in T.levels):
        return 0.0
    rows = rows()
    forward, backward = haar_products(rows)
    _, v = _golub_kahan(forward, backward, T.grid.cell_count)
    s = _norm(forward(v))
    if not certifies(rows, s):
        raise OperatorNormError(f"the tree certificate refuses the Krylov value {s!r}",
                                bracket=(None, s))
    return s


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
    return float(weak_type(apply_shift(T, f).values)) * f.grid.cell_volume / l1


def weak_type(values: np.ndarray) -> np.ndarray:
    """max over k of k times the k-th largest |value|, along the last axis:
    the weak-type supremum of cell-constant values, in units of a cell."""
    order = np.sort(np.abs(values), axis=-1)[..., ::-1]
    return (order * np.arange(1, order.shape[-1] + 1)).max(axis=-1)
