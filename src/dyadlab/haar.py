"""A shift's matrix in the sigma-weighted Haar basis of the
Nazarov-Treil-Volberg T1 theorem: Y^ = fl(M W), M the matrix of
f -> T(sigma f) in the coordinates of `measure_scalings` and W the
orthogonal matrix of the constant and the two-point functions of every cube,
so |M| = |M W|.  Only this module knows Y^'s slot layout and Morton maps
(`HaarRows`).  `shifts` builds Y^ (`haar_rows`), runs its Krylov loop on
`haar_products` and certifies the value (`certifies`); `estimates` reads
the testing constants' values off the same Y^ (`testing_values`).  A value
that reaches an output is a fixed-order numpy reduction, as in `shifts`;
BLAS products only decide the certificate's pass or fail.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import DyadicGrid, ancestor_flat, descendant_flat, descendant_offset
from .weights import WeightError, _measure

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny
_LEAST_SQUARE = 2.0 ** -900      # below this s^2 underflow could matter; refuse
_PANEL = 16                      # rows of a supernode eliminated one at a time

# the two-point splits of a cube's children (local row-major offsets): d=1 the
# two children, d=2 the halves by the first index, then each half by the second
_TWO_POINT = {1: (((0,), (1,)),), 2: (((0, 1), (2, 3)), ((0,), (1,)), ((2,), (3,)))}


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


class HaarRows(NamedTuple):
    """Y^ = fl(M W) row-sparse, slot-major, and its shadow Z, with
    |Y^ - M W| <= rho Z entrywise: the cell in Morton position i (flat index
    z[N][i]) holds Y[:, i] and Z[:, i].  Slots run by ascending function
    level p (-1 for the constant), (p, a, start, stop) per level in `levels`:
    slot start + E r + e of a cell is the function of pattern e on the r-th
    level-p cube, in Morton order, of the cell's level-a ancestor (its
    support cube); `_slots` views that layout.  Per level l, in Morton order:
    z[l] maps positions to flat indices and morton[l] back, mass[l] holds
    the cube masses, w[l] the `_two_point_values`; b holds the cell scalings."""
    Y: np.ndarray
    Z: np.ndarray
    z: list
    morton: list
    levels: tuple
    rho: float
    grid: DyadicGrid
    mass: list
    w: list
    b: np.ndarray


def measure_scalings(grid, sigma, mu):
    """M's cell scalings: a = sqrt(sigma/|cell|), b = sqrt(mu |cell|)."""
    vol = grid.cell_volume
    with np.errstate(over="ignore"):
        a = np.sqrt(_measure(grid, sigma).values / vol)
    b = np.sqrt(_measure(grid, mu).values * vol)
    return a, b


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


def haar_rows(T, sigma, mu):
    """Y^ = fl(M W) and its shadow in the sigma-weighted Haar basis; WeightError
    when the basis is not well defined in floating point (a cell mass not a
    positive normal number, a root mass that overflows, or a two-point value
    zero or not finite).

    Column (P, e) of W is the two-point function w_{P,e} of `_TWO_POINT` for
    the masses m_i = a_i^2 |cell|^2, times a |cell| (its coordinates in M's
    input); column 0 is the constant 1/sqrt(m(root)).  Y's column is b
    T(m w) and lives on the level-a ancestor of P, a = max(p - tau + 1, 0):

        b [w(x) F_{>p}(x) + sum_{Q, k} (sum_c w(c) <m 1_c, g_Qk>) gamma_Qk(x)],

    with F_{>p} the suffix field of T(m) over the family levels > p, c the
    children of P, and Q the family cubes containing x and P at the levels
    a..p; a farther ancestor's g_Q is constant on P and pairs to zero with
    m w.  Both sums run on the pairings <m 1_c, g_Q>, the pools of g_Q m over
    the level-(j + tau) cells of Q.  Each level-j term is written into the
    slots of the cubes under its Q through `_slots`.  The same steps on |g|,
    |gamma| and |w| give the shadow Z, one stacked axis apart.
    """
    grid = T.grid
    d, N, tau, n = grid.d, grid.N, T.tau, grid.cell_count
    z, levels = _haar_layout(d, N, tau)
    a, b = (x[z[N]] for x in measure_scalings(grid, sigma, mu))     # Morton order
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
    return HaarRows(rows[0], rows[1], z, [np.argsort(x) for x in z], levels,
                    _gamma(m) / (1.0 - _gamma(m)), grid, mass, w, b)


def haar_products(rows):
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


def certifies(rows, s: float) -> bool:
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
    """err of `certifies`: |M|^2 <= lambda_max(H^) + err, from the Gram
    rounding gamma_n y2 and the entrywise bound rho Z on Y^.  A column's
    entries are one slot's values on the cells of its support cube."""
    n, d = rows.grid.cell_count, rows.grid.d
    y2, z2 = (max(float(weighted[start:stop].reshape(stop - start, 1 << (low * d), -1)
                        .sum(axis=2).max()) for _, low, start, stop in rows.levels)
              for A in (np.abs(rows.Y), rows.Z) for weighted in (A * A.sum(axis=0),))
    e = rows.rho * math.sqrt(z2)
    return (_gamma(n) * y2 + e * (2.0 * math.sqrt(y2) + e)) / (1.0 - _gamma(2 * n)) ** 3


def testing_values(rows, mu, tau: int):
    """The values behind C_T1, C_T*1 and C_WB, row-major, on Y^ of a shift of
    index tau: per level, ||1_Q T(sigma 1_Q)||^2_mu / sigma(Q) and
    `_tstar1_values` for every cube Q, and the `_wb_ratios`; WeightError when
    a cell mass of mu is not a positive normal number or its total overflows."""
    grid = rows.grid
    mu_mass = _cube_masses(grid, measure_scalings(grid, mu, None)[0][rows.z[-1]])
    if mu_mass is None:
        raise WeightError("mu has a cell mass that is not a positive normal number, "
                          "or a total mass that overflows")
    B = _indicator_sums(rows)
    t1 = [m * np.square(field).reshape(m.size, -1).sum(1) for m, field in zip(rows.mass, B)]
    t1, tstar1 = ([v[r] for v, r in zip(values, rows.morton)]
                  for values in (t1, _tstar1_values(rows, B, mu_mass)))
    return t1, tstar1, _wb_ratios(rows, mu_mass, B, tau)


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


def _wb_ratios(rows, mu_mass: list, B: list, tau: int) -> list:
    """Per level j, the C_WB ratio sqrt(m(Q')) |sum_{x in Q''} b_x F(x)| /
    sqrt(mu(Q'')), F the `_indicator_fields` of Q', for every Q' and Q'' at
    most tau - 1 levels below each level-j cube Q, on the axes (Q', Q'', Q):
    Q' and Q'' by depth then row-major offset, Q by its flat index."""
    d, N = rows.grid.d, rows.grid.N
    depths = range(min(tau, N + 1))
    # the field index of the cubes under a cube, by depth then row-major offset
    order = np.concatenate([((1 << (e * d)) - 1) // ((1 << d) - 1) + rows.morton[e]
                            for e in depths])
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
        ratios.append(ratio[np.ix_(rows.morton[j], order[:width], order[:width])]
                      .transpose(1, 2, 0))
    return ratios
