"""Dyadic partitions of [0,1) refined toward the origin (d=1).

A uniform depth-M grid resolves the power weight x^a only down to 2^-M, so
its A2 characteristic stays far below the weight's 1/((1+a)(1-a)) when a is
close to 1.  A `ShellPartition` keeps the level-M cells away from 0 and
splits [0, 2^-M) into the dyadic shells [2^-(k+1), 2^-k), k = M, ..., D-1,
each cut into 8 equal cells, plus the tail cell [0, 2^-D).  That is
2^M + 8 (D - M) cells, and D may go far below the 2^-62 at which a flat
level-D cell index would no longer fit an int64: cells are addressed by block
(tail, shell, uniform) and offset, and weights are computed relative to the
scale of their shell.

Cell arrays run left to right: the tail cell, shells D-1 down to M (8
cells each, left to right), then the uniform cells 1 .. 2^M - 1.  With
D = M the partition is the uniform grid of depth M in its usual order.

Functions constant on the cells are handled in Lebesgue-orthonormal
coordinates (cell value times the square root of the cell length), in which
the Haar transform of the partition tree is orthogonal.  The operator is the
dyadic Hilbert shift compressed to cell-constant functions, P T P with P the
cell averaging.  The pair (g_Q, gamma_Q) that T puts on every cube is read
once from `shifts.hilbert_shift` on (h_Q, h_Q-, h_Q+) and applied to the
partition tree in one stencil pass; the adjoint swaps the pair.  Every number
stays within the range of the weight values however deep the partition goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import MAX_DEPTH, GridError, GridFunction, build_grid, haar_basis, haar_coefficient
from .shifts import hilbert_shift, power_iteration_norm
from .weights import Weight, WeightError, power_weight, two_weight_a2

SHELL_LEVELS = 3                 # each shell is cut into 2^3 = 8 cells
SHELL_CELLS = 1 << SHELL_LEVELS
MAX_REFINEMENT = 1000            # keeps 2^(D a) and the (D-M)^2 spine maps small
_R2 = math.sqrt(0.5)


@dataclass(frozen=True)
class ShellPartition:
    """Uniform to depth M (`depth`), refined toward 0 down to level D
    (`refinement`) by shells of SHELL_CELLS equal cells."""

    depth: int
    refinement: int

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH[1]:
            raise GridError(f"depth M={self.depth} out of range [1, {MAX_DEPTH[1]}]")
        if not self.depth <= self.refinement <= MAX_REFINEMENT:
            raise GridError(
                f"refinement D={self.refinement} out of range [{self.depth}, {MAX_REFINEMENT}]"
            )

    @property
    def shell_count(self) -> int:
        return self.refinement - self.depth

    @property
    def cell_count(self) -> int:
        return (1 << self.depth) + self.shell_count * SHELL_CELLS

    # -- cell-array layout -------------------------------------------------

    def _split(self, x):
        """(tail, shells indexed by k - M, uniform cells 1..) views of x."""
        K, C = self.shell_count, SHELL_CELLS
        shells = x[1:1 + K * C].reshape((K, C) + x.shape[1:])[::-1]
        return x[0], shells, x[1 + K * C:]

    def _join(self, tail, shells, uniform):
        K, C = self.shell_count, SHELL_CELLS
        rows = shells[::-1].reshape((K * C,) + shells.shape[2:])
        return np.concatenate([tail[None], rows, uniform], axis=0)

    # -- orthonormal Haar transform of the partition tree ------------------

    @cached_property
    def _spine_matrices(self):
        """Maps between the shell/tail scaling coefficients and the spine.

        Spine node k is [0, 2^-k), k = M..D; its children are spine node k+1
        and shell k.  `up` sends (shell scalings, tail) to the spine scalings
        s_M..s_D; `down` sends (s_M, spine coefficients) back to s_M..s_D.
        """
        K = self.shell_count
        t = np.arange(K + 1)
        gap = t[None, :] - t[:, None]
        up = np.where(gap >= 0, np.exp2(-(gap + 1) / 2.0), 0.0)
        up[:, K] = np.exp2(-(K - t) / 2.0)
        down = np.where(gap <= 0, np.exp2((gap - 1) / 2.0), 0.0)
        down[:, 0] = np.exp2(-t / 2.0)
        return up, down

    def analysis(self, x: np.ndarray):
        """Haar coefficients of orthonormal cell coordinates x (cells, B)."""
        tail, shells, uniform = self._split(x)
        up, _ = self._spine_matrices
        s_sh, c_sh = _tree_analysis(shells)
        s_sp = up @ np.concatenate([s_sh, tail[None]], axis=0)
        c_sp = (s_sp[1:] - s_sh) * _R2
        s_un, c_un = _tree_analysis(np.concatenate([s_sp[:1], uniform], axis=0)[None])
        return s_un, c_un, c_sp, c_sh

    def synthesis(self, coefs) -> np.ndarray:
        """Inverse (and transpose) of `analysis`."""
        s_un, c_un, c_sp, c_sh = coefs
        cells = _tree_synthesis(s_un, c_un)[0]
        _, down = self._spine_matrices
        s_sp = down @ np.concatenate([cells[:1], c_sp], axis=0)
        shells = _tree_synthesis((s_sp[:-1] - c_sp) * _R2, c_sh)
        return self._join(s_sp[-1], shells, cells[1:])


def _tree_analysis(u):
    """Orthonormal Haar analysis of complete binary trees, u: (trees, 2^L, B).

    Returns the root scalings (trees, B) and the coefficients by level, each
    (trees, 2^l, B), level 0 first.
    """
    coefs = []
    s = u
    while s.shape[1] > 1:
        left, right = s[:, 0::2], s[:, 1::2]
        coefs.append((left - right) * _R2)
        s = (left + right) * _R2
    coefs.reverse()
    return s[:, 0], coefs


def _tree_synthesis(s, coefs):
    s = s[:, None]
    for c in coefs:
        out = np.empty((s.shape[0], 2 * s.shape[1]) + s.shape[2:])
        out[:, 0::2] = (s + c) * _R2
        out[:, 1::2] = (s - c) * _R2
        s = out
    return s


# ---------------------------------------------------------------------------
# the compressed dyadic Hilbert shift
# ---------------------------------------------------------------------------

def _root_profile():
    """`hilbert_shift`'s g_Q and gamma_Q on (h_Q, h_Q-, h_Q+), Q the root."""
    grid = build_grid(1, 2)
    T, root = hilbert_shift(grid), grid.root()
    basis = [h for cube in (root, *root.children()) for h in haar_basis(cube)]
    return [tuple(haar_coefficient(GridFunction(grid, prof[0, 0]), h) for h in basis)
            for prof in (T.g[0], T.gamma[0])]


_G, _GAMMA = _root_profile()        # (1, 0, 0) and (0, sqrt(1/2), -sqrt(1/2))


def _families(coefs):
    """(Q, Q-, Q+) views of the Haar coefficients, each node Q of the partition
    tree once; None is a child that is a cell, whose Haar functions P drops."""
    _, c_un, c_sp, c_sh = coefs
    fams = [(c, n[:, 0::2], n[:, 1::2])
            for tree in (c_un, c_sh) for c, n in zip(tree, tree[1:])]
    top = c_un[-1]
    if not len(c_sp):
        return fams + [(top, None, None)]
    # the cell [0, 2^-M) is spine node M; spine node k has children spine k+1
    # (the tail cell for k = D-1) and shell k
    return fams + [(top[:, :1], c_sp[None, :1], None), (top[:, 1:], None, None),
                   (c_sp[:-1], c_sp[1:], c_sh[0][:-1, 0]),
                   (c_sp[-1:], None, c_sh[0][-1:, 0]), (c_sh[-1], None, None)]


def _shift_coefs(coefs, adjoint):
    """sum_Q <c, g_Q> gamma_Q over the nodes Q of the partition tree; the
    adjoint swaps g and gamma as `SimpleHaarShift.adjoint` does."""
    g, gamma = (_GAMMA, _G) if adjoint else (_G, _GAMMA)
    s_un, c_un, c_sp, c_sh = coefs
    out = (np.zeros_like(s_un), [np.zeros_like(c) for c in c_un], np.zeros_like(c_sp),
           [np.zeros_like(c) for c in c_sh])
    for src, dst in zip(_families(coefs), _families(out)):
        reads = [(a, x) for a, x in zip(g, src) if a and x is not None]
        writes = [(a, y) for a, y in zip(gamma, dst) if a and y is not None]
        if reads and writes:
            t = sum(a * x for a, x in reads)
            for a, y in writes:
                y += a * t
    return out


def hilbert_compressed(part: ShellPartition, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """P T P (or its adjoint) in orthonormal cell coordinates, x: (cells,) or (cells, B).

    T is the index-2 dyadic Hilbert shift of `shifts.hilbert_shift` on the
    infinite dyadic tree; only cubes that are unions of at least two cells
    see a cell-constant function, and P drops the Haar functions of cells.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != part.cell_count:
        raise GridError("cell array does not match the partition")
    coefs = _shift_coefs(part.analysis(x.reshape(x.shape[0], -1)), adjoint)
    return part.synthesis(coefs).reshape(x.shape)


# ---------------------------------------------------------------------------
# weights on the partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionWeight:
    """Strictly positive cell values on a shell partition."""

    partition: ShellPartition
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.partition.cell_count,):
            raise WeightError("one value per partition cell required")
        if not (np.isfinite(vals).all() and vals.min() > 0.0):
            raise WeightError("weight values must be finite and strictly positive")
        object.__setattr__(self, "values", vals)

    def dual(self) -> "PartitionWeight":
        return PartitionWeight(self.partition, 1.0 / self.values)

    def a2_characteristic(self) -> float:
        """sup over the dyadic cubes of avg_Q(w) avg_Q(1/w).

        Cubes inside a cell give 1; the others are unions of cells.  On the
        uniform block the scan is `weights.two_weight_a2`, so D = M reproduces
        the grid value exactly.
        """
        part = self.partition
        w_tail, w_sh, w_un = part._split(self.values)
        w_cells = np.concatenate([[w_tail], w_un])
        v_cells = 1.0 / w_cells
        best = 1.0
        if part.shell_count:
            # cubes inside the shells, then the spine [0, 2^-k), k = D-1 .. M,
            # whose top node is the first cube of the uniform block
            wa, va = w_sh, 1.0 / w_sh
            while wa.shape[1] > 1:
                wa = 0.5 * (wa[:, 0::2] + wa[:, 1::2])
                va = 0.5 * (va[:, 0::2] + va[:, 1::2])
                best = max(best, float((wa * va).max()))
            for k in range(part.shell_count - 1, -1, -1):
                w_cells[0] = 0.5 * (w_cells[0] + wa[k, 0])
                v_cells[0] = 0.5 * (v_cells[0] + va[k, 0])
                best = max(best, float(w_cells[0] * v_cells[0]))
        grid = build_grid(1, part.depth)
        uniform = two_weight_a2(Weight(w_cells, grid), Weight(v_cells, grid))
        return max(best, uniform.characteristic)


def partition_power_weight(a: float, part: ShellPartition) -> PartitionWeight:
    """Exact cell averages of x^a on the partition.

    The uniform cells are those of `power_weight(a, build_grid(1, M))`.  On
    shell k the average over [2^-(k+1) t0, 2^-(k+1) t1) is 2^-(k+1)a times
    the average of t^a over [t0, t1), t in [1, 2); the tail average is
    2^-Da / (a+1).  No power of a cell endpoint is formed, so nothing
    underflows however deep the shells go.
    """
    uniform = power_weight(a, build_grid(1, part.depth)).values
    if not part.shell_count:
        return PartitionWeight(part, uniform)
    C = SHELL_CELLS
    t = 1.0 + np.arange(C + 1) / C
    rel = np.diff(t ** (a + 1.0)) * C / (a + 1.0)
    k = np.arange(part.depth, part.refinement)
    shells = np.exp2(-(k + 1.0) * a)[:, None] * rel[None, :]
    tail = np.exp2(-part.refinement * a) / (a + 1.0)
    return PartitionWeight(part, part._join(np.asarray(tail), shells, uniform[1:]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def partition_operator_norm(part: ShellPartition, sigma: PartitionWeight,
                            mu: PartitionWeight) -> float:
    """Norm of f -> P T(sigma f) from L2(sigma) to L2(mu), T the Hilbert shift.

    With sigma = w^-1 and mu = w this is the norm of P T P on L2(w), a lower
    bound for the norm of T on L2(w) because w is constant on the cells (P is
    then the orthogonal projection of L2(w) onto cell-constant functions).
    """
    a, b = np.sqrt(sigma.values), np.sqrt(mu.values)
    return power_iteration_norm(
        lambda v: b * hilbert_compressed(part, a * v),
        lambda w: a * hilbert_compressed(part, b * w, adjoint=True),
        part.cell_count,
    )
