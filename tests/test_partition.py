import numpy as np
import pytest

from dyadlab import (
    GridError,
    GridFunction,
    PartitionWeight,
    ShellPartition,
    ShiftError,
    Weight,
    WeightError,
    build_grid,
    dense_matrix,
    dual_weight,
    hilbert_shift,
    martingale_transform,
    operator_norm,
    partition_operator_norm,
    partition_power_weight,
    power_weight,
)
from dyadlab import partition
from dyadlab.partition import SHELL_LEVELS, hilbert_compressed
import dyadlab.experiments as exp

from helpers import compressed_matrix


# -- layout and the Haar transform ----------------------------------------------

@pytest.mark.parametrize("M,D", [(3, 3), (3, 7), (1, 4), (5, 9)])
def test_partition_tree_transform_is_orthogonal(M, D):
    part = ShellPartition(M, D)
    assert part.cell_count == 2 ** M + (D - M) * 8
    assert (2.0 ** -_cell_levels(part)).sum() == 1.0
    eye = np.eye(part.cell_count)
    assert np.abs(part.synthesis(part.analysis(eye)) - eye).max() <= 1e-14
    forward = hilbert_compressed(part, eye)
    backward = hilbert_compressed(part, eye, adjoint=True)
    assert np.abs(forward.T - backward).max() <= 1e-14


# -- a partition equal to the uniform grid ----------------------------------------

@pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
def test_uniform_partition_reproduces_the_grid(a):
    g = build_grid(1, 10)
    part = ShellPartition(10, 10)
    w = power_weight(a, g)
    pw = partition_power_weight(a, part)
    assert np.array_equal(pw.values, w.values)
    assert pw.a2_characteristic() == w.a2_characteristic()
    T = hilbert_shift(g)
    grid_matrix = dense_matrix(T, dual_weight(w), w)
    assert np.abs(compressed_matrix(part, pw.dual(), pw) - grid_matrix).max() <= 1e-14
    dense = operator_norm(T, dual_weight(w), w, method="dense-svd")
    assert partition_operator_norm(part, pw.dual(), pw) == pytest.approx(dense, rel=1e-6)


# -- refined partitions ------------------------------------------------------------

def _cell_levels(part):
    """Dyadic level of every cell (its length is 2^-level), left to right."""
    shells = np.arange(part.refinement - 1, part.depth - 1, -1) + 1 + SHELL_LEVELS
    return np.concatenate([
        [part.refinement],
        np.repeat(shells, 1 << SHELL_LEVELS),
        np.full((1 << part.depth) - 1, part.depth),
    ]).astype(np.int64)


def _embedding(part, N):
    """Fine-cell owner of every cell of the depth-N grid, and the isometry
    from orthonormal partition coordinates to orthonormal grid coordinates."""
    levels = _cell_levels(part)
    owner = np.repeat(np.arange(part.cell_count), 2 ** (N - levels))
    E = np.zeros((owner.size, part.cell_count))
    E[np.arange(owner.size), owner] = np.sqrt(2.0 ** (levels[owner] - N))
    return owner, E


@pytest.mark.parametrize("a", [0.3, 0.9])
def test_refined_partition_matches_its_embedding_in_a_fine_grid(a):
    part = ShellPartition(4, 8)
    N = part.refinement + SHELL_LEVELS
    g = build_grid(1, N)
    owner, E = _embedding(part, N)
    pw = partition_power_weight(a, part)
    # exact cell averages of x^a, and A2 over the cubes of the fine grid
    fine = power_weight(a, g).values
    averages = np.bincount(owner, fine) / np.bincount(owner)
    assert np.abs(averages / pw.values - 1.0).max() <= 1e-13
    w = Weight(GridFunction(g, pw.values[owner]))
    assert pw.a2_characteristic() == pytest.approx(w.a2_characteristic(), rel=1e-13)
    # P T P is the fine-grid operator compressed to cell-constant functions
    fine_matrix = dense_matrix(hilbert_shift(g), dual_weight(w), w)
    compressed = E.T @ fine_matrix @ E
    assert np.abs(compressed_matrix(part, pw.dual(), pw) - compressed).max() <= 1e-13
    # the adjoint against the fine grid's own adjoint shift, not the transpose
    # of the partition's forward operator
    eye = np.eye(part.cell_count)
    adjoint = E.T @ dense_matrix(hilbert_shift(g).adjoint()) @ E
    assert np.abs(hilbert_compressed(part, eye, adjoint=True) - adjoint).max() <= 1e-13


@pytest.mark.parametrize("M,D", [(4, 8), (1, 5), (3, 3)])
def test_stencil_pass_reaches_every_node_of_the_partition_tree(monkeypatch, M, D):
    # the Hilbert pair never pairs a node with itself, so nodes whose children
    # are both cells are only exercised by a pair with g_Q = gamma_Q = h_Q: the
    # martingale transform with all signs +1
    monkeypatch.setattr(partition, "_G", (1.0, 0.0, 0.0))
    monkeypatch.setattr(partition, "_GAMMA", (1.0, 0.0, 0.0))
    part = ShellPartition(M, D)
    N = part.refinement + SHELL_LEVELS
    g = build_grid(1, N)
    _, E = _embedding(part, N)
    compressed = E.T @ dense_matrix(martingale_transform({}, g)) @ E
    eye = np.eye(part.cell_count)
    for adjoint in (False, True):
        assert np.abs(hilbert_compressed(part, eye, adjoint=adjoint) - compressed).max() <= 1e-13


@pytest.mark.parametrize("a", [0.75, 0.95])
def test_refined_power_iteration_matches_dense_svd(a):
    part = ShellPartition(6, 200)
    assert part.cell_count <= 4096
    pw = partition_power_weight(a, part)
    dense = np.linalg.svd(compressed_matrix(part, pw.dual(), pw), compute_uv=False)[0]
    assert partition_operator_norm(part, pw.dual(), pw) == pytest.approx(dense, rel=1e-6)


def test_deep_partition_weight_stays_representable():
    part = ShellPartition(16, 1000)
    pw = partition_power_weight(0.95, part)
    assert np.isfinite(pw.values).all() and pw.values.min() > 0.0
    assert np.isfinite(pw.dual().values).all()
    assert pw.values[0] == pytest.approx(2.0 ** (-1000 * 0.95) / 1.95, rel=1e-12)
    closed = 1.0 / (1.95 * 0.05)
    assert pw.a2_characteristic() == pytest.approx(closed, rel=1e-3)


# -- the criterion-6 sweep ----------------------------------------------------------

def test_sweep_characteristics_match_the_closed_form():
    part = ShellPartition(exp.SWEEP_DEPTH, exp.SWEEP_REFINEMENT)
    for a in exp.SWEEP_EXPONENTS:
        char = partition_power_weight(a, part).a2_characteristic()
        assert char == pytest.approx(1.0 / ((1.0 + a) * (1.0 - a)), rel=1e-3)


def test_sweep_refinement_is_the_first_that_meets_its_rule():
    # refine in steps of 100 levels; stop once the largest-exponent norm
    # moves by less than 2.5% over the last step
    a = max(exp.SWEEP_EXPONENTS)
    D = exp.SWEEP_REFINEMENT
    norms = []
    for refinement in (D - 200, D - 100, D):
        part = ShellPartition(exp.SWEEP_DEPTH, refinement)
        pw = partition_power_weight(a, part)
        norms.append(partition_operator_norm(part, pw.dual(), pw))
    assert D % 100 == 0
    assert norms[2] / norms[1] - 1.0 < 0.025
    assert norms[1] / norms[0] - 1.0 >= 0.025


# -- errors ---------------------------------------------------------------------------

def test_partition_rejects_bad_input():
    with pytest.raises(GridError):
        ShellPartition(0, 4)
    with pytest.raises(GridError):
        ShellPartition(6, 5)
    with pytest.raises(GridError):
        ShellPartition(6, 5000)
    part = ShellPartition(3, 6)
    with pytest.raises(WeightError):
        partition_power_weight(1.0, part)
    with pytest.raises(WeightError):
        PartitionWeight(part, np.ones(3))
    with pytest.raises(WeightError):
        PartitionWeight(part, -np.ones(part.cell_count))
    with pytest.raises(GridError):
        hilbert_compressed(part, np.ones(part.cell_count + 1))
    big = ShellPartition(12, 20)
    pw = partition_power_weight(0.5, big)
    with pytest.raises(ShiftError):
        compressed_matrix(big, pw.dual(), pw)
