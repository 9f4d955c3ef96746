import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    DyadicCube,
    GridError,
    GridFunction,
    ap_characteristic,
    build_grid,
    dual_weight,
    haar_basis,
    haar_coefficient,
    inner_product,
    power_weight,
    random_a2_weight,
    random_simple_shift,
    sufficiency_experiment,
    weak_boundedness_from_t1_check,
)
from dyadlab import testing_constants as eval_testing_constants
from dyadlab.experiments import ExperimentConfig, run_sweep
from dyadlab.grid import (
    ancestor_map,
    descendant_flat,
    expand,
    integral_pyramid,
    pool,
    scatter_subcells,
    subcell_matrix,
)

from helpers import total_cube_count


def test_build_grid_counts():
    g = build_grid(1, 3)
    assert g.cell_count == 8
    assert total_cube_count(g) == 15
    g2 = build_grid(2, 1)
    assert g2.cell_count == 4
    assert total_cube_count(g2) == 5
    assert build_grid(1, 12).cell_count == 4096


@pytest.mark.parametrize("d,N", [(0, 3), (3, 3), (1, 0), (1, 25), (2, 13)])
def test_build_grid_rejects_bad_parameters(d, N):
    with pytest.raises(GridError):
        build_grid(d, N)


@given(st.integers(0, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_parent_child_roundtrip(level, data):
    g = build_grid(1, 6)
    flat = data.draw(st.integers(0, g.level_count(level) - 1))
    cube = g.cube(level, flat)
    if level < g.N:
        for child in cube.children():
            assert child.parent() == cube
    if level >= 2:
        assert cube.parent(2).level == level - 2
        assert cube.parent(2).contains(cube)


def test_tfold_parent_requires_depth():
    g = build_grid(1, 4)
    with pytest.raises(GridError):
        g.cube(1, 0).parent(2)


def test_measure_additivity_exact():
    for d in (1, 2):
        g = build_grid(d, 3)
        for cube in g.cubes():
            if cube.level < g.N:
                assert cube.volume == sum(c.volume for c in cube.children())


def test_haar_d1_standard():
    g = build_grid(1, 3)
    (h,) = haar_basis(g.root())
    assert h.child_values == (1.0, -1.0)
    f = h.as_grid_function()
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-15)
    assert f.integral() == pytest.approx(0.0, abs=1e-15)


def test_haar_d1_sup_norm_normalization():
    # the interval [1/2, 3/4) at depth 3 has |Q|^(-1/2) = 2
    g = build_grid(1, 3)
    cube = g.cube(2, 2)
    assert cube.bounds() == ((0.5, 0.75),)
    (h,) = haar_basis(cube)
    assert h.as_grid_function().sup_norm() == pytest.approx(2.0, abs=1e-15)


def test_haar_d2_tensor_orthonormal():
    g = build_grid(2, 2)
    for cube in list(g.cubes(0)) + list(g.cubes(1)):
        basis = haar_basis(cube)
        assert len(basis) == 3
        fns = [h.as_grid_function() for h in basis]
        for i, fi in enumerate(fns):
            for j, fj in enumerate(fns):
                expect = 1.0 if i == j else 0.0
                assert inner_product(fi, fj) == pytest.approx(expect, abs=1e-12)
            assert fi.integral() == pytest.approx(0.0, abs=1e-15)
            assert fi.sup_norm() <= cube.volume ** -0.5 * (1 + 1e-12)


def test_haar_basis_finest_level_errors():
    g = build_grid(1, 2)
    with pytest.raises(GridError):
        haar_basis(g.cube(2, 1))


def test_inner_product_examples():
    g = build_grid(1, 4)
    one = GridFunction.constant(g, 1.0)
    assert inner_product(one, one) == pytest.approx(1.0, abs=1e-15)
    (h,) = haar_basis(g.cube(1, 1))
    hf = h.as_grid_function()
    assert inner_product(hf, hf) == pytest.approx(1.0, abs=1e-14)
    assert inner_product(hf, one) == pytest.approx(0.0, abs=1e-15)


def test_inner_product_grid_mismatch():
    f = GridFunction.constant(build_grid(1, 3), 1.0)
    g = GridFunction.constant(build_grid(1, 4), 1.0)
    with pytest.raises(GridError):
        inner_product(f, g)


def test_haar_coefficient_matches_inner_product():
    g = build_grid(1, 5)
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.standard_normal(g.cell_count))
    for cube in list(g.cubes(2)) + list(g.cubes(4)):
        (h,) = haar_basis(cube)
        direct = inner_product(f, h.as_grid_function())
        assert haar_coefficient(f, h) == pytest.approx(direct, abs=1e-14)


def test_completeness_d1():
    g = build_grid(1, 6)
    rng = np.random.default_rng(1)
    f = GridFunction(g, rng.standard_normal(g.cell_count))
    recon = np.full(g.cell_count, f.integral())
    for j in range(g.N):
        for flat in range(g.level_count(j)):
            (h,) = haar_basis(g.cube(j, flat))
            hf = h.as_grid_function()
            recon += haar_coefficient(f, h) * hf.values
    assert np.abs(recon - f.values).max() < 1e-10


def test_orthogonality_across_cubes():
    g = build_grid(1, 4)
    cubes = [g.cube(1, 0), g.cube(1, 1), g.cube(2, 1), g.cube(3, 5)]
    fns = [haar_basis(c)[0].as_grid_function() for c in cubes]
    for i in range(len(fns)):
        for j in range(i + 1, len(fns)):
            assert abs(inner_product(fns[i], fns[j])) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_pool_expand_subcell_roundtrips(d):
    g = build_grid(d, 3)
    rng = np.random.default_rng(2)
    cells = rng.standard_normal(g.cell_count)
    # pooling sums children; expanding a pooled array then pooling returns it
    pooled = pool(cells, d)
    assert pooled.shape[0] == g.level_count(2)
    assert pool(expand(pooled, d, 1), d) == pytest.approx(pooled * (1 << d))
    mat = subcell_matrix(cells, d, 2)
    assert mat.shape == (g.level_count(1), 1 << (2 * d))
    assert np.array_equal(scatter_subcells(mat, d, 2), cells)
    # row sums of the subcell matrix agree with two pooling steps
    assert mat.sum(axis=1) == pytest.approx(pool(cells, d, 2))


@pytest.mark.parametrize("d", [1, 2])
def test_ancestor_and_descendant_indexing(d):
    g = build_grid(d, 3)
    amap = ancestor_map(d, 3, 1)
    for flat in range(g.level_count(3)):
        cube = g.cube(3, flat)
        assert amap[flat] == cube.parent(cube.level - 1).flat
    base = np.arange(g.level_count(1))
    for rel in range(1 << (2 * d)):
        desc = descendant_flat(d, 1, 3, base, rel)
        for b in base:
            anc = g.cube(3, int(desc[b])).parent(2)
            assert anc.flat == b


def test_integral_pyramid_matches_cube_integrals():
    g = build_grid(2, 2)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.cell_count))
    pyr = integral_pyramid(f.values * g.cell_volume, g.d, g.N)
    for cube in g.cubes():
        assert pyr[cube.level][cube.flat] == pytest.approx(
            f.cube_integral(cube), abs=1e-15
        )


def test_grid_function_immutable_and_validated():
    g = build_grid(1, 2)
    f = GridFunction.constant(g, 2.0)
    with pytest.raises(AttributeError):
        f.values = np.zeros(4)
    with pytest.raises((ValueError, GridError)):
        GridFunction(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 3.0


# -- reports: one JSON rule, report_dict, for every report's to_dict ----------------

def _report_cases():
    grid = build_grid(1, 5)
    w = random_a2_weight(2, 3, grid)
    T = random_simple_shift(2, 4, grid)
    cfg = ExperimentConfig.from_dict({"grid": {"d": 1, "N": 4},
                                      "weights": [{"family": "power", "a": 0.5}]})
    reports = [ap_characteristic(power_weight(0.5, grid)),
               eval_testing_constants(T, w, dual_weight(w), norm_method="dense-svd"),
               weak_boundedness_from_t1_check(T, w),
               sufficiency_experiment(w, dual_weight(w), [T]),
               run_sweep(cfg)[0]]
    return [(rep, [f.name for f in fields(rep)]) for rep in reports]


def _cubes_as_addresses(value, doc) -> int:
    """Checks that `doc` is `value` with every cube as its address; returns
    the number of cubes."""
    if isinstance(value, DyadicCube):
        assert doc == {"level": value.level, "index": list(value.index)}
        return 1
    if isinstance(value, dict):
        assert list(doc) == list(value)
        return sum(_cubes_as_addresses(v, doc[k]) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        assert isinstance(doc, list) and len(doc) == len(value)
        return sum(_cubes_as_addresses(v, item) for v, item in zip(value, doc))
    assert doc == value
    return 0


def test_report_to_dict_has_its_fields_and_cube_addresses():
    cubes = 0
    for rep, names in _report_cases():
        doc = rep.to_dict()
        assert list(doc) == names
        cubes += sum(_cubes_as_addresses(getattr(rep, name), doc[name]) for name in names)
    assert cubes > 1
