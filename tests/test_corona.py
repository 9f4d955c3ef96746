import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    CoronaStructureError,
    CubeSet,
    GridError,
    GridFunction,
    Weight,
    build_corona,
    build_grid,
    carleson_check,
    carleson_sum,
    corona_invariant_violation,
    descendant_mass_drop,
    dual_weight,
    packing_check,
    pn_alpha,
    qn_partition,
    random_a2_weight,
)
from dyadlab.corona import STOPPING_FACTOR
from dyadlab.grid import assemble_levels, integral_pyramid
import dyadlab.experiments as exp


def spike_weight(grid, k, M):
    vals = np.ones(grid.cell_count)
    vals[: grid.cell_count >> k] += M
    return Weight(GridFunction(grid, vals))


def reference_stopping_set(w):
    """Independent greedy construction by per-cube recursion."""
    g = w.grid
    stops = {(0, 0)}

    def scan(level, flat, gov_dens):
        if level == g.N:
            return
        for child in g.cube(level, flat).children():
            d = w.density(child)
            if d > STOPPING_FACTOR * gov_dens:
                stops.add((child.level, child.flat))
                scan(child.level, child.flat, d)
            else:
                scan(child.level, child.flat, gov_dens)

    scan(0, 0, w.density(g.root()))
    return stops


def _stopping_depth_above(corona, L):
    """Number of stopping cubes strictly containing L, up the parent chain."""
    count = 0
    cur = corona.stopping_parent(L)
    while cur is not None:
        count += 1
        cur = corona.stopping_parent(cur)
    return count


def _reference_packing(corona):
    """`packing_check` stop by stop: children from the stopping forest, the
    stops above L from the parent chain, witnesses in level then index order."""
    grid = corona.grid
    depth = assemble_levels({j: corona.stopping.mask(j).astype(np.float64)
                             for j in corona.stopping.levels()}, grid.d, grid.N)
    depth_pyr = integral_pyramid(depth * grid.cell_volume, grid.d, grid.N)
    depth2_pyr = integral_pyramid(depth * depth * grid.cell_volume, grid.d, grid.N)
    child_ratio, child_wit = 0.0, None
    overlap_ratio, overlap_wit = 0.0, None
    for L in corona.stopping_cubes():
        ratio = sum(k.volume for k in corona.stopping_children(L)) / L.volume
        if ratio > child_ratio or child_wit is None:
            child_ratio, child_wit = ratio, L
        above = _stopping_depth_above(corona, L)
        sq = (depth2_pyr[L.level][L.flat] - 2.0 * above * depth_pyr[L.level][L.flat]
              + above * above * L.volume)
        oratio = math.sqrt(max(sq, 0.0) / L.volume)
        if oratio > overlap_ratio or overlap_wit is None:
            overlap_ratio, overlap_wit = oratio, L
    return child_ratio, overlap_ratio, child_wit, overlap_wit


@given(st.sampled_from(((1, 4), (1, 7), (1, 10), (2, 3), (2, 5))), st.integers(0, 5),
       st.integers(0, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_packing_check_is_bitwise_the_stop_by_stop_oracle(shape, n, seed, data):
    """Full coronas and class coronas (tops below the root, restricted
    stopping levels) of cascade weights: ratios bit for bit, same witnesses."""
    d, N = shape
    w = random_a2_weight(n, seed, build_grid(d, N))
    levels = data.draw(st.none() | st.lists(st.integers(0, N), min_size=1, unique=True))
    coronas = [exp.corona_for(w)]
    coronas += [exp.class_corona(w, cls, levels)[1]
                for cls in qn_partition(w, levels=levels).classes.values()]
    for corona in coronas:
        pk = packing_check(corona)
        want = _reference_packing(corona)
        assert [x.hex() for x in (pk.child_union_ratio, pk.overlap_ratio)] == \
            [x.hex() for x in want[:2]]
        assert (pk.child_witness, pk.overlap_witness) == want[2:]


def test_lebesgue_corona_is_trivial():
    g = build_grid(1, 8)
    one = Weight(GridFunction.constant(g, 1.0))
    corona = build_corona(one, CubeSet.all_under(g, g.root()), g.root())
    assert corona.stopping.count() == 1
    pk = packing_check(corona)
    assert pk.child_union_ratio == 0.0
    assert pk.overlap_ratio == pytest.approx(1.0, abs=1e-12)
    # every cube is assigned to the top
    assert corona.lambda_of(g.cube(5, 17)) == g.root()


def test_spike_weight_matches_hand_simulation():
    g = build_grid(1, 12)
    # a single-cell spike doubles the leftmost density per level, so the
    # four-fold rule stops roughly every other level down to the cell
    w = spike_weight(g, g.N, 4096.0)
    corona = exp.corona_for(w)
    got = {(c.level, c.flat) for c in corona.stopping_cubes()}
    assert got == reference_stopping_set(w)
    chain = sorted(got - {(0, 0)})
    for level, flat in chain:
        assert flat == 0  # leftmost cubes only
    assert len(chain) >= 3
    # flat-spike variant: density saturates inside the spike, one stop only
    w2 = spike_weight(g, 4, 1000.0)
    corona2 = exp.corona_for(w2)
    assert {(c.level, c.flat) for c in corona2.stopping_cubes()} == \
        reference_stopping_set(w2) == {(0, 0), (3, 0)}


def test_corona_matches_reference_on_cascades():
    for i in range(12):
        g = build_grid(1, 8)
        w = random_a2_weight(1 + i % 5, 700 + i, g)
        corona = exp.corona_for(w)
        got = {(c.level, c.flat) for c in corona.stopping_cubes()}
        assert got == reference_stopping_set(w)


def test_corona_invariants_on_cascades():
    for i in range(20):
        w = exp.cascade_weight(i)
        corona = exp.corona_for(w)
        assert corona_invariant_violation(corona) <= 1e-12
        pk = packing_check(corona)
        assert pk.child_union_ratio <= 0.25 + 1e-12
        assert pk.overlap_ratio <= 4.0
        assert descendant_mass_drop(corona) <= 1.0 + 1e-10


def test_overlap_geometric_series_bound():
    # triangle inequality over stopping generations: ratio <= sum_k 2^(-k) = 2
    for i in (3, 7, 11):
        w = exp.cascade_weight(i)
        corona = exp.corona_for(w)
        pk = packing_check(corona)
        assert pk.overlap_ratio <= 2.0 + 1e-12


def test_lambda_assignment_is_minimal_ancestor():
    g = build_grid(1, 10)
    w = random_a2_weight(3, 41, g)
    corona = exp.corona_for(w)
    stops = {(c.level, c.flat) for c in corona.stopping_cubes()}
    rng = np.random.default_rng(0)
    for _ in range(50):
        level = int(rng.integers(0, g.N + 1))
        cube = g.cube(level, int(rng.integers(0, g.level_count(level))))
        lam = corona.lambda_of(cube)
        assert lam.contains(cube)
        assert (lam.level, lam.flat) in stops
        # no strictly smaller stopping cube contains it
        for t in range(lam.level + 1, cube.level + 1):
            anc = cube.ancestor_at(t)
            assert (anc.level, anc.flat) not in stops


def test_coronas_partition_family():
    g = build_grid(1, 9)
    w = random_a2_weight(4, 43, g)
    corona = exp.corona_for(w)
    total = 0
    for L in corona.stopping_cubes():
        total += corona.corona_of(L).count()
    assert total == corona.family.count()


def test_carleson_sum_trivial_and_chain():
    g = build_grid(1, 10)
    one = Weight(GridFunction.constant(g, 1.0))
    corona = exp.corona_for(one)
    assert carleson_sum(corona, g.root()) == pytest.approx(1.0, abs=1e-15)

    w = spike_weight(g, 4, 1000.0)
    corona = exp.corona_for(w)
    # hand evaluation: sum the masses of the stopping cubes directly
    expect = sum(w.mass(L) for L in corona.stopping_cubes())
    assert carleson_sum(corona, g.root()) == pytest.approx(expect, rel=1e-12)
    sub = g.cube(1, 1)  # right half holds no stopping cube
    assert carleson_sum(corona, sub) == 0.0


def test_carleson_bound_on_cascades():
    for i in range(10):
        w = exp.cascade_weight(i)
        corona = exp.corona_for(w)
        rep = carleson_check(corona)
        assert rep.worst_ratio <= 1.0 + 1e-10
        assert rep.bound_constant == pytest.approx(16.0 / 9.0)


def test_family_containment_enforced():
    g = build_grid(1, 6)
    w = random_a2_weight(1, 3, g)
    outside = CubeSet.from_cubes(g, [g.cube(1, 1)])
    with pytest.raises(GridError):
        build_corona(w, outside, g.cube(1, 0))


def test_empty_family_keeps_top():
    g = build_grid(1, 6)
    w = random_a2_weight(2, 9, g)
    corona = build_corona(w, CubeSet.empty(g), g.root())
    assert corona.stopping.contains(g.root())
    assert corona.corona_of(g.root()).count() == 0


def test_stopping_level_restriction():
    # with candidates confined to a sublattice, the density cap is guaranteed
    # for family cubes living on the same levels
    g = build_grid(1, 12)
    w = spike_weight(g, g.N, 4096.0)
    allowed = (0, 2, 4, 6, 8, 10)
    family = CubeSet.all_under(g, g.root(), levels=allowed)
    corona = build_corona(w, family, g.root(), stopping_levels=allowed)
    assert all(c.level in allowed for c in corona.stopping_cubes())
    assert corona.stopping.count() > 1
    assert corona_invariant_violation(corona) <= 1e-12


# -- stratifications ----------------------------------------------------------


def test_qn_constant_weight_all_class_zero():
    g = build_grid(1, 8)
    one = Weight(GridFunction.constant(g, 1.0))
    qn = qn_partition(one)
    assert qn.n_values() == [0]
    assert qn.classes[0].count() == g.total_cube_count


def test_qn_classes_bounded_by_characteristic():
    g = build_grid(1, 12)
    w = random_a2_weight(5, 55, g)
    qn = qn_partition(w)
    char = w.a2_characteristic()
    assert 16.0 <= char <= 64.0
    assert max(qn.n_values()) <= math.ceil(math.log2(char) + 1e-12)
    total = sum(cs.count() for cs in qn.classes.values())
    assert total == g.total_cube_count
    # spot-check membership windows
    for n in qn.n_values():
        for cube in qn.classes[n].cubes()[:20]:
            prod = w.density(cube) * dual_weight(w).density(cube)
            assert 2.0 ** (n - 1) < prod * (1 + 1e-9)
            assert prod <= 2.0 ** n * (1 + 1e-9)


def test_pn_alpha_conventions():
    g = build_grid(1, 8)
    w = random_a2_weight(3, 77, g)
    corona = exp.corona_for(w)
    stops = corona.stopping_cubes()
    L = max(stops, key=lambda c: corona.corona_of(c).count())
    fiber = corona.corona_of(L)
    strata = pn_alpha(L, fiber, w)
    # the stopping cube itself lands in the alpha = 1 band
    if fiber.contains(L):
        assert strata.alpha_of(L) == 1
    assert strata.residue.count() == 0
    base = w.density(L)
    for alpha in strata.alpha_values():
        for cube in strata.classes[alpha].cubes()[:10]:
            r = w.density(cube) / base
            if alpha == 0:
                assert r >= 2.0 * (1 - 1e-9)
            else:
                assert 2.0 ** (1 - alpha) * (1 - 1e-9) <= r < 2.0 ** (2 - alpha) * (1 + 1e-9)


def test_pn_alpha_exact_top_boundary_goes_to_alpha_zero():
    # density ratio exactly 4 sits on the open upper edge; convention: alpha=0
    g = build_grid(1, 3)
    vals = np.full(8, 0.5)
    vals[0] = 3.5  # mass 7/8 total, cube [0,1/8) has density 3.5*8/7 = 4x root
    w = Weight(GridFunction(g, vals))
    q = g.cube(3, 0)
    assert w.density(q) / w.density(g.root()) == pytest.approx(4.0, abs=0)
    strata = pn_alpha(g.root(), CubeSet.from_cubes(g, [q]), w)
    assert strata.alpha_of(q) == 0


def test_corona_export_structure():
    g = build_grid(1, 8)
    w = spike_weight(g, 3, 100.0)
    corona = exp.corona_for(w)
    doc = corona.export()
    assert doc["top"] == {"level": 0, "index": [0]}
    assert doc["stopping_count"] == corona.stopping.count()

    def walk(node):
        yield node
        for ch in node["children"]:
            yield from walk(ch)

    nodes = list(walk(doc["forest"]))
    assert len(nodes) == corona.stopping.count()
    assert all("density" in n and "cube" in n for n in nodes)


def test_single_value_violation_raises_structure_error():
    # a fiber cube one level above a stopping cube breaks single-valuedness
    # when the shift family is not scale separated
    from dyadlab import corona_ab_split, random_simple_shift

    g = build_grid(1, 6)
    vals = np.ones(g.cell_count)
    vals[0] += 32.0
    w = Weight(GridFunction(g, vals))
    fam = CubeSet.from_cubes(g, [g.cube(3, 0)])
    corona = build_corona(w, fam, g.root())
    assert {(c.level, c.flat) for c in corona.stopping_cubes()} == {(0, 0), (4, 0)}
    T = random_simple_shift(2, 77, g)
    with pytest.raises(CoronaStructureError):
        corona_ab_split(g.root(), 1, corona, T, w)


@given(st.sampled_from(((1, 7), (2, 4))), st.integers(0, 3), st.integers(0, 10**6),
       st.data())
@settings(max_examples=40, deadline=None)
def test_class_corona_q0_is_the_first_listed_cube(shape, n, seed, data):
    """The mask lookup of Q0 agrees with the first cube of `CubeSet.cubes()`,
    and the corona is the one built on the class members under that cube."""
    d, N = shape
    w = random_a2_weight(n, seed, build_grid(d, N))
    levels = data.draw(st.none() | st.lists(st.integers(0, N), min_size=1, unique=True))
    qn = qn_partition(w, levels=levels)
    for cls in qn.classes.values():
        q0, corona = exp.class_corona(w, cls, levels)
        first, *_ = cls.cubes()
        assert q0 == first
        oracle = build_corona(w, cls.restrict_under(first), first, stopping_levels=levels)
        assert corona.stopping.masks.keys() == oracle.stopping.masks.keys()
        for j, mask in oracle.stopping.masks.items():
            assert np.array_equal(corona.stopping.masks[j], mask)
