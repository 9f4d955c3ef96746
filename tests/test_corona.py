import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    CoronaStructureError,
    CubeSet,
    DyadicCube,
    GridError,
    GridFunction,
    SimpleHaarShift,
    Weight,
    build_corona,
    build_grid,
    carleson_check,
    carleson_sum,
    corona_ab_split,
    corona_invariant_violation,
    descendant_mass_drop,
    dual_weight,
    h_functional,
    martingale_transform,
    packing_check,
    pn_alpha,
    qn_partition,
    random_a2_weight,
    random_signs,
    random_simple_shift,
)
from dyadlab.corona import STOPPING_FACTOR
from dyadlab.grid import assemble_levels, cube_view, integral_pyramid
import dyadlab.experiments as exp

from helpers import (alpha_of, cube_set, lambda_of, stopping_children, stopping_descendants,
                     stopping_parent, total_cube_count)


def spike_weight(grid, k, M):
    vals = np.ones(grid.cell_count)
    vals[: grid.cell_count >> k] += M
    return Weight(GridFunction(grid, vals))


def reference_stopping_set(w, top=None, levels=None):
    """Independent greedy construction by per-cube recursion, from `top` (the
    root by default) with stops allowed only on `levels` (all by default)."""
    g = w.grid
    top = g.root() if top is None else top
    stops = {(top.level, top.flat)}

    def scan(level, flat, gov_dens):
        if level == g.N:
            return
        for child in g.cube(level, flat).children():
            d = w.density(child)
            if (levels is None or child.level in levels) and d > STOPPING_FACTOR * gov_dens:
                stops.add((child.level, child.flat))
                scan(child.level, child.flat, d)
            else:
                scan(child.level, child.flat, gov_dens)

    scan(top.level, top.flat, w.density(top))
    return stops


def _stopping_depth_above(corona, L):
    """Number of stopping cubes strictly containing L, up the parent chain."""
    count = 0
    cur = stopping_parent(corona, L)
    while cur is not None:
        count += 1
        cur = stopping_parent(corona, cur)
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
        ratio = sum(k.volume for k in stopping_children(corona, L)) / L.volume
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
    assert lambda_of(corona, g.cube(5, 17)) == g.root()


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
        lam = lambda_of(corona, cube)
        assert lam.contains(cube)
        assert (lam.level, lam.flat) in stops
        # no strictly smaller stopping cube contains it
        for t in range(lam.level + 1, cube.level + 1):
            anc = cube.parent(cube.level - t)
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
    """A family cube beside the top at the top's own level, finer and outside
    it, or coarser than it is refused at d=1 and d=2, alone or next to a cube
    under the top; a family under the top is accepted."""
    for d, N, top, sibling, outside, coarser, under in (
            (1, 6, (1, 0), (1, 1), (4, 9), (0, 0), (4, 3)),
            (2, 4, (1, 2), (1, 1), (2, 1), (0, 0), (3, 50))):
        g = build_grid(d, N)
        w = random_a2_weight(1, 3, g)
        top = g.cube(*top)
        for bad in (sibling, outside, coarser):
            assert not top.contains(g.cube(*bad))
            for family in ([g.cube(*bad)], [g.cube(*under), g.cube(*bad)]):
                with pytest.raises(GridError, match="contained in the top cube"):
                    build_corona(w, cube_set(g, family), top)
        assert top.contains(g.cube(*under))
        assert build_corona(w, cube_set(g, [g.cube(*under)]), top).family.count() == 1


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
    assert qn.classes[0].count() == total_cube_count(g)


def test_qn_classes_bounded_by_characteristic():
    g = build_grid(1, 12)
    w = random_a2_weight(5, 55, g)
    qn = qn_partition(w)
    char = w.a2_characteristic()
    assert 16.0 <= char <= 64.0
    assert max(qn.n_values()) <= math.ceil(math.log2(char) + 1e-12)
    total = sum(cs.count() for cs in qn.classes.values())
    assert total == total_cube_count(g)
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
        assert alpha_of(strata, L) == 1
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
    strata = pn_alpha(g.root(), cube_set(g, [q]), w)
    assert alpha_of(strata, q) == 0


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
    fam = cube_set(g, [g.cube(3, 0)])
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


# -- the stopping forest against the stop-by-stop code it replaced ---------------


def _reference_forest(corona):
    """The stopping forest stop by stop: each stop hangs under `lambda_of` of
    its parent cube; children in level then index order."""
    forest = {}
    for c in corona.stopping_cubes():
        if c.level != corona.top.level:
            parent = lambda_of(corona, c.parent())
            forest.setdefault((parent.level, parent.flat), []).append(c)
    for v in forest.values():
        v.sort(key=lambda c: (c.level, c.flat))
    return forest


def _reference_parent(corona, forest, L):
    for key, kids in forest.items():
        if L in kids:
            return corona.grid.cube(*key)
    return None


def _reference_descendants(forest, L):
    out, frontier = [], list(forest.get((L.level, L.flat), []))
    while frontier:
        c = frontier.pop()
        out.append(c)
        frontier.extend(forest.get((c.level, c.flat), []))
    return sorted(out, key=lambda c: (c.level, c.flat))


def _reference_export(corona, forest):
    def node(c):
        return {"cube": c.address(), "density": corona.measure.density(c),
                "mass": corona.measure.mass(c),
                "children": [node(ch) for ch in forest.get((c.level, c.flat), [])]}

    return {"top": corona.top.address(), "stopping_count": corona.stopping.count(),
            "family_count": corona.family.count(), "forest": node(corona.top)}


def _reference_invariant_violation(corona, forest):
    worst = 0.0
    for j in corona.family.levels():
        idx = np.nonzero(corona.family.masks[j])[0]
        if idx.size == 0:
            continue
        dens_here = corona.measure.sums[j][idx] * (2.0 ** (j * corona.grid.d))
        anchors = corona.anchor[j][idx]
        anchors_lev, anchors_flat = corona.forest.level[anchors], corona.forest.flat[anchors]
        for lev in np.unique(anchors_lev):
            sel = anchors_lev == lev
            anchor_dens = corona.measure.sums[int(lev)][anchors_flat[sel]] * (
                2.0 ** (int(lev) * corona.grid.d))
            worst = max(worst, float((dens_here[sel] - STOPPING_FACTOR * anchor_dens).max()))
    for L in corona.stopping_cubes():
        parent = _reference_parent(corona, forest, L)
        if parent is not None:
            gap = STOPPING_FACTOR * corona.measure.density(parent) - corona.measure.density(L)
            worst = max(worst, float(gap) if gap >= 0 else 0.0)
    return worst


def _reference_mass_drop(corona, forest):
    w = corona.measure
    factor = 1.0 - (9.0 / 16.0) / w.a2_characteristic()
    worst = 0.0
    for L in corona.stopping_cubes():
        covered = sum(w.mass(k) for k in forest.get((L.level, L.flat), []))
        bound = factor * w.mass(L)
        if bound > 0:
            worst = max(worst, covered / bound)
    return worst


def _reference_ab_split(Q0, corona, T, w, forest, tol=1e-12):
    """The A/B split stop by stop: one `h_functional` per stop, nested pairs
    from the forest walk.  Returns (a, b, stopping count, deviation)."""
    grid = T.grid
    dual_cells = w.dual_sums[grid.N]
    stops = [L for L in corona.stopping_cubes() if Q0.contains(L)]
    h_local = {}
    for L in stops:
        h = h_functional(L, corona.corona_of(L), T, w)
        h_local[(L.level, L.flat)] = np.abs(L.cell_values(h.values))
    a_part = 0.0
    for L in stops:
        vals = h_local[(L.level, L.flat)]
        a_part += float((vals ** 2 * L.cell_values(dual_cells)).sum())
    b_part, worst_dev = 0.0, 0.0
    for L in stops:
        vals_l = h_local[(L.level, L.flat)]
        scale = max(1.0, float(vals_l.max()))
        full_l = np.zeros(grid.cell_count)
        view = cube_view(full_l, L)
        view[...] = vals_l.reshape(view.shape)
        for Lp in _reference_descendants(forest, L):
            seg = Lp.cell_values(full_l)
            dev = float(seg.max() - seg.min())
            worst_dev = max(worst_dev, dev)
            if dev > tol * scale:
                raise CoronaStructureError("H is not single-valued on a stopping descendant")
            b_part += float(
                (seg * h_local[(Lp.level, Lp.flat)] * Lp.cell_values(dual_cells)).sum())
    return a_part, b_part, len(stops), worst_dev


def _coronas(w, levels):
    """The full corona (stops and family on `levels`) and every class corona."""
    g = w.grid
    full = build_corona(w, CubeSet.all_under(g, g.root(), levels=levels), g.root(),
                        stopping_levels=levels)
    return [full] + [exp.class_corona(w, cls, levels)[1]
                     for cls in qn_partition(w, levels=levels).classes.values()]


_FOREST_SHAPES = ((1, 4), (1, 8), (1, 12), (2, 3), (2, 5), (2, 6))


@given(st.sampled_from(_FOREST_SHAPES), st.integers(0, 5), st.integers(0, 10**6),
       st.booleans(), st.data())
@settings(max_examples=30, deadline=None)
def test_forest_queries_are_bitwise_the_stop_by_stop_walk(shape, n, seed, dual, data):
    """Children, descendants, `export()`, `corona_invariant_violation` and
    `descendant_mass_drop` read from the anchor arrays equal the `lambda_of`
    walk bit for bit, on full and class coronas."""
    d, N = shape
    w = random_a2_weight(n, seed, build_grid(d, N))
    w = dual_weight(w) if dual else w
    levels = data.draw(st.none() | st.lists(st.integers(0, N), min_size=1, unique=True))
    for corona in _coronas(w, levels):
        forest = _reference_forest(corona)
        for L in corona.stopping_cubes():
            assert stopping_children(corona, L) == forest.get((L.level, L.flat), [])
            assert stopping_descendants(corona, L) == _reference_descendants(forest, L)
        assert json.dumps(corona.export()) == json.dumps(_reference_export(corona, forest))
        assert corona_invariant_violation(corona).hex() == \
            _reference_invariant_violation(corona, forest).hex()
        assert descendant_mass_drop(corona).hex() == _reference_mass_drop(corona, forest).hex()


def _two_term_shift(tau, seed, grid, separated):
    """Two random simple shifts stacked as the two terms of one shift."""
    T1 = random_simple_shift(tau, seed, grid, separated=separated)
    T2 = random_simple_shift(tau, seed + 1, grid, separated=separated)
    stack = {j: np.concatenate((T1.g[j], T2.g[j])) for j in T1.levels}
    gamma = {j: np.concatenate((T1.gamma[j], T2.gamma[j])) for j in T1.levels}
    return SimpleHaarShift(grid, tau, T1.levels, stack, gamma, separated=separated)


def _assert_ab_split_matches_oracle(Q0, corona, T, w):
    """Both sides raise CoronaStructureError, or agree bit for bit."""
    try:
        want = _reference_ab_split(Q0, corona, T, w, _reference_forest(corona))
    except CoronaStructureError:
        with pytest.raises(CoronaStructureError):
            corona_ab_split(Q0, 0, corona, T, w)
        return False
    rep = corona_ab_split(Q0, 0, corona, T, w)
    got = (rep.a_part, rep.b_part, rep.stopping_count, rep.single_value_dev)
    assert got[2] == want[2]
    assert [x.hex() for x in got[::3] + got[1:2]] == [x.hex() for x in want[::3] + want[1:2]]
    return True


@given(st.sampled_from(_FOREST_SHAPES), st.integers(0, 5), st.integers(0, 10**6),
       st.integers(1, 3), st.sampled_from(("random", "two-term", "martingale")),
       st.booleans(), st.data())
@settings(max_examples=30, deadline=None)
def test_ab_split_is_bitwise_the_stop_by_stop_oracle(shape, n, seed, tau, kind, dual, data):
    """Full and class coronas on the levels of a scale-separated shift, with
    one- and multi-term shifts and Q0 the top, the root or a deeper stop."""
    d, N = shape
    g = build_grid(d, N)
    tau = min(tau, N)
    if kind == "martingale":
        T = martingale_transform(random_signs(g, seed), g, separated=True)
    elif kind == "two-term":
        T = _two_term_shift(tau, seed, g, True)
    else:
        T = random_simple_shift(tau, seed, g, separated=True)
    w = random_a2_weight(n, seed + 7, g)
    w = dual_weight(w) if dual else w
    for corona in _coronas(w, T.levels):
        stops = corona.stopping_cubes()
        Q0 = data.draw(st.sampled_from([corona.top, g.root(), stops[-1]]))
        _assert_ab_split_matches_oracle(Q0, corona, T, w)


def test_ab_split_agrees_with_the_oracle_on_cascade_coronas():
    """The calibration path, class coronas of cascade indices at N=12, and
    the full coronas on the shift's levels (up to 35 stops, depth 2), with
    every stop as Q0 on one index."""
    compared = 0
    for i in (0, 4, 5, 13):
        w, T = exp.cascade_weight(i), exp.essence_shift(i)
        full = exp.corona_for(w, stopping_levels=T.levels)
        for q0, corona in [(full.top, full)] + [(q0, c) for _n, _cls, q0, c
                                                in exp.class_coronas(w, T)[0]]:
            compared += _assert_ab_split_matches_oracle(q0, corona, T, w)
            if i == 5:
                for L in corona.stopping_cubes():
                    _assert_ab_split_matches_oracle(L, corona, T, w)
    assert compared >= 10


def test_ab_split_non_separated_shift_raises_on_both_sides():
    """The fiber cube one level above a stop breaks single-valuedness: the
    oracle and the split both refuse it; a separated shift agrees bitwise."""
    g = build_grid(1, 6)
    vals = np.ones(g.cell_count)
    vals[0] += 32.0
    w = Weight(GridFunction(g, vals))
    corona = build_corona(w, cube_set(g, [g.cube(3, 0)]), g.root())
    for T in (random_simple_shift(2, 77, g), _two_term_shift(2, 77, g, False)):
        assert not _assert_ab_split_matches_oracle(g.root(), corona, T, w)
    # d=2: the fiber cube (1, 0) sees the stop (2, 0) through tau=2 subcells
    g = build_grid(2, 4)
    vals = np.ones(g.cell_count)
    vals[0] += 1000.0
    w = Weight(GridFunction(g, vals))
    corona = build_corona(w, cube_set(g, [g.cube(1, 0)]), g.root())
    assert {(c.level, c.flat) for c in corona.stopping_cubes()} == {(0, 0), (2, 0), (4, 0)}
    assert not _assert_ab_split_matches_oracle(g.root(), corona, _two_term_shift(2, 77, g, False), w)


def test_ab_split_and_export_build_no_cube_per_stop(monkeypatch):
    """At most one DyadicCube (through `DyadicGrid.cube` or directly) per stop
    in `corona_ab_split` and `export()`: a per-cube walk fails here."""
    built = []
    post_init = DyadicCube.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    for i in (2, 9):
        w, T = exp.cascade_weight(i), exp.essence_shift(i)
        coronas = [exp.corona_for(w, stopping_levels=T.levels)]
        coronas += [c for _n, _cls, _q0, c in exp.class_coronas(w, T)[0]]
        for corona in coronas:
            stops = corona.stopping.count()
            monkeypatch.setattr(DyadicCube, "__post_init__", counting)
            built.clear()
            corona_ab_split(corona.top, 0, corona, T, w)
            ab_cubes = len(built)
            built.clear()
            corona.export()
            export_cubes = len(built)
            monkeypatch.setattr(DyadicCube, "__post_init__", post_init)
            assert ab_cubes <= stops and export_cubes <= stops, (ab_cubes, export_cubes, stops)


# -- corona invariants on random cascades -------------------------------------


@given(st.sampled_from(((1, 5), (1, 8), (1, 11), (2, 3), (2, 5))), st.integers(0, 5),
       st.integers(0, 10**6), st.booleans(), st.data())
@settings(max_examples=30, deadline=None)
def test_corona_fourfold_invariants_on_random_cascades(shape, n, seed, dual, data):
    """On full and class coronas of a cascade weight or its dual: no density
    violation, a more than four-fold density step from each stop's stopping
    parent, fibers that partition the family, every anchor the minimal stop
    of an independent per-cube greedy scan, and a forest numbered in level
    then index order whose parents come first, one level of depth up, and
    are the anchors of the stops' parent cubes."""
    d, N = shape
    g = build_grid(d, N)
    w = random_a2_weight(n, seed, g)
    w = dual_weight(w) if dual else w
    levels = data.draw(st.none() | st.lists(st.integers(0, N), min_size=1, unique=True))
    for corona in _coronas(w, levels):
        top = corona.top
        assert corona_invariant_violation(corona) == 0.0
        for L in corona.stopping_cubes():
            parent = stopping_parent(corona, L)
            if parent is not None:
                assert corona.measure.density(L) > STOPPING_FACTOR * corona.measure.density(parent)
        union = {j: np.zeros(g.level_count(j), dtype=int) for j in range(N + 1)}
        for L in corona.stopping_cubes():
            for j, m in corona.corona_of(L).masks.items():
                union[j] += m
        for j in range(N + 1):
            assert np.array_equal(union[j], corona.family.mask(j).astype(int))
        stops = reference_stopping_set(w, top, levels)
        assert {(c.level, c.flat) for c in corona.stopping_cubes()} == stops
        forest = corona.forest
        for j in range(N + 1):
            for f in range(g.level_count(j)):
                cube = g.cube(j, f)
                want = (-1, -1)
                if top.contains(cube):
                    want = max((lev, cube.parent(j - lev).flat) for lev in range(top.level, j + 1)
                               if (lev, cube.parent(j - lev).flat) in stops)
                p = corona.anchor[j][f]
                assert ((-1, -1) if p < 0 else (forest.level[p], forest.flat[p])) == want
        key = forest.level * g.cell_count + forest.flat
        assert (np.diff(key) > 0).all() and key.size == len(stops)
        assert (forest.parent[0], forest.depth[0]) == (-1, 0)
        kids = np.arange(1, key.size)
        parent = forest.parent[kids]
        assert (0 <= parent).all() and (parent < kids).all()
        assert np.array_equal(forest.depth[kids], forest.depth[parent] + 1)
        for p, (j, f) in enumerate(zip(forest.level.tolist(), forest.flat.tolist())):
            assert corona.anchor[j][f] == p
            if p:
                assert corona.anchor[j - 1][g.cube(j, f).parent().flat] == forest.parent[p]


# -- one grid check for cubes from another grid ---------------------------------


def test_cubes_from_another_grid_raise_grid_error():
    g6, g8 = build_grid(1, 6), build_grid(1, 8)
    w6 = random_a2_weight(2, 5, g6)
    foreign = g8.cube(3, 7)
    cs = CubeSet.all_under(g6, g6.root())
    with pytest.raises(GridError):
        cs.contains(foreign)
    with pytest.raises(GridError):
        cs.restrict_under(g8.cube(3, 5))
    with pytest.raises(GridError):
        CubeSet.all_under(g6, g8.cube(3, 5))
    with pytest.raises(GridError):
        build_corona(w6, CubeSet.empty(g6), g8.cube(3, 5))
    with pytest.raises(GridError):
        build_corona(w6, CubeSet.empty(g8), g6.root())
    corona = exp.corona_for(w6)
    with pytest.raises(GridError):
        corona.corona_of(foreign)
    with pytest.raises(GridError):
        corona.stops_under(foreign)
    T = random_simple_shift(1, 3, g6, separated=True)
    with pytest.raises(GridError):
        corona_ab_split(foreign, 0, corona, T, w6)
    # a cube of an equal grid is a cube of this grid
    assert cs.contains(build_grid(1, 6).cube(3, 7))
