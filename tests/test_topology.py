import functools
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham import topology
from effham.topology import (
    GraphCover,
    MetricGraph,
    SubcoverMap,
    TorusCover,
    estimate_space_convergence,
    match_point,
    matching_bound,
    norm_value,
)
from effham.config import load_config
from tests.conftest import figure_eight, single_loop
from tests.oracles import match_point_loop

TORUS2 = TorusCover(2)
FIG8 = GraphCover(figure_eight(1.0, 1.0))
FIG8_UNEQUAL = GraphCover(figure_eight(1.0, 0.37))
LOOP2 = GraphCover(single_loop(2.0))

sheets2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def torus_points():
    return st.builds(
        lambda b1, b2, z: TORUS2.from_lift(np.add([b1, b2], z)),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        sheets2,
    )


def fig8_points():
    return st.builds(
        lambda e, s, z: FIG8.edge_point(e, s, z),
        st.integers(0, 1),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        sheets2,
    )


def test_winding_map_at_base_point(circle):
    assert np.array_equal(circle.g_map(circle.from_lift([0.0])), np.zeros(1))


def test_winding_map_reads_graph_sheet(fig8_cover):
    got = fig8_cover.g_map(fig8_cover.vertex_point(0, [1, 2]))
    assert np.array_equal(got, np.array([1.0, 2.0]))


def test_winding_map_torus_lift(torus2):
    got = torus2.g_map(torus2.from_lift([3.5, -1.25]))
    assert np.allclose(got, [3.5, -1.25], atol=1e-15)


def test_cover_distance_loop_counts_circuits(loop2_cover):
    a = loop2_cover.vertex_point(0)
    b = loop2_cover.vertex_point(0, [3])
    assert loop2_cover.distance(a, b) == pytest.approx(6.0, abs=1e-12)


def test_cover_distance_torus(circle):
    d = circle.distance(circle.from_lift([0.25]), circle.from_lift([4.75]))
    assert d == pytest.approx(4.5, abs=1e-12)


def brute_force_loop_distance(windings, lengths, max_steps=5):
    """Cheapest walk through signed loop traversals with a given net count."""
    steps = []
    for e, ell in enumerate(lengths):
        for sign in (1, -1):
            steps.append((e, sign, ell))
    best = np.inf
    target = tuple(windings)
    for count in range(max_steps + 1):
        for combo in itertools.product(steps, repeat=count):
            net = [0] * len(lengths)
            cost = 0.0
            for e, sign, ell in combo:
                net[e] += sign
                cost += ell
            if tuple(net) == target:
                best = min(best, cost)
    return best


def fig8_unequal_points():
    def build(e, frac, z):
        if e is None:
            return FIG8_UNEQUAL.vertex_point(0, z)
        return FIG8_UNEQUAL.edge_point(e, frac * FIG8_UNEQUAL.graph.length(e), z)
    return st.builds(
        build,
        st.one_of(st.none(), st.integers(0, 1)),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    )


@functools.lru_cache(maxsize=None)
def _walk(windings, lengths):
    return brute_force_loop_distance(windings, lengths, max_steps=6)


def _walk_oracle(cover, x, y):
    """Figure-eight distance from its walks: the direct path on a shared
    edge, else an endpoint of each point's edge joined by the cheapest
    walk between their sheets."""
    lengths = tuple(cover.graph.lengths)

    def ends(p):
        if p.base[0] == "v":
            return [(np.array(p.sheet), 0.0)]
        _, e, s = p.base
        return [(np.array(p.sheet), s),
                (np.array(p.sheet) + cover.graph.cocycles[e], lengths[e] - s)]

    best = np.inf
    if (x.base[0] == "e" and y.base[0] == "e"
            and x.base[1] == y.base[1] and x.sheet == y.sheet):
        best = abs(x.base[2] - y.base[2])
    for sx, ox in ends(x):
        for sy, oy in ends(y):
            best = min(best, ox + _walk(tuple(int(z) for z in sy - sx), lengths) + oy)
    return best


@settings(max_examples=60)
@given(x=fig8_unequal_points(), y=fig8_unequal_points())
def test_cover_distance_matches_walk_oracle_on_unequal_figure_eight(x, y):
    assert FIG8_UNEQUAL.distance(x, y) == pytest.approx(
        _walk_oracle(FIG8_UNEQUAL, x, y), abs=1e-12)


def test_cover_distance_grows_its_table_for_a_far_pair():
    fresh = GraphCover(figure_eight(1.0, 1.0))
    grown = GraphCover(figure_eight(1.0, 1.0))
    assert grown.distance(grown.vertex_point(0),
                          grown.vertex_point(0, [40, -3])) == 43.0
    rng = np.random.default_rng(5)
    for _ in range(30):
        e, f = (int(i) for i in rng.integers(0, 2, size=2))
        x = fresh.edge_point(e, float(rng.random()), rng.integers(-2, 3, size=2))
        y = fresh.edge_point(f, float(rng.random()), rng.integers(-2, 3, size=2))
        assert grown.distance(x, y) == fresh.distance(x, y)


def test_cover_distance_box_grows_per_axis():
    # the far pair walks 40 long loops and 3 short ones; only the short
    # loop's axis needs a wide box to certify 40.3
    cover = GraphCover(figure_eight(1.0, 0.1))
    d = cover.distance(cover.vertex_point(0), cover.vertex_point(0, [40, -3]))
    assert d == pytest.approx(40.3, abs=1e-12)
    assert cover._table.size <= 100_000


def test_pair_distances_match_walk_oracle_on_a_sample():
    # the batch of estimate_space_convergence on 120 points whose sheets
    # stay within the oracle's six steps of each other
    rng = np.random.default_rng(11)
    pts = [FIG8_UNEQUAL.vertex_point(0, rng.integers(-1, 2, size=2))
           for _ in range(20)]
    pts += [FIG8_UNEQUAL.edge_point(e, float(rng.random()) * FIG8_UNEQUAL.graph.length(e),
                                    rng.integers(-1, 2, size=2))
            for e in rng.integers(0, 2, size=100)]
    first, second = np.triu_indices(len(pts), k=1)
    got = FIG8_UNEQUAL._pair_distances(pts, first, second)
    want = [_walk_oracle(FIG8_UNEQUAL, pts[i], pts[j]) for i, j in zip(first, second)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_pair_distances_grow_the_box_for_the_far_pair_only():
    cover = GraphCover(figure_eight(1.0, 0.1))
    rng = np.random.default_rng(12)
    near = [cover.edge_point(int(e), float(rng.random()) * cover.graph.length(int(e)),
                             rng.integers(-1, 2, size=2))
            for e in rng.integers(0, 2, size=8)]
    pts = near + [cover.vertex_point(0), cover.vertex_point(0, [40, -3])]
    first, second = np.triu_indices(len(near), k=1)
    first, second = np.append(first, len(near)), np.append(second, len(near) + 1)
    got = cover._pair_distances(pts, first, second)
    # the first box spans 40 sheets on both axes, which certifies 40.3 on
    # the long loop's axis only
    assert cover._radii[0] == 40 and cover._radii[1] > 40
    assert got[-1] == pytest.approx(40.3, abs=1e-12)
    want = [_walk_oracle(cover, pts[i], pts[j]) for i, j in zip(first[:-1], second[:-1])]
    np.testing.assert_allclose(got[:-1], want, rtol=0.0, atol=1e-12)


def test_cover_distance_figure_eight_matches_walk_enumeration(fig8_cover):
    d = fig8_cover.distance(fig8_cover.vertex_point(0),
                            fig8_cover.vertex_point(0, [2, 1]))
    assert d == pytest.approx(3.0, abs=1e-12)
    assert d == pytest.approx(brute_force_loop_distance((2, 1), (1.0, 1.0)), abs=1e-12)


def test_space_convergence_flat_torus_is_isometric(torus2):
    ladder = [2.0 ** (-j) for j in range(1, 6)]
    report = estimate_space_convergence(torus2, ladder, 64, seed=0)
    # the gap is 0 for every pair, so none is sampled
    assert report.gap_bound == report.gap_low == report.gap_high == 0.0
    assert report.n_pairs == 0
    assert report.passed


def test_space_convergence_figure_eight(fig8_cover):
    ladder = [2.0 ** (-j) for j in range(1, 6)]
    report = estimate_space_convergence(fig8_cover, ladder, 64, seed=0)
    assert report.gap_bound == 2.0
    assert -2.0 <= report.gap_low <= report.gap_high <= 2.0
    assert report.passed
    assert report.covering_radius == sorted(report.covering_radius, reverse=True)


def test_space_convergence_figure_eight_report_is_pinned():
    # the distances are the exact ones of a per-pair box Dijkstra, an
    # independent route; on equal loops the stable norm is |.|_1
    report = estimate_space_convergence(GraphCover(figure_eight(1.0, 1.0)),
                                        [1, 0.5, 0.25, 0.125], 16, seed=0)
    assert report.gap_high == pytest.approx(0.941375679606459, abs=1e-15)
    assert -1e-12 <= report.gap_low <= 0.0
    assert report.gap_bound == 2.0
    assert report.covering_radius == [0.42500000000000027, 0.21250000000000036,
                                      0.10625000000000018, 0.05312500000000009]
    assert report.covering_bound == [0.53125, 0.265625, 0.1328125, 0.06640625]
    assert report.n_pairs == 7127
    assert report.passed


def test_space_convergence_loop_distance_inflation(loop2_cover):
    # the loop's cover is a line with G = arclength / 2, so the stable norm
    # 2 |h| is the distance itself
    report = estimate_space_convergence(loop2_cover, [0.5, 0.25], 64, seed=0)
    assert abs(report.gap_low) <= 1e-12 and abs(report.gap_high) <= 1e-12
    assert report.gap_bound == 4.0


# (graph, C = tree diameter + 2 tree length + 2 longest edge)
GAP_GRAPHS = [
    (figure_eight(1.0, 1.0), 2.0),
    (MetricGraph(2, [(0, 1, 1.0)] * 3), 5.0),
    (MetricGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.7), (0, 0, 0.3)]), 7.1),
    (MetricGraph(3, [(0, 1, 2.0), (1, 2, 1.5), (2, 2, 0.4)]), 14.5),
    (MetricGraph(2, [(0, 1, 3.0), (0, 1, 0.2), (0, 1, 1.0)]), 15.0),
]


@pytest.mark.parametrize("graph, bound", GAP_GRAPHS)
def test_stable_norm_gap_stays_within_its_bound(graph, bound):
    report = estimate_space_convergence(GraphCover(graph), [1.0], 16, seed=7)
    assert report.gap_bound == pytest.approx(bound, abs=1e-12)
    assert report.gap_bound > max(-report.gap_low, report.gap_high) > 0.5
    assert report.passed


def test_stable_norm_is_exact_on_deck_translates():
    # from the base point, walking the circulation of z costs exactly its
    # stable norm on a rose; the 0.37 loop weighs its axis by 0.37
    cover = GraphCover(figure_eight(1.0, 0.37))
    zs = np.array([[3, -2], [0, 5], [-4, -1]])
    want = [cover.distance(cover.vertex_point(0), cover.vertex_point(0, z))
            for z in zs]
    np.testing.assert_allclose(topology._stable_norm(cover, zs), want,
                               atol=1e-12)
    assert want == pytest.approx([3.74, 1.85, 4.37], abs=1e-12)


@pytest.mark.parametrize("graph", [single_loop(0.5), figure_eight(0.5, 0.37)])
def test_match_point_error_within_matching_bound(graph):
    # a non-tree edge's locators sit on the 1/mesh grid of G whatever the
    # edge's length, so a short edge must not shrink the bound
    cover = GraphCover(graph)
    rng = np.random.default_rng(11)
    worst = 0.0
    for eps in (1.0, 0.25):
        for _ in range(100):
            h = rng.uniform(-1.0, 1.0, size=cover.deck_rank)
            _, image = match_point(cover, h, eps, 8)
            err = norm_value(image - h, cover.norm)
            assert err <= matching_bound(cover, eps, 8) + 1e-12
            worst = max(worst, err / matching_bound(cover, eps, 8))
    assert worst > 0.8


@pytest.mark.parametrize("stem", ["figure_eight", "single_loop",
                                  "figure_eight_subcover"])
def test_match_point_is_the_locator_loop(stem):
    # grid targets sit on ties between sheets and locators; the random ones
    # do not
    scenario = load_config(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scenarios", stem + ".yaml")).scenario()
    cover, sub = scenario.cover, scenario.subcover
    rank = cover.deck_rank if sub is None else sub.matrix.shape[0]
    steps = (-1.0, -0.5, 0.0, 0.25, 1.0 / 3.0, 0.5, 0.75)
    rng = np.random.default_rng(17)
    targets = [np.array(h) for h in itertools.product(steps, repeat=rank)]
    targets += list(rng.uniform(-1.5, 1.5, size=(8, rank)))
    for eps, mesh in itertools.product((1.0, 0.5, 0.125, 1.0 / 64), (4, 64)):
        for h in targets:
            point, _ = match_point(cover, h, eps, mesh, sub=sub)
            assert (point.base, point.sheet) == match_point_loop(
                cover, h, eps, mesh, sub=sub)


def test_subcover_rejects_non_surjective_matrix():
    with pytest.raises(ValueError):
        SubcoverMap([[2, 0]])


def _int_det(rows) -> int:
    """Exact determinant of a square integer matrix by cofactors."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j]
               * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


@st.composite
def _integer_maps(draw):
    k = draw(st.integers(1, 3))
    l = draw(st.integers(1, k))
    return [[draw(st.integers(-4, 4)) for _ in range(k)] for _ in range(l)]


@settings(max_examples=400, deadline=None)
@given(rows=_integer_maps())
def test_subcover_accepts_exactly_the_unimodular_maps(rows):
    # onto Z^l iff the l x l minors have gcd 1; then R is a right inverse,
    # K spans the kernel and [R K] is unimodular
    l, k = len(rows), len(rows[0])
    gcd = 0
    for cols in itertools.combinations(range(k), l):
        gcd = math.gcd(gcd, _int_det([[r[c] for c in cols] for r in rows]))
    if gcd != 1:
        with pytest.raises(ValueError, match=f"minors is {gcd}"):
            SubcoverMap(rows)
        return
    sub = SubcoverMap(rows)
    mat = np.array(rows)
    assert np.array_equal(mat @ sub.right_inverse, np.eye(l, dtype=int))
    assert sub.kernel_basis.shape == (k, k - l)
    assert not np.any(mat @ sub.kernel_basis)
    basis = np.hstack([sub.right_inverse, sub.kernel_basis])
    assert abs(_int_det(basis.tolist())) == 1


@pytest.mark.parametrize("rows, right_inverse, kernel", [
    ([[1, 1]], [[1], [0]], [[-1], [1]]),
    ([[1, 2]], [[1], [0]], [[-2], [1]]),
    ([[2, 3]], [[-1], [1]], [[3], [-2]]),
    ([[0, 1]], [[0], [1]], [[1], [0]]),
    ([[1, -1]], [[1], [0]], [[1], [1]]),
    ([[2, 1], [1, 1]], [[1, -1], [-1, 2]], np.zeros((2, 0), dtype=int)),
])
def test_subcover_right_inverse_and_kernel_are_pinned(rows, right_inverse,
                                                      kernel):
    # match_point lifts quotient sheets through R and the kernel checks
    # translate by K, so another valid choice would move subcover artifacts
    sub = SubcoverMap(rows)
    assert np.array_equal(sub.right_inverse, right_inverse)
    assert np.array_equal(sub.kernel_basis, kernel)


@given(pt=torus_points(), z=sheets2)
def test_torus_winding_equivariance(pt, z):
    lhs = TORUS2.g_map(TORUS2.translate(pt, z))
    rhs = TORUS2.g_map(pt) + np.asarray(z)
    assert np.abs(lhs - rhs).max() <= 1e-12


@given(pt=fig8_points(), z=sheets2)
def test_graph_winding_equivariance(pt, z):
    lhs = FIG8.g_map(FIG8.translate(pt, z))
    rhs = FIG8.g_map(pt) + np.asarray(z)
    assert np.abs(lhs - rhs).max() <= 1e-12


@settings(max_examples=40)
@given(x=fig8_points(), y=fig8_points(), z=sheets2)
def test_graph_distance_equivariance(x, y, z):
    d0 = FIG8.distance(x, y)
    d1 = FIG8.distance(FIG8.translate(x, z), FIG8.translate(y, z))
    assert abs(d0 - d1) <= 1e-9


@settings(max_examples=40)
@given(x=fig8_points(), y=fig8_points(), w=fig8_points())
def test_graph_distance_symmetry_and_triangle(x, y, w):
    dxy = FIG8.distance(x, y)
    assert abs(dxy - FIG8.distance(y, x)) <= 1e-9
    assert dxy <= FIG8.distance(x, w) + FIG8.distance(w, y) + 1e-9


@settings(max_examples=40)
@given(x=torus_points(), y=torus_points(), w=torus_points())
def test_torus_distance_symmetry_and_triangle(x, y, w):
    dxy = TORUS2.distance(x, y)
    assert abs(dxy - TORUS2.distance(y, x)) <= 1e-9
    assert dxy <= TORUS2.distance(x, w) + TORUS2.distance(w, y) + 1e-9


@settings(max_examples=40)
@given(x=fig8_points(), y=fig8_points())
def test_graph_winding_is_lipschitz(x, y):
    gap = norm_value(FIG8.g_map(x) - FIG8.g_map(y), FIG8.norm)
    assert gap <= FIG8.g_lipschitz() * FIG8.distance(x, y) + 1e-9


@settings(max_examples=40)
@given(x=torus_points(), y=torus_points())
def test_torus_winding_is_lipschitz(x, y):
    gap = norm_value(TORUS2.g_map(x) - TORUS2.g_map(y), TORUS2.norm)
    assert gap <= TORUS2.g_lipschitz() * TORUS2.distance(x, y) + 1e-9
