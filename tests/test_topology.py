import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham.topology import (
    GraphCover,
    SubcoverMap,
    TorusCover,
    estimate_space_convergence,
    figure_eight,
    norm_value,
    single_loop,
)

TORUS2 = TorusCover(2)
FIG8 = GraphCover(figure_eight(1.0, 1.0))
FIG8_UNEQUAL = GraphCover(figure_eight(1.0, 0.37))
LOOP2 = GraphCover(single_loop(2.0))

sheets2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def torus_points():
    return st.builds(
        lambda b1, b2, z: TORUS2.point([b1, b2], z),
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
    assert np.array_equal(circle.g_map(circle.base_point()), np.zeros(1))


def test_winding_map_reads_graph_sheet(fig8_cover):
    got = fig8_cover.g_map(fig8_cover.vertex_point(0, [1, 2]))
    assert np.array_equal(got, np.array([1.0, 2.0]))


def test_winding_map_torus_lift(torus2):
    got = torus2.g_map(torus2.point([0.5, 0.75], [3, -2]))
    assert np.allclose(got, [3.5, -1.25], atol=1e-15)


def test_cover_distance_loop_counts_circuits(loop2_cover):
    a = loop2_cover.vertex_point(0)
    b = loop2_cover.vertex_point(0, [3])
    assert loop2_cover.distance(a, b) == pytest.approx(6.0, abs=1e-12)


def test_cover_distance_torus(circle):
    d = circle.distance(circle.point([0.25]), circle.point([0.75], [4]))
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


def test_cover_distance_figure_eight_matches_walk_enumeration(fig8_cover):
    d = fig8_cover.distance(fig8_cover.vertex_point(0),
                            fig8_cover.vertex_point(0, [2, 1]))
    assert d == pytest.approx(3.0, abs=1e-12)
    assert d == pytest.approx(brute_force_loop_distance((2, 1), (1.0, 1.0)), abs=1e-12)


def test_space_convergence_flat_torus_is_isometric(torus2):
    ladder = [2.0 ** (-j) for j in range(1, 6)]
    report = estimate_space_convergence(torus2, ladder, seed=0)
    assert report.fitted_k == 1.0
    assert all(a == 0.0 for a in report.a_eps)


def test_space_convergence_figure_eight(fig8_cover):
    ladder = [2.0 ** (-j) for j in range(1, 6)]
    report = estimate_space_convergence(fig8_cover, ladder, seed=0)
    assert report.fitted_k == pytest.approx(1.0, abs=1e-12)
    for eps, a in zip(report.epsilons, report.a_eps):
        assert 0.0 <= a <= eps * 1.0 + 1e-12
    assert report.a_slope_stable()
    assert report.covering_radius == sorted(report.covering_radius, reverse=True)


def test_space_convergence_figure_eight_report_is_pinned():
    # the exact report of a per-pair box Dijkstra, an independent route to
    # the same distances
    report = estimate_space_convergence(GraphCover(figure_eight(1.0, 1.0)),
                                        [1, 0.5, 0.25, 0.125], seed=0)
    assert report.fitted_k == 1.0
    assert report.a_eps == [0.941375679606459, 0.4706878398032295,
                            0.23534391990161474, 0.11767195995080737]
    assert report.covering_radius == [0.42500000000000027, 0.21250000000000036,
                                      0.10625000000000018, 0.05312500000000009]
    assert report.n_pairs == 7127


def test_space_convergence_loop_distance_inflation(loop2_cover):
    report = estimate_space_convergence(loop2_cover, [0.5, 0.25], seed=0)
    assert report.fitted_k == pytest.approx(2.0, abs=1e-12)


def test_subcover_rejects_non_surjective_matrix():
    with pytest.raises(ValueError):
        SubcoverMap([[2, 0]])


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
