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
