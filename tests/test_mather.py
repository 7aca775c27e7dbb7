import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import ellipe

from effham import mather
from effham.config import load_config
from effham.errors import SolverError
from effham.homogenize import default_beta_evaluator
from effham.mather import (
    AnalyticQuadraticBeta,
    BetaHatEvaluator,
    DirectBetaEvaluator,
    LegendreDual,
    MechanicalBeta1D,
    _RotationRule,
    alpha_graph,
    alpha_torus_quadrature,
    beta_graph,
)
from effham.action import _golden_min, allocate_time
from effham.model import GraphLagrangian, TorusHamiltonian, TrigPolynomial
from effham.topology import (GraphCover, MetricGraph, SubcoverMap, TorusCover,
                             _edge_flow)
from tests.conftest import allocate_time_oracle, figure_eight, make_pendulum
from tests.oracles import (alpha_graph_bellman_ford, alpha_graph_walks,
                           bisect_threshold_scalar, mean_action_check)

_SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios")
FIG8 = figure_eight(1.0, 1.0)
FIG8_LAG = GraphLagrangian(FIG8, [0.3, -0.2])


def cycle_threshold_alpha(cycles, potentials, p):
    """Independent route to the effective level on a graph.

    Each directed cycle contributes the smallest level whose momentum
    integral sum_e len_e * sqrt(2(level + V_e)) reaches p.chi; resting on
    the cheapest edge floors the result at -min V.
    """
    best = -min(potentials)
    for edges, chi in cycles:
        w = float(np.dot(p, chi))
        if w <= 0.0:
            continue
        lam_lo = max(-potentials[e] for e, _ in edges)

        def momentum(lam):
            total = sum(ell * np.sqrt(2.0 * max(0.0, lam + potentials[e]))
                        for e, ell in edges)
            return total - w

        if momentum(lam_lo) >= 0.0:
            best = max(best, lam_lo)
            continue
        lam_hi = lam_lo + 1.0
        while momentum(lam_hi) < 0.0:
            lam_hi = 2.0 * lam_hi + 1.0
        best = max(best, brentq(momentum, lam_lo, lam_hi, xtol=1e-13))
    return best


FIG8_CYCLES = []
for sa in (1, -1):
    FIG8_CYCLES.append(([(0, 1.0)], np.array([sa, 0.0])))
    FIG8_CYCLES.append(([(1, 1.0)], np.array([0.0, sa])))
    for sb in (1, -1):
        FIG8_CYCLES.append(([(0, 1.0), (1, 1.0)], np.array([sa, sb])))


@pytest.mark.parametrize("p_val", [-1.5, 0.0, 0.4, 2.3])
def test_alpha_loop_closed_form(loop2, loop2_lag, p_val):
    got = alpha_graph(loop2, loop2_lag, [p_val])
    assert got == pytest.approx(p_val**2 / 8.0 - 0.5, abs=1e-12)
    oracle = cycle_threshold_alpha(
        [([(0, 2.0)], np.array([1.0])), ([(0, 2.0)], np.array([-1.0]))],
        [0.5], [p_val])
    assert got == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("p_val", [(0.0, 0.0), (0.7, -0.3), (1.2, 0.9),
                                   (2.0, 0.5), (-0.6, 1.4)])
def test_alpha_figure_eight_matches_cycle_enumeration(fig8, fig8_lag, p_val):
    got = alpha_graph(fig8, fig8_lag, list(p_val))
    oracle = cycle_threshold_alpha(FIG8_CYCLES, [0.3, -0.2], list(p_val))
    assert got == pytest.approx(oracle, abs=1e-12)


def test_alpha_rest_level(fig8, fig8_lag, loop2, loop2_lag):
    assert alpha_graph(fig8, fig8_lag, [0.0, 0.0]) == pytest.approx(0.2, abs=1e-12)
    assert alpha_graph(loop2, loop2_lag, [0.0]) == pytest.approx(-0.5, abs=1e-12)


def test_alpha_free_momentum_on_one_loop(fig8, fig8_free):
    got = alpha_graph(fig8, fig8_free, [1.3, 0.0])
    assert got == pytest.approx(1.3**2 / 2.0, abs=2e-9)


def test_alpha_shift_covariance(fig8, fig8_lag):
    for p_val in ((0.3, 0.4), (1.1, -0.8)):
        base = alpha_graph(fig8, fig8_lag, list(p_val))
        shifted = alpha_graph(fig8, GraphLagrangian(fig8, fig8_lag.potentials + 0.7),
                              list(p_val))
        assert shifted == pytest.approx(base - 0.7, abs=1e-12)


@settings(max_examples=25)
@given(
    p=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    q=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_alpha_midpoint_convexity(p, q):
    mid = [(a + b) / 2.0 for a, b in zip(p, q)]
    lhs = alpha_graph(FIG8, FIG8_LAG, mid)
    rhs = 0.5 * (alpha_graph(FIG8, FIG8_LAG, list(p)) + alpha_graph(FIG8, FIG8_LAG, list(q)))
    assert lhs <= rhs + 1e-6


def test_alpha_superlinear_slope_growth(fig8, fig8_lag):
    direction = np.array([1.0, 0.5])
    a0 = alpha_graph(fig8, fig8_lag, [0.0, 0.0])
    slopes = [(alpha_graph(fig8, fig8_lag, list(t * direction)) - a0) / t
              for t in (1.0, 2.0, 4.0)]
    assert slopes[0] < slopes[1] < slopes[2]


def _cubic_below(targets):
    return lambda levels: levels * (1.0 + levels * levels) < targets


def test_lockstep_bisection_is_each_level_alone():
    # roots of k^3 + k = target within one step of lo (no doubling) and far
    # past it (the bracket doubles up to nine times)
    rng = np.random.default_rng(11)
    lo = rng.uniform(-2.0, 2.0, size=40)
    roots = lo + np.concatenate([rng.uniform(0.0, 1.0, 20),
                                 rng.uniform(1.0, 500.0, 20)])
    targets = roots * (1.0 + roots * roots)
    got = mather._bisect_threshold(_cubic_below(targets), lo)
    alone = [bisect_threshold_scalar(_cubic_below(t), l, 0.0)
             for t, l in zip(targets, lo)]
    assert got.tobytes() == np.array(alone).tobytes()


def test_lockstep_bisection_raises_past_its_cap():
    # one level whose test never fails stops the whole batch
    targets = np.array([2.0, np.inf])
    with pytest.raises(SolverError, match="cap"):
        mather._bisect_threshold(_cubic_below(targets), np.zeros(2))
    with pytest.raises(SolverError, match="cap"):
        bisect_threshold_scalar(_cubic_below(np.inf), 0.0, 0.0)


def test_free_torus_alpha_is_half_the_kinetic_form(torus2, free2):
    pair = default_beta_evaluator(torus2, free2)
    assert isinstance(pair, AnalyticQuadraticBeta)
    assert pair.alpha_many([[0.5, 1.0], [1.0, 2.0]]) == pytest.approx(
        [0.625, 2.5], abs=1e-12)


def test_quadrature_constant_potential():
    const = TorusHamiltonian.mechanical(TrigPolynomial.constant(1, 0.4))
    assert alpha_torus_quadrature(const, [0.0]) == pytest.approx(0.4, abs=1e-9)


@pytest.mark.parametrize("p_val", [0.5, 1.25, 2.0])
def test_quadrature_dominates_spatial_average(pendulum, p_val):
    # with zero-mean potential the averaged Hamiltonian at slope p is p^2/2
    assert alpha_torus_quadrature(pendulum, [p_val]) >= 0.5 * p_val**2 - 1e-9


def test_quadrature_route_values(pendulum, free1):
    assert alpha_torus_quadrature(pendulum, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert alpha_torus_quadrature(free1, 0.8) == pytest.approx(0.32, abs=1e-10)


def test_quadrature_route_is_one_dimensional(free2):
    with pytest.raises(ValueError):
        alpha_torus_quadrature(free2, [0.5, 0.5])


# V = cos 2 pi x + 0.3 sin 4 pi x, A = 1 + 0.3 cos 2 pi x: the maximum of V
# lies 5.8e-8 above its best sample on the 4096-point grid
TILTED_V = TrigPolynomial(1, [([1], 1.0, 0.0), ([2], 0.0, 0.3)])
TILTED = TorusHamiltonian(1, [TrigPolynomial(1, [([0], 1.0, 0.0),
                                                 ([1], 0.3, 0.0)])], TILTED_V)


def _tilted_maxima():
    """The local maxima of TILTED_V: brentq on the sign changes of V'."""
    def slope(x):
        return TILTED_V.gradient_many([[x]])[1][0, 0]
    grid = np.linspace(0.0, 1.0, 65)
    return [brentq(slope, a, b, xtol=1e-15) for a, b in zip(grid[:-1], grid[1:])
            if slope(a) > 0.0 > slope(b)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rotation_rule_is_the_elliptic_closed_form(k):
    # for V = cos 2 pi k x and A = 1 the rotation integral is
    # (2/pi) sqrt(2E + 2) E(2/(E + 1)) for every k, E the complete elliptic
    # integral of the second kind in parameter form
    rule = _RotationRule(TorusHamiltonian.mechanical(
        TrigPolynomial(1, [([k], 1.0, 0.0)])))
    assert rule.vmax == 1.0
    for energy in 1.0 + np.concatenate([[0.0], np.logspace(-15, 1, 161)]):
        exact = (2.0 / np.pi * math.sqrt(2.0 * energy + 2.0)
                 * ellipe(2.0 / (energy + 1.0)))
        assert abs(rule(energy) - exact) <= 1e-13, energy


def test_rotation_rule_matches_quad_with_varying_kinetic():
    # a step of 1e-4 above max V the integrand is smooth enough that quad,
    # told where the maxima are, converges without a warning
    maxima = _tilted_maxima()
    rule = _RotationRule(TILTED)
    a11 = TILTED.a_entries[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for energy in rule.vmax + np.logspace(-4, 1, 16):
            ref, _ = integrate.quad(
                lambda x: math.sqrt(max(0.0, 2.0 * (
                    energy - TILTED_V.value_many([[x]])[0])
                    / a11.value_many([[x]])[0])),
                0.0, 1.0, points=maxima, limit=200, epsabs=1e-13, epsrel=1e-13)
            assert abs(rule(energy) - ref) <= 1e-13, energy


def test_circle_floor_is_the_polished_max():
    vmax = TILTED_V.value_many(np.array(_tilted_maxima())[:, None]).max()
    sampled = TILTED_V.value_many((np.arange(4096) / 4096.0)[:, None]).max()
    assert vmax - sampled > 5e-8
    pair = MechanicalBeta1D(TILTED)
    (alpha0,) = pair.alpha_many([0.0])
    assert alpha0 == -pair.value(0.0)
    assert alpha0 == pytest.approx(vmax, abs=1e-15)
    assert alpha_torus_quadrature(TILTED, 0.0) == alpha0


@pytest.mark.parametrize("p_val", [2.5, 4.0])
def test_minimax_agrees_with_quadrature(pendulum, p_val):
    # alpha(p) = min over zero-mean w of max_x H(x, p + w(x)); on the running
    # branch the minimiser is the corrector whose momentum is sqrt(2(c - V))
    c = alpha_torus_quadrature(pendulum, p_val)
    x = np.arange(256) / 256.0
    v = np.cos(2.0 * np.pi * x)
    momentum = np.sqrt(2.0 * (c - v))
    assert momentum.mean() == pytest.approx(p_val, abs=1e-9)
    assert np.max(0.5 * momentum**2 + v) == pytest.approx(c, abs=1e-9)
    # any other zero-mean corrector raises the maximum
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = rng.integers(1, 8)
        a, b = rng.normal(scale=0.5, size=2)
        w = a * np.cos(2.0 * np.pi * k * x) + b * np.sin(2.0 * np.pi * k * x)
        assert np.max(0.5 * (momentum + w)**2 + v) >= c - 1e-9
    assert 0.5 * p_val**2 + 1.0 >= c


@pytest.mark.parametrize("h_val", [-1.0, 0.0, 0.3, 1.7])
def test_beta_loop_closed_form(loop2, loop2_lag, h_val):
    got = beta_graph(loop2, loop2_lag, [h_val])
    assert got == pytest.approx(2.0 * h_val**2 + 0.5, abs=1e-9)


def test_beta_keeps_a_low_rate_traversal():
    # theta graph: edge 0 is the spanning tree, edges 1 and 2 carry the
    # rate, and conservation at vertex 0 sends -(h1 + h2) through edge 0
    theta = MetricGraph(2, [(0, 1, 1.0), (0, 1, 0.7), (0, 1, 1.3)])
    lagrangian = GraphLagrangian(theta, [0.2, -0.1, 0.4])
    h1, h2 = 0.5, 1e-8
    expect = allocate_time_oracle(
        [((h1 + h2) * 1.0, 0.2), (h1 * 0.7, -0.1), (h2 * 1.3, 0.4)], 1.0, -0.1)
    assert beta_graph(theta, lagrangian, [h1, h2]) == pytest.approx(expect,
                                                                  abs=1e-12)


def test_beta_even(fig8, fig8_lag):
    for h in ([0.6, -0.4], [1.0, 1.0]):
        neg = [-x for x in h]
        assert beta_graph(fig8, fig8_lag, h) == pytest.approx(
            beta_graph(fig8, fig8_lag, neg), abs=1e-12)


def test_beta_figure_eight_split_strategy(fig8, fig8_free):
    got = beta_graph(fig8, fig8_free, [1.0, 1.0])
    assert got == pytest.approx(2.0, abs=1e-9)
    # oracle: divide the horizon between the two loops, constant speed each
    sigma = np.arange(1, 64) / 64.0
    oracle = float(np.min(1.0 / (2 * sigma) + 1.0 / (2 * (1 - sigma))))
    assert got == pytest.approx(oracle, abs=1e-9)
    # closed form (|h1| + |h2|)^2 / 2 off the diagonal
    assert beta_graph(fig8, fig8_free, [1.5, -0.5]) == pytest.approx(2.0, abs=1e-9)


def _half_square(zs):
    return 0.5 * np.vecdot(zs, zs)


def test_quadratic_duality():
    ps = np.linspace(-1.0, 1.0, 41)[:, None]
    worst = np.max(np.abs(LegendreDual(_half_square, 1).value_many(ps)
                          - _half_square(ps)))
    assert worst <= 1e-12


def test_double_transform_recovers_convex_input():
    back = LegendreDual(LegendreDual(_half_square, 1).value_many, 1)
    ws = np.linspace(-1.0, 1.0, 41)[:, None]
    assert np.max(np.abs(back.value_many(ws) - _half_square(ws))) <= 1e-12


def test_conjugate_of_a_linear_source_is_infinite_past_its_slope():
    # sup_z [w z - |z|] is 0 for |w| <= 1 and +inf beyond: the bracket of
    # a pairing that never falls passes its cap instead of stopping at a box
    dual = LegendreDual(lambda zs: np.abs(zs[:, 0]), 1)
    assert dual.value([0.5]) == 0.0
    with pytest.raises(SolverError, match="concave search bracket"):
        dual.value([2.0])


@pytest.mark.parametrize("source, ws", [
    # beta-hat of figure_eight_subcover, and the free2 quadratic
    (BetaHatEvaluator(SubcoverMap([[1, 1]]),
                      DirectBetaEvaluator(FIG8, FIG8_LAG)).value_many,
     np.linspace(-1.0, 1.0, 9)[:, None]),
    (AnalyticQuadraticBeta([[2.0, 0.5], [0.5, 1.0]]).value_many,
     np.array([[0.5, -0.3], [1.0, 0.4], [-0.7, 0.9], [0.0, 0.0]])),
], ids=["beta-hat", "free2"])
def test_conjugate_rows_are_each_row_alone(source, ws):
    dual = LegendreDual(source, ws.shape[1])
    alone = np.array([dual.value(w) for w in ws])
    assert dual.value_many(ws).tobytes() == alone.tobytes()


@pytest.mark.parametrize("family, p_values", [
    ("loop", [[p] for p in np.linspace(-1.5, 1.5, 9)]),
    ("free2", [[0.5, -0.3], [1.0, 0.4], [-0.7, 0.9]]),
    ("pendulum", [[0.0], [0.8], [1.7], [2.5], [4.0]]),
], ids=["loop", "free2", "pendulum"])
def test_rates_dualize_to_alpha(request, family, p_values):
    # each family's alpha against the conjugate of its own beta; the
    # kinetic matrix is not diagonal, so alpha built on its inverse fails
    if family == "loop":
        pair = DirectBetaEvaluator(request.getfixturevalue("loop2"),
                                   request.getfixturevalue("loop2_lag"))
    elif family == "free2":
        pair = AnalyticQuadraticBeta([[2.0, 0.5], [0.5, 1.0]])
    else:
        pair = MechanicalBeta1D(make_pendulum())
    dual = LegendreDual(pair.value_many, len(p_values[0]))
    worst = np.max(np.abs(dual.value_many(p_values)
                          - pair.alpha_many(p_values)))
    assert worst <= 1e-8


def test_pendulum_beta_zero_via_quadrature_table(pendulum):
    dual = LegendreDual(lambda zs: alpha_torus_quadrature(pendulum, zs), 1)
    assert dual.value([0.0]) == pytest.approx(-1.0, abs=1e-12)


def test_mechanical_beta_matches_quadrature_dual(pendulum):
    mb = MechanicalBeta1D(pendulum)
    assert mb.value([0.0]) == pytest.approx(-1.0, abs=1e-9)
    grid = np.linspace(-4.0, 4.0, 201)
    sup = max(1.3 * p - alpha_torus_quadrature(pendulum, p) for p in grid)
    assert mb.value([1.3]) == pytest.approx(sup, abs=2e-3)


@pytest.mark.parametrize("speed", [0.3, 0.5, 0.9, 1.7])
def test_mechanical_beta_does_not_depend_on_earlier_queries(pendulum, speed):
    # rates 4e-14 apart: an evaluator that kept state between queries, as
    # a rounded cache key would, could read the earlier one's value
    near = speed + 4e-14
    warm = MechanicalBeta1D(pendulum)
    warm.value([speed])
    assert warm.value([near]) == MechanicalBeta1D(pendulum).value([near])


def test_beta_hat_identity_is_beta(fig8, fig8_lag):
    beta_eval = DirectBetaEvaluator(fig8, fig8_lag)
    ident = SubcoverMap([[1, 0], [0, 1]])
    for z in ((0.4, -1.2), (1.0, 1.0)):
        got = BetaHatEvaluator(ident, beta_eval).value(list(z))
        assert got == pytest.approx(beta_graph(fig8, fig8_lag, list(z)), abs=1e-12)


@pytest.mark.parametrize("z_val,expect", [(0.0, -0.2), (1.0, 0.8)])
def test_beta_hat_projection_scans_dropped_rate(fig8, fig8_lag, z_val, expect):
    beta_eval = DirectBetaEvaluator(fig8, fig8_lag)
    proj = SubcoverMap([[1, 0]])
    got = BetaHatEvaluator(proj, beta_eval).value([z_val])
    assert got == pytest.approx(expect, abs=1e-9)
    oracle = min(beta_graph(fig8, fig8_lag, [z_val, w2])
                 for w2 in np.linspace(-2.0, 2.0, 201))
    assert got == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("z_val,expect", [(1.0, 0.5), (2.0, 2.0), (1.5, 1.125)])
def test_beta_hat_symmetric_merge(fig8, fig8_free, z_val, expect):
    beta_eval = DirectBetaEvaluator(fig8, fig8_free)
    merge = SubcoverMap([[1, 1]])
    got = BetaHatEvaluator(merge, beta_eval).value([z_val])
    assert got == pytest.approx(expect, abs=1e-9)
    assert got == pytest.approx(beta_graph(fig8, fig8_free, [z_val / 2, z_val / 2]),
                                abs=1e-9)


def test_beta_hat_fiber_upper_bound(fig8, fig8_lag):
    beta_eval = DirectBetaEvaluator(fig8, fig8_lag)
    merge = SubcoverMap([[1, 1]])
    for h1 in np.linspace(-1.5, 1.5, 5):
        for h2 in np.linspace(-1.5, 1.5, 5):
            direct = beta_graph(fig8, fig8_lag, [h1, h2])
            projected = BetaHatEvaluator(merge, beta_eval).value(
                merge.matrix @ [h1, h2])
            assert projected <= direct + 1e-12


def test_beta_hat_rejects_kernel_rank_two():
    three_loops = MetricGraph(1, [(0, 0, 1.0), (0, 0, 0.8), (0, 0, 1.2)])
    base = DirectBetaEvaluator(three_loops,
                               GraphLagrangian(three_loops, [0.1, -0.2, 0.0]))
    with pytest.raises(ValueError, match="kernel rank 2"):
        BetaHatEvaluator(SubcoverMap([[1, 1, 1]]), base)


_QUOTIENT_GRAPHS = {
    "figure_eight": (figure_eight(1.0, 1.0), [0.3, -0.2]),
    "figure_eight_asym": (figure_eight(1.0, 0.37), [0.3, -0.2]),
    "figure_eight_free": (figure_eight(1.0, 1.0), [0.0, 0.0]),
    "theta": (MetricGraph(2, [(0, 1, 1.0), (0, 1, 0.7), (0, 1, 1.3)]),
              [0.1, -0.3, 0.25]),
    "triangle_loop": (MetricGraph(3, [(0, 1, 1.0), (1, 2, 0.8), (2, 0, 1.1),
                                      (0, 0, 0.6)]), [0.2, -0.1, 0.4, -0.35]),
}
_SURJECTIONS = ([[1, 1]], [[1, 0]], [[0, 1]], [[1, -1]], [[2, 1]], [[1, 2]],
                [[3, 2]])


def _fiber_scan(graph, lag, sub, z):
    """Least beta over the fiber above z by the primal route: beta at 257
    points across the fiber's kinks and at the kinks themselves, then a
    golden-section polish between the best point's neighbours."""
    h0 = sub.right_inverse.astype(float) @ np.atleast_1d(z)
    k = sub.kernel_basis[:, 0].astype(float)
    f0, fk = _edge_flow(graph, h0), _edge_flow(graph, k)
    kinks = -f0[fk != 0.0] / fk[fk != 0.0]
    pad = 1.0 + kinks.max() - kinks.min()
    s = np.union1d(np.linspace(kinks.min() - pad, kinks.max() + pad, 257), kinks)
    runs = np.abs(f0[None, :] + s[:, None] * fk[None, :]) * graph.lengths
    vals = allocate_time(runs, lag.potentials, 1.0, lag.min_potential())
    i = int(np.argmin(vals))
    _, (low,) = _golden_min(lambda _, si: beta_graph(graph, lag, h0 + si[0] * k),
                            s[max(i - 1, 0)], s[min(i + 1, s.size - 1)], 1e-11)
    return min(float(vals[i]), low)


@pytest.mark.parametrize("name", sorted(_QUOTIENT_GRAPHS))
def test_beta_hat_minimax_matches_fiber_scan(name):
    graph, pots = _QUOTIENT_GRAPHS[name]
    lag = GraphLagrangian(graph, pots)
    base = DirectBetaEvaluator(graph, lag)
    worst_above = worst = 0.0
    for matrix in _SURJECTIONS:
        sub = SubcoverMap(matrix)
        bhat = BetaHatEvaluator(sub, base)
        for z in np.linspace(-2.0, 2.0, 33):
            got, scan = bhat.value([z]), _fiber_scan(graph, lag, sub, z)
            worst_above = max(worst_above, got - scan)
            worst = max(worst, abs(got - scan))
    assert worst_above <= 1e-12
    assert worst <= 1e-9


_ALPHA_GRAPHS = dict(_QUOTIENT_GRAPHS,
                     single_loop=(MetricGraph(1, [(0, 0, 2.0)]), [0.5]))


def _alpha_miss(name) -> float:
    """Largest distance of ``alpha_graph`` from the Bellman-Ford route at
    200 random covectors in [-3, 3]^k."""
    graph, pots = _ALPHA_GRAPHS[name]
    lag = GraphLagrangian(graph, pots)
    ps = np.random.default_rng(5).uniform(-3.0, 3.0,
                                          size=(200, graph.cycle_rank))
    ref = [alpha_graph_bellman_ford(graph, lag, p) for p in ps]
    return float(np.max(np.abs(alpha_graph(graph, lag, ps) - ref)))


@pytest.mark.parametrize("name", sorted(_ALPHA_GRAPHS))
def test_alpha_graph_matches_bellman_ford(name):
    # the reference bisects to 1e-9, so it is off by up to half of that
    assert _alpha_miss(name) <= 5e-10


@pytest.mark.parametrize("name", ["figure_eight", "theta", "triangle_loop"])
def test_alpha_graph_is_the_largest_root_over_short_closed_walks(name):
    # both routes bisect to adjacent floats, so they meet to rounding
    graph, pots = _ALPHA_GRAPHS[name]
    lag = GraphLagrangian(graph, pots)
    ps = np.random.default_rng(13).uniform(-3.0, 3.0,
                                           size=(40, graph.cycle_rank))
    ref = [alpha_graph_walks(graph, lag, p) for p in ps]
    np.testing.assert_allclose(alpha_graph(graph, lag, ps), ref, rtol=0.0,
                               atol=1e-12)


def test_basis_classes_alone_miss_the_theta_cycle(monkeypatch):
    # theta's third cycle runs through both non-tree edges (class (1, -1));
    # figure-eight's cycles of class (1, +-1) split into its two loops at
    # the one vertex, so there the basis classes suffice
    monkeypatch.setattr(mather, "_cycle_classes", lambda rank: np.eye(rank))
    assert _alpha_miss("theta") > 1.0
    assert _alpha_miss("figure_eight") <= 5e-10


def test_effective_subcover_identity_and_pullback(fig8, fig8_lag):
    def alpha_fn(p):
        return alpha_graph(fig8, fig8_lag, p)

    ident = SubcoverMap([[1, 0], [0, 1]])
    assert alpha_fn(ident.pullback([0.7, -0.2])) == alpha_fn([0.7, -0.2])
    merge = SubcoverMap([[1, 1]])
    assert alpha_fn(merge.pullback([0.6])) == alpha_fn([0.6, 0.6])


def test_subcover_rates_dualize_to_pullback_alpha(fig8, fig8_lag):
    sub = SubcoverMap([[1, 1]])
    bhat = BetaHatEvaluator(sub, DirectBetaEvaluator(fig8, fig8_lag))
    rates = np.linspace(-1.6, 1.6, 33)
    table = np.array([bhat.value([z]) for z in rates])
    assert np.max(table[1:-1] - 0.5 * (table[:-2] + table[2:])) <= 1e-6
    # the conjugate over the table's own nodes, against alpha pulled back
    worst = 0.0
    for q in np.linspace(-0.8, 0.8, 9):
        direct = alpha_graph(fig8, fig8_lag, sub.pullback([q]))
        worst = max(worst, abs(np.max(q * rates - table) - direct))
    assert worst <= 1e-3


def test_mean_action_free_torus_is_exact(circle, free1):
    report = mean_action_check(circle, free1, AnalyticQuadraticBeta(np.eye(1)),
                               1.0, [2.0, 4.0])
    assert report.passed()
    assert all(row.delta <= 1e-9 for row in report.rows)


def test_mean_action_loop_decay_bound(loop2_cover, loop2_lag, loop2):
    beta_eval = DirectBetaEvaluator(loop2, loop2_lag)
    report = mean_action_check(loop2_cover, loop2_lag, beta_eval, 1.0,
                               [4.0, 8.0, 16.0])
    assert report.passed()
    for row in report.rows:
        assert row.delta <= 2.0 / row.horizon + 1e-9


def test_mean_action_pendulum_boundary_layer_decays(circle, pendulum):
    report = mean_action_check(circle, pendulum, MechanicalBeta1D(pendulum),
                               1.0, [4.0, 8.0])
    deltas = [row.delta for row in report.rows]
    assert deltas[0] > deltas[1]
    assert report.passed()


def _evaluator(name):
    theta = MetricGraph(2, [(0, 1, 1.0), (0, 1, 0.7), (0, 1, 1.3)])
    if name == "direct-figure-eight":
        return DirectBetaEvaluator(FIG8, FIG8_LAG), 2
    if name == "direct-theta":
        return DirectBetaEvaluator(theta, GraphLagrangian(theta, [0.1, -0.3, 0.25])), 2
    if name == "analytic-quadratic":
        return AnalyticQuadraticBeta([[1.3, 0.4], [0.4, 0.8]]), 2
    if name == "mechanical-circle":
        return MechanicalBeta1D(make_pendulum()), 1
    rows = [[1, 1]] if name == "beta-hat-kernel" else [[1, 0], [0, 1]]
    return BetaHatEvaluator(SubcoverMap(rows), DirectBetaEvaluator(FIG8, FIG8_LAG)), \
        len(rows)


@pytest.mark.parametrize("name", ["direct-figure-eight", "direct-theta",
                                  "analytic-quadratic", "mechanical-circle",
                                  "beta-hat-kernel", "beta-hat-identity"])
def test_value_many_is_value_row_by_row(name):
    # fresh evaluators for the two routes, so no state is shared; the rates
    # along (1, ..., 1) at 0.05, 1 and 40 take energy brackets that double
    # 0 to 10 times, and those below 1e-14 sit at the circle's speed floor
    batched, dim = _evaluator(name)
    single, _ = _evaluator(name)
    rng = np.random.default_rng(23)
    speeds = np.array([0.05, 1.0, 40.0, -40.0, 1e-15, -3e-15, 2e-14])
    ws = np.vstack([np.zeros(dim), rng.uniform(-1.5, 1.5, size=(24, dim)),
                    np.eye(dim), -np.eye(dim), np.outer(speeds, np.ones(dim))])
    many = batched.value_many(ws)
    assert many.shape == (len(ws),)
    assert many.tobytes() == np.array([single.value(w) for w in ws]).tobytes()


def test_rotation_rule_prices_a_batch_row_by_row(pendulum):
    # the rule is one dot product per energy, whatever the batch: a
    # matrix-vector product rounds some rows by the batch size
    rule = _RotationRule(pendulum)
    rng = np.random.default_rng(4)
    energies = rule.vmax + np.concatenate([[0.0], rng.uniform(0.0, 60.0, 199)])
    alone = np.array([rule(e) for e in energies])
    for size in (2, 3, 33, 200):
        got = np.concatenate([rule(energies[i:i + size])
                              for i in range(0, len(energies), size)])
        assert got.tobytes() == alone.tobytes()


def test_circle_alpha_on_the_p_grid_is_each_p_alone():
    # the pendulum's alpha table (cli alpha: 33 p on [-2, 2]) bisects every
    # running row in lockstep; each must step as it would alone
    pendulum = load_config(os.path.join(_SCENARIOS, "pendulum.yaml")).model
    ps = np.linspace(-2.0, 2.0, 33)
    table = alpha_torus_quadrature(pendulum, ps)
    alone = np.array([alpha_torus_quadrature(pendulum, p)[0] for p in ps])
    assert table.tobytes() == alone.tobytes()


def test_concave_max_steps_each_gain_as_alone():
    # peaks at 0.3, 5 and 300 above lo take 0, 3 and 9 doublings, a peak
    # below lo keeps the endpoint, and a flat-topped gain stops at once
    peaks = np.array([0.3, 5.0, 300.0, -2.0, 0.7])
    flats = np.array([0.0, 0.0, 0.0, 0.0, 3.0])
    los = np.array([0.0, 0.1, -1.0, 0.0, 0.5])

    def gain(idx, energies):
        e = np.asarray(energies)
        return -np.maximum(np.abs(e - peaks[idx]) - flats[idx], 0.0) ** 2

    together = mather._concave_max(gain, los)
    alone = [mather._concave_max(
        lambda idx, e, k=k: gain(np.full(len(np.asarray(e)), k), e), [lo])[0]
        for k, lo in enumerate(los)]
    assert together.tobytes() == np.array(alone).tobytes()
