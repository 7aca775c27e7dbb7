import inspect
import itertools
import math
import os
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, optimize

from effham import action, mather
from effham.action import (
    InitialDatum,
    _auto_segments,
    _chain_terms,
    _damped_steps,
    _descend,
    _nelder_mead,
    _simplex_start,
    allocate_time,
    hopf_lax,
    lax_oleinik,
    lax_oleinik_many,
    minimal_action_graph,
    minimal_action_torus,
)
from effham.config import load_config
from effham.errors import ModelValidityError
from effham.homogenize import _PulledBackDatum
from effham.mather import (AnalyticQuadraticBeta, BetaHatEvaluator,
                           DirectBetaEvaluator, LegendreDual)
from effham.model import GraphLagrangian, TorusHamiltonian, TrigPolynomial
from effham.topology import (GraphCover, MetricGraph, SubcoverMap, match_point,
                             norm_value)
from tests.conftest import (allocate_time_oracle, figure_eight, make_pendulum,
                            single_loop)
from tests.oracles import (golden_min_scalar, lagrangian, lax_graph_full_table,
                           minimal_action_torus_alone, multisets_unpruned,
                           nelder_mead_scipy, torus_candidate_count)


def test_free_straight_line_action(free1):
    # constant-speed segment: (3/2)^2 / 2 * 2
    got = minimal_action_torus(free1, [0.0], [3.0], 2.0)[0]
    assert got == pytest.approx(2.25, abs=1e-9)


_RUN_LENGTHS = (1e-139, 1e-103, 1e-20, 1e-8, 1e-3, 0.1, 1.0, 3.0)
_RUN_POTENTIALS = np.array([0.2, -0.1, 0.4])


@pytest.mark.parametrize("horizon", [1e-3, 0.1, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("rest", [10.0, -0.5])
def test_batched_allocation_matches_scalar_oracle(horizon, rest):
    # every row of one to three runs over the length sweep, priced in one
    # call; rest -0.5 is cheaper than every run, rest 10 never pays
    rows = []
    for k in (1, 2, 3):
        for combo in itertools.product(_RUN_LENGTHS, repeat=k):
            rows.append(list(combo) + [0.0] * (3 - k))
    rows = np.array(rows)
    got = allocate_time(rows, _RUN_POTENTIALS, horizon, np.full(len(rows), rest))
    for row, cost in zip(rows, got):
        expect = allocate_time_oracle(zip(row, _RUN_POTENTIALS), horizon, rest)
        # the potential part of a cost is at most horizon * max |V|, so
        # that is the size of the terms that cancel in a cost near zero
        scale = abs(expect) + horizon * float(np.max(np.abs(_RUN_POTENTIALS)))
        assert abs(cost - expect) <= 1e-13 * scale


@pytest.mark.parametrize("horizon", [0.5, 4.0, 64.0])
def test_row_cost_does_not_depend_on_its_batch(horizon):
    # every row stops on its own Newton test, so a row priced alone and
    # priced among 199 others gives the same bits
    rng = np.random.default_rng(11)
    pots = rng.uniform(-1.0, 1.0, 4)
    rows = rng.uniform(0.0, 3.0, (200, 4)) * (rng.random((200, 4)) < 0.7)
    rests = rng.uniform(-1.5, 1.5, 200)
    batch = allocate_time(rows, pots, horizon, rests)
    alone = [allocate_time(row[None], pots, horizon, [rest])[0]
             for row, rest in zip(rows, rests)]
    assert np.array_equal(batch, alone)


def test_horizon_per_row_is_each_row_alone():
    # rows that rest (rate below every run), that solve for the energy,
    # that hold only lengths up to 1e-140 (no run: rest the whole horizon)
    # and direct rows (one run resting at its own potential), each over
    # its own horizon, against one scalar call per row
    rng = np.random.default_rng(5)
    pots = np.array([0.3, -0.2, 0.1])
    rows = rng.uniform(0.0, 2.0, (60, 3)) * (rng.random((60, 3)) < 0.7)
    rests = rng.uniform(-1.0, 1.0, 60)
    rows[:10] = rng.choice([0.0, 1e-141, 1e-140], (10, 3))
    rows[10:20] = 0.0
    rows[10:20, 1] = rng.uniform(0.0, 1.0, 10)
    rests[10:20] = pots[1]
    rests[20:30] = -2.0
    horizons = rng.choice([0.05, 0.5, 4.0, 64.0, 1e3], 60)
    batch = allocate_time(rows, pots, horizons, rests)
    alone = [allocate_time(row[None], pots, float(h), [rest])[0]
             for row, h, rest in zip(rows, horizons, rests)]
    assert np.float64(batch).tobytes() == np.float64(alone).tobytes()
    # a row with no run rests the whole horizon
    assert np.array_equal(batch[:10], rests[:10] * horizons[:10])
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="total_time"):
            allocate_time(rows, pots, np.where(np.arange(60) == 37, bad, horizons),
                          rests)


def test_detour_to_cheaper_ground_wins():
    # a loop at vertex 0 and a path 0-1-2 whose edge (1, 2) is cheapest:
    # staying at vertex 0 for the horizon costs 0.3 * 100 = 30, walking
    # edge (0, 1) there and back to rest at vertex 1's rate -0.6 far less
    graph = MetricGraph(3, [(0, 0, 1.0), (0, 1, 0.5), (1, 2, 0.4)])
    lagrangian = GraphLagrangian(graph, [0.5, 0.3, -0.6])
    cover = GraphCover(graph)
    x = cover.vertex_point(0)
    got = minimal_action_graph(lagrangian, cover, x, x, 100.0)
    expect = allocate_time_oracle([(2 * 0.5, 0.3)], 100.0, -0.6)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got < 0.0
    # to vertex 2 the tree path is forced, and it ends on the cheap edge
    got = minimal_action_graph(lagrangian, cover, x, cover.vertex_point(2), 100.0)
    expect = allocate_time_oracle([(0.5, 0.3), (0.4, -0.6)], 100.0, -0.6)
    assert got == pytest.approx(expect, rel=1e-12)


def _bounded_walk_action(graph, pots, net, va, vb, horizon, max_extra=6):
    """Least action over the walks from va to vb with net edge flow
    ``net`` and at most ``max_extra`` back-and-forth pairs, each priced
    by the scalar allocation oracle; a walk may rest at the cheapest
    edge at any vertex it visits."""
    n_edges = len(graph.edges)
    vertex_rate = [min(pots[e] for e, _ in graph.incident[v])
                   for v in range(graph.n_vertices)]
    best = math.inf
    for extras in itertools.product(range(max_extra + 1), repeat=n_edges):
        if sum(extras) > max_extra:
            continue
        counts = [abs(m) + 2 * c for m, c in zip(net, extras)]
        reached, frontier = {va}, [va]
        while frontier:
            w = frontier.pop()
            for e, _ in graph.incident[w]:
                if counts[e]:
                    for other in graph.edges[e][:2]:
                        if other not in reached:
                            reached.add(other)
                            frontier.append(other)
        touched = {va, vb} | {u for e, c in enumerate(counts) if c
                              for u in graph.edges[e][:2]}
        if not touched <= reached:
            continue
        runs = [(c * graph.length(e), pots[e]) for e, c in enumerate(counts)]
        best = min(best, allocate_time_oracle(
            runs, horizon, min(vertex_rate[v] for v in touched)))
    return best


@pytest.mark.parametrize("vertex, expect", [(0, -66.0), (4, -65.94520646498785)])
def test_graph_action_beyond_two_extra_pairs(vertex, expect):
    # a unit loop at vertex 0 with a tail 0-1-2-3-4 whose last edge is the
    # cheap one: one sheet up, the best walk runs the loop once and the
    # whole tail there and back, four extra pairs, so an enumeration capped
    # at two misses it (0.0125 from vertex 0, no multiset from vertex 4)
    graph = MetricGraph(5, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0),
                            (2, 3, 1.0), (3, 4, 1.0)])
    pots = [0.0, 0.0, 0.0, 0.0, -2.0]
    cover = GraphCover(graph)
    got = minimal_action_graph(GraphLagrangian(graph, pots), cover,
                               cover.vertex_point(vertex, [0]),
                               cover.vertex_point(vertex, [1]), 40.0)
    oracle = _bounded_walk_action(graph, pots, [1, 0, 0, 0, 0], vertex,
                                  vertex, 40.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(expect, rel=1e-12)


def test_loop_two_circuits_matches_time_allocation(loop2_cover, loop2_lag):
    got = minimal_action_graph(loop2_lag, loop2_cover, loop2_cover.vertex_point(0),
                               loop2_cover.vertex_point(0, [2]), 1.0)
    assert got == pytest.approx(8.5, abs=1e-9)

    # oracle: constant-speed travel for tau of the horizon, rest for the
    # remainder; both phases sit on potential 0.5
    dist = 4.0
    taus = np.linspace(0.01, 1.0, 100)
    costs = dist**2 / (2.0 * taus) + 0.5 * taus + 0.5 * (1.0 - taus)
    assert got == pytest.approx(float(np.min(costs)), abs=1e-9)


def _pair_by_pair_action(lag, cover, y, x, horizon):
    """The two-point action priced pair by pair: one ``allocate_time``
    call for the multisets of each (attachment of y, attachment of x),
    and one for the direct path on a shared edge and sheet."""
    graph, pots = cover.graph, lag.potentials
    rate = np.array([min(pots[e] for e, _ in inc) for inc in graph.incident])
    costs = []
    if (y.base[0] == x.base[0] == "e" and y.base[1] == x.base[1]
            and y.sheet == x.sheet):
        row = np.zeros((1, len(graph.edges)))
        row[0, y.base[1]] = abs(x.base[2] - y.base[2])
        costs.extend(allocate_time(row, pots, horizon, [pots[y.base[1]]]))
    (yv, ys, yo, ye), (xv, xs, xo, xe) = (
        [a[0] for a in cover._attachments([p])] for p in (y, x))
    for a in np.flatnonzero(np.isfinite(yo)):
        for b in np.flatnonzero(np.isfinite(xo)):
            runs, visited = action._multisets(
                graph, int(yv[a]), int(xv[b]), tuple(int(z) for z in xs[b] - ys[a]))
            runs = runs.copy()
            if ye >= 0:
                runs[:, ye] += yo[a]
            if xe >= 0:
                runs[:, xe] += xo[b]
            rests = np.where(visited, rate, np.inf).min(axis=1)
            costs.extend(allocate_time(runs, pots, horizon, rests))
    return min(costs)


@pytest.mark.parametrize("graph, pots", [
    (MetricGraph(1, [(0, 0, 1.0), (0, 0, 1.0)]), [0.3, -0.2]),
    (MetricGraph(3, [(0, 1, 1.0), (1, 2, 0.7), (2, 0, 0.9), (1, 1, 0.6)]),
     [0.4, -0.3, 0.1, 0.2]),
], ids=["figure-eight", "three-vertices"])
def test_graph_block_pricer_matches_the_one_pair_action(graph, pots):
    lag, cover = GraphLagrangian(graph, pots), GraphCover(graph)
    rng = np.random.default_rng(5)
    k = graph.cycle_rank

    def random_point(sheet):
        if rng.random() < 0.3:
            return cover.vertex_point(int(rng.integers(graph.n_vertices)), sheet)
        e = int(rng.integers(len(graph.edges)))
        return cover.edge_point(e, rng.uniform(0.01, 0.99) * graph.length(e),
                                sheet)

    for x in (cover.vertex_point(0, np.zeros(k, dtype=int)),
              cover.edge_point(0, 0.4 * graph.length(0), np.ones(k, dtype=int))):
        starts = [random_point(rng.integers(-2, 3, k)) for _ in range(40)]
        # starts on x's edge and sheet also take the direct row
        starts += [cover.edge_point(0, s * graph.length(0), x.sheet)
                   for s in (0.1, 0.4, 0.9)]
        for horizon in (0.5, 6.0):
            block = action._graph_actions(lag, cover, cover._attachments(starts),
                                          x, horizon)
            alone = [minimal_action_graph(lag, cover, y, x, horizon)
                     for y in starts]
            pairwise = [_pair_by_pair_action(lag, cover, y, x, horizon)
                        for y in starts]
            assert np.array_equal(block, alone)
            assert np.array_equal(block, pairwise)


def _random_graph(rng) -> MetricGraph:
    """A connected graph of cycle rank <= 2 with 1 to 8 edges: a random
    tree plus up to two random edges (loops and parallels allowed), the
    edges shuffled."""
    while True:
        n_vertices, rank = int(rng.integers(1, 8)), int(rng.integers(0, 3))
        if 1 <= n_vertices - 1 + rank <= 8:
            break
    edges = [(int(rng.integers(v)), v) for v in range(1, n_vertices)]
    edges += [tuple(int(u) for u in rng.integers(n_vertices, size=2))
              for _ in range(rank)]
    return MetricGraph(n_vertices, [(*edges[i], rng.uniform(0.2, 2.0))
                                    for i in rng.permutation(len(edges))])


def test_kept_multisets_price_as_every_walk():
    # the dominated rows that _multisets drops never hold the least cost
    rng = np.random.default_rng(7)
    for _ in range(300):
        graph = _random_graph(rng)
        pots = rng.uniform(-1.0, 1.0, len(graph.edges))
        rate = np.array([min(pots[e] for e, _ in inc) for inc in graph.incident])
        va, vb = (int(v) for v in rng.integers(graph.n_vertices, size=2))
        dz = tuple(int(z) for z in rng.integers(-2, 3, graph.cycle_rank))
        kept = action._multisets(graph, va, vb, dz)
        every = multisets_unpruned(graph, va, vb, dz)
        rows = {(tuple(r), tuple(v)) for r, v in zip(*every)}
        assert all((tuple(r), tuple(v)) in rows for r, v in zip(*kept))
        for horizon in 10.0 ** rng.uniform(-2.0, 2.0, 3):
            least = [allocate_time(runs, pots, horizon,
                                   np.where(visited, rate, np.inf).min(axis=1)).min()
                     for runs, visited in (kept, every)]
            assert least[0] == least[1]


def test_torus_action_rejects_a_varying_two_dimensional_kinetic_matrix():
    varying = TrigPolynomial(2, [([0, 0], 1.0, 0.0), ([1, 0], 0.2, 0.0)])
    model = TorusHamiltonian(2, [varying, TrigPolynomial.constant(2, 0.0),
                                 TrigPolynomial.constant(2, 1.0)],
                             TrigPolynomial.constant(2, 0.0))
    with pytest.raises(ModelValidityError, match="circle only"):
        minimal_action_torus(model, [0.0, 0.0], [0.5, 0.2], 1.0)


def test_pendulum_resting_rate(pendulum):
    # parking on the potential maximum gives running cost -1 forever
    value = minimal_action_torus(pendulum, [0.0], [0.0], 32.0)[0]
    assert value / 32.0 == pytest.approx(-1.0, abs=1e-9)


def test_long_pendulum_descent_ends_uncapped(pendulum):
    # the chains cross nine cells near the separatrix, through a long flat
    # valley that damped Newton needs over a thousand steps to cross; a
    # descent cut at 200 steps ends near -52.2349
    value, _, capped = minimal_action_torus(pendulum, [0.1], [9.3], 64.0)
    assert capped == 0
    assert value < -52.29


def _window_solve(cover, model, slope, x, eps=0.5, t=1.0):
    """(certified window, |Delta h| of the returned minimizer, K0) of one
    cover solve with an affine datum; |Delta h| <= K0 * eps * d."""
    res = lax_oleinik(cover, model, InitialDatum.affine([slope]), x, t, eps,
                      mesh=16)
    moved = eps * norm_value(res.minimizer_g - cover.g_map(x), cover.norm)
    return res.window, moved, cover.g_lipschitz()


@pytest.mark.parametrize("family", ["torus", "graph"])
def test_lax_window_contains_minimizer(family, circle, free1, loop2_cover,
                                       loop2_free):
    if family == "torus":
        cover, model, x = circle, free1, circle.from_lift([1.25])
    else:
        cover, model, x = loop2_cover, loop2_free, loop2_cover.edge_point(0, 0.3)
    for slope in (0.0, 1.0, 3.0):
        window, moved, k0 = _window_solve(cover, model, slope, x)
        assert math.isfinite(window)
        assert moved <= k0 * window + 1e-12
    # free motion against slope 3 for unit time: the minimizer sits at
    # |Delta h| = 3 * K0^2 (the cover distance is |Delta G| / K0 here)
    assert moved == pytest.approx(3.0 * k0 * k0, abs=0.05)


def test_search_radius_covers_linear_drift(circle, free1):
    window = _window_solve(circle, free1, 1.0, circle.from_lift([1.25]))[0]
    # the optimal displacement for slope 1 over unit time has length 1
    assert window >= 1.0


def test_search_radius_finite_and_monotone_in_slope(circle, free1):
    x = circle.from_lift([1.25])
    windows = [_window_solve(circle, free1, slope, x)[0]
               for slope in (0.0, 1.0, 3.0, 1000.0)]
    offsets = [lax_oleinik(circle, free1, InitialDatum.affine([1.0], c=c),
                           x, 1.0, 0.5, mesh=16).window
               for c in (1000.0, -1000.0)]
    for r in windows + offsets:
        assert math.isfinite(r)
    assert windows[0] < windows[1] < windows[2] < windows[3]
    # a constant added to the datum moves no minimizer, so the window stays
    assert offsets == [windows[1], windows[1]]


def test_search_radius_rejects_bad_scale(circle, free1):
    # the window is measured in units of eps, so a zero scale is refused
    with pytest.raises(ValueError):
        lax_oleinik(circle, free1, InitialDatum.affine([0.0]),
                    circle.from_lift([0.0]), 1.0, 0.0)


def test_lax_free_affine_is_exact(circle, free1):
    datum = InitialDatum.affine([0.7], c=0.1)
    x = circle.from_lift([1.25])
    for eps in (0.5, 0.25):
        got = lax_oleinik(circle, free1, datum, x, 1.5, eps).value
        expect = 0.7 * eps * circle.g_map(x)[0] + 0.1 - 0.5 * 0.7**2 * 1.5
        assert got == pytest.approx(expect, abs=1e-9)


def test_lax_constant_datum_zero_potential(circle, free1, loop2_cover, loop2_free):
    up = InitialDatum.affine([0.0], c=0.7)
    got = lax_oleinik(loop2_cover, loop2_free, up, loop2_cover.edge_point(0, 0.3), 1.0,
                      0.5).value
    assert got == pytest.approx(0.7, abs=1e-12)
    down = InitialDatum.affine([0.0], c=-0.3)
    got = lax_oleinik(circle, free1, down, circle.from_lift([0.6]), 2.0, 0.25).value
    assert got == pytest.approx(-0.3, abs=1e-12)


def test_lax_cone_tip_matches_winding_enumeration(loop2_cover, loop2_free):
    datum = InitialDatum.cone(1.0, dim=1)
    tip = loop2_cover.vertex_point(0)
    got = lax_oleinik(loop2_cover, loop2_free, datum, tip, 1.0, 0.5).value
    assert got == pytest.approx(0.0, abs=1e-12)

    brute = math.inf
    for n in range(-10, 11):
        start = loop2_cover.vertex_point(0, [n])
        datum_part = datum.value(0.5 * loop2_cover.g_map(start))
        brute = min(brute, datum_part + 0.5 * minimal_action_graph(
            loop2_free, loop2_cover, start, tip, 1.0 / 0.5))
    assert got == pytest.approx(brute, abs=1e-9)


def test_lax_shifted_cone_picks_interior_start(loop2_cover, loop2_free):
    # minimizing 0.8*(2 - w/2) + w^2/2 over winding w gives w*=0.4, value 1.52
    datum = InitialDatum.cone(0.8, center=[2.0], dim=1)
    got = lax_oleinik(loop2_cover, loop2_free, datum, loop2_cover.vertex_point(0), 1.0,
                      0.5).value
    assert got == pytest.approx(1.52, abs=1e-9)


def test_lax_monotone_in_datum(loop2_cover, loop2_free):
    lower = InitialDatum.affine([0.0])
    upper = InitialDatum.quadratic([[1.0]])
    for t in (0.5, 1.0):
        for s in (0.0, 0.7):
            x = loop2_cover.edge_point(0, s)
            lo = lax_oleinik(loop2_cover, loop2_free, lower, x, t, 0.5).value
            hi = lax_oleinik(loop2_cover, loop2_free, upper, x, t, 0.5).value
            assert lo <= hi + 1e-12


def test_lax_rejects_nonpositive_time_or_scale(circle, free1):
    datum = InitialDatum.affine([0.0])
    with pytest.raises(ValueError):
        lax_oleinik(circle, free1, datum, circle.from_lift([0.0]), 0.0, 0.5)
    with pytest.raises(ValueError):
        lax_oleinik(circle, free1, datum, circle.from_lift([0.0]), 1.0, -0.25)


def test_action_semigroup_on_torus_midpoint_mesh(free1):
    start, end = [0.0], [3.0]
    direct = minimal_action_torus(free1, start, end, 2.0)[0]
    split = math.inf
    for k in range(4):
        for frac in (0.0, 0.25, 0.5, 0.75):
            mid = [k + frac]
            first = minimal_action_torus(free1, start, mid, 1.0)[0]
            second = minimal_action_torus(free1, mid, end, 1.0)[0]
            split = min(split, first + second)
    assert split >= direct - 1e-9
    assert split == pytest.approx(direct, abs=1e-9)


def test_action_semigroup_on_graph_midpoint_mesh(loop2_cover, loop2_free):
    start = loop2_cover.vertex_point(0)
    end = loop2_cover.vertex_point(0, [1])
    direct = minimal_action_graph(loop2_free, loop2_cover, start, end, 1.0)
    assert direct == pytest.approx(2.0, abs=1e-9)
    split = math.inf
    mids = [loop2_cover.edge_point(0, s) for s in (0.0, 0.5, 1.0, 1.5)]
    mids.append(loop2_cover.vertex_point(0, [1]))
    for mid in mids:
        first = minimal_action_graph(loop2_free, loop2_cover, start, mid, 0.5)
        second = minimal_action_graph(loop2_free, loop2_cover, mid, end, 0.5)
        split = min(split, first + second)
    assert split >= direct - 1e-9
    assert split == pytest.approx(direct, abs=1e-9)


def _pendulum_running_action(y, x, horizon):
    """Action of the monotone pendulum orbit (V = cos 2 pi s) from y to x.

    At energy E > max V the speed is sqrt(2(E - V)), so the travel time
    is the integral of ds / sqrt(2(E - V)) over [y, x] and the action of
    L = v^2/2 - V is the integral of sqrt(2(E - V)) ds minus E * T; E is
    the root of the travel time equation.
    """
    def speed(s, energy):
        return math.sqrt(2.0 * (energy - math.cos(2.0 * math.pi * s)))

    def travel(energy):
        return integrate.quad(lambda s: 1.0 / speed(s, energy), y, x,
                              limit=200, epsabs=1e-13, epsrel=1e-13)[0]

    lo, hi = 1.5, 2.0
    while travel(lo) < horizon:
        lo = 1.0 + 0.5 * (lo - 1.0)
    while travel(hi) > horizon:
        hi *= 2.0
    energy = optimize.brentq(lambda e: travel(e) - horizon, lo, hi,
                             xtol=1e-14, rtol=8.9e-16)
    length = integrate.quad(lambda s: speed(s, energy), y, x, limit=200,
                            epsabs=1e-13, epsrel=1e-13)[0]
    return length - energy * horizon


@pytest.mark.parametrize("y, x, horizon", [(0.0, 3.0, 1.0), (0.1, 2.3, 1.0),
                                           (0.0, 1.0, 0.5)])
def test_torus_action_matches_pendulum_energy_quadrature(pendulum, y, x,
                                                         horizon):
    chain = minimal_action_torus(pendulum, [y], [x], horizon)[0]
    assert abs(chain - _pendulum_running_action(y, x, horizon)) <= 1e-5


def test_hopf_affine_with_quadratic_rates(circle):
    beta = AnalyticQuadraticBeta(np.eye(1))
    got, converged = hopf_lax(beta, InitialDatum.affine([1.0]), [0.1], 1.0)
    assert converged
    assert got == pytest.approx(-0.4, abs=1e-12)


def test_hopf_flat_datum_charges_rest_rate(loop2, loop2_lag):
    beta = DirectBetaEvaluator(loop2, loop2_lag)
    got, converged = hopf_lax(beta, InitialDatum.affine([0.0]), [0.0], 3.0)
    assert converged
    assert got == pytest.approx(1.5, abs=1e-9)


def test_hopf_cone_outside_light_cone(circle):
    beta = AnalyticQuadraticBeta(np.eye(1))
    got, converged = hopf_lax(beta, InitialDatum.cone(1.0, dim=1, norm="l2"), [1.2], 1.0)
    assert converged
    assert got == pytest.approx(0.7, abs=1e-9)


def test_hopf_short_time_recovers_datum(circle):
    beta = AnalyticQuadraticBeta(np.eye(1))
    datum = InitialDatum.cone(1.0, dim=1, norm="l2")
    got, converged = hopf_lax(beta, datum, [0.4], 1e-3)
    assert converged
    assert abs(got - datum.value([0.4])) <= 1e-2


def _convex_objective(rng, dim: int):
    """A seeded convex function of dim variables: a quadratic plus an l1
    cone with its kinks off the quadratic's minimum, on one draw in three
    floored at 0.5, whose equal values leave ties for the reorders."""
    a = rng.normal(size=(dim, dim))
    hess = a @ a.T + 0.1 * np.eye(dim)
    centre, kink = rng.normal(size=dim), rng.normal(size=dim)
    weight, flat = rng.uniform(0.0, 2.0), rng.integers(3) == 0

    def fn(x):
        quad = 0.5 * float((x - centre) @ hess @ (x - centre))
        val = quad + weight * float(np.abs(x - kink).sum())
        return max(val, 0.5) if flat else val
    return fn


def _scipy_polish(default_start: bool):
    """``_nelder_mead``'s signature over scipy's routine; with
    default_start scipy builds its own start around the simplex's first
    vertex, as the LegendreDual call before the in-house polish did."""
    def polish(fn, sim, *args):
        return nelder_mead_scipy(fn, sim[0], None if default_start else sim,
                                 *args)
    return polish


def _polish_runs(polish, seed: int = 7, draws: int = 60):
    """Both polishes of the package on seeded convex objectives in 1-D and
    2-D, each run by ``polish(default_start)``: hopf_lax's (its start,
    xatol 1e-10, fatol 1e-12, maxiter 4000, maxfev 8000) and
    LegendreDual's (scipy's default start, fatol 1e-13, maxiter 2000, no
    call cap), each also cut short by a small maxfev or maxiter.  Yields
    (case, (x, fun, status, nfev))."""
    rng = np.random.default_rng(seed)
    for draw in range(draws):
        dim = 1 + draw % 2
        fn = _convex_objective(rng, dim)
        x0 = rng.normal(size=dim) * 10.0 ** rng.integers(-4, 2)
        if draw % 5 == 0:
            x0[0] = 0.0
        cut_fev, cut_iter = int(rng.integers(dim + 1, 40)), int(rng.integers(1, 30))
        for case, default, args in [
                ("hopf", False, (1e-10, 1e-12, 4000, 8000)),
                ("legendre", True, (1e-10, 1e-13, 2000)),
                ("maxfev", False, (1e-10, 1e-12, 4000, cut_fev)),
                ("maxiter", True, (1e-10, 1e-13, cut_iter))]:
            sim = _simplex_start(x0, floor=0.0 if default else 0.005)
            yield case, polish(default)(fn, sim, *args)


def _polish_misses(polish) -> int:
    """Runs of ``polish`` that differ from scipy's in a byte of the point
    or value, in the status or in the evaluation count."""
    misses = 0
    for (_, got), (_, ref) in zip(_polish_runs(polish),
                                  _polish_runs(_scipy_polish)):
        misses += not (got[0].tobytes() == ref[0].tobytes()
                       and np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes()
                       and got[2:] == ref[2:])
    return misses


def test_nelder_mead_is_scipys_step_for_step():
    assert _polish_misses(lambda default: _nelder_mead) == 0
    # every stopping rule is reached: converged, maxfev and maxiter
    statuses = {(case, res[2])
                for case, res in _polish_runs(lambda default: _nelder_mead)}
    assert {("hopf", 0), ("legendre", 0), ("maxfev", 1), ("maxiter", 2)} <= statuses


@pytest.mark.parametrize("old, new", [
    # an expansion of 2.5 instead of 2
    ("rho, chi, psi, sigma = 1, 2, 0.5, 0.5", "rho, chi, psi, sigma = 1, 2.5, 0.5, 0.5"),
    # no reorder after a step
    ("""    while True:
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
""", "    while True:\n"),
    # a step that runs one call past the cap
    ("elif nfev >= maxfev:", "elif nfev > maxfev:")],
    ids=["expansion-2.5", "no-step-reorder", "call-past-cap"])
def test_nelder_mead_oracle_catches_a_mutant(old, new):
    source = textwrap.dedent(inspect.getsource(_nelder_mead))
    assert old in source
    namespace = dict(vars(action))
    exec(source.replace(old, new), namespace)
    assert _polish_misses(lambda default: namespace["_nelder_mead"]) > 0


def test_both_polishes_return_scipys_bytes(monkeypatch, fig8, fig8_lag):
    beta = DirectBetaEvaluator(fig8, fig8_lag)
    datum = InitialDatum.cone(0.7, center=[0.2, -0.1], norm="l1", dim=2)
    hs = [[0.3, -0.4], [0.0, 0.0], [1.1, 0.25]]
    bhat = BetaHatEvaluator(SubcoverMap([[1, 0], [0, 1]]), beta)
    dual = LegendreDual(bhat.value, 2, p_box=3.0, p_points=17)
    ps = [[0.4, -0.2], [-0.7, 0.9], [0.0, 0.0]]

    def values():
        return ([hopf_lax(beta, datum, h, 1.5) for h in hs],
                [dual.value(p) for p in ps])

    got = values()
    monkeypatch.setattr(action, "_nelder_mead", _scipy_polish(False))
    monkeypatch.setattr(mather, "_nelder_mead", _scipy_polish(True))
    ref = values()
    assert np.array(got[0]).tobytes() == np.array(ref[0]).tobytes()
    assert np.array(got[1]).tobytes() == np.array(ref[1]).tobytes()


def test_actions_reject_nonpositive_horizon(free1, loop2_cover, loop2_free):
    with pytest.raises(ValueError):
        minimal_action_torus(free1, [0.0], [0.0], 0.0)
    x = loop2_cover.vertex_point(0)
    with pytest.raises(ValueError):
        minimal_action_graph(loop2_free, loop2_cover, x, x, 0.0)


# property tests on the cheap single-loop cover (length 2, potential 0.5)
_ARCS = st.floats(0.0, 2.0)
_SLOPES = st.floats(-1.5, 1.5)


@settings(max_examples=12)
@given(shift=st.floats(-5.0, 5.0), s=_ARCS, slope=_SLOPES,
       h=st.floats(-1.0, 1.0))
def test_constant_shift_moves_both_solutions(loop2, loop2_cover, loop2_lag,
                                             shift, s, slope, h):
    x = loop2_cover.edge_point(0, s)
    beta = DirectBetaEvaluator(loop2, loop2_lag)
    base = InitialDatum.cone(abs(slope), center=[0.3], c=0.1, dim=1)
    moved = InitialDatum.cone(abs(slope), center=[0.3], c=0.1 + shift, dim=1)
    v0 = lax_oleinik(loop2_cover, loop2_lag, base, x, 1.0, 0.5, mesh=16).value
    v1 = lax_oleinik(loop2_cover, loop2_lag, moved, x, 1.0, 0.5, mesh=16).value
    assert v1 - v0 == pytest.approx(shift, abs=1e-12)
    u0, _ = hopf_lax(beta, base, [h], 1.0)
    u1, _ = hopf_lax(beta, moved, [h], 1.0)
    # the simplex polish stops at xatol 1e-10, so two searches over shifted
    # windows can end 1e-12 apart when the minimum sits on the cone's kink
    assert u1 - u0 == pytest.approx(shift, abs=1e-10)


@settings(max_examples=12)
@given(z=st.integers(-3, 3), s=_ARCS, slope=_SLOPES)
# a start within rounding of a vertex: its minimiser lies across that vertex
@example(z=-1, s=1.14071320004837e-15, slope=0.0546875)
def test_deck_translation_shifts_by_the_affine_pairing(loop2_cover, loop2_lag,
                                                       z, s, slope):
    eps = 0.5
    datum = InitialDatum.affine([slope], c=0.2)
    x = loop2_cover.edge_point(0, s)
    v = lax_oleinik(loop2_cover, loop2_lag, datum, x, 1.0, eps, mesh=16).value
    v_z = lax_oleinik(loop2_cover, loop2_lag, datum,
                      loop2_cover.translate(x, [z]), 1.0, eps, mesh=16).value
    assert v_z - v == pytest.approx(eps * slope * z, abs=1e-12)


@pytest.mark.parametrize("datum, dim", [
    (InitialDatum.affine([0.3], c=0.25), 1),
    (InitialDatum.affine([0.7, -0.2], c=0.1), 2),
    (InitialDatum.cone(0.8, center=[0.1, 0.2], norm="l1", dim=2), 2),
    (InitialDatum.cone(0.6, center=[0.1, 0.2], norm="l2", dim=2), 2),
    (InitialDatum.quadratic([[1.3, 0.4], [0.4, 0.8]], p=[0.7, -0.2], c=0.1), 2),
    (_PulledBackDatum(InitialDatum.quadratic([[1.3]], p=[0.3]),
                      SubcoverMap([[1, 3]])), 2),
], ids=["affine-1d", "affine", "l1-cone", "l2-cone", "quadratic",
        "pulled-back-quadratic"])
def test_datum_value_is_value_many_on_one_row(datum, dim):
    # value is the one-row case of value_many, and value_many sums every
    # row within itself, so a batch prices each row as it prices it alone
    hs = np.random.default_rng(8).uniform(-40.0, 40.0, size=(300, dim))
    alone = np.array([datum.value(h) for h in hs])
    one_row = np.array([datum.value_many(h[None])[0] for h in hs])
    assert alone.tobytes() == one_row.tobytes()
    assert datum.value_many(hs).tobytes() == alone.tobytes()


@pytest.mark.parametrize("datum", [
    InitialDatum.affine([0.7, -0.2], c=0.1),
    InitialDatum.cone(0.8, center=[0.1, 0.2], norm="l1", dim=2),
    InitialDatum.cone(0.8, center=[0.1, 0.2], norm="l2", dim=2),
    # f reads only the symmetric part of a non-symmetric Q
    InitialDatum.quadratic([[1.0, 2.0], [0.0, 1.0]], p=[0.5, -0.3]),
], ids=["affine", "l1-cone", "l2-cone", "skew-quadratic"])
def test_datum_gradient_matches_central_differences(datum):
    step = 1e-6
    for h in (np.array([0.3, -0.7]), np.array([-1.2, 0.4])):
        diff = [(datum.value(h + step * e) - datum.value(h - step * e))
                / (2.0 * step) for e in np.eye(2)]
        np.testing.assert_allclose(datum.gradient(h), diff, rtol=0.0,
                                   atol=1e-8)


@pytest.mark.parametrize("datum, dim", [
    (InitialDatum.affine([0.7, -0.2], c=0.1), 2),
    # on the circle, where the joint polish reads it, and off its tip
    (InitialDatum.cone(0.8, center=[0.1], norm="l2", dim=1), 1),
    (InitialDatum.quadratic([[1.0, 2.0], [0.0, 1.0]], p=[0.5, -0.3]), 2),
], ids=["affine", "l2-cone", "skew-quadratic"])
def test_datum_hessian_matches_central_differences(datum, dim):
    step = 1e-6
    for h in (np.array([0.3, -0.7])[:dim], np.array([-1.2, 0.4])[:dim]):
        diff = np.array([(datum.gradient(h + step * e)
                          - datum.gradient(h - step * e)) / (2.0 * step)
                         for e in np.eye(dim)])
        np.testing.assert_allclose(datum.hessian(h), diff, rtol=0.0,
                                   atol=1e-8)


# the lockstep Newton screen of the torus Lax-Oleinik search

_SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios")


def _chains(starts, end, n_segments, bump=0.0):
    """Straight circle chains (C, N+1) from each start to end, bent by
    bump * sin(pi s)."""
    starts = np.asarray(starts, dtype=float)[:, None]
    frac = np.linspace(0.0, 1.0, n_segments + 1)
    return starts + frac * (end - starts) + bump * np.sin(np.pi * frac)


def _lbfgs_screen(model, horizon, chain):
    """The per-chain L-BFGS descent with the old screen's 150-iteration
    cap, on the full-solve kernel."""
    dt = horizon / (chain.shape[0] - 1)

    def fun(flat):
        nodes = chain.copy()
        nodes[1:-1] = flat.reshape(nodes[1:-1].shape)
        act, grad = _chain_terms(model, dt, nodes[None],
                                 model.constant_kinetic())[:2]
        return act[0], grad[0, 1:-1].ravel()

    res = optimize.minimize(fun, chain[1:-1].ravel(), jac=True,
                            method="L-BFGS-B",
                            options={"maxiter": 150, "ftol": 1e-15,
                                     "gtol": 1e-11})
    return float(res.fun)


def _circle_varying_kinetic():
    return TorusHamiltonian(1, [TrigPolynomial(
        1, [([0], 1.0, 0.0), ([1], 0.3, 0.1)])], TrigPolynomial(
        1, [([2], 0.5, -0.2)]))


@pytest.mark.parametrize("model_of", [
    pytest.param(_circle_varying_kinetic, id="circle-varying-kinetic"),
])
def test_chain_terms_match_finite_differences(model_of):
    model = model_of()
    rng = np.random.default_rng(5)
    q = _chains(rng.uniform(-1.0, 1.0, size=3), 0.4, 8, bump=0.2)
    dt = 0.3

    def midpoint_action(chain):
        return sum(dt * lagrangian(model, 0.5 * (a + b), (b - a) / dt)
                   for a, b in zip(chain[:-1], chain[1:]))

    a_const = model.constant_kinetic()
    act, grad, diag, off = _chain_terms(model, dt, q, a_const)
    step = 1e-6
    for c in range(q.shape[0]):
        assert act[c] == pytest.approx(midpoint_action(q[c]), abs=1e-12)
        # the gradient against central differences of the action
        for i in range(q.shape[1]):
            up, down = q[c].copy(), q[c].copy()
            up[i] += step
            down[i] -= step
            fd = (midpoint_action(up) - midpoint_action(down)) / (2.0 * step)
            assert grad[c, i] == pytest.approx(fd, abs=1e-7)
    # the Hessian against central differences of the gradient
    for i in (0, 3, 8):
        up, down = q.copy(), q.copy()
        up[:, i] += step
        down[:, i] -= step
        col = (_chain_terms(model, dt, up, a_const)[1]
               - _chain_terms(model, dt, down, a_const)[1]) / (2.0 * step)
        assert np.allclose(diag[:, i], col[:, i], atol=1e-6)
        if i > 0:
            assert np.allclose(off[:, i - 1], col[:, i - 1], atol=1e-6)
        if i < 8:
            assert np.allclose(off[:, i], col[:, i + 1], atol=1e-6)


@pytest.mark.parametrize("model_of, dt", [
    pytest.param(_circle_varying_kinetic, 0.05, id="circle-varying-kinetic"),
])
def test_damped_steps_are_the_banded_solve(model_of, dt):
    # the stacked LAPACK steps against scipy's checked banded solve of each
    # chain alone, at no damping, where some Hessians are indefinite, and
    # at the descent's floor; the batches put failed chains first, in the
    # middle, last, next to each other and in most of the batch
    model = model_of()
    rng = np.random.default_rng(3)
    q = _chains(rng.uniform(-1.5, 1.5, size=128), 0.4, 12, bump=0.3)
    _, grad, diag, off = _chain_terms(model, dt, q, model.constant_kinetic())
    diag, off, g = diag[:, 1:-1], off[:, 1:-1], grad[:, 1:-1]
    floor = action._DESCENT_TAU * np.abs(diag).max(axis=1)
    for mu in (np.zeros(len(q)), floor):
        want = []
        for c in range(len(q)):
            # upper band storage: the coupling over the diagonal
            band = np.zeros((2, diag.shape[1]))
            band[0, 1:], band[1] = off[c], diag[c] + mu[c]
            try:
                want.append(linalg.solveh_banded(band, -g[c], check_finite=False))
            except linalg.LinAlgError:
                want.append(None)
        bad = [c for c in range(len(q)) if want[c] is None]
        good = [c for c in range(len(q)) if want[c] is not None]
        assert len(bad) >= 8 and len(good) >= 8
        for batch in (list(range(len(q))), bad[:1], good[:1], bad[:1] + good[:5],
                      good[:3] + bad[:1] + good[3:6], good[:5] + bad[:1],
                      good[:2] + bad[:3] + good[2:4], bad[:8] + good[:1]):
            step, ok = _damped_steps(diag[batch], off[batch], mu[batch], g[batch])
            assert [c for c, k in zip(batch, ok) if not k] == \
                [c for c in batch if want[c] is None]
            for c, row in zip(batch, step):
                if want[c] is not None:
                    assert np.array_equal(row, want[c])


def _free_2d_skew():
    return TorusHamiltonian(2, [TrigPolynomial.constant(2, v)
                                for v in (1.3, 0.4, 0.8)],
                            TrigPolynomial.constant(2, 0.0))


@pytest.mark.parametrize("model_of, horizon, batch", [
    # the stay chains at 1/3 over T = 16, whose +0.35 hump crawls through a
    # flat valley long after the others stop, and two chains from elsewhere
    pytest.param(make_pendulum, 16.0, lambda: np.concatenate(
        [action._chain_inits(1.0 / 3.0, 1.0 / 3.0, 256),
         _chains([-0.4, 1.1], 1.0 / 3.0, 256, bump=0.2)]), id="pendulum"),
    pytest.param(_circle_varying_kinetic, 4.0, lambda: _chains(
        [-1.2, -0.3, 0.5, 1.6], 0.4, 64, bump=0.3),
        id="circle-varying-kinetic"),
])
def test_batched_descent_is_each_chain_alone(model_of, horizon, batch):
    # a chain's iterates do not depend on the chains it descends with: the
    # batch drops chains as they stop and stacks the rest into one solve
    model, chains = model_of(), batch()
    vals, nodes, capped = _descend(model, horizon, chains)
    for c in range(len(chains)):
        val, alone, hit = _descend(model, horizon, chains[c:c + 1])
        assert np.array_equal(vals[c:c + 1], val)
        assert np.array_equal(nodes[c:c + 1], alone)
        assert np.array_equal(capped[c:c + 1], hit)
    assert not capped.any()


# the rest at the top of the pendulum's V stops doubling at 128 segments
# over T = 1 and at 512 over T = 16; the other pendulum pairs run to 2,048
_THIRD = 1.0 / 3.0


@pytest.mark.parametrize("model_of, horizon, pairs", [
    pytest.param(make_pendulum, 1.0, [([0.2], [3.7]), ([0.0], [0.0]),
                                      ([-0.4], [_THIRD])], id="pendulum-T1"),
    pytest.param(make_pendulum, 16.0, [([_THIRD], [_THIRD]), ([0.2], [3.7]),
                                       ([0.0], [0.0]), ([-0.4], [_THIRD])],
                 id="pendulum-T16"),
    pytest.param(make_pendulum, 16.0, [([_THIRD], [_THIRD])], id="one-pair"),
    pytest.param(make_pendulum, 16.0, [], id="no-pair"),
])
def test_batched_torus_actions_are_each_pair_alone(monkeypatch, model_of,
                                                   horizon, pairs):
    # one starting descent over every pair's chains, then one descent per
    # doubling level over the pairs still moving
    model, sizes, descend = model_of(), [], action._descend

    def record(model, horizon, chains, start=None):
        sizes.append(len(chains))
        return descend(model, horizon, chains, start)

    monkeypatch.setattr(action, "_descend", record)
    got = action._minimal_actions_torus(model, pairs, horizon)
    monkeypatch.undo()
    assert len(got) == len(pairs)
    if not pairs:
        assert got == [] and sizes == []
        return
    assert sizes[0] == 3 * len(pairs)
    assert sizes[1:] == sorted(sizes[1:], reverse=True)
    for (val, nodes, capped), (y, x) in zip(got, pairs):
        want = minimal_action_torus_alone(model, y, x, horizon)
        assert np.array_equal(val, want[0])
        assert np.array_equal(nodes, want[1])
        assert np.array_equal(capped, want[2])
    if len(pairs) > 1:
        # the pairs stop doubling at different levels
        assert len({len(nodes) for _, nodes, _ in got}) > 1


@pytest.mark.parametrize("eps, start", [(0.25, 1.0), (0.0625, 5.0)])
def test_torus_rung_is_the_one_by_one_rung(monkeypatch, circle, pendulum, eps,
                                           start):
    # a pendulum rung of the scenario (h = 1/3, t = 1, mesh 64) with its
    # full solves batched, and with each one solved alone.  Both runs go
    # through the same replay, so a replay that pairs a solve with the
    # wrong start shows only in the start they pick: pinned, a lift of the
    # top of V
    point, _ = match_point(circle, np.array([1.0 / 3.0]), eps, 64)

    def rung():
        return lax_oleinik(circle, pendulum, InitialDatum.affine([0.0]), point,
                           1.0, eps, mesh=64)

    batched, batches = rung(), []

    def one_by_one(model, pairs, horizon):
        batches.append(len(pairs))
        return [minimal_action_torus_alone(model, y, x, horizon)
                for y, x in pairs]

    monkeypatch.setattr(action, "_minimal_actions_torus", one_by_one)
    alone = rung()
    # the stay solve, then the screen's six best
    assert batches == [1, 6]
    assert batched.value == alone.value
    assert batched.minimizer_g.tobytes() == alone.minimizer_g.tobytes()
    assert (batched.window, batched.candidates, batched.evaluated) == \
        (alone.window, alone.candidates, alone.evaluated)
    assert batched.diagnostics == alone.diagnostics
    assert batched.minimizer_g.tolist() == [start]


@pytest.mark.parametrize("stem", ["free_torus_1d"])
def test_screen_is_exact_on_free_systems(stem):
    # the action of a free system is the quadratic Delta^2/(2 a T) in the
    # end points, so one undamped Newton step from any chain is exact
    model = load_config(os.path.join(_SCENARIOS, stem + ".yaml")).model
    a = model.constant_kinetic()[0, 0]
    starts = np.random.default_rng(11).uniform(-4.0, 4.0, size=9)
    horizon = 3.0
    exact = 0.5 * (starts - 0.25) ** 2 / (a * horizon)
    for bump in (0.0, 0.35):
        got, _, capped = _descend(model, horizon, _chains(starts, 0.25, 32, bump))
        assert not capped.any()
        assert np.max(np.abs(got - exact)) <= 1e-12


@pytest.mark.parametrize("stem, mesh, rungs", [
    pytest.param("free_torus_2d", 64, 7, id="free_torus_2d"),
    # a coarse mesh and the first four rungs keep the skew A's cell
    # pre-sweep short
    pytest.param("free_torus_2d-skew", 8, 4, id="free_torus_2d-skew")])
def test_plane_is_the_affine_hopf_lax_formula(stem, mesh, rungs):
    # under an affine datum f(h) = p.h + c the free plane's solution is
    # p.eps G(x) + c - t p.A.p/2 exactly (the minimiser sits at
    # y = x - T A p), whatever the rung and the mesh
    scenario = load_config(os.path.join(_SCENARIOS,
                                        "free_torus_2d.yaml")).scenario()
    model = _free_2d_skew() if stem.endswith("skew") else scenario.model
    p, c = scenario.datum.p, scenario.datum.c
    closed_rate = 0.5 * float(p @ model.constant_kinetic() @ p)
    assert len(scenario.eps_ladder) == 7
    for eps in scenario.eps_ladder[:rungs]:
        for h, t in scenario.eval_points:
            point, _ = match_point(scenario.cover, np.array(h), eps, mesh)
            res = lax_oleinik(scenario.cover, model, scenario.datum, point, t,
                              eps, mesh=mesh)
            closed = eps * float(p @ scenario.cover.g_map(point)) + c \
                - t * closed_rate
            assert abs(res.value - closed) <= 1e-15
            assert res.diagnostics == {"newton_capped": 0}


def test_skew_plane_keeps_few_candidates():
    # the cell pre-sweep prices an anisotropic plane's lifts exactly, so it
    # keeps the best lift alone; the bounds by amin and amax kept about 5.9 M
    # of them at eps = 1/16 (1.48 M at 1/8)
    scenario = load_config(os.path.join(_SCENARIOS,
                                        "free_torus_2d.yaml")).scenario()
    model, eps, p = _free_2d_skew(), 0.0625, scenario.datum.p
    (h, t), = scenario.eval_points
    point, _ = match_point(scenario.cover, np.array(h), eps, 64)
    res = lax_oleinik(scenario.cover, model, scenario.datum, point, t, eps, mesh=64)
    assert res.candidates <= 4
    closed = eps * float(p @ scenario.cover.g_map(point)) + scenario.datum.c \
        - 0.5 * t * float(p @ model.constant_kinetic() @ p)
    assert abs(res.value - closed) <= 1e-15


@pytest.mark.parametrize("model", [
    TorusHamiltonian.mechanical(TrigPolynomial(2, [([1, 0], 0.3, 0.0)])),
    TorusHamiltonian(2, [TrigPolynomial(2, [([0, 0], 1.0, 0.0), ([1, 0], 0.2, 0.0)]),
                         TrigPolynomial.constant(2, 0.0),
                         TrigPolynomial.constant(2, 1.0)],
                     TrigPolynomial.constant(2, 0.0)),
], ids=["potential", "varying-kinetic"])
def test_lax_rejects_a_two_torus_that_is_not_free(torus2, model):
    with pytest.raises(ModelValidityError, match="two-dimensional torus"):
        lax_oleinik(torus2, model, InitialDatum.affine([0.0, 0.0]),
                    torus2.from_lift([0.3, -0.2]), 1.0, 0.5, mesh=8)


def test_free_ladder_has_no_capped_descent():
    # the joint polish of a free system under an affine datum is an exact
    # quadratic, which damped Newton ends
    scenario = load_config(os.path.join(_SCENARIOS,
                                        "free_torus_1d.yaml")).scenario()
    assert len(scenario.eps_ladder) == 7
    for eps in scenario.eps_ladder:
        for h, t in scenario.eval_points:
            point, _ = match_point(scenario.cover, np.array(h), eps,
                                   scenario.mesh)
            res = lax_oleinik(scenario.cover, scenario.model, scenario.datum,
                              point, t, eps, mesh=scenario.mesh)
            assert res.diagnostics == {"newton_capped": 0}


def _rung(monkeypatch, circle, pendulum, eps):
    """One pendulum rung of the scenario (h = 1/3, t = 1, mesh 64), with
    the chains of every screen call recorded."""
    screened = []
    descend = action._descend

    def record_screen(model, horizon, chains, start=None):
        out = descend(model, horizon, chains, start)
        # the screen's chains are coarser than every full solve's
        if np.shape(chains)[1] - 1 < _auto_segments(horizon):
            screened.append((chains, out[0]))
        return out

    monkeypatch.setattr(action, "_descend", record_screen)
    point, _ = match_point(circle, np.array([1.0 / 3.0]), eps, 64)
    res = lax_oleinik(circle, pendulum, InitialDatum.affine([0.0]), point,
                      1.0, eps, mesh=64)
    return res, screened


def test_pendulum_rung_screens_without_lbfgs(monkeypatch, circle, pendulum):
    # 202 is the count of the one-by-one L-BFGS screen that the lockstep
    # screen replaced: a screen that evaluates more or fewer candidates
    # shows here
    res, screened = _rung(monkeypatch, circle, pendulum, 0.25)
    assert res.evaluated == 202
    assert screened
    assert res.diagnostics == {"newton_capped": 0}


@pytest.mark.parametrize("eps", [0.25, 0.0625])
def test_screen_matches_lbfgs_on_the_pendulum(monkeypatch, circle, pendulum,
                                              eps):
    _, screened = _rung(monkeypatch, circle, pendulum, eps)
    chains = np.concatenate([c for c, _ in screened])
    got = np.concatenate([v for _, v in screened])
    want = np.array([_lbfgs_screen(pendulum, 1.0 / eps, chain)
                     for chain in chains])
    lowest = np.argsort(want, kind="stable")[:12]
    assert np.max(np.abs(got[lowest] - want[lowest])) <= 1e-9
    assert np.argmin(got) == np.argmin(want)


@pytest.mark.parametrize("family, eps, count", [
    ("graph", 0.5, 169), ("graph", 0.25, 159), ("graph", 0.125, 963),
    ("torus", 0.25, 202)])
def test_shared_sweep_is_the_one_by_one_sweep(monkeypatch, fig8_cover, fig8_lag,
                                              circle, pendulum, family, eps,
                                              count):
    # the figure_eight and pendulum scenarios at h = (1/3, -1/3) and 1/3,
    # t = 1; the counts are those of the one-by-one sweeps both replaced
    if family == "graph":
        cover, model, h = fig8_cover, fig8_lag, [1.0 / 3.0, -1.0 / 3.0]
        datum = InitialDatum.cone(0.8, norm="l1", dim=2)
    else:
        cover, model, h = circle, pendulum, [1.0 / 3.0]
        datum = InitialDatum.affine([0.0])
    point, _ = match_point(cover, np.array(h), eps, 64)
    blocked = lax_oleinik(cover, model, datum, point, 1.0, eps, mesh=64)
    monkeypatch.setattr(action, "_SCREEN_BLOCK", 1)
    single = lax_oleinik(cover, model, datum, point, 1.0, eps, mesh=64)
    assert blocked.evaluated == single.evaluated == count
    assert blocked.candidates == single.candidates
    assert blocked.value == single.value
    assert np.array_equal(blocked.minimizer_g, single.minimizer_g)


@pytest.mark.parametrize("system, eps, counts", [
    ("pendulum", 1.0, (143, 100)), ("pendulum", 0.5, (201, 142)),
    ("pendulum", 0.25, (285, 202)), ("torus2", 1.0, (1, 1)),
    ("torus2", 0.5, (1, 1)), ("torus2", 0.25, (1, 1)),
    ("figure-eight", 0.5, (552, 169)), ("figure-eight", 0.125, (4219, 963))])
def test_cell_sweep_drops_no_candidate(circle, torus2, pendulum, fig8_cover,
                                       fig8_lag, system, eps, counts):
    # (candidates, evaluated): for the pendulum scenario at h = 1/3 those
    # of the shell sweep that the cell sweep replaced; for the free skew
    # plane under a quadratic datum at h = (0.3, -0.2) on mesh 8 those of
    # the cell sweep, whose bounds there are the exact action (the lift
    # bounds by amin and amax kept 23, 95 and 380), its candidates every
    # lift of the brute-force count;
    # on the figure_eight scenario at h = (1/3, -1/3) the starts of the
    # cells within 1e-9 of the stay value; all at t = 1
    if system == "pendulum":
        cover, model, h, mesh = circle, pendulum, [1.0 / 3.0], 64
        datum = InitialDatum.affine([0.0])
    elif system == "torus2":
        cover, model, h, mesh = torus2, _free_2d_skew(), [0.3, -0.2], 8
        datum = InitialDatum.quadratic([[1.0, 0.3], [0.3, 0.5]], p=[0.4, -0.2],
                                       c=0.1)
    else:
        cover, model, h, mesh = fig8_cover, fig8_lag, [1.0 / 3.0, -1.0 / 3.0], 64
        datum = InitialDatum.cone(0.8, norm="l1", dim=2)
    point, _ = match_point(cover, np.array(h), eps, mesh)
    res = lax_oleinik(cover, model, datum, point, 1.0, eps, mesh=mesh)
    assert (res.candidates, res.evaluated) == counts
    # every mesh start of the box, with no cell bound
    if system == "figure-eight":
        assert res.candidates == lax_graph_full_table(
            cover, model, datum, point, 1.0, eps, mesh).candidates
    elif system == "torus2" or eps >= 0.5:
        assert res.candidates == torus_candidate_count(
            cover, model, datum, point, 1.0, eps, mesh, res.window)


def _lbfgs_polish(model, datum, eps, horizon, nodes):
    """The joint polish by L-BFGS that the Newton descent replaced, with
    its 1,500-iteration cap: the start node and the inner nodes descend
    on datum(eps q0) + eps * action."""
    dt = horizon / (nodes.shape[0] - 1)

    def fun(flat):
        chain = nodes.copy()
        chain[:-1] = flat.reshape(nodes[:-1].shape)
        act, grad = _chain_terms(model, dt, chain[None])[:2]
        full = eps * grad[0]
        full[0] += eps * datum.gradient(eps * chain[0])[0]
        return datum.value(eps * chain[0]) + eps * act[0], full[:-1].ravel()

    res = optimize.minimize(fun, nodes[:-1].ravel(), jac=True,
                            method="L-BFGS-B",
                            options={"maxiter": 1500, "ftol": 1e-15,
                                     "gtol": 1e-11, "maxcor": 12})
    return float(res.fun)


@pytest.mark.parametrize("datum", [
    InitialDatum.affine([0.6], c=0.1),
    InitialDatum.quadratic([[2.0]], p=[0.3]),
    # its tip stays far from every start the polish reaches
    InitialDatum.cone(0.8, center=[2.0], norm="l2", dim=1),
], ids=["affine", "quadratic", "l2-cone"])
def test_newton_polish_ends_no_higher_than_lbfgs(pendulum, datum):
    eps, horizon = 0.25, 4.0
    _, nodes, _ = _descend(pendulum, horizon, _chains([-0.4], 1.0 / 3.0, 64))
    got, polished, capped = _descend(pendulum, horizon, nodes,
                                     start=(datum, eps))
    assert not capped.any()
    # the end node stays, and the start node moved off the chain's
    assert polished[0, -1] == nodes[0, -1]
    assert polished[0, 0] != nodes[0, 0]
    assert got[0] <= _lbfgs_polish(pendulum, datum, eps, horizon, nodes[0]) + 1e-12


def _golden_one_by_one(fn, lo, hi, tol):
    """``action._golden_min``'s searches run one at a time by the scalar
    reference, each probe priced alone."""
    lo, hi, tol = np.broadcast_arrays(lo, hi, tol)
    out = [golden_min_scalar(lambda s, k=k: fn([k], [s])[0], lo[k], hi[k], tol[k])
           for k in range(lo.size)]
    return [s for s, _ in out], [v for _, v in out]


def test_lockstep_golden_is_each_search_alone():
    # unimodal functions with their minima inside, at an end, and on a
    # flat stretch (ties take the right-hand step); the widths and
    # tolerances stop the searches at different steps, one at the first
    fns = [lambda s: (s - 0.3) ** 2,
           lambda s: abs(s + 0.25) + 0.1 * s,
           lambda s: math.exp(s) - 3.0 * s,
           lambda s: -s,
           lambda s: max(abs(s) - 0.5, 0.0),
           lambda s: math.cos(s)]
    lo = [0.0, -1.0, 0.0, 0.0, -3.0, 2.0]
    hi = [1.0, 1.0, 2.0, 1e-3, 3.0, 4.0]
    tol = [1e-9, 1e-3, 1e-12, 1e-9, 0.5, 10.0]
    for keep in ([0], [2], list(range(len(fns)))):
        probes = {k: [] for k in keep}

        def lockstep(idx, s):
            assert list(idx) == sorted(set(idx))
            for k, sk in zip(idx, s):
                probes[keep[k]].append(sk)
            return np.array([fns[keep[k]](sk) for k, sk in zip(idx, s)])

        got_s, got_v = action._golden_min(lockstep, [lo[k] for k in keep],
                                          [hi[k] for k in keep],
                                          [tol[k] for k in keep])
        for j, k in enumerate(keep):
            alone = []
            s, v = golden_min_scalar(lambda sk: alone.append(sk) or fns[k](sk),
                                     lo[k], hi[k], tol[k])
            assert probes[k] == alone
            assert (got_s[j], got_v[j]) == (s, v)
        counts = sorted(len(p) for p in probes.values())
        assert len(keep) == 1 or counts[0] == 3 < counts[-1]


def _theta_case(name):
    theta = MetricGraph(2, [(0, 1, 1.0), (0, 1, 0.7), (0, 1, 1.3)])
    cover = GraphCover(theta)
    zero = np.zeros(2, dtype=int)
    x = (cover.edge_point(2, 0.45, zero) if name == "inside-an-edge"
         else cover.vertex_point(0, zero))
    eps = 1.0 if name == "inside-an-edge" else 0.5
    return (cover, GraphLagrangian(theta, [0.1, -0.3, 0.25]),
            InitialDatum.affine([0.3, -0.2]), [(x, 1.0, eps)])


def _scenario_queries(stem, rungs=None):
    """(cover, model, datum, queries (x, t, eps)) of a scenario's ladder,
    rung by rung, cut to its first ``rungs``."""
    scenario = load_config(os.path.join(_SCENARIOS, stem + ".yaml")).scenario()
    return (scenario.cover, scenario.model, scenario.datum,
            [(match_point(scenario.cover, np.array(h), eps, scenario.mesh)[0], t, eps)
             for eps in scenario.eps_ladder[:rungs] for h, t in scenario.eval_points])


@pytest.mark.parametrize("case", ["figure-eight-rungs", "inside-an-edge",
                                  "degree-3-vertex"])
def test_graph_polish_is_each_edge_alone(monkeypatch, case):
    # the lockstep polish against the searches run one by one: each
    # search's midpoint and value, and the result, bit for bit
    cover, lag, datum, calls = (_scenario_queries("figure_eight")
                                if case == "figure-eight-rungs"
                                else _theta_case(case))
    lockstep, sizes = action._golden_min, []

    def recorded(fn, lo, hi, tol):
        s, v = lockstep(fn, lo, hi, tol)
        alone = _golden_one_by_one(fn, lo, hi, tol)
        assert np.array([s, v]).tobytes() == np.array(alone).tobytes()
        sizes.append(len(s))
        return s, v

    for x, t, eps in calls:
        monkeypatch.setattr(action, "_golden_min", recorded)
        got = lax_oleinik(cover, lag, datum, x, t, eps, mesh=64)
        monkeypatch.setattr(action, "_golden_min", _golden_one_by_one)
        ref = lax_oleinik(cover, lag, datum, x, t, eps, mesh=64)
        assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
        assert got.minimizer_g.tobytes() == ref.minimizer_g.tobytes()
    # every best start of the figure-eight ladder is the vertex, with its
    # two loops in both directions; a theta edge start reaches the three
    # edges at each end, its own edge once
    expect = {"figure-eight-rungs": 4, "inside-an-edge": 5,
              "degree-3-vertex": 3}[case]
    assert sizes == [expect] * len(calls)
    if case == "figure-eight-rungs":
        assert len(calls) == 7


_GRAPHS = {"figure-eight-1.7-0.6": (figure_eight(1.7, 0.6), [0.3, -0.2]),
           "theta": (MetricGraph(2, [(0, 1, 1.0), (0, 1, 0.7), (0, 1, 1.3)]),
                     [0.1, -0.3, 0.25]),
           "loop-2": (single_loop(2.0), [0.2])}


def _graph_search_case(case):
    """(cover, lagrangian, datum, calls (x, t, eps)) of one graph search
    case: a scenario's ladder, or a graph with non-tree lengths other
    than 1 under one datum family at a vertex and inside an edge."""
    if case == "figure-eight-rungs":
        return _scenario_queries("figure_eight")
    if case == "figure-eight-subcover":
        scenario = load_config(os.path.join(
            _SCENARIOS, "figure_eight_subcover.yaml")).scenario()
        cover, sub = scenario.cover, scenario.subcover
        calls = [(match_point(cover, np.array(h), eps, scenario.mesh, sub)[0], t, eps)
                 for eps in scenario.eps_ladder for h, t in scenario.eval_points]
        return (cover, scenario.model, _PulledBackDatum(scenario.datum, sub),
                calls)
    name, family = case.rsplit("-", 1)
    graph, pots = _GRAPHS[name]
    cover, k = GraphCover(graph), graph.cycle_rank
    datum = {"cone": InitialDatum.cone(0.8, center=[0.1] * k, norm="l1", dim=k),
             "affine": InitialDatum.affine([0.3, -0.2][:k], c=0.1),
             "quadratic": InitialDatum.quadratic(np.diag([1.0, 0.5][:k]),
                                                 p=[0.2, 0.1][:k])}[family]
    last = len(graph.edges) - 1
    points = [cover.vertex_point(0),
              cover.edge_point(last, 0.37 * graph.length(last), [1] * k)]
    return (cover, GraphLagrangian(graph, pots), datum,
            [(x, 1.0, eps) for x in points for eps in (0.5, 0.25)])


@pytest.mark.parametrize("case", ["figure-eight-rungs", "figure-eight-subcover"]
                         + [f"{g}-{d}" for g in _GRAPHS
                            for d in ("cone", "affine", "quadratic")])
def test_graph_search_is_the_full_table(case):
    # the rows of the certified cells against every row of the sheet box:
    # the same value, minimizer and counts, bit for bit
    cover, lag, datum, calls = _graph_search_case(case)
    for x, t, eps in calls:
        got = lax_oleinik(cover, lag, datum, x, t, eps, mesh=64)
        ref = lax_graph_full_table(cover, lag, datum, x, t, eps, 64)
        assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
        assert got.minimizer_g.tobytes() == ref.minimizer_g.tobytes()
        assert got.evaluated == ref.evaluated
        assert got.candidates == ref.candidates


@pytest.mark.parametrize("case", ["figure-eight-rungs", "theta",
                                  "single-loop", "figure-eight-subcover",
                                  "pendulum"])
def test_many_queries_are_each_query_alone(case):
    # one solve over K queries, whose graph polish runs every query's
    # searches in lockstep, against K one-query solves, bit for bit
    if case == "theta":
        cover, lag, datum, _ = _theta_case("degree-3-vertex")
        inside = _theta_case("inside-an-edge")[3][0][0]
        queries = [(x, t, eps) for x in (cover.vertex_point(0), inside)
                   for t, eps in ((1.0, 1.0), (0.5, 0.5), (2.0, 0.25))]
    elif case in ("single-loop", "pendulum"):
        cover, lag, datum, queries = _scenario_queries(
            case.replace("-", "_"), None if case == "single-loop" else 3)
    else:
        cover, lag, datum, queries = _graph_search_case(case)
    many = lax_oleinik_many(cover, lag, datum, queries, mesh=64)
    assert len(many) == len(queries) > 2
    for got, (x, t, eps) in zip(many, queries):
        ref = lax_oleinik(cover, lag, datum, x, t, eps, mesh=64)
        assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
        assert got.minimizer_g.tobytes() == ref.minimizer_g.tobytes()
        assert (got.window, got.candidates, got.evaluated, got.diagnostics) == \
            (ref.window, ref.candidates, ref.evaluated, ref.diagnostics)
