"""Reference routes that the tests cross-check the package against.

The package reads none of these.  Each recomputes by a separate route a
quantity that the pipeline takes in closed form or produces itself: the
Legendre pair of a torus Hamiltonian, the long-horizon action rates that
beta averages, the affine closed form of the rescaled solution, the
candidate count of the torus search, the graph search over its whole
sheet box, the mesh point that ``match_point`` picks on a graph, every
candidate traversal multiset of a graph action, graph alpha by a
Bellman-Ford negative-cycle test and by every short closed walk, one
golden-section search and one threshold bisection at a time, one torus
two-point action at a time, a trigonometric polynomial's derivatives term
by term, and the Nelder-Mead polish by scipy's own routine.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from effham import action
from effham.action import (InitialDatum, LaxResult, _golden_min, _graph_actions,
                           _sweep, lax_oleinik, minimal_action_graph,
                           minimal_action_torus)
from effham.errors import SolverError
from effham.model import _proved_range, _torus_grid
from effham.topology import (CoverPoint, _edge_flow, _grid, _norm_rows,
                             match_point, matching_bound, norm_value)


# ---------------------------------------------------------------------------
# the Legendre pair of a torus Hamiltonian H(x, p) = p.A(x)p/2 + V(x)


def _at(trig, x) -> float:
    """A trigonometric polynomial at one point, its one-row value."""
    return float(trig.value_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def kinetic_at(model, x) -> np.ndarray:
    """A(x) as an (n, n) matrix, entry by entry."""
    a = [_at(entry, x) for entry in model.a_entries]
    return np.array([a[:1]] if model.n == 1 else [a[:2], a[1:]])


def hamiltonian(model, x, p) -> float:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    a = kinetic_at(model, x)
    return 0.5 * float(p @ a @ p) + _at(model.v, x)


def grad_p(model, x, p) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return kinetic_at(model, x) @ p


def lagrangian(model, x, v) -> float:
    """L(x, v) = max_p [p.v - H(x, p)], attained at p = A(x)^{-1} v."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    b = np.linalg.inv(kinetic_at(model, x))
    return 0.5 * float(v @ b @ v) - _at(model.v, x)


def legendre_transform_numeric(h_of_p, v, p0=None, span: float = 10.0) -> float:
    """Generic concave maximization of p.v - H(p) for scalar or vector p.

    Seeds a quasi-Newton polish from the best point of a coarse scan, so
    it only needs H convex and superlinear on the scanned box.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    dim = v.size

    def neg(p):
        return h_of_p(p if dim > 1 else float(p[0])) - float(np.dot(p, v))

    if p0 is None:
        cands = _grid([np.linspace(-span, span, 201)] * dim)
        vals = np.array([neg(c) for c in cands])
        p0 = cands[int(np.argmin(vals))]
    res = optimize.minimize(neg, np.atleast_1d(p0), method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    res2 = optimize.minimize(neg, res.x, method="Powell",
                             options={"xtol": 1e-13, "ftol": 1e-15, "maxiter": 20000})
    return -float(min(res.fun, res2.fun))


def fenchel_young_residual(model, x, v, p) -> float:
    """max(0, p.v - H(x,p) - L(x,v)); nonpositive part of the inequality."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    gap = float(np.dot(p, v)) - hamiltonian(model, x, p) - lagrangian(model, x, v)
    return max(0.0, gap)


def double_legendre_residual(model, x, p, span: float = 40.0) -> float:
    """|H(x,p) - max_v [p.v - L(x,v)]| via the numeric transform."""

    def l_of_v(v):
        return lagrangian(model, x, v)

    back = legendre_transform_numeric(l_of_v, p, p0=grad_p(model, x, p), span=span)
    return abs(back - hamiltonian(model, x, p))


# ---------------------------------------------------------------------------
# long-horizon convergence of action rates


@dataclass
class MeanActionRow:
    horizon: float
    delta: float
    worst_rate: tuple


@dataclass
class MeanActionReport:
    rows: list = field(default_factory=list)
    rate_bound: float = 0.0
    tolerance: float = 0.05

    def deltas(self):
        return [r.delta for r in self.rows]

    def passed(self, noise_floor: float = 1e-12) -> bool:
        # exactly solvable systems bottom out at rounding noise, where
        # the ordering of deltas is meaningless
        d = self.deltas()
        decreasing = all(d[i + 1] < d[i] or d[i + 1] < noise_floor
                         for i in range(len(d) - 1))
        return decreasing and d[-1] < self.tolerance


def _rate_samples(cover, rate_bound: float, count: int, seed: int):
    k = cover.deck_rank
    rng = np.random.default_rng(seed)
    # zero rate first: it exposes the cost of commuting from the anchor
    # to wherever the system prefers to idle
    samples = [np.zeros(k)]
    for j in range(k):
        unit = np.zeros(k)
        unit[j] = 1.0
        samples.append(0.75 * rate_bound * unit)
        samples.append(-0.45 * rate_bound * unit)
    while len(samples) < count:
        w = rng.uniform(-1.0, 1.0, size=k)
        nv = norm_value(w, cover.norm)
        if nv < 1e-9:
            continue
        samples.append(w / nv * rate_bound * rng.uniform(0.2, 0.9))
    return samples[:count]


def mean_action_check(cover, model, beta_eval, rate_bound: float,
                      horizons, n_samples: int = 4, seed: int = 0,
                      mesh: int = 16, tolerance: float = 0.05) -> MeanActionReport:
    """Long-horizon table: worst gap between two-point action rates and
    beta at the realized rotation over sampled rate directions.

    Directions are fixed across horizons; for each horizon the endpoint
    is placed so the realized rotation (Delta G)/T stays within the rate
    bound, and delta(T) is the max of |action/T - beta(rotation)|.
    """
    horizons = sorted(float(t) for t in horizons)
    if not all(t > 0 for t in horizons):
        raise ValueError("horizons must be positive")
    samples = _rate_samples(cover, rate_bound, n_samples, seed)
    report = MeanActionReport(rows=[], rate_bound=rate_bound,
                              tolerance=tolerance)
    if cover.family == "graph":
        # anchor mid-edge on the most expensive edge: pure circulations
        # start free of charge at a vertex, so a vertex anchor would hide
        # the finite-horizon boundary layer entirely
        graph = cover.graph
        e_star = int(np.argmax(model.potentials))
        x0 = cover.edge_point(e_star, 0.5 * graph.lengths[e_star],
                              np.zeros(graph.cycle_rank, dtype=int))
    else:
        x0 = cover.from_lift(np.zeros(cover.n))
    gx = cover.g_map(x0)
    for t_hor in horizons:
        worst, worst_rate = -1.0, None
        for w in samples:
            target = gx + t_hor * np.asarray(w)
            if cover.family == "torus":
                y = cover.from_lift(target)
                rate = w
                act = minimal_action_torus(model, cover.lift(x0),
                                           cover.lift(y), t_hor)[0]
            else:
                y, image = match_point(cover, target, 1.0, mesh)
                rate = (cover.g_map(y) - gx) / t_hor
                if norm_value(rate, cover.norm) > rate_bound + 1e-9:
                    continue
                act = minimal_action_graph(model, cover, x0, y, t_hor)
            gap = abs(act / t_hor - beta_eval.value(rate))
            if gap > worst:
                worst, worst_rate = gap, tuple(float(r) for r in np.atleast_1d(rate))
        report.rows.append(MeanActionRow(horizon=t_hor, delta=float(worst),
                                         worst_rate=worst_rate))
    return report


# ---------------------------------------------------------------------------
# the affine closed form of the rescaled solution


@dataclass
class AffineCheckRow:
    eps: float
    deviation: float


@dataclass
class AffineCheckReport:
    rows: list
    fitted_c: float
    alpha_value: float
    passed: bool


def affine_datum_check(cover, model, p, a: float, eps_ladder, eval_points,
                       alpha_value: float, mesh: int = 64,
                       headroom: float = 1.5) -> AffineCheckReport:
    """Deviation of the rescaled solution from the affine closed form
    a + p.F_eps(x_eps) - alpha(p) t, with a fitted linear-in-eps bound."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    datum = InitialDatum.affine(p, a)
    ladder = sorted((float(e) for e in eps_ladder), reverse=True)
    rows = []
    for eps in ladder:
        worst = 0.0
        for h, t in eval_points:
            point, image = match_point(cover, np.array(h, dtype=float), eps,
                                       mesh)
            v_eps = lax_oleinik(cover, model, datum, point, t, eps,
                                mesh=mesh).value
            closed = a + float(p @ image) - alpha_value * t
            worst = max(worst, abs(v_eps - closed))
        rows.append(AffineCheckRow(eps=eps, deviation=float(worst)))
    eps_arr = np.array([r.eps for r in rows])
    dev_arr = np.array([r.deviation for r in rows])
    denom = float(np.sum(eps_arr * eps_arr))
    fitted_c = float(np.sum(eps_arr * dev_arr) / denom) if denom > 0 else 0.0
    a_slope, _ = datum.growth_constants(cover.norm)
    ok = all(r.deviation <= headroom * fitted_c * r.eps
             + a_slope * matching_bound(cover, r.eps, mesh) + 1e-6
             for r in rows)
    return AffineCheckReport(rows=rows, fitted_c=fitted_c,
                             alpha_value=float(alpha_value), passed=ok)


# ---------------------------------------------------------------------------
# the torus candidate search and graph mesh matching by brute force


def torus_candidate_count(cover, model, datum, x, t: float, eps: float,
                          mesh: int, window: float) -> int:
    """Candidates of the torus Lax-Oleinik search over every mesh lift y
    of the box |z - floor(x)|_inf <= ceil(window/eps) + 2 of translate
    cells, with no cell bound.  The incumbent is the smaller of the stay
    value f(eps x) + eps * action(x, x) and the least straight-path bound
    f(eps y) + (eps d)^2/(2 amin t) - vmin t (d = |y - x|); a lift counts
    when its lower bound f(eps y) + (eps d)^2/(2 amax t) - vmax t is
    within 1e-9 of the incumbent and d <= window/eps.  amin, amax, vmin and
    vmax are the proved bounds of ``kinetic_eig_bounds`` and
    ``_proved_range``, as in the search.  On a free 2-torus with amin <
    amax both bounds are the exact value f(eps y) + eps^2 (y - x).A^{-1}.
    (y - x)/(2t), here by ``np.einsum``."""
    x_lift = cover.lift(x)
    horizon, reach = t / eps, window / eps
    amin, amax = model.kinetic_eig_bounds()
    vmin, vmax = _proved_range(model.v)
    box = math.ceil(reach) + 2
    cells = np.floor(x_lift).astype(int) + _grid(
        [np.arange(-box, box + 1)] * model.n)
    lifts = (cells[:, None, :]
             + _torus_grid(model.n, mesh)[None, :, :]).reshape(-1, model.n)
    d = np.sqrt(np.sum((lifts - x_lift) ** 2, axis=1))
    f = datum.value_many(eps * lifts)
    # a 2-torus is free, so staying at x costs 0
    stay = datum.value(eps * x_lift) + eps * (0.0 if model.n == 2 else
                                              minimal_action_torus(
                                                  model, x_lift, x_lift,
                                                  horizon)[0])
    up = f + (eps * d) ** 2 / (2.0 * amin * t) - vmin * t
    low = f + (eps * d) ** 2 / (2.0 * amax * t) - vmax * t
    if model.n == 2 and amin < amax:
        step = lifts - x_lift
        low = up = f + eps * eps * np.einsum(
            "ij,jk,ik->i", step, np.linalg.inv(model.constant_kinetic()),
            step) / (2.0 * t)
    incumbent = min(stay, float(np.min(up)))
    return int(np.sum((low <= incumbent + 1e-9) & (d <= reach + 1e-12)))


def lax_graph_full_table(cover, lagrangian, datum, x, t: float, eps: float,
                         mesh: int) -> LaxResult:
    """The graph Lax-Oleinik search with no cell bound: the datum value and
    lower bound f(eps G) + (eps |G - G(x)|_1 / k0)^2/(2t) + min(V) t of
    every (locator, sheet) row of the box |z - x.sheet|_inf <=
    ceil(window/(eps lmin)) + 2, lmin the shortest non-tree edge and the
    rows locator-major, swept in the order of one stable argsort of all of
    them from the stay value, then the golden-section polish along the
    winner's edges.  The candidates are the rows whose lower bound is
    within 1e-9 of the stay value."""
    graph = cover.graph
    horizon = t / eps
    gx = cover.g_map(x)
    hx = eps * gx
    quad, drift = 1.0, -lagrangian.min_potential()
    k0 = cover.g_lipschitz()

    incumbent = datum.value(hx) + eps * minimal_action_graph(lagrangian, cover,
                                                             x, x, horizon)
    stay, best_point = incumbent, x
    a_slope, b_const = datum.growth_constants(cover.norm)
    budget = incumbent + a_slope * norm_value(hx, cover.norm) + b_const + drift * t
    lin = quad * t * a_slope * k0
    window = lin + math.sqrt(max(0.0, lin * lin + 2.0 * quad * t * budget))

    lmin = max(graph.min_nontree_length(), 1e-12)
    sheet_reach = int(math.ceil(window / (eps * lmin))) + 2
    sheets = _grid([np.arange(z - sheet_reach, z + sheet_reach + 1)
                    for z in x.sheet])
    base_locs, images = cover.base_mesh(mesh)
    n_sheets = sheets.shape[0]
    f_all, lb_all = [], []
    for g0 in images:
        rows = sheets + g0[None, :]
        f_all.append(datum.value_many(eps * rows))
        d_lb = _norm_rows(rows - gx[None, :], cover.norm) / max(k0, 1e-12)
        lb_all.append(f_all[-1] + (eps * d_lb) ** 2 / (2.0 * quad * t) - drift * t)
    f_all, lb_all = np.concatenate(f_all), np.concatenate(lb_all)
    verts, shifts, offs, edges = cover._attachments(
        [CoverPoint(loc, (0,) * cover.deck_rank) for loc in base_locs])
    at_x = np.array([loc == x.base for loc in base_locs])

    def price(block):
        b, z = np.divmod(block, n_sheets)
        starts = (verts[b], shifts[b] + sheets[z][:, None], offs[b], edges[b])
        acts = _graph_actions(lagrangian, cover, starts, x, horizon)
        acts[at_x[b] & np.all(sheets[z] == x.sheet, axis=1)] = np.nan
        return f_all[block] + eps * acts

    incumbent, best, scored = _sweep(np.argsort(lb_all, kind="stable"), lb_all,
                                     incumbent, price)
    if best is not None:
        b, z = divmod(int(best), n_sheets)
        best_point = CoverPoint(base_locs[b], tuple(int(s) for s in sheets[z]))

    if best_point.base[0] == "e":
        domains = [(best_point.base[1], np.array(best_point.sheet))]
    else:
        domains = [(e, np.array(best_point.sheet)
                    - (direction == -1) * graph.cocycles[e])
                   for e, direction in graph.incident[best_point.base[1]]]
    lengths = np.array([graph.length(e) for e, _ in domains])

    def objective(idx, s):
        points = [cover.edge_point(domains[k][0], min(max(sk, 0.0), lengths[k]),
                                   domains[k][1]) for k, sk in zip(idx, s)]
        acts = _graph_actions(lagrangian, cover, cover._attachments(points), x,
                              horizon)
        return np.array([datum.value(eps * cover.g_map(p)) for p in points]) + eps * acts

    s_best, vals = _golden_min(objective, 0.0, lengths,
                               1e-9 * np.maximum(1.0, lengths))
    for (e, sheet), s, val in zip(domains, s_best, vals):
        if val < incumbent:
            incumbent = val
            best_point = cover.edge_point(e, s, sheet)
    return LaxResult(value=float(incumbent), minimizer_g=cover.g_map(best_point),
                     window=window,
                     candidates=int(np.sum(lb_all <= stay + 1e-9)),
                     evaluated=len(scored))


def match_point_loop(cover, h, eps: float, mesh: int, sub=None):
    """(locator, sheet) of the graph mesh point whose scaled image is
    nearest h, by a loop over the locators and the 5^k sheets around each
    one's nearest sheet, keeping the least (distance quantized to 1e-12,
    sheet, locator order); with a ``SubcoverMap`` h lives on the quotient
    and the winning quotient sheet is lifted through the right inverse."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    target = h / eps
    fmat = None if sub is None else sub.matrix.astype(float)

    def window(center):
        return _grid([np.arange(c - 2, c + 3) for c in center])

    sheets = window(np.round(target).astype(int)) if sub is None else None
    best = None
    locs, images = cover.base_mesh(mesh)
    for loc_idx, (loc, g0) in enumerate(zip(locs, images)):
        if sub is not None:
            g0 = fmat @ g0
            sheets = window(np.round(target - g0).astype(int))
        # graph covers measure in l1
        dist = np.abs(eps * (sheets + g0) - h).sum(axis=1)
        for row, d in zip(sheets.tolist(), dist.tolist()):
            key = (round(d / 1e-12), tuple(row), loc_idx)
            if best is None or key < best[0]:
                best = (key, loc, row)
    _, loc, row = best
    sheet = row if sub is None else sub.right_inverse @ np.array(row)
    return loc, tuple(int(z) for z in sheet)


# ---------------------------------------------------------------------------
# every candidate traversal multiset, each walked by its own search


def _reached(graph, counts, anchor: int) -> np.ndarray:
    """Mask of the vertices reached from anchor along edges with counts > 0."""
    seen = np.zeros(graph.n_vertices, dtype=bool)
    seen[anchor] = True
    frontier = [anchor]
    while frontier:
        for e, _ in graph.incident[frontier.pop()]:
            if not counts[e]:
                continue
            for other in graph.edges[e][:2]:
                if not seen[other]:
                    seen[other] = True
                    frontier.append(other)
    return seen


def multisets_unpruned(graph, va: int, vb: int, dz: tuple):
    """Every walk among the candidates |m| + 2c, c in {0, 1}^|E|, of
    ``action._multisets``, in ``itertools.product`` order of c, dominated
    rows included, as (run lengths (n, |E|), visited vertices (n, |V|)):
    one breadth-first search per candidate."""
    n_edges = len(graph.edges)
    m = _edge_flow(graph, dz, va, vb)
    m_int = np.round(m).astype(int)
    if np.max(np.abs(m - m_int)) > 1e-9:
        raise SolverError("non-integral edge flow")
    rows, visited = [], []
    for extras in itertools.product((0, 1), repeat=n_edges):
        counts = np.abs(m_int) + 2 * np.asarray(extras, dtype=int)
        # connected through va when every used edge is reached; vb is then
        # reached too, on a used edge when va != vb
        seen = _reached(graph, counts, va)
        if seen[[graph.tail(e) for e in np.flatnonzero(counts)]].all():
            rows.append(counts * graph.lengths)
            visited.append(seen)
    return np.array(rows).reshape(-1, n_edges), np.array(visited)


# ---------------------------------------------------------------------------
# graph alpha by a negative-cycle test


def _has_negative_cycle(graph, dart_cost) -> bool:
    """Bellman-Ford from a zero potential at every vertex: True when some
    closed walk of darts has negative total cost."""
    n = graph.n_vertices
    dist = [0.0] * n
    darts = []
    for e in range(len(graph.edges)):
        u, v, _ = graph.edges[e]
        darts.append((u, v, dart_cost[(e, +1)]))
        darts.append((v, u, dart_cost[(e, -1)]))
    for _ in range(n):
        changed = False
        for u, v, c in darts:
            if dist[u] + c < dist[v] - 1e-15:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return False
    return True


def alpha_graph_bellman_ford(graph, lagrangian, p) -> float:
    """Graph alpha at one covector p: the smallest level k with no closed
    walk of negative dart cost l_e sqrt(2(V_e + k)) -+ <p, cocycle_e>,
    bisected to 1e-9 from just above -min V."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    vmin = lagrangian.min_potential()
    lo = -vmin + 1e-12

    def costs(k):
        out = {}
        for e in range(len(graph.edges)):
            base = graph.length(e) * math.sqrt(
                max(0.0, 2.0 * (lagrangian.potentials[e] + k)))
            pair = float(p @ graph.cocycles[e])
            out[(e, +1)] = base - pair
            out[(e, -1)] = base + pair
        return out

    if not _has_negative_cycle(graph, costs(lo)):
        return -vmin
    return bisect_threshold_scalar(
        lambda k: _has_negative_cycle(graph, costs(k)), lo, 1e-9)


def _closed_walks(graph, max_darts: int):
    """Every closed walk of 1 to max_darts darts, as (its traversal count
    per edge, its homology class), one entry per distinct pair."""
    darts = [(e, sign) for e in range(len(graph.edges)) for sign in (1, -1)]
    found = set()
    stack = [(v, v, (0,) * len(graph.edges), (0,) * graph.cycle_rank, 0)
             for v in range(graph.n_vertices)]
    while stack:
        start, at, counts, cls, size = stack.pop()
        if size and at == start:
            found.add((counts, cls))
        if size == max_darts:
            continue
        for e, sign in darts:
            u, v, _ = graph.edges[e]
            if (u if sign > 0 else v) != at:
                continue
            step = list(counts)
            step[e] += 1
            cls_step = tuple(c + sign * int(k)
                             for c, k in zip(cls, graph.cocycles[e]))
            stack.append((start, v if sign > 0 else u, tuple(step), cls_step,
                          size + 1))
    return sorted(found)


def alpha_graph_walks(graph, lagrangian, p) -> float:
    """Graph alpha at one covector p by brute force over every closed walk
    of at most |E| darts: per walk the least level k >= -min V at which
    sum over its darts of l_e sqrt(2(V_e + k)) reaches <p, [walk]>,
    bisected to adjacent floats; alpha is the largest.  Every simple cycle
    has at most |E| darts."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    pots = np.asarray(lagrangian.potentials, dtype=float)
    floor = -lagrangian.min_potential()
    best = floor
    for counts, cls in _closed_walks(graph, len(graph.edges)):
        weights = np.asarray(counts) * graph.lengths
        pairing = float(p @ np.asarray(cls, dtype=float))

        def short(k):
            return float(weights @ np.sqrt(2.0 * np.maximum(0.0, pots + k))) < pairing

        if short(floor):
            best = max(best, bisect_threshold_scalar(short, floor, 0.0))
    return best


# ---------------------------------------------------------------------------
# one golden-section search, threshold bisection or torus action at a time,
# and trig derivatives term by term


def golden_min_scalar(fn, lo: float, hi: float, tol: float):
    """Golden-section search for the minimum of a unimodal fn on [lo, hi],
    one probe per call: the search that ``action._golden_min`` runs for
    each of its brackets in lockstep.  Stops once the bracket is at most
    tol wide; returns (s, fn(s)) at the bracket midpoint."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    s = 0.5 * (a + b)
    return s, fn(s)


def bisect_threshold_scalar(below, lo: float, tol: float) -> float:
    """Midpoint of a bracket on the level where a test that holds at lo
    starts to fail, one probe per call: the search that
    ``mather._bisect_threshold`` runs for each of its levels in lockstep.
    hi = lo + 1 doubles its distance from lo until the test fails there
    (past 1e12 a SolverError), then the bracket halves until it is at most
    tol wide or its midpoint equals an end."""
    hi = lo + 1.0
    while below(hi):
        hi = lo + 2.0 * (hi - lo)
        if hi - lo > 1e12:
            raise SolverError("alpha bracket grew past its cap")
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def minimal_action_torus_alone(model, y_lift, x_lift, horizon: float):
    """One torus two-point action on its own: the descent of its starting
    chains, then one single-chain descent per doubling of the best chain
    until the action moves by less than ``_ACTION_TOL`` or the count
    reaches ``_MAX_SEGMENTS``.  ``action._minimal_actions_torus`` runs this
    for each of its pairs in lockstep; returns (action, nodes, capped
    count) as it does."""
    y_lift = np.atleast_1d(np.asarray(y_lift, dtype=float))
    x_lift = np.atleast_1d(np.asarray(x_lift, dtype=float))
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    model.kinetic_eig_bounds()
    n = action._auto_segments(horizon)
    vals, chains, capped = action._descend(
        model, horizon, action._chain_inits(y_lift, x_lift, n))
    j = int(np.argmin(vals))
    best_val, best_nodes, n_capped = float(vals[j]), chains[j], int(capped[j])
    while n < action._MAX_SEGMENTS:
        n *= 2
        vals, chains, capped = action._descend(
            model, horizon, action._refine_nodes(best_nodes)[None])
        n_capped += int(capped[0])
        improved = best_val - vals[0]
        best_val, best_nodes = float(vals[0]), chains[0]
        if abs(improved) < action._ACTION_TOL:
            break
    return best_val, best_nodes, n_capped


def trig_derivatives(poly, xs):
    """Values, gradients and second derivatives of a ``TrigPolynomial``
    at the rows of xs, every term's a and b products taken even when the
    coefficient is 0, accumulated from +0 term by term."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    out, g = np.zeros(xs.shape[0]), np.zeros_like(xs)
    hess = np.zeros(xs.shape + (poly.n,))
    two_pi = 2.0 * np.pi
    for k, a, b in poly.terms:
        if not k.any():
            out += a
            continue
        kf = k.astype(float)
        phase = two_pi * sum((xs[:, j] * kf[j] for j in range(1, poly.n)),
                             xs[:, 0] * kf[0])
        cos, sin = np.cos(phase), np.sin(phase)
        term = a * cos + b * sin
        out += term
        g += (two_pi * (-a * sin + b * cos))[:, None] * kf
        hess -= (two_pi * two_pi * term)[:, None, None] * np.outer(kf, kf)
    return out, g, hess


# ---------------------------------------------------------------------------
# the Nelder-Mead polish by scipy's own routine


def nelder_mead_scipy(fn, x0, sim, xatol: float, fatol: float, maxiter: int,
                      maxfev=math.inf):
    """``action._nelder_mead`` as scipy's ``minimize(method="Nelder-Mead")``
    runs it: from the simplex ``sim``, or from scipy's default start around
    x0 when sim is None; an infinite maxfev is left unset, as scipy's
    default cap then is.  Returns (x, fun, status, nfev)."""
    options = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter}
    if sim is not None:
        options["initial_simplex"] = sim
    if maxfev != math.inf:
        options["maxfev"] = maxfev
    res = optimize.minimize(fn, x0, method="Nelder-Mead", options=options)
    return res.x, res.fun, res.status, res.nfev
