"""Effective Hamiltonians and minimal action-rate functions.

The convex pair at the heart of the limit problem:

* ``alpha_*``: the effective Hamiltonian (critical energy as a function
  of a cohomology vector): on graphs the largest root over the cycle
  classes, on the circle the inverse of the rotation integral (a tanh-sinh
  rule built once per model); one lockstep bisection serves both.
* ``beta_*``: the minimal average action over circulations with a
  prescribed homology rate; convex dual of alpha.  On graphs the rate
  fixes its real circulation, so beta is one ``allocate_time`` row.
* the quotient pair of an intermediate cover: ``BetaHatEvaluator``, the
  least graph beta over a fiber, computed exactly as an energy minimax,
  and its dual, alpha at the pulled-back covectors ``sub.pullback(ps)``.

Evaluator objects carry one exact (alpha, beta) pair of a system family:
``value_many`` is beta at every row of rates, each as alone, ``value`` its
one-row case, ``alpha_many`` alpha at every row of p, ``norm`` the
family's measuring norm (l1 on graphs, l2 on tori, as on the covers)
and ``coercivity`` a certified quadratic lower bound (kappa, v_off) on beta
in that norm, so downstream solvers can truncate searches.  Graphs pair
``alpha_graph`` with ``beta_graph``, free tori the two quadratic forms of A
and its inverse, and the circle ``alpha_torus_quadrature`` with the energy
profile of ``MechanicalBeta1D``, both on one ``_RotationRule``.  Those
profiles, beta-hat's and every conjugate of ``LegendreDual``, the one
Legendre transform, run their rows in one lockstep ``_concave_max``; the
subcover dual check compares the pulled-back alpha with beta-hat's conjugate.
"""

from __future__ import annotations

import numpy as np

from .action import _golden_min, allocate_time
from .errors import SolverError
from .model import GraphLagrangian, TorusHamiltonian
from .topology import SubcoverMap, _edge_flow, _grid


# ---------------------------------------------------------------------------
# alpha on graphs: the largest root over the cycle classes


def _grow_bracket(grow, lo: np.ndarray, cap: float, message: str) -> np.ndarray:
    """Upper ends hi of brackets [lo, hi], each entry in lockstep as it would
    step alone: hi = lo + 1 doubles its gap to lo while ``grow(hi)`` holds
    there, and a gap past cap raises SolverError(message)."""
    hi = lo + 1.0
    while (grow_at := grow(hi)).any():
        hi = np.where(grow_at, lo + 2.0 * (hi - lo), hi)
        if np.any(hi - lo > cap):
            raise SolverError(message)
    return hi


def _bisect_threshold(below, lo) -> np.ndarray:
    """Midpoints of brackets around where a test ``below`` that holds at the
    levels lo starts to fail, each entry in lockstep as it would step alone:
    ``_grow_bracket`` doubles hi until the test fails (past 1e12 a
    SolverError), then the bracket halves to adjacent floats."""
    lo = np.array(lo, dtype=float)
    hi = _grow_bracket(below, lo, 1e12, "alpha bracket grew past its cap")
    mid = 0.5 * (lo + hi)
    while (live := (lo < mid) & (mid < hi)).any():
        fails = below(mid)
        lo, hi = np.where(live & fails, mid, lo), np.where(live & ~fails, mid, hi)
        mid = 0.5 * (lo + hi)
    return mid


def _cycle_classes(rank: int) -> np.ndarray:
    """{-1, 0, 1}^rank but 0, one per sign pair: the grid rows after 0."""
    return _grid([np.array([-1.0, 0.0, 1.0])] * rank)[3 ** rank // 2 + 1:]


def alpha_graph(graph, lagrangian: GraphLagrangian, ps) -> np.ndarray:
    """Effective Hamiltonian on a graph at every row p of ``ps`` (m, k) (one
    covector counts as one row): the least level k >= -min V with no closed
    walk of negative cost.  Returns (m,).

    At level k a traversal of edge e costs l_e sqrt(2(V_e + k)) minus the
    pairing of p with its signed cocycle; partial excursions add
    nonnegative cost and no pairing.  A closed walk's darts split
    conformally into simple cycles whose costs add (flow decomposition:
    Ahuja, Magnanti and Orlin, *Network Flows*, 1993, ch. 3).  A simple
    cycle crosses each non-tree edge at most once, so its class h lies in
    {-1, 0, 1}^k and it costs S_h(k) - <p, h>, with f = ``_edge_flow`` and
    S_h(k) = sum_e l_e |f_e(h)| sqrt(2(V_e + k)); any other class splits
    too, so its test S_h >= |<p, h>| follows from its pieces'.  So alpha(p)
    is the least k >= -min V with S_h(k) >= |<p, h>| for every class h up
    to sign (at most four: load caps the cycle rank at 2), the finite form
    of the min-max of Siconolfi and Sorrentino (Anal. PDE 2018).  Each S_h
    increases, so rows failing at -min V bisect in lockstep to adjacent
    floats.
    """
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    classes = _cycle_classes(ps.shape[1])
    weights = np.abs(_edge_flow(graph, classes)) * graph.lengths
    pairings = np.abs(ps @ classes.T)
    pots = lagrangian.potentials

    def below(levels, pair):
        speeds = np.sqrt(2.0 * np.maximum(0.0, pots + levels[:, None]))
        return np.any((speeds[:, None, :] * weights).sum(axis=2) < pair, axis=1)

    out = np.full(len(ps), -lagrangian.min_potential())
    fails = below(out, pairings)
    out[fails] = _bisect_threshold(lambda k: below(k, pairings[fails]),
                                   out[fails])
    return out


# ---------------------------------------------------------------------------
# beta on graphs: one allocation over the circulation of the rate


def beta_graph(graph, lagrangian: GraphLagrangian, rates) -> np.ndarray:
    """Minimal average action rate among circulations of homology rate h,
    for every row h of ``rates`` (m, k) (one rate counts as one row).

    The rate fixes its real circulation f(h) (``_edge_flow``): the
    non-tree edges carry h and conservation fixes the tree edges.  Any
    other flow of rate h adds back-and-forth traversals, and the
    shared-energy cost grows with every run length, so beta(h) is one
    allocation of unit time over the runs |f_e(h)| * len_e, resting at
    the cheapest potential on the graph (the network setting of
    Siconolfi and Sorrentino, Anal. PDE 2018).  All rows go to one
    ``allocate_time`` call, which stops each row on its own test, so a
    row's beta does not depend on the batch.  Returns (m,).
    """
    runs = np.abs(_edge_flow(graph, np.atleast_2d(rates))) * graph.lengths
    return allocate_time(runs, lagrangian.potentials, 1.0,
                         lagrangian.min_potential())


# ---------------------------------------------------------------------------
# alpha on the circle: one tanh-sinh rule for the rotation integral

# Takahasi-Mori tanh-sinh nodes on [-1, 1] and their weights, step 1/16 over
# |t| <= 4 (Publ. RIMS 9, 1974): 129 nodes per arc
_TS_T = np.arange(-64, 65) / 16.0
_TS_U = 0.5 * np.pi * np.sinh(_TS_T)
_TS_X = np.tanh(_TS_U)
_TS_W = 0.5 * np.pi * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2 / 16.0


class _RotationRule:
    """p(E) = integral over the circle of sqrt(2(E - V)/A): the momentum
    that a running orbit at energy E carries per turn (zero where E < V).

    The breaks are the local maxima of V on 4096 samples, each Newton-
    polished on V' and kept polished only where that raises V (a constant V
    has one break, at 0); ``vmax`` is the largest V at a break.  For
    E >= vmax the integrand is analytic inside every arc between breaks and
    its sqrt kinks sit at their ends, so one tanh-sinh rule per arc, with V
    and 2/A stored at the nodes, makes p(E) one dot product per energy, on
    its own row (``np.vecdot``), so a batch rounds each energy as alone.
    """

    def __init__(self, model: TorusHamiltonian):
        v = model.v
        xs = np.arange(4096) / 4096.0
        vals = v.value_many(xs[:, None])
        peak = (vals > np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
        xs, vals = (xs[peak], vals[peak]) if peak.any() else (xs[:1], vals[:1])
        for _ in range(4):
            _, g, hess = v.gradient_many(xs[:, None])
            curv = np.where(hess[:, 0, 0] < 0.0, hess[:, 0, 0], -np.inf)
            new = xs - g[:, 0] / curv
            polished = v.value_many(new[:, None])
            xs = np.where(polished > vals, new, xs)
            vals = np.maximum(vals, polished)
        self.vmax = float(vals.max())
        ends = np.append(np.sort(xs), np.min(xs) + 1.0)
        half = 0.5 * np.diff(ends)[:, None]
        nodes = (ends[:-1, None] + half * (1.0 + _TS_X)).ravel()
        self._weights = (half * _TS_W).ravel()
        self._v = v.value_many(nodes[:, None])
        self._twice_inv_a = 2.0 / model.a_entries[0].value_many(nodes[:, None])

    def __call__(self, energy):
        kinetic = np.maximum(0.0, (np.asarray(energy)[..., None] - self._v)
                             * self._twice_inv_a)
        return np.vecdot(np.sqrt(kinetic), self._weights)


def alpha_torus_quadrature(model: TorusHamiltonian, ps, rule=None) -> np.ndarray:
    """Exact 1-D route: the energy level whose rotation integral matches
    |p|, at every entry p of ``ps`` (a float or rows of one covector).

    For H = A(x) p^2 / 2 + V(x) on the circle the corrector equation at
    energy E has a periodic solution iff the integral of sqrt(2(E - V)/A)
    equals |p| (running branch) or E = max V (trapped branch below the
    threshold pairing).  Running energies are bisected in lockstep to
    adjacent floats on ``rule`` (the model's ``_RotationRule`` when None).
    """
    if model.n != 1:
        raise ValueError("quadrature route is one-dimensional only")
    rule = rule or _RotationRule(model)
    p = np.abs(np.asarray(ps, dtype=float).reshape(-1))
    out = np.full(p.shape, rule.vmax)
    running = p > rule(rule.vmax) + 1e-14
    out[running] = _bisect_threshold(lambda energy: rule(energy) < p[running],
                                     out[running])
    return out


# ---------------------------------------------------------------------------
# evaluators


def _concave_max(gain, lo) -> np.ndarray:
    """Maxima over x >= lo[k] of K concave gains that fall eventually, in
    lockstep (every concave maximisation of the package): ``gain(idx, xs)``
    prices gains idx (a list, or the slice of them all) at an array xs, one
    each.  Bracket k, [lo, hi], grows by ``_grow_bracket`` until gain k is
    past its peak at hi (past 1e9 a SolverError: it does not fall), then
    one ``_golden_min`` closes every bracket to 1e-12 * max(1, |hi|); lo is
    kept where the peak sits there.  Each entry steps as it would alone."""
    lo, every = np.array(lo, dtype=float), slice(None)
    hi = _grow_bracket(lambda hi: gain(every, hi + 1e-6) > gain(every, hi), lo,
                       1e9, "concave search bracket grew past its cap")
    _, low = _golden_min(lambda idx, e: (-gain(
        idx if len(idx) < lo.size else every, np.array(e))).tolist(),
        lo, hi, 1e-12 * np.maximum(1.0, np.abs(hi)))
    return np.maximum(-np.array(low), gain(every, lo))


class AnalyticQuadraticBeta:
    """Exact minimal action rate of a constant-kinetic system with no
    potential: half the inverse-kinetic quadratic form; alpha is half
    the kinetic form, each priced row by row (a batched product would
    round a row by the batch)."""

    norm = "l2"

    def __init__(self, kinetic_matrix):
        self.a_matrix = np.atleast_2d(np.asarray(kinetic_matrix, dtype=float))
        self.b_matrix = np.linalg.inv(self.a_matrix)
        self._lam_min = float(np.linalg.eigvalsh(self.b_matrix)[0])

    def value(self, w) -> float:
        return float(self.value_many(np.atleast_2d(w))[0])

    def value_many(self, ws) -> np.ndarray:
        return np.array([0.5 * w @ self.b_matrix @ w for w in np.atleast_2d(ws)])

    def alpha_many(self, ps) -> np.ndarray:
        return np.array([0.5 * p @ self.a_matrix @ p for p in np.atleast_2d(ps)])

    def coercivity(self):
        return 0.5 * self._lam_min, 0.0


class DirectBetaEvaluator:
    """Per-query graph beta and graph alpha; exact to rounding."""

    norm = "l1"

    def __init__(self, graph, lagrangian: GraphLagrangian):
        self.graph = graph
        self.lagrangian = lagrangian
        lmin = graph.min_nontree_length()
        self._kappa = 0.5 * lmin * lmin
        self._voff = -lagrangian.min_potential()

    def value(self, w) -> float:
        return float(self.value_many(np.atleast_2d(w))[0])

    def value_many(self, ws) -> np.ndarray:
        return beta_graph(self.graph, self.lagrangian, ws)

    def alpha_many(self, ps) -> np.ndarray:
        return alpha_graph(self.graph, self.lagrangian, ps)

    def coercivity(self):
        return self._kappa, self._voff


class LegendreDual:
    """Conjugate of a convex source that grows superlinearly: ``value_many``
    is sup_z [w.z - source(z)] at every row w, each as alone (``value`` its
    one-row case), with ``source_many`` pricing rows of z, each as alone.

    Each coordinate of z runs over its two half-lines from 0, where the
    pairing is concave and falls eventually: one ``_concave_max`` gain per
    (row, half-line), in lockstep.  In 2-D the gain at a first coordinate
    is the maximum over the second, concave as a partial supremum of a
    concave function, so the search nests.  Kinks of the source at 0 or on
    an axis sit at half-line ends, priced exactly; a pairing that never
    falls (a source of linear growth) raises SolverError at the bracket cap.
    """

    def __init__(self, source_many, dim: int):
        self.source_many = source_many
        self.dim = dim

    def value(self, w) -> float:
        return float(self.value_many(np.atleast_2d(w))[0])

    def value_many(self, ws) -> np.ndarray:
        ws = np.atleast_2d(np.asarray(ws, dtype=float))
        return self._sup(ws, ws[:, :0])

    def _sup(self, ws, head) -> np.ndarray:
        """For each row of ``head`` (K, j), which fixes z's first j entries,
        the max over z's other entries of w.z - source(z), less head's share."""
        j, k = head.shape[1], len(ws)
        signs = np.repeat([1.0, -1.0], k)  # every row forward, then back
        ws, head = np.tile(ws, (2, 1)), np.tile(head, (2, 1))

        def gain(idx, s):
            zs = np.column_stack([head[idx], signs[idx] * s])
            rest = self._sup(ws[idx], zs) if j + 1 < self.dim else -self.source_many(zs)
            return signs[idx] * ws[idx, j] * s + rest

        best = _concave_max(gain, np.zeros(2 * k))
        return np.maximum(best[:k], best[k:])


class MechanicalBeta1D:
    """Minimal action rate of a circle system via its energy profile.

    On the running branch the conjugate pairing p(E)|w| - E is concave in
    E (its derivative is |w| * period(E) - 1 with a decreasing period),
    so ``_concave_max`` computes beta(w) = max_{E >= max V} [p(E)|w| - E]
    to quadrature accuracy, every row in lockstep on the model's
    ``_RotationRule``; the endpoint E = max V (the rule's ``vmax``) covers
    the trapped branch, and a speed below 1e-14 reads beta(0) = -max V.
    alpha(p) is the energy whose p(E) is |p| (``alpha_torus_quadrature``):
    alpha and beta share the rule, not their searches.  A(x) > 0, as config
    load requires.
    """

    norm = "l2"

    def __init__(self, model: TorusHamiltonian):
        if model.n != 1:
            raise ValueError("one-dimensional circle systems only")
        self.model = model
        self._rule = _RotationRule(model)
        _, self._amax = model.kinetic_eig_bounds()

    def value(self, w) -> float:
        return float(self.value_many(np.atleast_2d(w))[0])

    def value_many(self, ws) -> np.ndarray:
        speeds = np.abs(np.asarray(ws, dtype=float)[:, 0])
        out = np.full(speeds.shape, -self._rule.vmax)
        fast = speeds[run := speeds >= 1e-14]
        out[run] = _concave_max(lambda idx, e: self._rule(e) * fast[idx] - e,
                                np.full(fast.size, self._rule.vmax))
        return out

    def alpha_many(self, ps) -> np.ndarray:
        return alpha_torus_quadrature(self.model, ps, self._rule)

    def coercivity(self):
        return 1.0 / (2.0 * self._amax), self._rule.vmax


# ---------------------------------------------------------------------------
# subcover quantities


class BetaHatEvaluator:
    """Quotient minimal action rate with the evaluator protocol, exact.

    beta-hat(z) is the least graph beta over the fiber above z, the line
    h0 + s k with h0 = right_inverse z and k the kernel vector (load caps
    the cycle rank at 2 and a subcover has a row, so the kernel rank is 0,
    where beta-hat is beta(h0), or 1; a larger rank raises ValueError).
    With f = ``_edge_flow``, which is linear in the rate,

        beta-hat(z) = max_{E >= -min V} [min_{s in S} F(s, E)] - E,
        F(s, E) = sum_e l_e |f_e(h0) + s f_e(k)| sqrt(2 (E + V_e)),

    S the kinks -f_e(h0)/f_e(k) over the edges with f_e(k) != 0.  Proof:

    * F(s, E) - E is the energy dual of ``allocate_time``'s split: a run
      of length l at energy E takes the action l sqrt(2 (E + V)) - E tau
      over its time tau, and the maximum over E >= -min V (E = -min V is
      resting on the cheapest edge) prices the unit horizon, so beta on
      the fiber is max_E F(s, E) - E.
    * F - E is convex in s (a positive sum of |affine|) and concave in E
      (sqrt).  For every E its slope in s is sum_e l_e |f_e(k)| sqrt(...)
      beyond the largest kink and minus that before the smallest, so
      beta on the fiber is least on the hull of S, a compact interval, and
      Sion's minimax theorem (Pacific J. Math. 8, 1958) swaps min and max.
    * For a fixed E the bracket is piecewise linear in s with its kinks
      in S, so its minimum over the hull is its minimum over S, exactly.
    * What is left, a minimum of concave functions of E minus E, is
      concave in one variable: ``_concave_max`` finds its maximum for
      every row of ``value_many`` in lockstep, over its stacked kink runs.

    The certified lower bound transfers with the l1 operator norm of the
    surjection: any h over z has |z| <= |f||h|, so beta-hat inherits
    kappa/|f|^2.
    """

    norm = "l1"

    def __init__(self, sub: SubcoverMap, base_eval):
        if sub.kernel_rank() > 1:
            raise ValueError(f"kernel rank {sub.kernel_rank()} > 1: a graph "
                             "cover of cycle rank at most 2 has none")
        self.sub = sub
        self.base = base_eval
        self._kernel_flow = (_edge_flow(base_eval.graph,
                                        sub.kernel_basis[:, 0].astype(float))
                             if sub.kernel_rank() else None)
        kappa, voff = base_eval.coercivity()
        op = max(sub.op_norm, 1e-12)
        self._coercivity = (kappa / (op * op), voff)

    def value(self, z) -> float:
        return float(self.value_many(np.atleast_2d(z))[0])

    def value_many(self, zs) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        h0 = np.vecdot(zs[:, None, :], self.sub.right_inverse)  # R z a row
        if self._kernel_flow is None:
            return self.base.value_many(h0)
        graph, lag = self.base.graph, self.base.lagrangian
        f0, fk = _edge_flow(graph, h0), self._kernel_flow
        moving = fk != 0.0
        kinks = -f0[:, moving] / fk[moving]
        # runs (K, kinks, edges), priced by one matrix-vector product a row
        runs = np.abs(f0[:, None, :] + kinks[:, :, None] * fk) * graph.lengths

        def gain(idx, e):
            speeds = np.sqrt(2.0 * (e[:, None] + lag.potentials))[:, :, None]
            return (runs[idx] @ speeds).min(axis=(1, 2)) - e

        return _concave_max(gain, np.full(len(zs), -lag.min_potential()))

    def coercivity(self):
        return self._coercivity

