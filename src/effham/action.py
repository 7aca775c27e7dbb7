"""Minimal-action kernels on covers and the variational HJ solvers.

Three layers:

* ``minimal_action_graph``/``minimal_action_torus``: the two-point
  action over a fixed horizon.  Graphs reduce exactly to finitely many
  edge-traversal multisets, kept per cover by their deck-invariant sheet
  change; a ``_GraphPlan`` fixes those of many starts, and its ``price``
  splits their time by ``allocate_time`` (horizon per row), which also
  gives graph beta in ``mather``.  The circle descends midpoint chains (C, N+1)
  with segment-doubling refinement: ``_chain_terms`` prices each chain's
  action, gradient and exact tridiagonal Hessian, and ``_descend`` runs
  damped Newton on them over chains in lockstep, factoring the live
  chains as one system in one LAPACK ``ptsv`` call.  A 2-torus is free
  (config load admits no other), so its action is the exact quadratic
  (x - y).A^{-1}.(x - y)/(2T) and no path is searched.
* ``lax_oleinik_many``: the rescaled cover solution at many queries, an
  infimum of f(eps * G(y)) + eps * action over starting points y (f the
  limit datum, G the cover's coordinate map) in the translate cells of G
  that ``_search_cells`` certifies; ``lax_oleinik`` is its one-query case.
  One sweep, ``_sweep``, prices items in lower-bound order, in blocks,
  until the bound passes the incumbent: on graphs the cells' mesh starts,
  exactly, one plan a block; on tori the cells at their least straight-path
  (a skew plane's exact) cost, which keep the mesh lifts no cell bound rules
  out, then those lifts: exactly on the plane, on the circle on coarse chains
  whose lowest few are re-priced in full.  The winner is polished: on
  graphs by golden-section searches along its edges, every query's in
  one lockstep search over one plan; on the circle by one more descent
  with its start node free; on the plane by ``_nelder_mead``.
* ``hopf_lax``: the limit solution on homology space, an inf-convolution
  against t * beta((h - q)/t) over a certified compact box, its seed grid
  priced by one ``value_many`` call and its best node polished by
  ``_nelder_mead``, which ``mather.LegendreDual`` shares in 2-D.

Both searches are cut off by the same quadratic-growth certificate
(``_reach``): a start too far away pays more action than the datum can
give back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidityError, SolverError
from .model import GraphLagrangian, TorusHamiltonian, _proved_range, _torus_grid
from .topology import (CoverPoint, _ball_axes, _ball_nodes, _edge_flow, _grid,
                       _norm_rows, dual_norm_value, norm_value)


class InitialDatum:
    """Limit-space initial datum with linear-growth certificates.

    Families: affine p.h + c; cone slope*|h - center| + c (slope >= 0)
    in its cover's measuring norm (l1 on graphs, l2 on tori); quadratic
    h.Q.h/2 + p.h + c with Q positive semidefinite.  Growth constants
    (A, B) certify f(h) >= -A|h| - B in a requested norm.  B is -c and
    may be negative: the search windows add it to an incumbent that
    already holds +c, so a constant added to the datum leaves them where
    they are.
    """

    def __init__(self, kind, *, p=None, c=0.0, slope=0.0, center=None,
                 q_matrix=None, cone_norm="l1"):
        self.kind = kind
        self.c = float(c)
        self.p = None if p is None else np.atleast_1d(np.asarray(p, dtype=float))
        self.q_matrix = None
        if q_matrix is not None:
            # h.Q.h/2 reads only the symmetric part of Q, and the gradient
            # is that part times h
            q = np.atleast_2d(np.asarray(q_matrix, dtype=float))
            self.q_matrix = 0.5 * (q + q.T)
        self.center = (None if center is None
                       else np.atleast_1d(np.asarray(center, dtype=float)))
        self.slope = float(slope)
        self.cone_norm = cone_norm
        if kind == "affine":
            if self.p is None:
                raise ValueError("affine datum needs a slope vector")
        elif kind == "cone":
            if self.slope < 0.0:
                raise ValueError("cone slope must be nonnegative")
        elif kind == "quadratic":
            if self.q_matrix is None:
                raise ValueError("quadratic datum needs a matrix")
            if self.p is None:
                self.p = np.zeros(self.q_matrix.shape[0])
            w = np.linalg.eigvalsh(self.q_matrix)
            if w[0] < -1e-12:
                raise ValueError("quadratic datum matrix must be positive semidefinite")
            self._qmax = float(w[-1])
        else:
            raise ValueError(f"unknown datum kind {kind!r}")

    @staticmethod
    def affine(p, c: float = 0.0) -> "InitialDatum":
        return InitialDatum("affine", p=p, c=c)

    @staticmethod
    def cone(slope: float, center=None, c: float = 0.0, norm: str = "l1",
             dim: int = 1) -> "InitialDatum":
        return InitialDatum("cone", slope=slope,
                            center=np.zeros(dim) if center is None else center,
                            c=c, cone_norm=norm)

    @staticmethod
    def quadratic(q_matrix, p=None, c: float = 0.0) -> "InitialDatum":
        return InitialDatum("quadratic", q_matrix=q_matrix, p=p, c=c)

    def value(self, h) -> float:
        return float(self.value_many(np.atleast_2d(h))[0])

    def value_many(self, hs: np.ndarray) -> np.ndarray:
        """Values at the rows of hs (m, n), each row alone (p.h column by
        column, h.Q.h by ``np.vecdot``); ``value`` is the one-row case."""
        hs = np.atleast_2d(np.asarray(hs, dtype=float))
        if self.kind == "cone":
            return self.slope * _norm_rows(hs - self.center, self.cone_norm) + self.c
        lin = hs[:, 0] * self.p[0]
        for j in range(1, hs.shape[1]):
            lin += hs[:, j] * self.p[j]
        if self.kind == "affine":
            return lin + self.c
        return (0.5 * np.vecdot(hs, np.vecdot(hs[:, None, :], self.q_matrix))
                + lin + self.c)

    def gradient(self, h):
        """Gradient where smooth; zero at the tip of a cone."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if self.kind == "affine":
            return self.p.copy()
        if self.kind == "quadratic":
            return self.q_matrix @ h + self.p
        d = h - self.center
        if self.cone_norm == "l1":
            return self.slope * np.sign(d)
        r = float(np.linalg.norm(d))
        if r < 1e-12:
            return np.zeros_like(d)
        return self.slope * d / r

    def hessian(self, h):
        """Hessian on the circle, the joint polish's, where a cone is linear
        off its tip and only a quadratic curves."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if self.kind == "quadratic":
            return self.q_matrix.copy()
        return np.zeros((h.size, h.size))

    def growth_constants(self, norm: str):
        """(A, B) with f(h) >= -A|h|_norm - B for all h."""
        # the cone and quadratic terms are nonnegative, so every family sits
        # above c (cone) or p.h + c (affine, quadratic)
        a = 0.0 if self.kind == "cone" else dual_norm_value(self.p, norm)
        return a, -self.c

    def lipschitz_bound(self, radius: float, norm: str) -> float:
        """Lipschitz constant of f in |.|_norm (the cover's, which a cone
        measures in too) over the ball of that radius; |v|_2 <= |v|_1, so
        the quadratic's l2 gradient bound holds in l1 as well."""
        if self.kind == "affine":
            return dual_norm_value(self.p, norm)
        if self.kind == "cone":
            return self.slope
        return self._qmax * radius + float(np.linalg.norm(self.p))


# ---------------------------------------------------------------------------
# graph actions: time allocation over traversal multisets


# shared-energy Newton: a row has converged once its step is below this
# share of sigma (the error after a step is at most 1.5 step^2 / sigma,
# since |sigma * tau''| <= 3 tau'), and the cap past which a row is an error
_SIGMA_RTOL = 1e-8
_NEWTON_CAP = 100


def _travel(sig, lens, off2):
    """(radicand 1 + 2 off sigma^2, lengths over its root, travel time) of
    every row, with off2 twice the offsets."""
    rad = off2 * (sig * sig)[:, None] + 1.0
    per_sigma = lens / np.sqrt(rad)
    return rad, per_sigma, per_sigma.sum(axis=1) * sig


def allocate_time(lengths, potentials, total_time, rest):
    """Price the shared-energy split of every row of run lengths at once.

    Row i runs lengths[i, e] at potential potentials[e] (entries up to
    1e-140 count as absent) within its horizon total_time[i] (a scalar is
    every row's) and may rest at rate rest[i] for whatever time is left.
    All runs of a row share one energy level E, the Lagrange multiplier of
    the time constraint.  With V0 the row's cheapest run potential,
    off_e = V_e - V0 and sigma = 1/sqrt(2 (E + V0)), a run of length l takes
    l * sigma / sqrt(1 + 2 off_e sigma^2) and costs
    l * (sigma (V_e + off_e) + 1 / (2 sigma)) / sqrt(1 + 2 off_e sigma^2).

    A rest rate below V0 pins E at -rest, which is the answer when the
    runs then fit into the horizon.  Otherwise sigma is the root of
    travel time = total_time.  Travel time is concave and increasing in
    sigma and sigma0 = total_time / sum(l) sits left of the root, so
    Newton's iterates rise monotonically to it.  Each row stops on its own
    step test, so its cost does not depend on the rest of the batch.
    Returns the costs (m,).
    """
    lens = np.atleast_2d(np.asarray(lengths, dtype=float))
    total_time = np.broadcast_to(np.asarray(total_time, dtype=float), lens.shape[:1])
    if not np.all(total_time > 0.0):
        raise ValueError("total_time must be positive")
    pots = np.asarray(potentials, dtype=float)
    rest = np.asarray(rest, dtype=float)
    used = lens > 1e-140
    lens = np.where(used, lens, 0.0)
    moving = used.any(axis=1)
    floor = np.where(moving, np.where(used, pots, np.inf).min(axis=1), 0.0)
    off = np.where(used, pots - floor[:, None], 0.0)
    off2 = off + off
    v_rest = np.minimum(rest, floor)

    gap = floor - v_rest
    sig = 1.0 / np.sqrt(2.0 * np.where(gap > 0.0, gap, 0.5))
    t_rest = _travel(sig, lens, off2)[2]
    resting = moving & (gap > 0.0) & (t_rest <= total_time)
    solve = np.flatnonzero(moving & ~resting)
    if solve.size:
        s_lens, s_off2, s_time = lens[solve], off2[solve], total_time[solve]
        s_sig = s_time / s_lens.sum(axis=1)
        live = np.arange(solve.size)
        for _ in range(_NEWTON_CAP):
            rad, per_sigma, tau = _travel(s_sig[live], s_lens[live], s_off2[live])
            step = (s_time[live] - tau) / (per_sigma / rad).sum(axis=1)
            # a step that rounding turns negative means the root is reached
            s_sig[live] += np.maximum(step, 0.0)
            live = live[~(step <= _SIGMA_RTOL * s_sig[live])]
            if not live.size:
                break
        else:
            raise SolverError("time allocation did not converge")
        sig[solve] = s_sig

    sig = sig[:, None]
    run_cost = (lens * (sig * (pots + off) + 0.5 / sig)
                / np.sqrt(off2 * (sig * sig) + 1.0)).sum(axis=1)
    rest_cost = np.where(resting, (total_time - t_rest) * v_rest, 0.0)
    return np.where(moving, run_cost + rest_cost, rest * total_time)


def _multisets(graph, va: int, vb: int, dz: tuple):
    """Traversal multisets of walks from vertex va to vertex vb that change
    sheets by dz, as (run lengths (n, |E|), visited vertices (n, |V|)).

    Every such walk has the net flow m of ``_edge_flow`` and crosses edge
    e |m_e| + 2 c_e times for some c_e >= 0.  The candidates are
    |m| + 2c for c in {0, 1}^|E|, and they are exact by three facts:

    * ``allocate_time``'s cost increases in every run length;
    * a traversal multiset is a walk from va to vb when its support is
      connected through va, since an extra pair is one traversal each way
      and leaves the in/out balance of the net flow;
    * the visited vertices, and so the rest rate, depend only on the
      support.

    So a count c_e >= 2 is beaten by min(c_e, 1): same support, so still
    a walk with the same rest rate, and shorter runs.  Likewise a walk c
    is beaten by any walk c' < c that visits the same vertices, and one
    pair test finds every such c: c less any one pair in c - c' still
    holds the support of c', which is connected through va and spans
    those vertices, and adds only edges between them, so it is a walk
    visiting them too.  The rows kept are the walks from which no one
    extra pair can be dropped with the same vertices still reached from
    va (the smaller row is then a walk, since c's edges join only those
    vertices); every row dropped is beaten by a kept one, so the least
    cost survives.  The all-ones c uses every edge of the connected
    graph, so every key has a multiset; and when va != vb the net flow
    already runs a tree path, so no row is empty.  By deck invariance the
    multisets depend on the sheets only through dz, so a cover keeps one
    read-only build per key.
    """
    n_edges = len(graph.edges)
    m = _edge_flow(graph, dz, va, vb)
    m_int = np.round(m).astype(int)
    if np.max(np.abs(m - m_int)) > 1e-9:
        raise SolverError("non-integral edge flow")
    # extras in nested-loop order, first edge slowest: clearing bit e of
    # row i gives row i - 2^(|E| - 1 - e)
    extras = _grid([np.arange(2)] * n_edges)
    counts = np.abs(m_int) + 2 * extras
    used = counts > 0
    ends = np.zeros((n_edges, graph.n_vertices), dtype=int)
    for e, (u, v, _) in enumerate(graph.edges):
        ends[e, [u, v]] = 1
    seen = np.zeros((len(counts), graph.n_vertices), dtype=bool)
    seen[:, va] = True
    for _ in range(graph.n_vertices - 1):
        grown = seen | ((used & (seen @ ends.T > 0)) @ ends > 0)
        if np.array_equal(grown, seen):
            break
        seen = grown
    # connected through va when every used edge is reached; vb is then
    # reached too, on a used edge when va != vb
    walk = ~(used & (seen @ ends.T == 0)).any(axis=1)
    # each row's visited vertices as the bits of one integer
    visits = seen @ (1 << np.arange(graph.n_vertices))
    less = np.arange(len(counts))[:, None] - 2 ** np.arange(n_edges)[::-1]
    beaten = (extras == 1) & (visits[less] == visits[:, None])
    keep = walk & ~beaten.any(axis=1)
    out = counts[keep] * graph.lengths, seen[keep]
    for arr in out:
        arr.flags.writeable = False
    return out


class _GraphPlan:
    """Exact two-point actions on a graph cover from C starts y to their
    targets x (``GraphCover._attachments`` rows, one target row for all or
    one per start): what those fix, then ``price`` at offsets along them.

    The action of a path depends on its edge-traversal multiset only, so
    the infimum is a finite minimum over the ``_multisets`` of every pair
    of endpoints through which y and x are reached, with their partial
    edges added to their own edge's run (same potential, so the same
    travel time and cost), plus the direct path when both lie on one edge
    of one sheet.  Each multiset may rest at the cheapest vertex it
    visits; every run touches such a vertex, so no run potential is
    cheaper.  The plan groups the endpoint pairs of all starts by multiset
    key and gathers their rows, rest rates and offset columns in one take;
    every key has a multiset, so no start's minimum is over an empty set.
    """

    def __init__(self, lagrangian: GraphLagrangian, cover, starts, targets):
        graph, pots = cover.graph, lagrangian.potentials
        vertex_rate = np.array([min(pots[e] for e, _ in inc) for inc in graph.incident])
        verts, sheets, offs, self.edges = starts
        x_verts, x_sheets, x_offs, x_edges = (np.broadcast_to(a, (len(verts),) + a.shape[1:])
                                              for a in targets)
        # endpoint pairs (start, its attachment, its target's), starts in order
        c, i, j = np.nonzero(np.isfinite(offs)[:, :, None] & np.isfinite(x_offs)[:, None, :])
        keys = np.column_stack([verts[c, i], x_verts[c, j], x_sheets[c, j] - sheets[c, i]])
        index = {}
        inv = np.array([index.setdefault(tuple(k), len(index))
                        for k in keys.astype(int).tolist()])
        for key in index:
            if key not in cover._multisets:
                cover._multisets[key] = _multisets(graph, key[0], key[1], key[2:])
        runs, visited = zip(*map(cover._multisets.get, index))
        key_first = np.cumsum([0] + [len(r) for r in runs])
        rows = np.diff(key_first)[inv]
        first = np.cumsum(rows) - rows
        # stacked row r of pair p is row r - first[p] of its key's multisets
        take = np.arange(rows.sum()) + np.repeat(key_first[inv] - first, rows)
        pair = np.repeat(np.arange(inv.size), rows)
        self.runs = np.concatenate(runs)[take]
        self.rests = np.where(np.concatenate(visited), vertex_rate, np.inf).min(axis=1)[take]
        # each row's start and the attachment it leaves by; a vertex's
        # offset 0 lands on any column unchanged
        self.start, self.via = c[pair], i[pair]
        self.col, self.x_col = (np.maximum(e, 0)[self.start] for e in (self.edges, x_edges))
        self.x_off = x_offs[c, j][pair]
        # direct rows within one edge of one sheet (never touch a vertex)
        self.direct = np.flatnonzero((self.edges >= 0) & (self.edges == x_edges)
                                     & np.all(sheets[:, 0] == x_sheets[:, 0], axis=1))
        self.x_inside, self.pots = x_offs[:, 0], pots

    def price(self, offs, horizon, live):
        """Actions of the starts ``live`` (ascending) at attachment offsets
        offs (C, 2) over their horizons (C,): every row of those starts in
        one ``allocate_time`` call, then each one's least."""
        mask = np.zeros(len(offs), dtype=bool)
        mask[live] = True
        r, d = np.flatnonzero(mask[self.start]), self.direct[mask[self.direct]]
        lengths, start = self.runs[r], self.start[r]
        lengths[np.arange(r.size), self.col[r]] += offs[start, self.via[r]]
        lengths[np.arange(r.size), self.x_col[r]] += self.x_off[r]
        inside = np.zeros((d.size, lengths.shape[1]))
        inside[np.arange(d.size), self.edges[d]] = np.abs(self.x_inside[d] - offs[d, 0])
        costs = allocate_time(np.concatenate([lengths, inside]), self.pots,
                              np.concatenate([horizon[start], horizon[d]]),
                              np.concatenate([self.rests[r], self.pots[self.edges[d]]]))
        out = np.minimum.reduceat(costs[:r.size], np.searchsorted(start, live))
        np.minimum.at(out, np.searchsorted(live, d), costs[r.size:])
        return out


def _graph_actions(lagrangian: GraphLagrangian, cover, starts, x: CoverPoint,
                   horizon: float) -> np.ndarray:
    """One ``_GraphPlan`` from C starts (``GraphCover._attachments``) to x."""
    n = len(starts[2])
    return _GraphPlan(lagrangian, cover, starts, cover._attachments([x])).price(
        starts[2], np.full(n, horizon), np.arange(n))


def minimal_action_graph(lagrangian: GraphLagrangian, cover, y: CoverPoint,
                         x: CoverPoint, horizon: float) -> float:
    """Exact two-point action on a graph cover: ``_graph_actions`` for the
    one start y."""
    return float(_graph_actions(lagrangian, cover, cover._attachments([y]),
                                x, horizon)[0])


# ---------------------------------------------------------------------------
# torus actions: piecewise-linear trajectory descent on the circle


def _chain_inits(y_lift: float, x_lift: float, n_segments: int):
    """The straight chain y_lift -> x_lift and its bends by +-0.35 sin(pi s)."""
    frac = np.linspace(0.0, 1.0, n_segments + 1)
    straight = y_lift + frac * (x_lift - y_lift)
    hump = np.sin(math.pi * frac)
    return [straight] + [straight + amp * hump for amp in (0.35, -0.35)]


def _chain_terms(model: TorusHamiltonian, dt: float, q: np.ndarray,
                 a_const=None):
    """Action (C,), gradient (C, N+1) and exact tridiagonal Hessian of C
    midpoint chains q (C, N+1) on the circle: its diagonal (C, N+1) and
    the entries (C, N) that couple node i to node i+1.  Every chain solve
    prices its chains here; ``a_const`` is ``model.constant_kinetic()``
    (``_descend`` reads it once).

    Segment i costs dt L(m, v) = dt (v w/2 - V(m)) with v = d/dt,
    d = q[i+1] - q[i], m = (q[i] + q[i+1])/2 and w = v/a(m).  As
    q[i+1] = m + d/2 and q[i] = m - d/2, node i+1 takes w + dt L_m/2 and
    node i takes -w + dt L_m/2 of the gradient, with
    L_m = -w^2 a'(m)/2 - V'(m).  For the Hessian write the segment as
    L(d, m) = d^2/(2 a(m) dt) - dt V(m): nodes i+1 and i take
    L_dd +- L_dm + L_mm/4, and their coupling is -L_dd + L_mm/4.
    """
    shape = (q.shape[0], q.shape[1] - 1)
    d = q[:, 1:] - q[:, :-1]
    vv = d / dt
    flat = (0.5 * (q[:, 1:] + q[:, :-1])).reshape(-1, 1)
    pot, gv, l_mm = (t.reshape(shape) for t in model.v.gradient_many(flat))
    l_mm = -dt * l_mm
    if a_const is None:
        a, a1, a2 = (t.reshape(shape) for t in
                     model.a_entries[0].gradient_many(flat))
        w = vv / a
        dmid = -0.5 * w * w * a1 - gv
        phi, phi1 = 1.0 / a, -a1 / (a * a)
        phi2 = (2.0 * a1 * a1 - a * a2) / (a * a * a)
        l_dd, l_dm = phi / dt, d * phi1 / dt
        l_mm += 0.5 * d * d * phi2 / dt
    else:
        # a' = a'' = 0: every term dropped here is an exact +-0
        w = vv / a_const[0, 0]
        dmid = -gv
        l_dd, l_dm = 1.0 / a_const[0, 0] / dt, 0.0
    act = dt * np.sum(0.5 * vv * w - pot, axis=1)
    grad = np.zeros(q.shape)
    side = 0.5 * dt * dmid
    grad[:, 1:] += w + side
    grad[:, :-1] += -w + side
    quarter = 0.25 * l_mm
    diag = np.zeros(q.shape)
    diag[:, 1:] += l_dd + l_dm + quarter
    diag[:, :-1] += l_dd - l_dm + quarter
    # -L_dd + (L_dm - L_dm)/2 + L_mm/4, the middle term an exact +0
    return act, grad, diag, -l_dd + 0.0 + quarter


def _damped_steps(diag, off, mu, grad):
    """Steps -(H + mu I)^{-1} g of C chains (H tridiagonal with diagonal
    diag (C, M) and off-diagonal off (C, M - 1), g (C, M)) and the mask of
    those whose H + mu I is positive definite.

    All chains go to LAPACK's ``ptsv`` as one tridiagonal system, factored
    as L D L^T.  A coupling between chains is 0, so every pivot, and every
    step, is that of the chain's own system, bit for bit.  A pivot that is
    not positive stops the call in some chain c: the chains before it are
    factored, so ``pttrs`` solves them on that prefix of the factors, c is
    marked, and the call restarts on the chain after c.
    """
    from scipy.linalg.lapack import dptsv, dpttrs
    chains, size = diag.shape
    b = -grad.ravel()
    d = (diag + mu[:, None]).ravel()
    e = np.concatenate([off, np.zeros((chains, 1))], axis=1).ravel()[:-1]
    ok = np.ones(chains, dtype=bool)
    lo = 0
    while lo < b.size:
        fd, fe, x, info = dptsv(d[lo:], e[lo:], b[lo:], overwrite_d=1,
                                overwrite_e=1, overwrite_b=1)
        if info < 0:
            raise ValueError(f"LAPACK rejected argument {-info}")
        if info == 0:
            b[lo:] = x
            break
        # the chains in rows lo:lo + k are factored, and the next one failed
        k = (lo + info - 1) // size * size - lo
        if k:
            b[lo:lo + k] = dpttrs(fd[:k], fe[:k - 1], b[lo:lo + k])[0]
        ok[(lo + k) // size] = False
        lo += k + size
    return b.reshape(chains, size), ok


def _objective(model, dt, q, start, a_const):
    """Value (C,), gradient and Hessian (``_chain_terms``' layout) of C
    chains q: the chain action, or with start = (datum, eps) the joint
    value datum(eps q0) + eps * action."""
    act, grad, diag, off = _chain_terms(model, dt, q, a_const)
    if start is None:
        return act, grad, diag, off
    datum, eps = start
    h0 = eps * q[:, :1]
    grad, diag, off = eps * grad, eps * diag, eps * off
    grad[:, 0] += eps * np.array([datum.gradient(h)[0] for h in h0])
    diag[:, 0] += eps * eps * datum.hessian(h0[0])[0, 0]
    return datum.value_many(h0) + eps * act, grad, diag, off


# chain descent: the free-node gradient test, the iteration cap, and the
# first Levenberg damping as a share of the largest Hessian diagonal entry
_DESCENT_GTOL = 1e-11
_DESCENT_CAP = 2000
_DESCENT_TAU = 1e-3


def _descend(model: TorusHamiltonian, horizon: float, chains, start=None):
    """Minimal midpoint values over the horizon from C starting chains
    (C, N+1) on the circle, descended in lockstep by damped Newton;
    returns (values (C,), descended chains, mask of the chains that hit
    the iteration cap).

    Without ``start`` both end nodes are fixed and the value is the chain
    action.  With start = (datum, eps) the first node is free as well and
    the value is datum(eps q0) + eps * action, the joint polish of
    ``_lax_torus``; its Hessian adds eps^2 ``InitialDatum.hessian`` at q0.

    One iteration factors H + mu I of every live chain in one LAPACK call
    (``_damped_steps``) and steps by the solution.  A chain whose
    factorisation fails, H + mu I not being positive definite, only raises
    its damping mu; a step is kept when it lowers the value, and mu
    follows the ratio of the actual to the predicted decrease (Nielsen's
    rule).  A chain stops once its free-node gradient is at most
    _DESCENT_GTOL, or once a rejected step predicted a decrease below
    rounding, and is then written out and dropped: the state holds the
    live chains only, so every chain's iterates are those it has alone.
    A constant A is read once.
    """
    q = np.array(chains, dtype=float)
    dt = horizon / (q.shape[1] - 1)
    free = slice(1 if start is None else 0, -1)
    a_const = model.constant_kinetic()
    val, grad, diag, off = _objective(model, dt, q, start, a_const)
    out_val, out_q = val, q
    capped = np.zeros(q.shape[0], dtype=bool)
    floor = _DESCENT_TAU * np.abs(diag[:, free]).max(axis=1)
    live = np.abs(grad[:, free]).max(axis=1) > _DESCENT_GTOL
    ids = np.flatnonzero(live)
    q, val, grad, diag, off, floor = (x[live] for x in
                                      (q, val, grad, diag, off, floor))
    mu, nu = np.zeros(ids.size), np.full(ids.size, 2.0)
    for _ in range(_DESCENT_CAP):
        if not ids.size:
            break
        g = grad[:, free]
        step, ok = _damped_steps(diag[:, free], off[:, free], mu, g)
        kept, done = np.zeros(ids.size, dtype=bool), np.zeros(ids.size, dtype=bool)
        if ok.any():
            # the chains that factored: all of them as a slice, or an index
            sel = slice(None) if ok.all() else np.flatnonzero(ok)
            p = step[sel]
            trial = q[sel].copy()
            trial[:, free] += p
            t_val, t_grad, t_diag, t_off = _objective(model, dt, trial, start,
                                                      a_const)
            pred = 0.5 * (p * (mu[sel, None] * p - g[sel])).sum(axis=1)
            stalled = pred <= 1e-15 * np.maximum(1.0, np.abs(val[sel]))
            gain = (val[sel] - t_val) / pred
            keep = gain > 0.0
            small = np.abs(t_grad[:, free]).max(axis=1) <= _DESCENT_GTOL
            kept[sel], done[sel] = keep, np.where(keep, small, stalled)
            if kept.all():
                q, val, grad, diag, off = trial, t_val, t_grad, t_diag, t_off
            else:
                q[kept], val[kept], grad[kept] = trial[keep], t_val[keep], t_grad[keep]
                diag[kept], off[kept] = t_diag[keep], t_off[keep]
            mu[kept] *= np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain[keep] - 1.0) ** 3)
            nu[kept] = 2.0
        if not kept.all():
            bump = ~kept
            mu[bump] = np.maximum(mu[bump] * nu[bump], floor[bump])
            nu[bump] *= 2.0
        if done.any():
            out_val[ids[done]], out_q[ids[done]] = val[done], q[done]
            rest = ~done
            ids, q, val, grad, diag, off, mu, nu, floor = (
                x[rest] for x in (ids, q, val, grad, diag, off, mu, nu, floor))
    out_val[ids], out_q[ids], capped[ids] = val, q, True
    return out_val, out_q, capped


def _refine_nodes(nodes: np.ndarray) -> np.ndarray:
    """The chain with every segment halved at its midpoint."""
    m = nodes.size
    return np.interp(np.linspace(0.0, 1.0, 2 * (m - 1) + 1),
                     np.linspace(0.0, 1.0, m), nodes)


def _auto_segments(horizon: float) -> int:
    return int(min(1024, max(64, 16 * math.ceil(horizon))))


# segment doubling stops once the action moves by less than _ACTION_TOL,
# or at _MAX_SEGMENTS even if the action is still moving
_ACTION_TOL = 1e-7
_MAX_SEGMENTS = 2048


def _minimal_actions_torus(model: TorusHamiltonian, pairs, horizon: float):
    """``minimal_action_torus`` of K pairs (y_lift, x_lift) over one
    horizon, in lockstep: one ``_descend`` over the starting chains of
    every pair, then one per doubling level over the pairs still moving,
    each of which stops on its own test.  The pairs share the horizon, so
    at each level they share the chain length, and ``_descend`` gives each
    chain the iterates it has alone: every result is that pair's lone
    solve, bit for bit.  Checks the horizon and the dimension once per
    batch; returns one (action, nodes, capped count) per pair, [] for no
    pair."""
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if model.n != 1:
        raise ModelValidityError("torus chains run on the circle only; a free "
                                 "2-torus prices its exact quadratic action")
    if not pairs:
        return []
    n = _auto_segments(horizon)
    starts = [_chain_inits(*(np.asarray(p, dtype=float).item() for p in pair), n)
              for pair in pairs]
    vals, chains, capped = _descend(model, horizon, sum(starts, []))
    per = len(starts[0])
    firsts = per * np.arange(len(pairs)) + np.argmin(vals.reshape(-1, per), axis=1)
    best = [(float(vals[j]), chains[j], int(capped[j])) for j in firsts]
    moving = list(range(len(pairs)))
    while n < _MAX_SEGMENTS and moving:
        n *= 2
        vals, chains, capped = _descend(model, horizon, [_refine_nodes(best[k][1])
                                                         for k in moving])
        still = [k for k, val in zip(moving, vals)
                 if not abs(best[k][0] - val) < _ACTION_TOL]
        for k, val, nodes, hit in zip(moving, vals, chains, capped):
            best[k] = (float(val), nodes, best[k][2] + int(hit))
        moving = still
    return best


def minimal_action_torus(model: TorusHamiltonian, y_lift, x_lift, horizon: float):
    """Two-point action on the R cover of the circle by trajectory descent.

    Piecewise-linear chains with midpoint quadrature, ``_descend`` from a
    straight line plus deterministic sinusoidal perturbations as one
    batch, then segment doubling of the best chain until the action
    changes by less than ``_ACTION_TOL`` or the count reaches
    ``_MAX_SEGMENTS``.  The midpoint error is O(dt^2), so a doubling moves
    the action by about a quarter of the previous move, and every pendulum
    solve runs to ``_MAX_SEGMENTS`` and returns that chain's
    discretisation error.  Returns (action, nodes of the best chain,
    number of capped descents whose value is read: the best starting chain
    and each doubling).  A 2-torus raises ModelValidityError, as
    ``_lax_torus`` prices the free one exactly.  This is the one-pair case
    of ``_minimal_actions_torus``, which solves many pairs in lockstep.
    """
    return _minimal_actions_torus(model, [(y_lift, x_lift)], horizon)[0]


# ---------------------------------------------------------------------------
# search windows


def _reach(lin: float, c: float) -> float:
    """Largest r with r^2 - 2*lin*r - c <= 0 (zero when there is none)."""
    return lin + math.sqrt(max(0.0, lin * lin + c))


def _search_cells(cover, datum, quad: float, drift: float, g, t: float,
                  eps: float, incumbent: float):
    """Certified region of a Lax-Oleinik search at a point with G image g:
    (window, cells (m, k), cell_low (m,)).

    A start y at cover distance d costs at least low(y) = f(eps G(y))
    + (eps d)^2/(2*quad*t) - drift*t, and |G(y) - g| <= k0*d with k0 =
    ``g_lipschitz`` (1 on a torus).  As f >= -A*(|eps g| + k0*eps*d) - B,
    low(y) passes the incumbent beyond the window D, the root of
    D^2/(2*quad*t) = A*k0*D + incumbent + A*|eps g| + B + drift*t, so G(y)
    is within reach = k0*D/eps of g.  A cell C = z + [0, 1]^k of the box
    |z - floor(g)|_inf <= ceil(reach) + 2 at distance d_los <= reach from g
    has cell_low(C) = f(eps*c) - lip*eps*|1|/2 + (eps*d_los/k0)^2/(2*quad*t)
    - drift*t <= low(y) for each y with G(y) in C: |G(y) - c| <= |1|/2 (c
    the centre, |1| the diameter), d >= d_los/k0, and lip is the datum's
    Lipschitz bound on the radius |eps g| + k0*D + eps*|1|, which holds
    eps*G(y) and eps*c.  Only cells with cell_low within 1e-12 of the
    incumbent are kept, in box order: a sweep whose incumbent only falls
    never reaches the others.
    """
    k0 = cover.g_lipschitz()
    h_norm = norm_value(eps * g, cover.norm)
    a_slope, b_const = datum.growth_constants(cover.norm)
    budget = incumbent + a_slope * h_norm + b_const + drift * t
    window = _reach(quad * t * a_slope * k0, 2.0 * quad * t * budget)
    reach = k0 * window / eps
    cell_diam = norm_value(np.ones(g.size), cover.norm)
    lip = datum.lipschitz_bound(h_norm + k0 * window + eps * cell_diam,
                                cover.norm)
    box = math.ceil(reach) + 2
    cells = np.floor(g).astype(int) + _grid([np.arange(-box, box + 1)] * g.size)
    gaps = np.maximum(np.maximum(cells - g, g - (cells + 1.0)), 0.0)
    d_los = _norm_rows(gaps, cover.norm)
    cells, d_los = cells[d_los <= reach], d_los[d_los <= reach]
    cell_low = (datum.value_many(eps * (cells + 0.5))
                - lip * eps * cell_diam / 2.0
                + (eps * d_los / k0) ** 2 / (2.0 * quad * t) - drift * t)
    keep = cell_low <= incumbent + 1e-12
    return window, cells[keep], cell_low[keep]


# ---------------------------------------------------------------------------
# Lax-Oleinik on covers


@dataclass
class LaxResult:
    value: float
    minimizer_g: np.ndarray
    window: float
    candidates: int
    evaluated: int
    diagnostics: dict = field(default_factory=dict)


# candidates priced at once by a sweep, and the circle screen's survivors
# re-priced at full resolution
_SCREEN_BLOCK = 128
_N_TOP = 6


def _sweep(order, lower, incumbent, price):
    """Screened sweep of the candidates in ``order`` (ascending ``lower``
    bounds) against a running incumbent.  ``price(block)`` prices up to
    _SCREEN_BLOCK of them at once, NaN for one skipped uncounted, and the
    block is replayed in order, so the break, the count and the updates
    are those of a one-by-one sweep.  Returns (incumbent, best candidate
    or None, (total, candidate) of each priced one in sweep order)."""
    best, scored = None, []
    for start in range(0, order.size, _SCREEN_BLOCK):
        # a prefix of the block, since ``order`` sorts ``lower``
        block = order[start:start + _SCREEN_BLOCK]
        block = block[lower[block] <= incumbent + 1e-12]
        for idx, total in zip(block, price(block) if block.size else ()):
            if lower[idx] > incumbent + 1e-12:
                return incumbent, best, scored
            if not np.isnan(total):
                scored.append((total, idx))
                if total < incumbent:
                    incumbent, best = total, idx
        if block.size < _SCREEN_BLOCK:
            break
    return incumbent, best, scored


def _lax_torus(cover, model, datum, x, t, eps, mesh):
    """Torus cover solution: the stay at x, ``_sweep`` over the cells of
    ``_search_cells`` at the least straight-path cost f(eps*y) + (eps*d)^2
    /(2*amin*t) - vmin*t of their mesh lifts y (d = |y - x|), ``_sweep`` over
    the lifts they keep, and the polish.  A lift's low (quad = amax, drift =
    vmax) is at least its cell's cell_low; a candidate has d <= window/eps.

    On the circle the lifts are priced on coarse chains that ``_descend``
    runs in lockstep, the six best re-priced in full by one
    ``_minimal_actions_torus`` call, and the winner's chain descends once
    more with its start node free.  A 2-torus must be free
    (``TorusHamiltonian.free_kinetic``, else ModelValidityError): its stay
    costs 0, a lift y exactly f(eps*y) + eps*(x - y).A^{-1}.(x - y)/(2T),
    and ``_nelder_mead`` polishes the best lift as ``hopf_lax`` does."""
    horizon = t / eps
    x_lift = cover.lift(x)
    plane = model.n == 2
    if plane and (a_matrix := model.free_kinetic()) is None:
        raise ModelValidityError("a two-dimensional torus needs a constant "
                                 "kinetic matrix and no potential")
    a_inv = np.linalg.inv(a_matrix) if plane else None
    amin, amax = model.kinetic_eig_bounds()
    vmin, vmax = _proved_range(model.v)
    quad, drift = float(amax), float(vmax)

    def plane_action(ys):
        """Action from each row of ys to x on the plane, row by row."""
        d = ys - x_lift
        return np.vecdot(d, np.vecdot(d[:, None, :], a_inv)) / (2.0 * horizon)

    stay, best_nodes, capped = ((0.0, None, 0) if plane else
                                minimal_action_torus(model, x_lift, x_lift, horizon))
    incumbent = datum.value(eps * x_lift) + eps * stay
    best_g = x_lift.copy()

    window, cells, cell_low = _search_cells(cover, datum, quad, drift, x_lift,
                                            t, eps, incumbent)
    reach = window / eps
    n = model.n
    offsets = _torus_grid(n, mesh)

    # kept lifts as parts (lifts, datum values, distances, lower bounds),
    # cut at the least up so far; each cell's mesh offset of least up
    parts = [(np.zeros((0, n)),) + (np.zeros(0),) * 3]
    cell_best = np.zeros(cells.shape[0], dtype=int)
    least = incumbent

    def price_cells(block):
        nonlocal least
        lifts = (cells[block][:, None, :] + offsets[None, :, :]).reshape(-1, n)
        d_c = _norm_rows(lifts - x_lift[None, :], cover.norm)
        f_c = datum.value_many(eps * lifts)
        low_c = f_c + (eps * d_c) ** 2 / (2.0 * quad * t) - drift * t
        up_c = f_c + (eps * d_c) ** 2 / (2.0 * amin * t) - vmin * t
        if plane and amin < amax:  # A = a I keeps its cheaper, already exact bounds
            low_c = up_c = f_c + eps * plane_action(lifts)
        up_c = up_c.reshape(block.size, -1)
        cell_best[block] = np.argmin(up_c, axis=1)
        up_c = up_c.min(axis=1)
        least = min(least, float(up_c.min()))
        keep = (low_c <= least + 1e-9) & (d_c <= reach + 1e-12)
        parts.append((lifts[keep], f_c[keep], d_c[keep], low_c[keep]))
        return up_c

    incumbent, best, _ = _sweep(np.argsort(cell_low, kind="stable"), cell_low,
                                incumbent, price_cells)
    if best is not None:
        best_g = cells[best] + offsets[cell_best[best]]
    merged = [np.concatenate(c) for c in zip(*parts)]
    lifts, f_vals, dist, lower = (c[merged[3] <= incumbent + 1e-9] for c in merged)
    n_candidates = lifts.shape[0]

    # a block's lifts, exactly on the plane, on the circle by coarse straight
    # chains that descend in lockstep; a start at x itself is skipped
    frac = np.linspace(0.0, 1.0, max(32, _auto_segments(horizon) // 4) + 1)

    def price(block):
        nonlocal capped
        moving = dist[block] >= 1e-12
        starts = lifts[block[moving]]
        vals = np.full(block.size, np.nan)
        if plane:
            vals[moving] = plane_action(starts)
        elif moving.any():
            vals[moving], _, hit = _descend(model, horizon,
                                            starts + frac * (x_lift - starts))
            capped += int(hit.sum())
        return f_vals[block] + eps * vals

    incumbent, best, scored = _sweep(np.argsort(lower, kind="stable"), lower,
                                     incumbent, price)
    if best is not None:
        best_g = lifts[best]
    if plane:
        y, fun, _, _ = _nelder_mead(
            lambda y: datum.value(eps * y) + eps * plane_action(y[None])[0],
            _simplex_start(best_g), 1e-10, 1e-12, 4000, 8000)
        if fun < incumbent:
            incumbent, best_g = fun, y
    else:
        scored.sort(key=lambda z: z[0])
        top = [idx for _, idx in scored[:_N_TOP]]
        solves = _minimal_actions_torus(
            model, [(lifts[idx], x_lift) for idx in top], horizon)
        for idx, (val, nodes, n_capped) in zip(top, solves):
            capped += n_capped
            total = f_vals[idx] + eps * val
            if total < incumbent:
                incumbent, best_nodes, best_g = total, nodes, lifts[idx]
        # joint polish: the start node descends with the chain
        polished, chains, hit = _descend(model, horizon, best_nodes[None],
                                         start=(datum, eps))
        capped += int(hit[0])
        if polished[0] < incumbent:
            incumbent, best_g = polished[0], chains[0, :1]
    return LaxResult(value=float(incumbent), minimizer_g=np.asarray(best_g),
                     window=window, candidates=int(n_candidates),
                     evaluated=len(scored),
                     diagnostics={"newton_capped": int(capped)})


def _golden_min(fn, lo, hi, tol):
    """Golden-section searches for the minima of K unimodal functions on
    [lo[k], hi[k]] in lockstep: ``fn(idx, s)`` prices one probe s[j] of each
    live search idx[j] at once (two lists) and returns their values in
    order.  Search k stops once its bracket is at most tol[k] wide; returns
    the midpoints s and fn(s), one per search.  Each search steps its own
    bracket in float64 scalars, so its probes and result are those it has
    alone, bit for bit; a scalar search is the case K = 1."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b, tol = (x.tolist() for x in np.broadcast_arrays(
        *(np.array(v, dtype=float, ndmin=1) for v in (lo, hi, tol))))
    live = list(range(len(a)))
    c = [b[k] - phi * (b[k] - a[k]) for k in live]
    d = [a[k] + phi * (b[k] - a[k]) for k in live]
    fc, fd = list(fn(live, c)), list(fn(live, d))
    while live := [k for k in live if (b[k] - a[k]) > tol[k]]:
        left = [fc[k] < fd[k] for k in live]
        for k, lt in zip(live, left):
            if lt:
                b[k], d[k], fd[k] = d[k], c[k], fc[k]
                c[k] = b[k] - phi * (b[k] - a[k])
            else:
                a[k], c[k], fc[k] = c[k], d[k], fd[k]
                d[k] = a[k] + phi * (b[k] - a[k])
        probes = [c[k] if lt else d[k] for k, lt in zip(live, left)]
        for k, lt, val in zip(live, left, fn(live, probes)):
            (fc if lt else fd)[k] = val
    s = [0.5 * (ak + bk) for ak, bk in zip(a, b)]
    return s, list(fn(list(range(len(s))), s))


def _graph_search(cover, lagrangian, datum, x, t, eps, mesh):
    """Graph cover search at one query: the stay at x and ``_sweep`` over
    the starts (locator, sheet) on the sheets of ``_search_cells``; returns
    (incumbent, best start, window, candidates, evaluated).  A locator's G
    on sheet 0 lies in [0, 1)^k, so sheet z holds cell z."""
    horizon = t / eps
    gx = cover.g_map(x)
    # action >= d^2/(2*quad*T) - drift*T, as L = v^2/2 + V_e on every edge
    quad, drift = 1.0, -lagrangian.min_potential()

    incumbent = datum.value(eps * gx) + eps * minimal_action_graph(
        lagrangian, cover, x, x, horizon)
    best_point = x
    window, sheets, _ = _search_cells(cover, datum, quad, drift, gx, t, eps,
                                      incumbent)

    base_locs, images = cover.base_mesh(mesh)
    rows = np.repeat(images, len(sheets), axis=0) + np.tile(sheets, (len(images), 1))
    f_vals = datum.value_many(eps * rows)
    d_lb = _norm_rows(rows - gx[None, :], cover.norm) / cover.g_lipschitz()
    lower = f_vals + (eps * d_lb) ** 2 / (2.0 * quad * t) - drift * t
    kept = np.flatnonzero(lower <= incumbent + 1e-9)
    f_vals, lower = f_vals[kept], lower[kept]
    loc_of, sheet_of = np.divmod(kept, sheets.shape[0])
    # a locator's attachments on sheet 0 shift with the sheet, and a start
    # at x itself is skipped
    verts, shifts, offs, edges = cover._attachments(
        [CoverPoint(loc, (0,) * cover.deck_rank) for loc in base_locs])
    at_x = np.array([loc == x.base for loc in base_locs])

    def price(block):
        b, z = loc_of[block], sheets[sheet_of[block]]
        starts = (verts[b], shifts[b] + z[:, None], offs[b], edges[b])
        acts = _graph_actions(lagrangian, cover, starts, x, horizon)
        acts[at_x[b] & np.all(z == x.sheet, axis=1)] = np.nan
        return f_vals[block] + eps * acts

    incumbent, best, scored = _sweep(np.argsort(lower, kind="stable"), lower,
                                     incumbent, price)
    if best is not None:
        best_point = CoverPoint(base_locs[loc_of[best]],
                                tuple(int(s) for s in sheets[sheet_of[best]]))
    return [incumbent, best_point, window, int(kept.size), len(scored)]


def _graph_polish(cover, lagrangian, datum, queries, found):
    """Continuous polish of each query's best start (``_graph_search``'s
    ``found``) by golden-section searches along the edges at its vertex,
    or at both ends of its edge: a start within rounding of an end would
    otherwise miss a minimiser across that vertex.  A vertex lists an edge
    once per direction, and the two directions of a loop, a non-tree edge,
    differ in sheet by its nonzero cocycle; the start's own edge, reached
    from both of its ends, is kept once.  The searches of all queries run
    in one lockstep ``_golden_min`` over one ``_GraphPlan``, a step one
    ``allocate_time`` call; each query's incumbent then updates in its
    edge order.  Returns one ``LaxResult`` per query."""
    graph, domains = cover.graph, []
    for q, (_, best, *_) in enumerate(found):
        (kind, at, *_), z0 = best.base, np.array(best.sheet)
        ends = ([(graph.tail(at), z0), (graph.head(at), z0 + graph.cocycles[at])]
                if kind == "e" else [(at, z0)])
        domains += [(q,) + key for key in dict.fromkeys(
            (e, tuple(z - (direction == -1) * graph.cocycles[e]))
            for v, z in ends for e, direction in graph.incident[v])]
    owner, edges = (np.array([d[k] for d in domains]) for k in (0, 1))
    lengths, cocycles = graph.lengths[edges], graph.cocycles[edges]
    sheets = np.array([z for _, _, z in domains], dtype=float)
    scale, horizons = (np.array(v)[owner]
                       for v in zip(*[(eps, t / eps) for _, t, eps in queries]))
    plan = _GraphPlan(lagrangian, cover, cover._attachments(
        [cover.edge_point(e, 0.5 * ln, z) for (_, e, z), ln in zip(domains, lengths)]),
        cover._attachments([queries[q][0] for q in owner]))

    def objective(idx, s):
        # an edge point at s: G = sheet + s/length * cocycle, as ``g_map``
        idx, s = np.array(idx), np.array(s)
        offs = np.zeros((edges.size, 2))
        offs[idx, 0], offs[idx, 1] = s, lengths[idx] - s
        g = sheets[idx] + (s / lengths[idx])[:, None] * cocycles[idx]
        return (datum.value_many(scale[idx, None] * g)
                + scale[idx] * plan.price(offs, horizons, idx))

    s_best, vals = _golden_min(objective, 0.0, lengths, 1e-9 * np.maximum(1.0, lengths))
    for (q, e, z), s, val in zip(domains, s_best, vals):
        if val < found[q][0]:
            found[q][:2] = val, cover.edge_point(e, s, np.array(z))
    return [LaxResult(value=float(val), minimizer_g=cover.g_map(best), window=window,
                      candidates=candidates, evaluated=evaluated)
            for val, best, window, candidates, evaluated in found]


def lax_oleinik_many(cover, lagrangian, datum: InitialDatum, queries,
                     mesh: int = 64) -> list:
    """``lax_oleinik`` at every query (x, t, eps), one ``LaxResult`` each.

    Each query runs its own search, on a torus all of it (the horizons
    differ), on a graph its stay and ``_sweep``; then ``_graph_polish``
    polishes every graph query in one lockstep search.  Every probe and row
    is priced as its query prices it alone, so each result is that query's,
    bit for bit.  A SolverError in one query's search carries its index as
    ``query``."""
    for _, t, eps in queries:
        if t <= 0.0:
            raise ValueError(f"time must be positive, got {t}")
        if eps <= 0.0:
            raise ValueError(f"scale eps must be positive, got {eps}")
    graph, found = cover.family == "graph", []
    for k, (x, t, eps) in enumerate(queries):
        try:
            found.append((_graph_search if graph else _lax_torus)(
                cover, lagrangian, datum, x, t, eps, mesh))
        except SolverError as exc:
            exc.query = k
            raise
    return (_graph_polish(cover, lagrangian, datum, queries, found) if graph and found
            else found)


def lax_oleinik(cover, lagrangian, datum: InitialDatum, x: CoverPoint, t: float,
                eps: float, mesh: int = 64) -> LaxResult:
    """Rescaled cover solution at (x, t): inf over starting points y of
    datum(eps * G(y)) + eps * action(y, x, t/eps), with G the cover's
    coordinate map; the one-query case of ``lax_oleinik_many``.

    Starts live on a base mesh crossed with the translate cells that
    ``_search_cells`` certifies.  The candidates, the starts whose lower
    bound is within 1e-9 of the incumbent their sweep starts from, are
    priced by ``_sweep`` in lower-bound order until the bound passes the
    incumbent, and the winner is polished continuously.  Returns a
    ``LaxResult``: the value, the minimizer's G, the window, the counts of
    candidates and evaluated starts, and tori's solver ``diagnostics``.
    """
    return lax_oleinik_many(cover, lagrangian, datum, [(x, t, eps)], mesh)[0]


# ---------------------------------------------------------------------------
# Hopf-Lax on homology space


def hopf_lax(beta_eval, datum: InitialDatum, h, t: float):
    """Limit solution u(h, t) = min_q datum(q) + t * beta((h - q)/t),
    returned as (u, converged) with the simplex polish's success flag.

    ``beta_eval`` must expose value_many(ws) over rows of rates, value(w)
    its one-row case, its norm ``norm`` (l1 or l2) and coercivity() ->
    (kappa, v_off) certifying beta(w) >= kappa*|w|^2 - v_off in it.  The
    q-window is certified from the datum growth and that coercivity, seeded
    on a grid of 33 rates per axis over the ball of rates it allows (one
    value_many call each for the datum and beta, the first strict best
    kept), and ``_nelder_mead`` polishes the best node; u is the better.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    h = np.atleast_1d(np.asarray(h, dtype=float))
    norm = beta_eval.norm
    a_slope, b_const = datum.growth_constants(norm)
    kappa, v_off = beta_eval.coercivity()

    incumbent = datum.value(h) + t * beta_eval.value(np.zeros_like(h))
    best_q = h.copy()

    budget = incumbent + a_slope * norm_value(h, norm) + b_const + t * v_off
    r_max = _reach(a_slope / (2.0 * kappa), max(0.0, budget) / (t * kappa))

    nodes = _ball_nodes(_ball_axes(r_max, 33, h.size), r_max, norm)
    seeds = h - t * nodes
    vals = datum.value_many(seeds) + t * beta_eval.value_many(nodes)
    best = int(np.argmin(vals))
    if vals[best] < incumbent:
        incumbent, best_q = float(vals[best]), seeds[best]

    _, fun, status, _ = _nelder_mead(
        lambda q: datum.value(q) + t * beta_eval.value((h - q) / t),
        _simplex_start(best_q), 1e-10, 1e-12, 4000, 8000)
    return float(min(incumbent, fun)), status == 0


def _simplex_start(x0: np.ndarray, floor: float = 0.005) -> np.ndarray:
    """Each coordinate in turn moved by 5%, or by 0.00025 at zero or below
    ``floor`` (0: scipy's default start).  ``hopf_lax`` keeps 0.005: a 5%
    move of a tiny coordinate falls under xatol and ends the polish."""
    sim = np.tile(x0, (x0.size + 1, 1))
    for k, q in enumerate(x0):
        sim[k + 1, k] = (1 + 0.05) * q if q != 0 and abs(q) >= floor else q + 0.00025
    return sim


def _nelder_mead(fn, sim, xatol: float, fatol: float, maxiter: int,
                 maxfev: float = math.inf):
    """Minimise ``fn`` from the simplex ``sim`` (N + 1 rows) as scipy 1.17's
    ``_minimize_neldermead`` does without bounds, step for step, down to
    its reorders and its cut before a call past maxfev.  Returns (x, fun,
    status, nfev), status 0 converged, 1 hit maxfev, 2 hit maxiter."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(sim, dtype=float)
    fsim, nfev, it = np.full(len(sim), np.inf), int(min(len(sim), maxfev)), 1
    fsim[:nfev] = [fn(x.copy()) for x in sim[:nfev]]
    ind = np.argsort(fsim)  # scipy reorders twice after the start
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while True:
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        if (nfev >= maxfev or it >= maxiter
                or np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / (len(sim) - 1)
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr, nfev = fn(xr.copy()), nfev + 1
        if fsim[0] <= fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev >= maxfev:  # the step's next call would pass the cap
            continue
        elif fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe, nfev = fn(xe.copy()), nfev + 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        else:
            out = fxr < fsim[-1]  # outside contraction, else inside
            xc = ((1 + psi * rho) * xbar - psi * rho * sim[-1] if out
                  else (1 - psi) * xbar + psi * sim[-1])
            fxc, nfev = fn(xc.copy()), nfev + 1
            if (fxc <= fxr) if out else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, len(sim)):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    if nfev >= maxfev:
                        break
                    fsim[j], nfev = fn(sim[j].copy()), nfev + 1
        it += 1
    status = 1 if nfev >= maxfev else 2 if it >= maxiter else 0
    return sim[0], np.min(fsim), status, nfev
