"""Abelian covers of flat tori and metric graphs.

The covers used here are the maximal free abelian ones.  For a torus the
cover is R^n with deck group Z^n acting by translation.  For a metric
graph the deck group is Z^k with k the cycle rank; sheets are glued along
the non-tree edges of a fixed spanning tree.

Every cover carries a coordinate map ``g_map`` into R^k (integrated
closed one-forms, normalized to vanish at the base point); the rescaled
problem at scale eps reads points through eps * g_map.  Distances
(``distance``) are geodesic in the lifted metric: exact Euclidean for
tori.  For graphs they are read from one table per cover, built lazily:
by deck invariance, d(x + z, y + z) = d(x, y), so the distances from each
vertex on sheet 0 to every vertex of a sheet box |z|inf <= R answer every
pair.  A value is certified exact when it is at most (R + 1) * lmin (a
path leaving the box crosses R + 1 non-tree edges); otherwise R doubles
and the table is rebuilt.

Surjections of the deck group onto Z^l ("subcover maps") are integer
matrices validated through their Smith normal form.  An intermediate
cover has no metric or point type of its own here: it is solved on the
maximal cover with the datum pulled back through the surjection
(``homogenize``), and the map supplies what that needs, namely the right
inverse that lifts quotient sheets (``match_point``), the pullback of
momenta and the kernel lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import WindowExhaustedError

_NORMS = ("l1", "l2", "linf")


def norm_value(v, kind: str) -> float:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if kind == "l1":
        return float(np.sum(np.abs(v)))
    if kind == "l2":
        return float(np.sqrt(np.sum(v * v)))
    if kind == "linf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unknown norm {kind!r}")


def _norm_rows(rows: np.ndarray, kind: str) -> np.ndarray:
    """``norm_value`` of every row of a 2-D array."""
    if kind == "l1":
        return np.sum(np.abs(rows), axis=1)
    if kind == "l2":
        return np.sqrt(np.sum(rows * rows, axis=1))
    if kind == "linf":
        return (np.max(np.abs(rows), axis=1) if rows.shape[1]
                else np.zeros(rows.shape[0]))
    raise ValueError(f"unknown norm {kind!r}")


def _grid(axes) -> np.ndarray:
    """Product of 1-D axes as an (m, d) array, first axis slowest (the
    order of nested loops over the axes); one empty row when there are no
    axes."""
    if not axes:
        return np.zeros((1, 0), dtype=int)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _ball_nodes(axes, radius: float, kind: str) -> np.ndarray:
    """Rows of ``_grid(axes)`` inside the ``kind`` ball of the radius, in
    grid order (callers keep the first strict best)."""
    nodes = _grid(axes)
    return nodes[_norm_rows(nodes, kind) <= radius + 1e-12]


def dual_norm_value(v, kind: str) -> float:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if kind == "l1":
        return float(np.max(np.abs(v))) if v.size else 0.0
    if kind == "l2":
        return float(np.sqrt(np.sum(v * v)))
    if kind == "linf":
        return float(np.sum(np.abs(v)))
    raise ValueError(f"unknown norm {kind!r}")


@dataclass(frozen=True)
class CoverPoint:
    """A point of the cover: a base locator plus an integer sheet.

    ``base`` is either a float array (torus coordinates in [0,1)^n) or a
    tuple ``("v", vertex)`` / ``("e", edge, arclength)`` for graphs.  The
    sheet is always stored as a tuple of ints so points hash cleanly.
    """

    base: object
    sheet: tuple

    def sheet_array(self) -> np.ndarray:
        return np.array(self.sheet, dtype=float)


class MetricGraph:
    """Finite connected multigraph with positive edge lengths.

    Edges are ``(u, v, length)``; loops and parallel edges are allowed.
    A breadth-first spanning tree rooted at vertex 0 (neighbors scanned
    in edge order) fixes the cocycle basis: the j-th non-tree edge is
    assigned the j-th unit vector of Z^k, tree edges are assigned zero.
    The cycle rank is k = |E| - |V| + 1.
    """

    def __init__(self, n_vertices: int, edges):
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self.n_vertices = int(n_vertices)
        self.edges = []
        for (u, v, length) in edges:
            u, v, length = int(u), int(v), float(length)
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            if length <= 0.0:
                raise ValueError(f"edge ({u}, {v}) has nonpositive length {length}")
            self.edges.append((u, v, length))
        self.lengths = np.array([e[2] for e in self.edges])
        self._build_incidence()
        self._build_tree()
        self._distance_table = None

    def _build_incidence(self):
        self.incident = [[] for _ in range(self.n_vertices)]
        for idx, (u, v, _) in enumerate(self.edges):
            self.incident[u].append((idx, +1))
            if v != u:
                self.incident[v].append((idx, -1))
            else:
                self.incident[u].append((idx, -1))

    def _build_tree(self):
        seen = [False] * self.n_vertices
        seen[0] = True
        queue = [0]
        in_tree = [False] * len(self.edges)
        while queue:
            u = queue.pop(0)
            for idx, direction in self.incident[u]:
                a, b, _ = self.edges[idx]
                other = b if (direction == +1) else a
                if not seen[other]:
                    seen[other] = True
                    in_tree[idx] = True
                    queue.append(other)
        if not all(seen):
            raise ValueError("graph is not connected")
        self.tree_edge = in_tree
        nontree = [i for i, t in enumerate(in_tree) if not t]
        self.nontree_edges = nontree
        self.cycle_rank = len(nontree)
        self.cocycles = np.zeros((len(self.edges), self.cycle_rank), dtype=int)
        for j, e in enumerate(nontree):
            self.cocycles[e, j] = 1

    def tail(self, e: int) -> int:
        return self.edges[e][0]

    def head(self, e: int) -> int:
        return self.edges[e][1]

    def length(self, e: int) -> float:
        return self.edges[e][2]

    def base_distance(self, u: int, v: int) -> float:
        """Shortest path distance between vertices of the base graph."""
        if self._distance_table is None:
            n = self.n_vertices
            d = np.full((n, n), np.inf)
            np.fill_diagonal(d, 0.0)
            for (a, b, length) in self.edges:
                d[a, b] = min(d[a, b], length)
                d[b, a] = min(d[b, a], length)
            for m in range(n):
                d = np.minimum(d, d[:, m:m + 1] + d[m:m + 1, :])
            self._distance_table = d
        return float(self._distance_table[u, v])

    def base_diameter(self) -> float:
        dv = max(self.base_distance(u, v)
                 for u in range(self.n_vertices) for v in range(self.n_vertices))
        return dv + float(self.lengths.max())

    def min_nontree_length(self) -> float:
        if not self.nontree_edges:
            return 0.0
        return float(min(self.length(e) for e in self.nontree_edges))


def single_loop(length: float = 1.0) -> MetricGraph:
    return MetricGraph(1, [(0, 0, length)])


def figure_eight(len_a: float = 1.0, len_b: float = 1.0) -> MetricGraph:
    return MetricGraph(1, [(0, 0, len_a), (0, 0, len_b)])


class TorusCover:
    """Maximal abelian cover of the flat n-torus: R^n over T^n."""

    family = "torus"

    def __init__(self, n: int, norm: str = "l2"):
        if n not in (1, 2):
            raise ValueError("only 1- and 2-tori are supported")
        if norm not in _NORMS:
            raise ValueError(f"unknown norm {norm!r}")
        self.n = n
        self.norm = norm

    @property
    def deck_rank(self) -> int:
        return self.n

    def point(self, base, sheet=None) -> CoverPoint:
        base = np.atleast_1d(np.asarray(base, dtype=float))
        if sheet is None:
            sheet = np.zeros(self.n, dtype=int)
        return CoverPoint(tuple(float(b) for b in base), tuple(int(z) for z in np.atleast_1d(sheet)))

    def lift(self, point: CoverPoint) -> np.ndarray:
        return np.array(point.base, dtype=float) + point.sheet_array()

    def from_lift(self, coords) -> CoverPoint:
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        sheet = np.floor(coords).astype(int)
        return CoverPoint(tuple(coords - sheet), tuple(int(z) for z in sheet))

    def base_point(self) -> CoverPoint:
        return self.point(np.zeros(self.n))

    def translate(self, point: CoverPoint, z) -> CoverPoint:
        z = np.atleast_1d(np.asarray(z)).astype(int)
        return CoverPoint(point.base, tuple(int(a + b) for a, b in zip(point.sheet, z)))

    def g_map(self, point: CoverPoint) -> np.ndarray:
        """Integrated basis one-forms; for the torus just the lift itself."""
        return self.lift(point)

    def distance(self, x: CoverPoint, y: CoverPoint) -> float:
        # same summation path as norm_value so the Euclidean comparison
        # residual of the flat cover vanishes bit-exactly
        return norm_value(self.lift(x) - self.lift(y), "l2")

    def g_lipschitz(self) -> float:
        """Bound on |G(x) - G(y)| (chosen norm) per unit of cover distance."""
        if self.norm == "l1":
            return float(np.sqrt(self.n))
        return 1.0

    def base_diameter(self) -> float:
        return 0.5 * float(np.sqrt(self.n))


class GraphCover:
    """Maximal abelian cover of a metric graph.

    Points on the j-th non-tree edge interpolate the j-th deck coordinate
    linearly in arclength, so ``g_map`` is continuous and increments by
    exactly the cocycle vector across a full traversal.
    """

    family = "graph"

    def __init__(self, graph: MetricGraph, norm: str = "l1"):
        if norm not in _NORMS:
            raise ValueError(f"unknown norm {norm!r}")
        self.graph = graph
        self.norm = norm
        self._table = None
        self._radius = -1

    @property
    def deck_rank(self) -> int:
        return self.graph.cycle_rank

    def vertex_point(self, v: int, sheet=None) -> CoverPoint:
        sheet = np.zeros(self.deck_rank, dtype=int) if sheet is None else np.atleast_1d(sheet)
        return CoverPoint(("v", int(v)), tuple(int(z) for z in sheet))

    def edge_point(self, e: int, s: float, sheet=None) -> CoverPoint:
        length = self.graph.length(e)
        if not (0.0 <= s <= length):
            raise ValueError(f"arclength {s} outside edge of length {length}")
        sheet = np.zeros(self.deck_rank, dtype=int) if sheet is None else np.atleast_1d(sheet)
        if s == 0.0:
            return self.vertex_point(self.graph.tail(e), sheet)
        if s == length:
            head_sheet = np.asarray(sheet, dtype=int) + self.graph.cocycles[e]
            return self.vertex_point(self.graph.head(e), head_sheet)
        return CoverPoint(("e", int(e), float(s)), tuple(int(z) for z in sheet))

    def base_point(self) -> CoverPoint:
        return self.vertex_point(0)

    def translate(self, point: CoverPoint, z) -> CoverPoint:
        z = np.atleast_1d(np.asarray(z)).astype(int)
        return CoverPoint(point.base, tuple(int(a + b) for a, b in zip(point.sheet, z)))

    def g_map(self, point: CoverPoint) -> np.ndarray:
        g = point.sheet_array()
        if point.base[0] == "e":
            _, e, s = point.base
            g = g + (s / self.graph.length(e)) * self.graph.cocycles[e]
        return g

    def g_of_base(self, base) -> np.ndarray:
        if base[0] == "v":
            return np.zeros(self.deck_rank)
        _, e, s = base
        return (s / self.graph.length(e)) * np.asarray(self.graph.cocycles[e], dtype=float)

    def g_lipschitz(self) -> float:
        rates = [1.0 / self.graph.length(e) for e in self.graph.nontree_edges]
        return max(rates) if rates else 0.0

    def base_diameter(self) -> float:
        return self.graph.base_diameter()

    def base_mesh(self, m: int):
        locs = [("v", v) for v in range(self.graph.n_vertices)]
        for e, (_, _, length) in enumerate(self.graph.edges):
            for j in range(1, m):
                locs.append(("e", e, length * j / m))
        return locs

    def _attachments(self, point: CoverPoint):
        """(vertex, sheet tuple, offset, edge) through which the point is
        reached: the point itself at a vertex (edge None), else both ends
        of its edge."""
        if point.base[0] == "v":
            return [(point.base[1], point.sheet, 0.0, None)]
        _, e, s = point.base
        g = self.graph
        head_sheet = np.add(point.sheet, g.cocycles[e])
        return [
            (g.tail(e), point.sheet, s, e),
            (g.head(e), tuple(int(z) for z in head_sheet), g.length(e) - s, e),
        ]

    def _vertex_table(self, radius: int) -> np.ndarray:
        """Cover distances D[u, w, *(z + radius)] from (u, sheet 0) to
        (w, sheet z) for every sheet |z|inf <= radius, along paths that stay
        in that sheet box.

        Built by one Dijkstra per base vertex over the box's (vertex,
        sheet) states and kept until a query needs a larger box.  By deck
        invariance the table answers every pair of vertex states whose
        sheet difference lies in the box.
        """
        if self._radius >= radius:
            return self._table
        g = self.graph
        k = self.deck_rank
        width = 2 * radius + 1
        sheets = _grid([np.arange(-radius, radius + 1)] * k)
        strides = width ** np.arange(k - 1, -1, -1)
        n = sheets.shape[0]
        rows, cols, weights = [], [], []
        for e, (u, v, length) in enumerate(g.edges):
            ahead = sheets + g.cocycles[e]
            inside = np.all(np.abs(ahead) <= radius, axis=1)
            rows.append(u * n + (sheets[inside] + radius) @ strides)
            cols.append(v * n + (ahead[inside] + radius) @ strides)
            weights.append(np.full(int(inside.sum()), length))
        # no two edges join the same pair of states (a non-tree edge shifts
        # the sheet by its own unit vector), so no weights are summed here
        lifted = csr_matrix((np.concatenate(weights),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(g.n_vertices * n,) * 2)
        origin = int(np.full(k, radius) @ strides)
        dist = dijkstra(lifted, directed=False,
                        indices=np.arange(g.n_vertices) * n + origin)
        self._table = dist.reshape((g.n_vertices,) * 2 + (width,) * k)
        self._radius = radius
        return self._table

    def distance(self, x: CoverPoint, y: CoverPoint) -> float:
        """Geodesic distance in the cover, read from the vertex table.

        The distance is the direct path when both points lie on one edge
        of one sheet, or else the cheapest offset + D + offset over the
        endpoints through which the points are reached.  A path that leaves
        the table's sheet box crosses at least radius + 1 non-tree edges,
        so the value is exact once it is at most (radius + 1) * lmin;
        otherwise the box doubles (cycle rank 0 has one sheet and is always
        exact).  The first box is the query's own sheet span.
        """
        direct = np.inf
        if (x.base[0] == "e" and y.base[0] == "e"
                and x.base[1] == y.base[1] and x.sheet == y.sheet):
            direct = abs(x.base[2] - y.base[2])
        combos = [(vy, vx, oy, ox, [a - b for a, b in zip(sx, sy)])
                  for vy, sy, oy, _ in self._attachments(y)
                  for vx, sx, ox, _ in self._attachments(x)]
        radius = max([1] + [abs(z) for *_, dz in combos for z in dz])
        lmin = self.graph.min_nontree_length()
        for _ in range(10):
            table = self._vertex_table(radius)
            radius = self._radius
            d = direct
            for vy, vx, oy, ox, dz in combos:
                key = (vy, vx) + tuple(z + radius for z in dz)
                d = min(d, oy + table[key] + ox)
            if not self.deck_rank or d <= (radius + 1) * lmin:
                return float(d)
            radius *= 2
        raise WindowExhaustedError("cover distance window grew past its cap", radius)


def match_point(cover, h, eps: float, mesh: int = 64, sub=None):
    """Canonical-mesh cover point whose scaled image is nearest h.

    Returns (point, image).  Ties are broken toward the lexicographically
    smaller sheet (then earlier mesh locator) so reruns are reproducible.
    With a ``SubcoverMap`` (graph covers only), h lives on the quotient:
    images are projected through the map, the search runs over quotient
    sheets around each locator's own offset, and the winning sheet is
    lifted through the right inverse.
    """
    if eps <= 0.0:
        raise ValueError(f"scale eps must be positive, got {eps}")
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if cover.family == "torus":
        if sub is not None:
            raise ValueError("subcover matching is defined on graph covers")
        target = h / eps
        coords = np.empty_like(target)
        for c, val in enumerate(target):
            lower = math.floor(val * mesh) / mesh
            upper = lower + 1.0 / mesh
            coords[c] = lower if (val - lower) <= (upper - val) + 1e-15 else upper
        point = cover.from_lift(coords)
        return point, eps * cover.g_map(point)
    target = h / eps
    fmat = None if sub is None else sub.matrix.astype(float)

    def window(center):
        return _grid([np.arange(c - 2, c + 3) for c in center])

    sheets = window(np.round(target).astype(int)) if sub is None else None
    best = None
    for loc_idx, loc in enumerate(cover.base_mesh(mesh)):
        g0 = cover.g_of_base(loc)
        if sub is not None:
            g0 = fmat @ g0
            sheets = window(np.round(target - g0).astype(int))
        for row in sheets:
            image = eps * (row + g0)
            d = norm_value(image - h, cover.norm)
            # quantized distance first, then sheet, then locator order
            key = (int(round(d / 1e-12)), tuple(int(z) for z in row), loc_idx)
            if best is None or key < best[0]:
                best = (key, loc, row)
    _, loc, row = best
    sheet = row if sub is None else sub.lift_sheet(row)
    if loc[0] == "v":
        point = cover.vertex_point(loc[1], sheet)
    else:
        point = cover.edge_point(loc[1], loc[2], sheet)
    g = cover.g_map(point)
    return point, eps * (g if sub is None else fmat @ g)


def _smith_normal_form(mat: np.ndarray):
    """U @ mat @ V = S diagonal, with U, V unimodular integer matrices."""
    a = np.array(mat, dtype=object)
    rows, cols = a.shape
    u = np.eye(rows, dtype=object)
    v = np.eye(cols, dtype=object)

    def swap_rows(i, j):
        a[[i, j], :] = a[[j, i], :]
        u[[i, j], :] = u[[j, i], :]

    def swap_cols(i, j):
        a[:, [i, j]] = a[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]

    def add_row(src, dst, factor):
        a[dst, :] += factor * a[src, :]
        u[dst, :] += factor * u[src, :]

    def add_col(src, dst, factor):
        a[:, dst] += factor * a[:, src]
        v[:, dst] += factor * v[:, src]

    t = 0
    while t < min(rows, cols):
        sub = [(abs(a[i, j]), i, j) for i in range(t, rows) for j in range(t, cols)
               if a[i, j] != 0]
        if not sub:
            break
        _, pi, pj = min(sub)
        swap_rows(t, pi)
        swap_cols(t, pj)
        reduced = True
        while reduced:
            reduced = False
            for i in range(t + 1, rows):
                if a[i, t] != 0:
                    add_row(t, i, -(a[i, t] // a[t, t]))
                    if a[i, t] != 0:
                        swap_rows(t, i)
                        reduced = True
            for j in range(t + 1, cols):
                if a[t, j] != 0:
                    add_col(t, j, -(a[t, j] // a[t, t]))
                    if a[t, j] != 0:
                        swap_cols(t, j)
                        reduced = True
        if a[t, t] < 0:
            a[t, :] *= -1
            u[t, :] *= -1
        t += 1
    return (np.array(u, dtype=int), np.array(a, dtype=int), np.array(v, dtype=int))


class SubcoverMap:
    """Surjection of the deck group Z^k onto Z^l, given as an integer matrix.

    Surjectivity is certified through the Smith normal form: all l
    invariant factors must equal one.  The decomposition also yields an
    integer right inverse (for lifting quotient sheets) and a basis of
    the kernel lattice (for translate windows).
    """

    def __init__(self, matrix):
        mat = np.atleast_2d(np.asarray(matrix, dtype=int))
        self.matrix = mat
        self.l, self.k = mat.shape
        if self.l > self.k:
            raise ValueError("cannot surject onto a group of higher rank")
        u, s, v = _smith_normal_form(mat)
        factors = [int(s[i, i]) for i in range(self.l)]
        if any(f != 1 for f in factors):
            raise ValueError(
                f"matrix is not surjective onto Z^{self.l}: invariant factors {factors}")
        embed = np.zeros((self.k, self.l), dtype=int)
        embed[: self.l, : self.l] = np.eye(self.l, dtype=int)
        self.right_inverse = v @ embed @ u
        self.kernel_basis = v[:, self.l:].copy()
        assert np.array_equal(mat @ self.right_inverse, np.eye(self.l, dtype=int))
        assert not self.kernel_basis.size or not np.any(mat @ self.kernel_basis)

    def lift_sheet(self, q) -> np.ndarray:
        q = np.atleast_1d(np.asarray(q)).astype(int)
        return self.right_inverse @ q

    def pullback(self, p) -> np.ndarray:
        """Adjoint action on momenta/cohomology: f^T p."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return self.matrix.T @ p

    def kernel_rank(self) -> int:
        return self.k - self.l

    def kernel_elements(self, radius: int):
        """All kernel lattice points with coefficient box |c_i| <= radius."""
        coeffs = _grid([np.arange(-radius, radius + 1)] * self.kernel_rank())
        return [self.kernel_basis @ c for c in coeffs]


# estimate_space_convergence: sampled cover points, their sheet box, the
# orbit box K is fitted on, the probe ball and the canonical mesh whose
# image it covers
_SAMPLES = 120
_SHEET_RADIUS = 2
_ORBIT_RADIUS = 3
_BALL_RADIUS = 1.0
_IMAGE_MESH = 16


@dataclass
class SpaceConvergenceReport:
    """Measured metric comparison between rescaled covers and their limit."""

    fitted_k: float
    epsilons: list
    a_eps: list
    covering_radius: list
    n_pairs: int

    def a_slope(self) -> float:
        """Fitted c in A_eps ~ c * eps (zero if all offsets vanish)."""
        eps = np.array(self.epsilons)
        a = np.array(self.a_eps)
        denom = float(np.sum(eps * eps))
        return float(np.sum(eps * a) / denom) if denom > 0 else 0.0

    def a_slope_stable(self, rel_tol: float = 0.25) -> bool:
        """True when the per-rung slopes A_eps/eps agree within rel_tol."""
        slopes = [a / e for a, e in zip(self.a_eps, self.epsilons)]
        top = max(slopes)
        if top <= 1e-12:
            return True
        return (top - min(slopes)) <= rel_tol * top


def _sample_points(cover, rng):
    pts = []
    r = _SHEET_RADIUS
    if cover.family == "torus":
        for _ in range(_SAMPLES):
            base = rng.random(cover.n)
            sheet = rng.integers(-r, r + 1, size=cover.n)
            pts.append(cover.point(base, sheet))
    else:
        g = cover.graph
        for _ in range(_SAMPLES):
            sheet = rng.integers(-r, r + 1, size=cover.deck_rank)
            if rng.random() < 0.2:
                pts.append(cover.vertex_point(int(rng.integers(g.n_vertices)), sheet))
            else:
                e = int(rng.integers(len(g.edges)))
                s = float(rng.random()) * g.length(e)
                pts.append(cover.edge_point(e, s, sheet))
    return pts


def _grid_remainder(values: np.ndarray, spacing: float) -> np.ndarray:
    return np.abs(values - spacing * np.round(values / spacing))


def _image_nearest(cover, eps: float, probe: np.ndarray) -> float:
    """Distance from a probe to the eps * G image of the canonical mesh.

    The image is a union of product lattices (each coordinate is either an
    eps-integer or, on one non-tree edge at a time, an eps/mesh-grid
    value), so the nearest point reduces to coordinate-wise rounding.
    """
    norm = cover.norm
    fine = _grid_remainder(probe, eps / _IMAGE_MESH)
    if cover.family == "torus":
        # every coordinate carries the fine grid simultaneously
        return norm_value(fine, norm)
    coarse = _grid_remainder(probe, eps)
    best = norm_value(coarse, norm)
    for j in range(cover.deck_rank):
        d = coarse.copy()
        d[j] = fine[j]
        best = min(best, norm_value(d, norm))
    return best


def _orbit_k_fit(cover) -> float:
    """Two-sided distance/coordinate ratio on deck translates of the base.

    On the orbit of the base point the comparison is exactly
    multiplicative (no boundary-layer offsets), which makes it the right
    place to read off K; interior points contribute only to A_eps.
    """
    x0 = cover.base_point()
    ratios = [1.0]
    r = _ORBIT_RADIUS
    for z in _grid([np.arange(-r, r + 1)] * cover.deck_rank):
        if not any(z):
            continue
        y = cover.translate(x0, z)
        d = cover.distance(x0, y)
        gn = norm_value(cover.g_map(y) - cover.g_map(x0), cover.norm)
        if d > 1e-12 and gn > 1e-12:
            ratios.append(gn / d)
            ratios.append(d / gn)
    return max(ratios)


def estimate_space_convergence(cover, epsilons,
                               seed: int = 0) -> SpaceConvergenceReport:
    """Fit the metric comparison constants between (cover, eps*d) and R^k,
    with distances measured in the cover's norm.

    K is fitted on deck translates of the base point, where coordinate
    displacement and distance are exactly proportional.  A_eps is the
    additive lower-side residual max(0, K^{-1} d_eps - |Delta F_eps|)
    over all sampled pairs per rung (the eps-rescaled residual, so it is
    proportional to eps by construction of the sample window), and the
    covering radius measures eps-density of the image of the canonical
    mesh inside the fixed ball |h| <= 1.
    """
    norm = cover.norm
    rng = np.random.default_rng(seed)
    pts = _sample_points(cover, rng)
    gvals = [cover.g_map(p) for p in pts]
    pairs = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = cover.distance(pts[i], pts[j])
            gn = norm_value(gvals[i] - gvals[j], norm)
            if d > 1e-12:
                pairs.append((d, gn))
    fitted_k = _orbit_k_fit(cover)

    slack = max((d / fitted_k - gn for d, gn in pairs), default=0.0)
    a_eps = [eps * max(0.0, slack) for eps in epsilons]

    axis = np.linspace(-_BALL_RADIUS, _BALL_RADIUS, 11)
    probes = _ball_nodes([axis] * cover.deck_rank, _BALL_RADIUS, norm)
    covering = [max(_image_nearest(cover, eps, p) for p in probes)
                for eps in epsilons]

    return SpaceConvergenceReport(
        fitted_k=float(fitted_k),
        epsilons=[float(e) for e in epsilons],
        a_eps=[float(a) for a in a_eps],
        covering_radius=[float(c) for c in covering],
        n_pairs=len(pairs),
    )
