"""Abelian covers of flat tori and metric graphs.

The covers used here are the maximal free abelian ones.  For a torus the
cover is R^n with deck group Z^n acting by translation.  For a metric
graph the deck group is Z^k with k the cycle rank; sheets are glued along
the non-tree edges of a fixed spanning tree; ``_edge_flow`` is the real
circulation f(h) of a rate h, read by beta, the action and the stable norm.

Every cover carries a coordinate map ``g_map`` into R^k (integrated
closed one-forms, normalized to vanish at the base point); the rescaled
problem at scale eps reads points through eps * g_map.  Distances
(``distance``) are geodesic in the lifted metric: exact Euclidean for
tori.  For graphs they are read from one table per cover, built lazily:
by deck invariance, d(x + z, y + z) = d(x, y), so the distances from each
vertex on sheet 0 to every vertex of a sheet box |z_j| <= R_j answer
every pair.  A value is certified exact when it is at most (R_j + 1) * l_j
on every axis j, with l_j the length of the j-th non-tree edge (a path
leaving the box crosses that edge R_j + 1 times for some j); otherwise
the short axes grow and the table is rebuilt.

``estimate_space_convergence`` checks on a graph cover that
|d(x, y) - ||G(y) - G(x)||_st| <= C, the stable-norm limit of the rescaled
covers, with C proved from the base.  On a flat torus both terms are the
Euclidean norm of one lift difference, so the gap is 0 by construction
and only the mesh image is measured.

Surjections of the deck group onto Z^l ("subcover maps") are integer
matrices validated by an exact column reduction, whose pivots multiply to
the gcd of the l x l minors.  An intermediate cover has no metric or point
type of its own here: it is solved on the maximal cover with the datum
pulled back through the surjection (``homogenize``), and the map supplies
what that needs, namely the right inverse that lifts quotient sheets
(``match_point``), the pullback of momenta and the kernel lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError


def norm_value(v, kind: str) -> float:
    return float(_norm_rows(np.atleast_2d(np.asarray(v, dtype=float)), kind)[0])


def _norm_rows(rows: np.ndarray, kind: str) -> np.ndarray:
    """``norm_value`` of every row of a 2-D array."""
    if kind == "l1":
        return np.sum(np.abs(rows), axis=1)
    if kind == "l2":
        return np.sqrt(np.sum(rows * rows, axis=1))
    raise ValueError(f"unknown norm {kind!r}")


def _grid(axes) -> np.ndarray:
    """Product of 1-D axes as an (m, d) array, first axis slowest (the
    order of nested loops over the axes); one empty row when there are no
    axes."""
    if not axes:
        return np.zeros((1, 0), dtype=int)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _ball_axes(radius: float, per_axis: int, dim: int) -> list:
    """Axes of the symmetric rate grid: per_axis points on [-radius, radius]."""
    return [np.linspace(-radius, radius, per_axis)] * dim


def _ball_nodes(axes, radius: float, kind: str) -> np.ndarray:
    """Rows of ``_grid(axes)`` inside the ``kind`` ball of the radius, in
    grid order (callers keep the first strict best)."""
    nodes = _grid(axes)
    return nodes[_norm_rows(nodes, kind) <= radius + 1e-12]


def dual_norm_value(v, kind: str) -> float:
    """Dual of a cover's measuring norm (l1 or l2) at v."""
    if kind == "l1":
        return float(np.max(np.abs(v), initial=0.0))
    return norm_value(v, kind)


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
        """The breadth-first spanning tree: ``tree_order`` lists the
        vertices in the order the search reaches them, and
        ``tree_parent[v]`` is the edge it reaches v by (None at the root)."""
        parent = [None] * self.n_vertices
        order = [0]
        in_tree = [False] * len(self.edges)
        for u in order:
            for idx, direction in self.incident[u]:
                a, b, _ = self.edges[idx]
                other = b if (direction == +1) else a
                if other != 0 and parent[other] is None:
                    parent[other] = idx
                    in_tree[idx] = True
                    order.append(other)
        if len(order) < self.n_vertices:
            raise ValueError("graph is not connected")
        self.tree_parent = parent
        self.tree_order = order
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


def _edge_flow(graph, nontree, source: int = 0, sink: int = 0) -> np.ndarray:
    """Signed flow on every edge whose non-tree entries are ``nontree``
    (in cocycle order) and whose net outflow is +1 at the source and -1
    at the sink (nothing when they coincide); conservation fixes the
    tree edges.

    With source == sink this is the real circulation of homology rate
    ``nontree``; otherwise it is the net traversal count of a walk from
    source to sink that changes sheets by ``nontree``.  Rows of an (m, k)
    ``nontree`` are m rates, and their flows are the rows of (m, |E|).
    """
    nontree = np.asarray(nontree, dtype=float).T
    flow = np.zeros((len(graph.edges),) + nontree.shape[1:])
    flow[graph.nontree_edges] = nontree
    # outflow each vertex still has to send through the tree
    carry = np.zeros((graph.n_vertices,) + nontree.shape[1:])
    carry[source] += 1.0
    carry[sink] -= 1.0
    for e in graph.nontree_edges:
        u, v, _ = graph.edges[e]
        carry[u] -= flow[e]
        carry[v] += flow[e]
    # leaves first: each vertex passes its carry on to its tree parent
    for v in reversed(graph.tree_order[1:]):
        e = graph.tree_parent[v]
        tail, head, _ = graph.edges[e]
        flow[e] = carry[v] if tail == v else -carry[v]
        carry[head if tail == v else tail] += carry[v]
    return np.ascontiguousarray(flow.T)


class TorusCover:
    """Maximal abelian cover of the flat n-torus: R^n over T^n.

    Rates and homology displacements are measured in the Euclidean norm,
    the stable norm of the flat torus.
    """

    family = "torus"
    norm = "l2"

    def __init__(self, n: int):
        if n not in (1, 2):
            raise ValueError("only 1- and 2-tori are supported")
        self.n = n

    @property
    def deck_rank(self) -> int:
        return self.n

    def lift(self, point: CoverPoint) -> np.ndarray:
        return np.array(point.base, dtype=float) + point.sheet_array()

    def from_lift(self, coords) -> CoverPoint:
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        sheet = np.floor(coords).astype(int)
        return CoverPoint(tuple(coords - sheet), tuple(int(z) for z in sheet))

    def translate(self, point: CoverPoint, z) -> CoverPoint:
        z = np.atleast_1d(np.asarray(z)).astype(int)
        return CoverPoint(point.base, tuple(int(a + b) for a, b in zip(point.sheet, z)))

    def g_map(self, point: CoverPoint) -> np.ndarray:
        """Integrated basis one-forms; for the torus just the lift itself."""
        return self.lift(point)

    def distance(self, x: CoverPoint, y: CoverPoint) -> float:
        return norm_value(self.lift(x) - self.lift(y), "l2")

    def g_lipschitz(self) -> float:
        """Bound on |G(x) - G(y)|_2 per unit of cover distance."""
        return 1.0

    def base_diameter(self) -> float:
        return 0.5 * float(np.sqrt(self.n))


class GraphCover:
    """Maximal abelian cover of a metric graph.

    Points on the j-th non-tree edge interpolate the j-th deck coordinate
    linearly in arclength, so ``g_map`` is continuous and increments by
    exactly the cocycle vector across a full traversal.  Rates and
    homology displacements are measured in the l1 norm of deck
    coordinates.
    """

    family = "graph"
    norm = "l1"

    def __init__(self, graph: MetricGraph):
        self.graph = graph
        self._table = None
        self._radii = None
        # traversal multisets by (start vertex, end vertex, sheet change),
        # filled by action._graph_actions
        self._multisets = {}

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

    # a deck translation shifts the sheet on either cover
    translate = TorusCover.translate

    def g_map(self, point: CoverPoint) -> np.ndarray:
        g = point.sheet_array()
        if point.base[0] == "e":
            _, e, s = point.base
            g = g + (s / self.graph.length(e)) * self.graph.cocycles[e]
        return g

    def g_lipschitz(self) -> float:
        # G is constant on the cover of a tree, so any bound holds there
        rates = [1.0 / self.graph.length(e) for e in self.graph.nontree_edges]
        return max(rates) if rates else 1.0

    def base_diameter(self) -> float:
        return self.graph.base_diameter()

    def base_mesh(self, m: int):
        """Mesh locators, the vertices then m - 1 inner points per edge, and
        their G images (L, k) on sheet 0, ``g_map``'s s / length * cocycle."""
        g = self.graph
        locs = [("v", v) for v in range(g.n_vertices)]
        images = [np.zeros((g.n_vertices, self.deck_rank))]
        for e, (_, _, length) in enumerate(g.edges):
            arcs = [length * j / m for j in range(1, m)]
            locs += [("e", e, s) for s in arcs]
            images.append(np.outer(np.array(arcs) / length, g.cocycles[e]))
        return locs, np.concatenate(images)

    def _attachments(self, points):
        """Vertices (P, 2), sheets (P, 2, k) and offsets (P, 2) through
        which each point is reached, and its edge (P,): an edge point
        through both ends of its edge, a vertex point through itself at
        offset 0 (edge -1), repeated at an infinite offset."""
        g, rows = self.graph, []
        for p in points:
            if p.base[0] == "v":
                rows.append(((p.base[1],) * 2, (p.sheet,) * 2, (0.0, np.inf), -1))
            else:
                _, e, s = p.base
                rows.append(((g.tail(e), g.head(e)),
                             (p.sheet, np.add(p.sheet, g.cocycles[e])),
                             (s, g.length(e) - s), e))
        verts, sheets, offsets, edges = map(np.array, zip(*rows))
        return verts, sheets.astype(int), offsets, edges

    def _vertex_table(self, radii) -> np.ndarray:
        """Cover distances D[u, w, *(z + radii)] from (u, sheet 0) to
        (w, sheet z) for every sheet with |z_j| <= radii[j], along paths
        that stay in that sheet box.

        Built by one Dijkstra per base vertex over the box's (vertex,
        sheet) states and kept, grown axis by axis, until a query needs a
        wider box.  By deck invariance the table answers every pair of
        vertex states whose sheet difference lies in the box.
        """
        if self._radii is not None:
            radii = tuple(max(r, old) for r, old in zip(radii, self._radii))
            if radii == self._radii:
                return self._table
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
        g = self.graph
        box = np.array(radii, dtype=int)
        widths = 2 * box + 1
        sheets = _grid([np.arange(-r, r + 1) for r in radii])
        strides = np.array([int(np.prod(widths[j + 1:]))
                            for j in range(self.deck_rank)], dtype=int)
        n = sheets.shape[0]
        rows, cols, weights = [], [], []
        for e, (u, v, length) in enumerate(g.edges):
            ahead = sheets + g.cocycles[e]
            inside = np.all(np.abs(ahead) <= box, axis=1)
            rows.append(u * n + (sheets[inside] + box) @ strides)
            cols.append(v * n + (ahead[inside] + box) @ strides)
            weights.append(np.full(int(inside.sum()), length))
        # no two edges join the same pair of states (a non-tree edge shifts
        # the sheet by its own unit vector), so no weights are summed here
        lifted = csr_matrix((np.concatenate(weights),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(g.n_vertices * n,) * 2)
        origin = int(box @ strides)
        dist = dijkstra(lifted, directed=False,
                        indices=np.arange(g.n_vertices) * n + origin)
        self._table = dist.reshape((g.n_vertices,) * 2 + tuple(widths))
        self._radii = radii
        return self._table

    def distance(self, x: CoverPoint, y: CoverPoint) -> float:
        """Geodesic distance in the cover, read from the vertex table."""
        return float(self._pair_distances([x, y], [0], [1])[0])

    def _pair_distances(self, points, first, second) -> np.ndarray:
        """d(points[first[i]], points[second[i]]) for every i, in one batch:
        the direct path when both points lie on one edge of one sheet, or
        else the cheapest offset + D + offset over the (at most 2 x 2)
        endpoints through which the points are reached.  A path that leaves
        the table's sheet box crosses the j-th non-tree edge at least
        R_j + 1 times for some axis j, so a value is exact once it is at
        most (R_j + 1) * l_j on every axis (cycle rank 0 has one sheet and
        is always exact).  The first box is the batch's largest sheet span
        on every axis; an axis that does not certify a value grows to
        max(2 R_j, ceil(value / l_j) - 1), which certifies it, and the
        uncertified pairs are read again.
        """
        verts, sheets, offsets, edges = self._attachments(points)
        first, second = np.asarray(first), np.asarray(second)
        shared = ((edges[first] >= 0) & (edges[first] == edges[second])
                  & np.all(sheets[first, 0] == sheets[second, 0], axis=1))
        direct = np.where(shared, np.abs(offsets[first, 0] - offsets[second, 0]),
                          np.inf)
        # axes: pair, attachment of the second point, of the first
        vy, vx = verts[second][:, :, None], verts[first][:, None, :]
        oy, ox = offsets[second][:, :, None], offsets[first][:, None, :]
        dz = sheets[first][:, None] - sheets[second][:, :, None]
        radii = (int(np.abs(dz).max(initial=1)),) * self.deck_rank
        lengths = self.graph.lengths[self.graph.nontree_edges]
        dist, todo = direct.copy(), np.arange(len(first))
        for _ in range(10):
            table = self._vertex_table(radii)
            radii = self._radii
            key = (vy[todo], vx[todo]) + tuple(np.moveaxis(dz[todo] + radii, -1, 0))
            dist[todo] = np.minimum(direct[todo], (oy[todo] + table[key]
                                                   + ox[todo]).min(axis=(1, 2)))
            todo = todo[np.any((np.array(radii) + 1) * lengths < dist[todo, None],
                               axis=1)]
            if not todo.size:
                return dist
            worst = dist[todo].max()
            radii = tuple(r if (r + 1) * l >= worst
                          else max(2 * r, math.ceil(worst / l) - 1)
                          for r, l in zip(radii, lengths))
        raise SolverError(f"cover distance window grew past its cap (last "
                          f"window radius {max(radii)})")


def matching_bound(cover, eps: float, mesh: int) -> float:
    """Certified covering bound of the scaled mesh image around a target.

    On a torus the image is the eps/mesh lattice.  On a graph a locator of
    the j-th non-tree edge sits on the 1/mesh grid of G's j-th coordinate,
    whatever the edge's length, and every other coordinate is an integer;
    so a target is within eps/2 of the image on k - 1 coordinates and
    eps/(2 mesh) on the last (an l1 bound, so also one in l2).
    """
    if cover.family == "torus":
        half = np.full(cover.n, 0.5 / mesh)
        return eps * norm_value(half, cover.norm)
    return eps * (0.5 * max(0, cover.deck_rank - 1) + 0.5 / mesh)


def match_point(cover, h, eps: float, mesh: int = 64, sub=None):
    """Canonical-mesh cover point whose scaled image is nearest h.

    Returns (point, image).  On a graph every mesh locator is tried on
    the 5^k sheets around the nearest one as one array, and one
    ``np.lexsort`` keeps the least (distance quantized to 1e-12, sheet,
    locator order), so reruns are reproducible.  With a ``SubcoverMap``
    (graph covers only), h lives on the quotient: images are projected
    through the map, the sheets are quotient sheets around each locator's
    own offset, and the winning sheet is lifted through the right inverse.
    """
    if eps <= 0.0:
        raise ValueError(f"scale eps must be positive, got {eps}")
    h = np.atleast_1d(np.asarray(h, dtype=float))
    target = h / eps
    if cover.family == "torus":
        if sub is not None:
            raise ValueError("subcover matching is defined on graph covers")
        coords = np.empty_like(target)
        for c, val in enumerate(target):
            lower = math.floor(val * mesh) / mesh
            upper = lower + 1.0 / mesh
            coords[c] = lower if (val - lower) <= (upper - val) + 1e-15 else upper
        point = cover.from_lift(coords)
        return point, eps * cover.g_map(point)
    locs, g0 = cover.base_mesh(mesh)
    if sub is None:
        centres = np.broadcast_to(np.round(target), (len(locs), h.size))
    else:
        fmat = sub.matrix.astype(float)
        g0 = g0 @ fmat.T
        centres = np.round(target - g0)
    window = _grid([np.arange(-2, 3)] * h.size)
    sheets = (centres.astype(int)[:, None, :] + window[None, :, :]).reshape(-1, h.size)
    g0 = np.repeat(g0, window.shape[0], axis=0)
    dist = _norm_rows(eps * (sheets + g0) - h[None, :], cover.norm)
    # quantized distance first, then sheet, then locator order
    win = int(np.lexsort((np.arange(sheets.shape[0]), *sheets.T[::-1],
                          np.rint(dist / 1e-12)))[0])
    loc, row = locs[win // window.shape[0]], sheets[win]
    sheet = row if sub is None else sub.right_inverse @ row
    if loc[0] == "v":
        point = cover.vertex_point(loc[1], sheet)
    else:
        point = cover.edge_point(loc[1], loc[2], sheet)
    g = cover.g_map(point)
    return point, eps * (g if sub is None else fmat @ g)


def _column_reduction(mat: np.ndarray):
    """(V, g): g the gcd of the l x l minors of the integer matrix M, and
    when g = 1, V unimodular with M @ V = [I | 0].

    Exact column operations, row by row: Euclid on row i from column i on
    (the least nonzero |entry| moves to column i, first on ties, and its
    floor quotients leave the later columns), so M @ V is lower triangular
    with the pivots on its diagonal; a pivot of +-1 is made 1 and cleared
    from the earlier columns.  The l x l minors of M and M @ V share their
    gcd, and the only one of M @ V that can be nonzero is the product of
    the pivots.
    """
    rows, cols = mat.shape
    # column operations on [M; I] act on M @ V and on V at once
    w = np.vstack([mat, np.eye(cols, dtype=int)]).astype(object)
    product = 1
    for i in range(rows):
        while any(w[i, i + 1:]):
            j = min((c for c in range(i, cols) if w[i, c]),
                    key=lambda c: abs(w[i, c]))
            w[:, [i, j]] = w[:, [j, i]]
            for c in range(i + 1, cols):
                w[:, c] -= (w[i, c] // w[i, i]) * w[:, i]
        pivot = w[i, i]
        product *= pivot
        if abs(pivot) == 1:
            w[:, i] *= pivot
            for c in range(i):
                w[:, c] -= w[i, c] * w[:, i]
    return np.array(w[rows:], dtype=int), abs(int(product))


class SubcoverMap:
    """Surjection of the deck group Z^k onto Z^l, given as an integer matrix.

    Surjectivity is certified by ``_column_reduction``, M @ V = [I | 0]
    with V unimodular: M is onto iff the product of its pivots, the gcd of
    the l x l minors of M, is one.  V yields an integer right inverse
    R = V[:, :l] (for lifting quotient sheets) and a basis K = V[:, l:] of
    the kernel lattice (for translate windows).
    """

    def __init__(self, matrix):
        mat = np.atleast_2d(np.asarray(matrix, dtype=int))
        self.matrix = mat
        self.l, self.k = mat.shape
        if self.l > self.k:
            raise ValueError("cannot surject onto a group of higher rank")
        v, gcd = _column_reduction(mat)
        if gcd != 1:
            raise ValueError(
                f"matrix is not surjective onto Z^{self.l}: the gcd of its "
                f"{self.l}x{self.l} minors is {gcd}")
        self.right_inverse = v[:, :self.l]
        self.kernel_basis = v[:, self.l:]
        assert np.array_equal(mat @ self.right_inverse, np.eye(self.l, dtype=int))
        assert not self.kernel_basis.size or not np.any(mat @ self.kernel_basis)
        self.op_norm = float(np.abs(mat).sum(axis=0).max())  # l1 operator norm

    def pullback(self, ps) -> np.ndarray:
        """Adjoint action on momenta/cohomology: f^T p per row p, (m, k)."""
        return np.atleast_2d(np.asarray(ps, dtype=float)) @ self.matrix

    def kernel_rank(self) -> int:
        return self.k - self.l

    def kernel_elements(self, radius: int):
        """All kernel lattice points with coefficient box |c_i| <= radius."""
        coeffs = _grid([np.arange(-radius, radius + 1)] * self.kernel_rank())
        return [self.kernel_basis @ c for c in coeffs]


# estimate_space_convergence: sampled cover points, their sheet box and
# the probe ball whose scaled mesh image is measured
_SAMPLES = 120
_SHEET_RADIUS = 2
_BALL_RADIUS = 1.0


@dataclass
class SpaceConvergenceReport:
    """The range of d(x, y) - ||G(y) - G(x)||_st over the sampled pairs
    (0 included, the gap of a point with itself) against its certified
    bound, on a torus 0 against 0 over no pairs, and per rung the
    covering radius of the scaled mesh image against ``matching_bound``."""

    gap_low: float
    gap_high: float
    gap_bound: float
    n_pairs: int
    epsilons: list
    covering_radius: list
    covering_bound: list

    @property
    def passed(self) -> bool:
        return (max(-self.gap_low, self.gap_high) <= self.gap_bound + 1e-12
                and all(c <= b + 1e-12 for c, b in
                        zip(self.covering_radius, self.covering_bound)))


def _sample_points(cover, rng):
    pts = []
    r = _SHEET_RADIUS
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


def _stable_norm(cover, rows: np.ndarray) -> np.ndarray:
    """Stable norm of every row on a graph cover, sum_e l_e |f_e(h)|,
    read through the |E| x k matrix whose columns are the circulations
    of the unit rates."""
    g = cover.graph
    flows = np.column_stack([_edge_flow(g, unit) for unit in np.eye(g.cycle_rank)])
    return np.abs(rows @ flows.T) @ g.lengths


def _gap_bound(cover) -> float:
    """C of ``estimate_space_convergence`` on a graph cover."""
    g = cover.graph
    zero = np.zeros(g.cycle_rank)
    tree_diameter = max(float(np.abs(_edge_flow(g, zero, u, v)) @ g.lengths)
                        for u in range(g.n_vertices) for v in range(u, g.n_vertices))
    tree_length = float(g.lengths[np.array(g.tree_edge, dtype=bool)].sum())
    return tree_diameter + 2.0 * tree_length + 2.0 * float(g.lengths.max())


def _covering_radius(cover, eps: float, mesh: int, probes: np.ndarray) -> float:
    """Largest distance from a probe to the eps * G image of the canonical
    mesh.  The image is a union of product lattices (each coordinate an
    eps-integer or, on one non-tree edge at a time, on the eps/mesh grid;
    every coordinate on that grid on a torus), so the nearest point is
    coordinate-wise rounding."""
    def remainder(spacing):
        return np.abs(probes - spacing * np.round(probes / spacing))

    fine = remainder(eps / mesh)
    if cover.family == "torus":
        return float(_norm_rows(fine, cover.norm).max())
    coarse = remainder(eps)
    options = [coarse] + [np.where(np.arange(cover.deck_rank) == j, fine, coarse)
                          for j in range(cover.deck_rank)]
    return float(np.min([_norm_rows(o, cover.norm) for o in options], axis=0).max())


def estimate_space_convergence(cover, epsilons, mesh: int,
                               seed: int = 0) -> SpaceConvergenceReport:
    """Compare the cover metric with the limit of the rescaled covers,
    homology with the stable norm (Burago, *Periodic metrics*, 1992;
    Kotani and Sunada, Math. Z. 2006), and measure the mesh image.

    On a graph cover the sampled pairs are priced in one
    ``_pair_distances`` batch; each distinct one has gap = d(x, y) -
    ||G(y) - G(x)||_st.  Both terms scale with eps, so |gap| <= C makes
    (cover, eps d) an eps C-rough isometry of (R^k, ||.||_st) through
    eps G.  Here ||h||_st = sum_e l_e |f_e(h)| for the real circulation
    f(h) (``_edge_flow``), and C = D_T + 2 L_T + 2 l_max: tree diameter,
    tree length, longest edge.  On a torus d is the Euclidean norm of the
    lift difference and G the lift, so the gap is 0 for every pair and
    could not fail: no pairs are sampled, and the report carries 0 for
    the gaps, their bound and ``n_pairs``.

    Proof.  Read a path from x to y as a real edge chain S (traversals
    count +-1, the partial edges at x and y their fractions), so
    |S|_l = sum_e l_e |S_e| is at most its length.  G integrates the
    cocycles, so the non-tree part of S is dG = G(y) - G(x), and
    dS = mu_y - mu_x, with mu_p weighing the ends of p's edge by 1 - t
    and t.  Hence S - f(dG) is the tree chain with that boundary; its
    length is a transport cost along T, at most D_T, so
    | |S|_l - ||dG||_st | <= D_T, and a geodesic gives gap >= -D_T.
    Upper side: walk from x and y to the nearer ends a, b of their edges
    (o_x, o_y <= l_max / 2), then along the integer flow
    m = f(z_b - z_a) + (tree path a -> b) with every tree edge added once
    each way.  That multigraph is connected with boundary b - a, so an
    Euler trail from a to b lifts to a path of length |m|_l + 2 L_T
    between the two sheets.  The path's chain S is m plus the partial
    edges, so |m|_l <= |S|_l + o_x + o_y and gap <= D_T + 2 L_T + 2 l_max.

    ``passed`` also needs the covering radius at ``mesh``, over a probe
    grid of the ball |h| <= 1, within ``matching_bound`` on every rung.
    """
    gap, gap_bound = np.zeros(0), 0.0
    if cover.family == "graph":
        pts = _sample_points(cover, np.random.default_rng(seed))
        gvals = np.array([cover.g_map(p) for p in pts])
        first, second = np.triu_indices(len(pts), k=1)
        dist = cover._pair_distances(pts, first, second)
        distinct = dist > 1e-12
        gap = dist[distinct] - _stable_norm(
            cover, gvals[second[distinct]] - gvals[first[distinct]])
        gap_bound = _gap_bound(cover)
    axis = np.linspace(-_BALL_RADIUS, _BALL_RADIUS, 11)
    probes = _ball_nodes([axis] * cover.deck_rank, _BALL_RADIUS, cover.norm)
    return SpaceConvergenceReport(
        gap_low=float(gap.min(initial=0.0)),
        gap_high=float(gap.max(initial=0.0)),
        gap_bound=gap_bound,
        n_pairs=int(gap.size),
        epsilons=[float(e) for e in epsilons],
        covering_radius=[_covering_radius(cover, eps, mesh, probes)
                         for eps in epsilons],
        covering_bound=[matching_bound(cover, eps, mesh) for eps in epsilons],
    )
