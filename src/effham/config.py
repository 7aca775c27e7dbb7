"""Scenario configuration: YAML key-trees mapped onto solver objects.

A config file has six blocks: ``system``, ``cover``, ``datum``,
``experiment``, ``compute``, ``output``.  Validation failures carry the
dotted path of the offending field so batch logs stay actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .action import EdgeBump, InitialDatum, TorusBump
from .errors import ConfigError
from .homogenize import Scenario, default_beta_evaluator
from .model import GraphLagrangian, TorusHamiltonian, TrigPolynomial
from .topology import GraphCover, MetricGraph, SubcoverMap, TorusCover

_NORMS = ("l1", "l2", "linf")


def _require(tree: dict, key: str, path: str):
    if not isinstance(tree, dict) or key not in tree:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return tree[key]


def _optional(tree, key: str, default=None):
    if not isinstance(tree, dict):
        return default
    return tree.get(key, default)


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(path, "expected a nonempty list of numbers")
    return np.array([_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _as_norm(value, path: str) -> str:
    if value not in _NORMS:
        raise ConfigError(path, f"unknown norm {value!r}, expected one of {_NORMS}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description plus the constructed solver objects."""

    name: str
    cover: object
    model: object
    datum: InitialDatum
    bump: object
    subcover: object
    eps_ladder: tuple
    eval_points: tuple
    tolerance: float
    seed: int
    mesh: int
    rate_rungs: int
    p_grid: dict = field(default_factory=dict)
    w_grid: dict = field(default_factory=dict)
    out_dir: str = "out"

    def scenario(self) -> Scenario:
        return Scenario(name=self.name, cover=self.cover, model=self.model,
                        datum=self.datum, eps_ladder=self.eps_ladder,
                        eval_points=self.eval_points, bump=self.bump,
                        subcover=self.subcover, mesh=self.mesh,
                        rate_rungs=self.rate_rungs, tolerance=self.tolerance,
                        seed=self.seed)

    def beta_evaluator(self):
        return default_beta_evaluator(self.cover, self.model)


def _parse_trig(terms, n: int, path: str) -> TrigPolynomial:
    if not isinstance(terms, (list, tuple)) or not terms:
        raise ConfigError(path, "expected a nonempty list of trig terms")
    parsed = []
    for i, term in enumerate(terms):
        tp = f"{path}[{i}]"
        if not isinstance(term, dict):
            raise ConfigError(tp, "expected a mapping with 'k' and 'cos'/'sin'")
        k = _require(term, "k", tp)
        if not isinstance(k, (list, tuple)) or len(k) != n:
            raise ConfigError(f"{tp}.k", f"expected {n} integer frequencies")
        kv = [_as_int(v, f"{tp}.k[{j}]") for j, v in enumerate(k)]
        parsed.append((kv, _as_float(term.get("cos", 0.0), f"{tp}.cos"),
                       _as_float(term.get("sin", 0.0), f"{tp}.sin")))
    try:
        return TrigPolynomial(n, parsed)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _build_torus(system: dict, norm: str):
    n = _as_int(_require(system, "dimension", "system"), "system.dimension")
    if n not in (1, 2):
        raise ConfigError("system.dimension", f"expected 1 or 2, got {n}")
    pot = system.get("potential")
    v = (_parse_trig(pot, n, "system.potential") if pot is not None
         else TrigPolynomial.constant(n, 0.0))
    kin = system.get("kinetic")
    if kin is None:
        model = TorusHamiltonian.mechanical(v)
    else:
        expected = {1: 1, 2: 3}[n]
        if not isinstance(kin, (list, tuple)) or len(kin) != expected:
            raise ConfigError(
                "system.kinetic",
                f"expected {expected} entry lists for dimension {n}")
        entries = [_parse_trig(e, n, f"system.kinetic[{i}]")
                   for i, e in enumerate(kin)]
        try:
            model = TorusHamiltonian(n, entries, v)
        except ValueError as exc:
            raise ConfigError("system.kinetic", str(exc)) from None
    return TorusCover(n, norm=norm), model


def _build_graph(system: dict, norm: str):
    n_vertices = _as_int(_require(system, "vertices", "system"), "system.vertices")
    edges_cfg = _require(system, "edges", "system")
    if not isinstance(edges_cfg, (list, tuple)) or not edges_cfg:
        raise ConfigError("system.edges", "expected a nonempty list")
    edges = []
    potentials = []
    for i, edge in enumerate(edges_cfg):
        ep = f"system.edges[{i}]"
        if not isinstance(edge, dict):
            raise ConfigError(ep, "expected a mapping with u, v, length")
        u = _as_int(_require(edge, "u", ep), f"{ep}.u")
        v = _as_int(_require(edge, "v", ep), f"{ep}.v")
        length = _as_float(_require(edge, "length", ep), f"{ep}.length")
        if length <= 0.0:
            raise ConfigError(f"{ep}.length", f"must be positive, got {length}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ConfigError(ep, f"vertex out of range for {n_vertices} vertices")
        edges.append((u, v, length))
        potentials.append(_as_float(edge.get("potential", 0.0), f"{ep}.potential"))
    try:
        graph = MetricGraph(n_vertices, edges)
    except ValueError as exc:
        raise ConfigError("system.edges", str(exc)) from None
    if graph.cycle_rank < 1:
        raise ConfigError("system.edges", "graph has no independent cycle")
    if graph.cycle_rank > 2:
        # rate grids, beta interpolation and point matching stop at two
        # deck dimensions
        raise ConfigError("system.edges",
                          f"cycle rank {graph.cycle_rank} is above the "
                          "supported maximum of 2")
    return GraphCover(graph, norm=norm), GraphLagrangian(graph, np.array(potentials))


def _build_datum(datum_cfg: dict, dim: int) -> InitialDatum:
    family = _require(datum_cfg, "family", "datum")
    if family == "affine":
        p = _as_vector(_require(datum_cfg, "slope_vector", "datum"),
                       "datum.slope_vector")
        if p.shape != (dim,):
            raise ConfigError("datum.slope_vector",
                              f"expected {dim} entries, got {p.shape[0]}")
        return InitialDatum.affine(p, c=_as_float(datum_cfg.get("constant", 0.0),
                                                  "datum.constant"))
    if family == "cone":
        slope = _as_float(_require(datum_cfg, "slope", "datum"), "datum.slope")
        if slope < 0.0:
            raise ConfigError("datum.slope", f"must be nonnegative, got {slope}")
        center = datum_cfg.get("center")
        if center is not None:
            center = _as_vector(center, "datum.center")
            if center.shape != (dim,):
                raise ConfigError("datum.center", f"expected {dim} entries")
        norm = _as_norm(datum_cfg.get("norm", "l1"), "datum.norm")
        return InitialDatum.cone(slope, center=center,
                                 c=_as_float(datum_cfg.get("constant", 0.0),
                                             "datum.constant"),
                                 norm=norm, dim=dim)
    if family == "quadratic":
        cells = np.atleast_2d(np.array(_require(datum_cfg, "matrix", "datum"),
                                       dtype=object))
        if cells.shape != (dim, dim):
            raise ConfigError("datum.matrix", f"expected a {dim}x{dim} matrix")
        q = np.array([[_as_float(v, "datum.matrix") for v in row]
                      for row in cells])
        p = datum_cfg.get("slope_vector")
        if p is not None:
            p = _as_vector(p, "datum.slope_vector")
            if p.shape != (dim,):
                raise ConfigError("datum.slope_vector", f"expected {dim} entries")
        c = _as_float(datum_cfg.get("constant", 0.0), "datum.constant")
        try:
            return InitialDatum.quadratic(q, p=p, c=c)
        except ValueError as exc:
            raise ConfigError("datum.matrix", str(exc)) from None
    raise ConfigError("datum.family", f"unknown family {family!r}")


def _build_bump(bump_cfg, cover):
    if bump_cfg is None:
        return None
    family = _require(bump_cfg, "family", "datum.bump")
    if family == "trig":
        if cover.family != "torus":
            raise ConfigError("datum.bump.family", "'trig' requires a torus system")
        return TorusBump(_parse_trig(_require(bump_cfg, "terms", "datum.bump"),
                                     cover.n, "datum.bump.terms"))
    if family == "edge":
        if cover.family != "graph":
            raise ConfigError("datum.bump.family", "'edge' requires a graph system")
        amps = _as_vector(_require(bump_cfg, "amplitudes", "datum.bump"),
                          "datum.bump.amplitudes")
        n_edges = len(cover.graph.edges)
        if amps.shape != (n_edges,):
            raise ConfigError("datum.bump.amplitudes",
                              f"expected {n_edges} entries")
        freqs = bump_cfg.get("frequencies")
        if freqs is not None:
            freqs = [_as_int(v, f"datum.bump.frequencies[{i}]")
                     for i, v in enumerate(freqs)]
            if len(freqs) != n_edges:
                raise ConfigError("datum.bump.frequencies",
                                  f"expected {n_edges} entries")
        return EdgeBump(cover.graph, amps, frequencies=freqs)
    raise ConfigError("datum.bump.family", f"unknown family {family!r}")


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError on any defect."""
    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"malformed document: {exc}") from None
    if not isinstance(tree, dict):
        raise ConfigError("config", "top level must be a mapping")

    name = tree.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "required nonempty string")

    system = _require(tree, "system", "config")
    family = _require(system, "family", "system")
    cover_cfg = tree.get("cover", {}) or {}
    if family == "torus":
        norm = _as_norm(_optional(cover_cfg, "norm", "l2"), "cover.norm")
        cover, model = _build_torus(system, norm)
    elif family == "graph":
        norm = _as_norm(_optional(cover_cfg, "norm", "l1"), "cover.norm")
        cover, model = _build_graph(system, norm)
    else:
        raise ConfigError("system.family", f"unknown family {family!r}")

    subcover = None
    sub_mat = _optional(cover_cfg, "subcover")
    if sub_mat is not None:
        if cover.family != "graph":
            raise ConfigError("cover.subcover",
                              "intermediate covers are supported on graph "
                              "systems only")
        try:
            subcover = SubcoverMap(sub_mat)
        except ValueError as exc:
            raise ConfigError("cover.subcover", str(exc)) from None
        if subcover.k != cover.deck_rank:
            raise ConfigError("cover.subcover",
                              f"expected {cover.deck_rank} columns, got "
                              f"{subcover.k}")

    datum_cfg = _require(tree, "datum", "config")
    datum_dim = subcover.l if subcover is not None else cover.deck_rank
    datum = _build_datum(datum_cfg, datum_dim)
    bump = _build_bump(datum_cfg.get("bump"), cover)
    if bump is not None and subcover is not None:
        raise ConfigError("datum.bump",
                          "not supported together with cover.subcover")

    experiment = _require(tree, "experiment", "config")
    ladder_cfg = _require(experiment, "ladder", "experiment")
    if not isinstance(ladder_cfg, (list, tuple)) or not ladder_cfg:
        raise ConfigError("experiment.ladder", "expected a nonempty list")
    ladder = tuple(_as_float(v, f"experiment.ladder[{i}]")
                   for i, v in enumerate(ladder_cfg))
    if any(e <= 0.0 for e in ladder):
        raise ConfigError("experiment.ladder", "entries must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("experiment.ladder", "must be strictly decreasing")
    points_cfg = _require(experiment, "points", "experiment")
    if not isinstance(points_cfg, (list, tuple)) or not points_cfg:
        raise ConfigError("experiment.points", "expected a nonempty list")
    points = []
    for i, pt in enumerate(points_cfg):
        pp = f"experiment.points[{i}]"
        h = _as_vector(_require(pt, "h", pp), f"{pp}.h")
        if h.shape != (datum_dim,):
            raise ConfigError(f"{pp}.h", f"expected {datum_dim} coordinates")
        t = _as_float(_require(pt, "t", pp), f"{pp}.t")
        if t <= 0.0:
            raise ConfigError(f"{pp}.t", f"must be positive, got {t}")
        points.append((tuple(float(v) for v in h), t))
    tolerance = experiment.get("tolerance")
    if tolerance is not None:
        tolerance = _as_float(tolerance, "experiment.tolerance")
        if tolerance <= 0.0:
            raise ConfigError("experiment.tolerance", "must be positive")
    seed = _as_int(_require(experiment, "seed", "experiment"), "experiment.seed")

    compute = tree.get("compute", {}) or {}
    mesh = _as_int(_optional(compute, "mesh", 64), "compute.mesh")
    if mesh < 2:
        raise ConfigError("compute.mesh", f"must be at least 2, got {mesh}")
    rate_rungs = _as_int(_optional(compute, "rate_rungs", 4), "compute.rate_rungs")
    if rate_rungs < 2:
        raise ConfigError("compute.rate_rungs", "must be at least 2")

    def _grid_block(key: str, default_radius: float) -> dict:
        block = _optional(compute, key, {}) or {}
        radius = _as_float(_optional(block, "radius", default_radius),
                           f"compute.{key}.radius")
        n_points = _as_int(_optional(block, "points", 33), f"compute.{key}.points")
        if radius <= 0.0 or n_points < 3:
            raise ConfigError(f"compute.{key}",
                              "radius must be positive and points at least 3")
        return {"radius": radius, "points": n_points}

    output = tree.get("output", {}) or {}

    return ScenarioConfig(
        name=name, cover=cover, model=model, datum=datum, bump=bump,
        subcover=subcover, eps_ladder=ladder, eval_points=tuple(points),
        tolerance=tolerance, seed=seed, mesh=mesh, rate_rungs=rate_rungs,
        p_grid=_grid_block("p_grid", 1.0), w_grid=_grid_block("w_grid", 1.0),
        out_dir=str(_optional(output, "dir", "out")))
