"""Scenario configuration: YAML key-trees mapped onto solver objects.

A config file has six blocks: ``system``, ``cover``, ``datum``,
``experiment``, ``compute``, ``output``.  Validation failures carry the
dotted path of the offending field so batch logs stay actionable.

Loading is the one place that decides what a run may be, so everything
downstream can take it as given.  The system's (alpha, beta) evaluator is
picked at load: a system the package has no exact pair for, or a torus
system whose kinetic matrix is not proved positive definite (H not
convex in the momentum), is rejected here, as is a 2-torus that is not
free (``TorusHamiltonian``).  Each cover family has one measuring norm
(l1 on graphs, l2 on tori), and a cone datum measures in it, so no key
names a norm.  The cover datum is the limit datum read through the
rescaled coordinate map, f(eps * G(x)).  A key that the loader does not
read (for a datum, per family), and a block that is not a mapping, are
rejected on their dotted path, so a misspelt field, a ``datum.bump`` or
a ``compute: 5`` cannot load as if it were absent.  ``load_config``
returns a ``ScenarioConfig``: the ``homogenize.Scenario`` itself plus the
fields only the CLI reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .action import InitialDatum
from .errors import ConfigError, ModelValidityError
from .homogenize import Scenario, default_beta_evaluator
from .model import GraphLagrangian, TorusHamiltonian, TrigPolynomial, _is_constant
from .topology import GraphCover, MetricGraph, SubcoverMap, TorusCover


def _require(tree: dict, key: str, path: str):
    if not isinstance(tree, dict) or key not in tree:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return tree[key]


def _known_keys(tree, allowed, path: str) -> None:
    """Reject a block that is not a mapping, and a key of it that the
    loader does not read."""
    if not isinstance(tree, dict):
        raise ConfigError(path, f"expected a mapping, got {tree!r}")
    for key in tree:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else str(key),
                              f"unknown key; expected one of "
                              f"{', '.join(sorted(allowed))}")


def _block(tree: dict, key: str, allowed, path: str) -> dict:
    """The optional mapping tree[key] with its keys checked; {} when the
    key is absent or null."""
    block = tree.get(key)
    if block is None:
        return {}
    _known_keys(block, allowed, path)
    return block


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


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(Scenario):
    """A loaded ``Scenario`` plus the fields only the CLI reads: the
    ``spaces`` seed, the evaluator, the table grids, the artifact directory."""

    seed: int
    evaluator: object
    p_grid: dict = field(default_factory=dict)
    w_grid: dict = field(default_factory=dict)
    out_dir: str = "out"

    def scenario(self) -> Scenario:
        """The experiment this config describes: the config itself."""
        return self

    def beta_evaluator(self):
        """The system's (alpha, beta) evaluator, picked at load."""
        return self.evaluator


def _parse_trig(terms, n: int, path: str) -> TrigPolynomial:
    if not isinstance(terms, (list, tuple)) or not terms:
        raise ConfigError(path, "expected a nonempty list of trig terms")
    parsed = []
    for i, term in enumerate(terms):
        tp = f"{path}[{i}]"
        if not isinstance(term, dict):
            raise ConfigError(tp, "expected a mapping with 'k' and 'cos'/'sin'")
        _known_keys(term, ("k", "cos", "sin"), tp)
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


def _build_torus(system: dict):
    _known_keys(system, ("family", "dimension", "potential", "kinetic"),
                "system")
    n = _as_int(_require(system, "dimension", "system"), "system.dimension")
    if n not in (1, 2):
        raise ConfigError("system.dimension", f"expected 1 or 2, got {n}")
    pot = system.get("potential")
    v = (_parse_trig(pot, n, "system.potential") if pot is not None
         else TrigPolynomial.constant(n, 0.0))
    kin, entries = system.get("kinetic"), None
    if kin is not None:
        expected = {1: 1, 2: 3}[n]
        if not isinstance(kin, (list, tuple)) or len(kin) != expected:
            raise ConfigError(
                "system.kinetic",
                f"expected {expected} entry lists for dimension {n}")
        entries = [_parse_trig(e, n, f"system.kinetic[{i}]")
                   for i, e in enumerate(kin)]
    try:
        model = (TorusHamiltonian.mechanical(v) if entries is None
                 else TorusHamiltonian(n, entries, v))
    except ModelValidityError as exc:
        # a 2-torus that is not free: its A varies, else it has a potential
        varies = entries is not None and not all(map(_is_constant, entries))
        raise ConfigError("system.kinetic" if varies else "system.potential",
                          str(exc)) from None
    return TorusCover(n), model


def _build_graph(system: dict):
    _known_keys(system, ("family", "vertices", "edges"), "system")
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
        _known_keys(edge, ("u", "v", "length", "potential"), ep)
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
    if len(graph.edges) > 12:
        # action._multisets screens 2^|E| traversal multisets per endpoint
        # pair, and its time and memory double with each edge: a 3-rung
        # ladder on a path plus two chords takes 3.4 s at 12 edges and
        # 4.1 s at 13 (2-core Xeon)
        raise ConfigError("system.edges", f"{len(graph.edges)} edges are "
                          "above the supported maximum of 12")
    return GraphCover(graph), GraphLagrangian(graph, np.array(potentials))


# the keys each datum family reads
_DATUM_KEYS = {"affine": ("family", "slope_vector", "constant"),
               "cone": ("family", "slope", "center", "constant"),
               "quadratic": ("family", "matrix", "slope_vector", "constant")}


def _build_datum(datum_cfg: dict, dim: int, norm: str) -> InitialDatum:
    family = _require(datum_cfg, "family", "datum")
    if not isinstance(family, str):
        raise ConfigError("datum.family", f"expected a string, got {family!r}")
    if family in _DATUM_KEYS:
        _known_keys(datum_cfg, _DATUM_KEYS[family], "datum")
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
    _known_keys(tree, ("name", "system", "cover", "datum", "experiment",
                       "compute", "output"), "")

    name = tree.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "required nonempty string")
    if os.sep in name or (os.altsep and os.altsep in name):
        raise ConfigError("name", "a path separator is not allowed: the "
                          "artifacts are named after it in one directory")

    system = _require(tree, "system", "config")
    family = _require(system, "family", "system")
    cover_cfg = _block(tree, "cover", ("subcover",), "cover")
    if family == "torus":
        cover, model = _build_torus(system)
    elif family == "graph":
        cover, model = _build_graph(system)
    else:
        raise ConfigError("system.family", f"unknown family {family!r}")
    evaluator = default_beta_evaluator(cover, model)

    subcover = None
    sub_mat = cover_cfg.get("subcover")
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
    datum = _build_datum(datum_cfg, datum_dim, cover.norm)

    experiment = _require(tree, "experiment", "config")
    _known_keys(experiment, ("ladder", "points", "tolerance", "seed"),
                "experiment")
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
        _known_keys(pt, ("h", "t"), pp)
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
    if seed < 0:
        raise ConfigError("experiment.seed", f"must be nonnegative, got {seed}")

    compute = _block(tree, "compute", ("mesh", "p_grid", "w_grid"), "compute")
    mesh = _as_int(compute.get("mesh", 64), "compute.mesh")
    if mesh < 2:
        raise ConfigError("compute.mesh", f"must be at least 2, got {mesh}")

    def _grid_block(key: str, default_radius: float) -> dict:
        block = _block(compute, key, ("radius", "points"), f"compute.{key}")
        radius = _as_float(block.get("radius", default_radius),
                           f"compute.{key}.radius")
        n_points = _as_int(block.get("points", 33), f"compute.{key}.points")
        if radius <= 0.0 or n_points < 3:
            raise ConfigError(f"compute.{key}",
                              "radius must be positive and points at least 3")
        return {"radius": radius, "points": n_points}

    output = _block(tree, "output", ("dir",), "output")
    out_dir = output.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.dir", f"expected a nonempty string, got "
                          f"{out_dir!r}")

    return ScenarioConfig(
        name=name, cover=cover, model=model, datum=datum, subcover=subcover,
        eps_ladder=ladder, eval_points=tuple(points),
        tolerance=tolerance, seed=seed, mesh=mesh, evaluator=evaluator,
        p_grid=_grid_block("p_grid", 1.0), w_grid=_grid_block("w_grid", 1.0),
        out_dir=out_dir)
