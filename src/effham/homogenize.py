"""End-to-end convergence experiments on rescaled abelian covers.

Scenarios pin a model, a cover, an initial datum and an epsilon ladder;
the experiment runner matches evaluation targets to cover points, solves
the rescaled problem rung by rung, and compares against the homogenized
limit computed independently on homology space.

Every abelian cover runs through the same pipeline.  The maximal cover is
the identity case; an intermediate cover, the quotient of the maximal one
by the kernel of a surjection Z^k -> Z^l (``Scenario.subcover``), is
solved on the maximal cover with the datum pulled back through the
surjection and limited by the quotient rate function beta-hat, and three
quotient checks of the same run gate ``passed`` with the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

# unused minimal_action_graph: perfbench/test_perfbench.py expects the binding
from .action import (InitialDatum, _reach, hopf_lax, lax_oleinik,
                     lax_oleinik_many, minimal_action_graph)
from .errors import ConfigError, SolverError
from .mather import (AnalyticQuadraticBeta, BetaHatEvaluator,
                     DirectBetaEvaluator, LegendreDual, MechanicalBeta1D,
                     alpha_graph)
from .model import _proved_range
# unused estimate_space_convergence: perfbench/test_perfbench.py expects the binding
from .topology import (estimate_space_convergence, match_point, matching_bound,
                       norm_value)


def default_beta_evaluator(cover, model):
    """The exact (alpha, beta) pair of the scenario's system family.

    Graphs get the per-query graph solvers; free systems in any dimension
    (``TorusHamiltonian.free_kinetic``) get the two quadratic forms; other
    circle systems get the energy quadrature.  Any other torus system has
    no exact pair, and this test rejects it at config load (ConfigError on
    the kinetic matrix when it varies, else on the potential).

    It also rejects a torus system that is not convex in the momentum, a
    kinetic matrix A(x) not proved positive definite: a constant A by its
    smallest eigenvalue, a circle A(x) by the proved lower bound of
    ``TorusHamiltonian.kinetic_eig_bounds``, before ``MechanicalBeta1D``
    stores 2/A at its quadrature nodes.
    """
    if cover.family == "graph":
        return DirectBetaEvaluator(cover.graph, model)
    a_matrix = model.free_kinetic()
    if a_matrix is not None:
        _require_convex(np.linalg.eigvalsh(a_matrix)[0])
        return AnalyticQuadraticBeta(a_matrix)
    if model.n == 1:
        _require_convex(model.kinetic_eig_bounds()[0])
        return MechanicalBeta1D(model)
    raise ConfigError("system.potential" if model.constant_kinetic() is not None
                      else "system.kinetic",
                      "a two-dimensional torus needs a constant kinetic "
                      "matrix and no potential: no exact (alpha, beta) pair "
                      "is built in for other systems")


def _require_convex(amin: float) -> None:
    if not amin > 0.0:
        raise ConfigError("system.kinetic",
                          f"kinetic matrix is not positive definite (smallest "
                          f"eigenvalue {amin:.6g}): H is not convex in p")


def _rest_commute_bound(cover, model) -> float:
    """Upper bound on the finite-horizon action undershoot constant: the
    cost of commuting across the base to the cheapest idling spot."""
    if cover.family == "graph":
        gap = max(0.0, max(model.potentials) - min(model.potentials))
        return 2.0 * cover.base_diameter() * math.sqrt(2.0 * gap)
    amin, _ = model.kinetic_eig_bounds()
    vmin, vmax = _proved_range(model.v)
    gap = max(0.0, vmax - vmin)
    return 2.0 * cover.base_diameter() * math.sqrt(2.0 * gap / max(amin, 1e-12))


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one convergence experiment.

    The fields are taken as given; ``load_config`` is the one validator.
    The ladder is a strictly decreasing tuple of positive floats, and each
    evaluation point a (target, time) pair: the target a float tuple with
    one entry per deck (or subcover) dimension, the time positive.
    """

    name: str
    cover: object
    model: object
    datum: InitialDatum
    eps_ladder: tuple
    eval_points: tuple
    subcover: object = None
    mesh: int = 64
    tolerance: float = None

    def pass_tolerance(self) -> float:
        if self.tolerance is not None:
            return float(self.tolerance)
        eps_min = self.eps_ladder[-1]
        a_slope, _ = self.datum.growth_constants(self.cover.norm)
        combined = a_slope * matching_bound(self.cover, eps_min, self.mesh) + 1e-7
        return max(1e-2, 10.0 * combined)


@dataclass
class ExperimentRow:
    h: tuple
    t: float
    eps: float
    v_eps: float
    u_limit: float
    abs_error: float
    match_error: float


@dataclass
class ExperimentReport:
    scenario: str
    rows: list = field(default_factory=list)
    monotone_ok: bool = False
    sandwich_ok: bool = False
    final_error: float = math.inf
    tolerance: float = 1e-2
    passed: bool = False
    diagnostics: dict = field(default_factory=dict)
    cover_kernel_invariance_error: float = None
    lifted_limit_error: float = None
    dual_limit_error: float = None
    # names of the checks that failed ``passed``; not a field, so the
    # report files leave it out
    failed = ()

    def errors_by_eps(self) -> list:
        """Largest abs_error per eps, coarsest eps first; a NaN error stays
        NaN, so it reaches final_error and fails the report."""
        out = {}
        for row in self.rows:
            out.setdefault(row.eps, []).append(row.abs_error)
        return sorted(((e, float(np.max(v))) for e, v in out.items()),
                      key=lambda kv: -kv[0])

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def csv_lines(self) -> list:
        k = len(self.rows[0].h) if self.rows else 1
        header = ",".join([f"h{j + 1}" for j in range(k)]
                          + ["t", "epsilon", "v_eps", "u_limit", "abs_error"])
        lines = [header]
        for r in self.rows:
            cells = ["%.17g" % c for c in r.h]
            cells += ["%.17g" % r.t, "%.17g" % r.eps, "%.17g" % r.v_eps,
                      "%.17g" % r.u_limit, "%.17g" % r.abs_error]
            lines.append(",".join(cells))
        return lines


def _check_monotone(report: ExperimentReport, ladder) -> bool:
    by_point = {}
    for row in report.rows:
        by_point.setdefault((row.h, row.t), {})[row.eps] = row.abs_error
    for errs in by_point.values():
        seq = [errs[e] for e in ladder if e in errs]
        for i in range(1, len(seq) - 1):
            # a finer rung may exceed a coarser one by 5% plus 1e-9 of noise
            if seq[i + 1] > seq[i] * (1.0 + 0.05) + 1e-9:
                return False
    return True


def _check_sandwich(report: ExperimentReport, scenario: Scenario,
                    commute: float) -> bool:
    a_slope, _ = scenario.datum.growth_constants(scenario.cover.norm)
    for row in report.rows:
        allowance = a_slope * row.match_error + commute * row.eps + 1e-6
        if row.v_eps < row.u_limit - allowance:
            return False
    return True


def run_experiment(scenario: Scenario, beta_eval=None) -> ExperimentReport:
    """Ladder sweep of the rescaled solution against its homogenized
    limit at matched points, with report flags.

    With ``scenario.subcover`` set, targets live on the intermediate
    cover: points are matched through the map, the cover solution prices
    the pulled-back datum, the limit runs over beta-hat, and the checks
    of ``_quotient_checks`` gate too.  Only graph covers take a subcover.
    """
    cover, model = scenario.cover, scenario.model
    if beta_eval is None:
        beta_eval = default_beta_evaluator(cover, model)
    sub = scenario.subcover
    datum, limit_eval = scenario.datum, beta_eval
    if sub is not None:
        if cover.family != "graph":
            raise ValueError("quotient experiments are defined on graph covers")
        datum = _PulledBackDatum(scenario.datum, sub)
        limit_eval = BetaHatEvaluator(sub, beta_eval)
    report = ExperimentReport(scenario=scenario.name,
                              tolerance=scenario.pass_tolerance())

    limits, unpolished = {}, 0
    for h, t in scenario.eval_points:
        limits[(h, t)], ok = hopf_lax(limit_eval, scenario.datum, np.array(h), t)
        unpolished += not ok

    # every (rung, point) query in one solve, rung by rung
    labels = [(h, t, eps) for eps in scenario.eps_ladder
              for h, t in scenario.eval_points]
    matched = [match_point(cover, np.array(h), eps, scenario.mesh, sub)
               for h, _, eps in labels]
    points = [point for point, _ in matched]
    try:
        results = lax_oleinik_many(cover, model, datum, [
            (point, t, eps) for point, (_, t, eps) in zip(points, labels)],
            mesh=scenario.mesh)
    except SolverError as exc:
        where = ("" if exc.query is None
                 else "h={} t={} eps={}: ".format(*labels[exc.query]))
        raise SolverError(f"scenario {scenario.name}: {where}{exc}") from exc
    counts = {}
    for (h, t, eps), (_, image), res in zip(labels, matched, results):
        for key, n in res.diagnostics.items():
            counts[key] = counts.get(key, 0) + int(n)
        u_val = limits[(h, t)]
        report.rows.append(ExperimentRow(
            h=h, t=t, eps=eps, v_eps=float(res.value),
            u_limit=float(u_val), abs_error=float(abs(res.value - u_val)),
            match_error=float(norm_value(image - np.array(h), cover.norm))))

    errs = report.errors_by_eps()
    report.final_error = errs[-1][1] if errs else math.inf
    report.monotone_ok = _check_monotone(report, scenario.eps_ladder)
    report.sandwich_ok = _check_sandwich(report, scenario,
                                         _rest_commute_bound(cover, model))

    report.diagnostics = {
        "mesh": scenario.mesh,
        "max_window": max((res.window for res in results), default=0.0),
        "actions_evaluated": sum(res.evaluated for res in results),
        "neldermead_unconverged": unpolished,
        **counts,
    }
    quotient = {} if sub is None else _quotient_checks(
        scenario, report, datum, limit_eval, points)
    checks = {"final_error < tolerance": report.final_error < report.tolerance,
              "monotone_ok": report.monotone_ok, "sandwich_ok": report.sandwich_ok,
              "newton_capped": not counts.get("newton_capped", 0),
              "neldermead_unconverged":
              not report.diagnostics["neldermead_unconverged"],
              **quotient}
    report.failed = [name for name, ok in checks.items() if not ok]
    report.passed = not report.failed
    return report


class _PulledBackDatum:
    """Initial datum precomposed with the deck-lattice surjection, so full
    cover machinery can price quotient data without modification."""

    def __init__(self, base: InitialDatum, sub):
        self.base = base
        self.matrix = sub.matrix.astype(float)
        self.col = sub.op_norm

    def value(self, h) -> float:
        return float(self.value_many(np.atleast_2d(h))[0])

    def value_many(self, hs: np.ndarray) -> np.ndarray:
        rows = np.asarray(hs, dtype=float)[:, None, :]
        return self.base.value_many(np.vecdot(rows, self.matrix))  # M h a row

    def growth_constants(self, norm_kind: str):
        # subcovers live on graph covers, so norm_kind is l1, and the
        # surjection stretches l1 lengths by at most col
        a, b = self.base.growth_constants("l1")
        return a * self.col, b

    def lipschitz_bound(self, radius: float, norm_kind: str) -> float:
        # |M h|_1 <= col |h|_1 keeps M h in the ball of radius col * radius
        return self.col * self.base.lipschitz_bound(self.col * radius, "l1")


def _quotient_checks(scenario: Scenario, report: ExperimentReport, pulled,
                     bhat, points) -> dict:
    """The three checks of an intermediate cover, name to pass flag, on
    the ladder's ``points`` (first rung first); fills their report fields,
    ``kernel_rank`` and the unconverged polish count.  Each compares two
    independent routes to one quantity.

    * ``cover_kernel_invariance_error``: the pulled-back datum and the
      action are both invariant under the kernel of the surjection, so on
      the first rung v_eps(x + z) must equal v_eps(x) for every kernel
      element z with coefficients in {-1, 0, 1}; bound 1e-9 plus the
      matching bound of the last rung.
    * ``lifted_limit_error``: the quotient is a quotient of the maximal
      cover, so its limit at h is the maximal cover's limit of the
      pulled-back datum at any lift of h.  At every evaluation point the
      Hopf-Lax limit over beta at R h (R the right inverse) is compared
      with the first rung's ``u_limit``, the limit over beta-hat; bound
      1e-8.  This validates beta-hat against beta.
    * ``dual_limit_error``: alpha at the pulled-back covector against the
      conjugate of the quotient rate function; bound 1e-12, as both routes
      are exact to rounding.  The conjugate's box holds every maximiser:
      for |p|_inf <= 1, p.z - beta-hat(z) >= -beta-hat(0) and beta-hat(z)
      >= kappa |z|^2 - v_off give |z|_1 <= ``_reach(1/(2 kappa),
      (v_off + beta-hat(0))/kappa)``.
    """
    sub, cover, model = scenario.subcover, scenario.cover, scenario.model
    shifts = [z for z in sub.kernel_elements(1) if np.any(z)]

    # kernel invariance of the cover solution on the first rung
    eps = scenario.eps_ladder[0]
    cover_worst = 0.0
    for (_, t), point, row in zip(scenario.eval_points, points, report.rows):
        for z in shifts:
            shifted = lax_oleinik(cover, model, pulled, cover.translate(point, z),
                                  t, eps, mesh=scenario.mesh).value
            cover_worst = max(cover_worst, abs(shifted - row.v_eps))
    report.cover_kernel_invariance_error = float(cover_worst)

    # the maximal cover's limit of the pulled-back datum at a lift of h
    lifted_worst = 0.0
    for (h, t), row in zip(scenario.eval_points, report.rows):
        lifted, ok = hopf_lax(bhat.base, pulled,
                              sub.right_inverse.astype(float) @ np.array(h), t)
        report.diagnostics["neldermead_unconverged"] += not ok
        lifted_worst = max(lifted_worst, abs(lifted - row.u_limit))
    report.lifted_limit_error = float(lifted_worst)

    # dual route: pulled-back alpha vs conjugate beta-hat, 9 diagonal p rows
    dim = sub.matrix.shape[0]
    kappa, v_off = bhat.coercivity()
    box = _reach(0.5 / kappa, (v_off + bhat.value(np.zeros(dim))) / kappa)
    dual_src = LegendreDual(bhat.value, dim, p_box=box, p_points=49)
    ps = np.repeat(np.linspace(-1.0, 1.0, 9)[:, None], dim, axis=1)
    lhs = alpha_graph(cover.graph, model, sub.pullback(ps))
    report.dual_limit_error = float(max(abs(a - dual_src.value(p))
                                        for a, p in zip(lhs, ps)))

    report.diagnostics["kernel_rank"] = sub.kernel_rank()
    cover_tol = 1e-9 + matching_bound(cover, scenario.eps_ladder[-1],
                                      scenario.mesh)
    return {"cover_kernel_invariance_error <= cover_tol":
            report.cover_kernel_invariance_error <= cover_tol,
            "lifted_limit_error <= 1e-8": report.lifted_limit_error <= 1e-8,
            "dual_limit_error <= 1e-12": report.dual_limit_error <= 1e-12}
