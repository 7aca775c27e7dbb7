"""End-to-end convergence experiments on rescaled abelian covers.

Scenarios pin a model, a cover, an initial datum and an epsilon ladder;
the experiment runner matches evaluation targets to cover points, solves
the rescaled problem rung by rung, and compares against the homogenized
limit computed independently on homology space.

Every abelian cover runs through the same pipeline.  The maximal cover is
the identity case; an intermediate cover, the quotient of the maximal one
by the kernel of a surjection Z^k -> Z^l (``Scenario.subcover``), is
solved on the maximal cover with the datum pulled back through the
surjection and limited by the quotient rate function beta-hat.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# unused minimal_action_graph: perfbench/test_perfbench.py expects the binding
from .action import (InitialDatum, hopf_lax, lax_oleinik, minimal_action_graph,
                     norm_ratio)
from .errors import SolverError
from .mather import (AnalyticQuadraticBeta, BetaHatEvaluator,
                     DirectBetaEvaluator, LegendreDual, MechanicalBeta1D,
                     alpha_graph, effective_hamiltonian_subcover)
from .topology import estimate_space_convergence, match_point, norm_value


def _is_constant(trig) -> bool:
    return all(not np.any(k) for k, _, _ in trig.terms)


def default_beta_evaluator(cover, model):
    """Rate-cost evaluator matched to the scenario family.

    Graphs get the exact per-query solver; one-dimensional torus systems
    get the energy-parametrized closed form; constant-coefficient free
    systems in any dimension get the analytic quadratic.
    """
    if cover.family == "graph":
        return DirectBetaEvaluator(cover.graph, model)
    free_like = (_is_constant(model.v) and model.v.mean() == 0.0
                 and all(_is_constant(a) for a in model.a_entries))
    if free_like:
        return AnalyticQuadraticBeta(model.kinetic_matrix(np.zeros(model.n)))
    if model.n == 1:
        return MechanicalBeta1D(model)
    raise SolverError("no built-in rate evaluator for this system; "
                      "pass beta_eval explicitly")


def matching_bound(cover, eps: float, mesh: int) -> float:
    """Certified covering bound of the scaled mesh image around a target."""
    if cover.family == "torus":
        half = np.full(cover.n, 0.5 / mesh)
        return eps * norm_value(half, cover.norm)
    k = cover.deck_rank
    step = max(cover.graph.lengths) / mesh
    return eps * (0.5 * max(0, k - 1) + 0.5 * step)


def _rest_commute_bound(cover, model) -> float:
    """Upper bound on the finite-horizon action undershoot constant: the
    cost of commuting across the base to the cheapest idling spot."""
    if cover.family == "graph":
        gap = max(0.0, max(model.potentials) - min(model.potentials))
        return 2.0 * cover.base_diameter() * math.sqrt(2.0 * gap)
    amin, _ = model.kinetic_eig_bounds()
    vmin, vmax = model.potential_bounds()
    gap = max(0.0, vmax - vmin)
    return 2.0 * cover.base_diameter() * math.sqrt(2.0 * gap / max(amin, 1e-12))


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one convergence experiment."""

    name: str
    cover: object
    model: object
    datum: InitialDatum
    eps_ladder: tuple
    eval_points: tuple
    bump: object = None
    subcover: object = None
    mesh: int = 64
    rate_rungs: int = 4
    tolerance: float = None
    seed: int = 0

    def __post_init__(self):
        ladder = tuple(float(e) for e in self.eps_ladder)
        if not ladder or any(e <= 0 for e in ladder):
            raise ValueError("epsilon ladder must be positive")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("epsilon ladder must be strictly decreasing")
        points = []
        k = self.cover.deck_rank
        for h, t in self.eval_points:
            hv = tuple(float(c) for c in np.atleast_1d(h))
            if float(t) <= 0.0:
                raise ValueError("evaluation times must be positive")
            want = self.subcover.matrix.shape[0] if self.subcover is not None else k
            if len(hv) != want:
                raise ValueError(f"evaluation target {hv} has wrong dimension")
            points.append((hv, float(t)))
        object.__setattr__(self, "eps_ladder", ladder)
        object.__setattr__(self, "eval_points", tuple(points))

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
    rate_exponent: float = None
    rate_residual: float = None
    space_summary: dict = field(default_factory=dict)
    monotone_ok: bool = False
    sandwich_ok: bool = False
    final_error: float = math.inf
    tolerance: float = 1e-2
    passed: bool = False
    diagnostics: dict = field(default_factory=dict)
    cover_kernel_invariance_error: float = None
    kernel_invariance_error: float = None
    dual_limit_error: float = None

    def errors_by_eps(self) -> list:
        """Largest abs_error per eps, coarsest eps first; a NaN error stays
        NaN, so it reaches final_error and fails the report."""
        out = {}
        for row in self.rows:
            out.setdefault(row.eps, []).append(row.abs_error)
        return sorted(((e, float(np.max(v))) for e, v in out.items()),
                      key=lambda kv: -kv[0])

    def to_tree(self) -> dict:
        return {
            "scenario": self.scenario,
            "rows": [{"h": list(r.h), "t": r.t, "eps": r.eps,
                      "v_eps": r.v_eps, "u_limit": r.u_limit,
                      "abs_error": r.abs_error, "match_error": r.match_error}
                     for r in self.rows],
            "rate_exponent": self.rate_exponent,
            "rate_residual": self.rate_residual,
            "space_summary": self.space_summary,
            "monotone_ok": self.monotone_ok,
            "sandwich_ok": self.sandwich_ok,
            "final_error": self.final_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "diagnostics": self.diagnostics,
            "cover_kernel_invariance_error": self.cover_kernel_invariance_error,
            "kernel_invariance_error": self.kernel_invariance_error,
            "dual_limit_error": self.dual_limit_error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_tree(), sort_keys=True, indent=2)

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


def _fit_rate(errs_by_eps, n_rungs: int, noise_floor: float = 1e-12):
    """Log-log least squares slope over the last rungs above noise."""
    tail = [(e, v) for e, v in errs_by_eps if v > noise_floor][-n_rungs:]
    if len(tail) < 2:
        return None, None
    xs = np.log([e for e, _ in tail])
    ys = np.log([v for _, v in tail])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), resid


def _check_monotone(report: ExperimentReport, ladder, slack: float = 0.05,
                    noise_floor: float = 1e-9) -> bool:
    by_point = {}
    for row in report.rows:
        by_point.setdefault((row.h, row.t), {})[row.eps] = row.abs_error
    for errs in by_point.values():
        seq = [errs[e] for e in ladder if e in errs]
        for i in range(1, len(seq) - 1):
            if seq[i + 1] > seq[i] * (1.0 + slack) + noise_floor:
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


def run_experiment(scenario: Scenario, beta_eval=None,
                   with_spaces: bool = True) -> ExperimentReport:
    """Ladder sweep of the rescaled solution against its homogenized
    limit at matched points, with rate fit and report flags.

    With ``scenario.subcover`` set, targets live on the intermediate
    cover: points are matched through the map, the cover solution prices
    the pulled-back datum, and the limit runs over beta-hat.  Only graph
    covers without datum bumps take a subcover.
    """
    cover, model = scenario.cover, scenario.model
    if beta_eval is None:
        beta_eval = default_beta_evaluator(cover, model)
    sub = scenario.subcover
    datum, limit_eval = scenario.datum, beta_eval
    if sub is not None:
        if cover.family != "graph":
            raise ValueError("quotient experiments are defined on graph covers")
        if scenario.bump is not None:
            raise ValueError("quotient experiments do not take datum bumps")
        datum = _PulledBackDatum(scenario.datum, sub.matrix)
        limit_eval = BetaHatEvaluator(sub, beta_eval)
    report = ExperimentReport(scenario=scenario.name,
                              tolerance=scenario.pass_tolerance())

    limits = {}
    for h, t in scenario.eval_points:
        limits[(h, t)] = hopf_lax(limit_eval, scenario.datum, np.array(h), t)

    windows = []
    evaluated = 0
    for eps in scenario.eps_ladder:
        for h, t in scenario.eval_points:
            point, image = match_point(cover, np.array(h), eps, scenario.mesh,
                                       sub)
            try:
                res = lax_oleinik(cover, model, datum, point, t, eps,
                                  bump=scenario.bump, mesh=scenario.mesh,
                                  details=True)
            except SolverError as exc:
                raise SolverError(
                    f"scenario {scenario.name}: h={h} t={t} eps={eps}: {exc}"
                ) from exc
            windows.append(res.window)
            evaluated += res.evaluated
            u_val = limits[(h, t)]
            report.rows.append(ExperimentRow(
                h=h, t=t, eps=eps, v_eps=float(res.value),
                u_limit=float(u_val), abs_error=float(abs(res.value - u_val)),
                match_error=float(norm_value(image - np.array(h),
                                             cover.norm))))

    ladder = scenario.eps_ladder
    errs = report.errors_by_eps()
    report.rate_exponent, report.rate_residual = _fit_rate(
        errs, scenario.rate_rungs)
    report.final_error = errs[-1][1] if errs else math.inf
    report.monotone_ok = _check_monotone(report, ladder)
    report.sandwich_ok = _check_sandwich(report, scenario,
                                         _rest_commute_bound(cover, model))

    if with_spaces:
        sp = estimate_space_convergence(cover, ladder, seed=scenario.seed)
        report.space_summary = {
            "fitted_k": sp.fitted_k,
            "a_eps": list(sp.a_eps),
            "a_slope": sp.a_slope(),
            "a_slope_stable": sp.a_slope_stable(),
            "covering_radius": list(sp.covering_radius),
        }

    report.diagnostics = {
        "mesh": scenario.mesh,
        "max_window": max(windows) if windows else 0.0,
        "actions_evaluated": int(evaluated),
    }
    report.passed = (report.final_error < report.tolerance
                     and report.monotone_ok and report.sandwich_ok)
    return report


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

    def deviations(self):
        return [r.deviation for r in self.rows]


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
            v_eps = lax_oleinik(cover, model, datum, point, t, eps, mesh=mesh)
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


class _PulledBackDatum:
    """Initial datum precomposed with the deck-lattice surjection, so full
    cover machinery can price quotient data without modification."""

    def __init__(self, base: InitialDatum, matrix):
        self.base = base
        self.matrix = np.asarray(matrix, dtype=float)
        self.dim = self.matrix.shape[1]

    def value(self, h) -> float:
        h = np.atleast_1d(np.asarray(h, dtype=float))
        return self.base.value(self.matrix @ h)

    def value_many(self, hs: np.ndarray) -> np.ndarray:
        return self.base.value_many(np.asarray(hs, dtype=float) @ self.matrix.T)

    def growth_constants(self, norm_kind: str):
        a, b = self.base.growth_constants("l1")
        col = (float(np.max(np.sum(np.abs(self.matrix), axis=0)))
               if self.matrix.size else 0.0)
        return a * col * norm_ratio(norm_kind, "l1", self.dim), b


def run_subcover_experiment(scenario: Scenario, beta_eval=None,
                            p_grid=None) -> ExperimentReport:
    """The ladder experiment of an intermediate cover plus three checks
    that gate ``passed``.

    * ``cover_kernel_invariance_error``: the pulled-back datum and the
      action are both invariant under the kernel of the surjection, so on
      the first rung v_eps(x + z) must equal v_eps(x) for every kernel
      element z with coefficients in {-1, 0, 1}; bound 1e-9 plus the
      matching bound of the last rung.
    * ``kernel_invariance_error``: the same symmetry of the lifted limit
      on homology space; bound 1e-8.
    * ``dual_limit_error``: alpha at the pulled-back covector against the
      conjugate of the quotient rate function; bound 1e-3.

    Raises ValueError without a subcover map, on torus covers and with
    datum bumps.
    """
    sub = scenario.subcover
    if sub is None:
        raise ValueError("scenario has no subcover map")
    cover, model = scenario.cover, scenario.model
    if beta_eval is None:
        beta_eval = default_beta_evaluator(cover, model)
    report = run_experiment(scenario, beta_eval=beta_eval, with_spaces=False)
    pulled = _PulledBackDatum(scenario.datum, sub.matrix)
    shifts = [z for z in sub.kernel_elements(1) if np.any(z)]

    # kernel invariance of the cover solution on the first rung
    eps = scenario.eps_ladder[0]
    cover_worst = 0.0
    for (h, t), row in zip(scenario.eval_points, report.rows):
        point, _ = match_point(cover, np.array(h), eps, scenario.mesh, sub)
        for z in shifts:
            shifted = lax_oleinik(cover, model, pulled, cover.translate(point, z),
                                  t, eps, mesh=scenario.mesh)
            cover_worst = max(cover_worst, abs(shifted - row.v_eps))
    report.cover_kernel_invariance_error = float(cover_worst)

    # kernel invariance of the lifted limit on homology space
    ker_worst = 0.0
    for h, t in scenario.eval_points[:2]:
        q0 = sub.right_inverse.astype(float) @ np.array(h)
        base_val = hopf_lax(beta_eval, pulled, q0, t)
        for z in shifts:
            shifted = hopf_lax(beta_eval, pulled, q0 + z, t)
            ker_worst = max(ker_worst, abs(shifted - base_val))
    report.kernel_invariance_error = float(ker_worst)

    # dual route: alpha at the pulled-back covector vs the conjugate of
    # the quotient rate function
    if p_grid is None:
        p_grid = [np.full(sub.matrix.shape[0], v)
                  for v in np.linspace(-1.0, 1.0, 9)]
    bhat = BetaHatEvaluator(sub, beta_eval)
    dual_src = LegendreDual(bhat.value, sub.matrix.shape[0], p_box=6.0,
                            p_points=49)
    dual_worst = 0.0
    for p in p_grid:
        lhs = effective_hamiltonian_subcover(
            sub, lambda q: alpha_graph(cover.graph, model, q), p)
        rhs = dual_src.value(np.atleast_1d(p))
        dual_worst = max(dual_worst, abs(lhs - rhs))
    report.dual_limit_error = float(dual_worst)

    report.diagnostics["kernel_rank"] = sub.kernel_rank()
    cover_tol = 1e-9 + matching_bound(cover, scenario.eps_ladder[-1],
                                      scenario.mesh)
    report.passed = (report.passed
                     and report.cover_kernel_invariance_error <= cover_tol
                     and report.kernel_invariance_error <= 1e-8
                     and report.dual_limit_error <= 1e-3)
    return report
