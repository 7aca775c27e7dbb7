import dataclasses
import os

import numpy as np
import pytest

from effham import action, homogenize
from effham.action import InitialDatum
from effham.config import load_config
from effham.errors import SolverError
from effham.homogenize import (
    ExperimentReport,
    ExperimentRow,
    Scenario,
    matching_bound,
    run_experiment,
)
from effham.mather import BetaHatEvaluator, alpha_graph
from effham.model import TorusHamiltonian, TrigPolynomial
from effham.topology import SubcoverMap
from tests.oracles import affine_datum_check


LADDER3 = (1.0, 0.5, 0.25)
_SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def test_free_experiment_error_equals_matching(circle, free1):
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3,), 1.0), ((-2 / 3,), 0.5)),
                        mesh=32)
    report = run_experiment(scenario)
    assert report.passed
    assert report.monotone_ok and report.sandwich_ok
    for row in report.rows:
        assert row.abs_error == pytest.approx(row.match_error, abs=1e-12)


def test_sandwich_violation_fails_the_report(circle, free1, monkeypatch):
    # a cover solver that undershoots the limit by 1 keeps the error flat
    # (monotone) and under the loose tolerance, so only the sandwich
    # check can catch it
    solve = homogenize.lax_oleinik_many

    def undershoot(*args, **kwargs):
        results = solve(*args, **kwargs)
        for res in results:
            res.value -= 1.0
        return results

    monkeypatch.setattr(homogenize, "lax_oleinik_many", undershoot)
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3, eval_points=(((1 / 3,), 1.0),),
                        mesh=32, tolerance=2.0)
    report = run_experiment(scenario)
    assert report.final_error < report.tolerance and report.monotone_ok
    assert not report.sandwich_ok
    assert not report.passed


def test_nan_error_reaches_final_error():
    # max(0.0, nan) is 0.0, so folding rows with the builtin max would hide
    # the NaN of the first row at eps 0.25
    rows = [ExperimentRow(h=(0.0,), t=1.0, eps=eps, v_eps=0.0, u_limit=0.0,
                          abs_error=err, match_error=0.0)
            for eps, err in ((0.5, 0.1), (0.25, float("nan")), (0.25, 0.01))]
    errs = ExperimentReport(scenario="nan", rows=rows).errors_by_eps()
    assert [e for e, _ in errs] == [0.5, 0.25]
    assert errs[0][1] == 0.1 and np.isnan(errs[1][1])


def test_nan_cover_value_fails_the_report(circle, free1, monkeypatch):
    solve = homogenize.lax_oleinik_many

    def nan_value(*args, **kwargs):
        results = solve(*args, **kwargs)
        for res in results:
            res.value = float("nan")
        return results

    monkeypatch.setattr(homogenize, "lax_oleinik_many", nan_value)
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3, eval_points=(((1 / 3,), 1.0),),
                        mesh=32)
    report = run_experiment(scenario)
    assert np.isnan(report.final_error)
    assert not report.passed


def test_experiment_reruns_are_identical(circle, free1):
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3,), 1.0),),
                        mesh=32)
    first = run_experiment(scenario)
    again = run_experiment(scenario)
    assert dataclasses.asdict(first) == dataclasses.asdict(again)


def test_pendulum_experiment_error_decreases(circle, pendulum):
    scenario = Scenario(name="pend-small", cover=circle, model=pendulum,
                        datum=InitialDatum.affine([0.0]),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3,), 1.0),),
                        mesh=32)
    report = run_experiment(scenario)
    assert report.monotone_ok
    errs = [v for _, v in report.errors_by_eps()]
    assert errs[-1] < errs[0]
    # flat datum: the limit is -alpha(0) t, error shrinks like eps
    assert errs[-1] == pytest.approx(errs[0] / 4.0, rel=0.1)


def test_figure_eight_cone_experiment(fig8_cover, fig8_lag):
    scenario = Scenario(name="fig8-small", cover=fig8_cover, model=fig8_lag,
                        datum=InitialDatum.cone(0.6, norm="l1", dim=2),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3, -1 / 3), 1.0),),
                        mesh=32)
    report = run_experiment(scenario)
    assert report.monotone_ok
    errs = [v for _, v in report.errors_by_eps()]
    # coarse rungs can wobble; the tolerance claim needs the full ladder
    assert errs[-1] < 0.5 * errs[0]


def test_ladder_polish_prices_every_rung_at_once(monkeypatch):
    # graph-ladder's cut figure_eight ladder: polishing rung by rung made
    # 188 allocate_time calls, one per golden step of each rung
    scenario = load_config(os.path.join(_SCENARIOS, "figure_eight.yaml")).scenario()
    scenario = dataclasses.replace(scenario, eps_ladder=(1.0, 0.5, 0.25, 0.125))
    allocate, polish, calls = action.allocate_time, action._graph_polish, []

    def counted(*args):
        calls.append(polishing)
        return allocate(*args)

    def flagged(*args):
        nonlocal polishing
        polishing = True
        try:
            return polish(*args)
        finally:
            polishing = False

    polishing = False
    monkeypatch.setattr(action, "allocate_time", counted)
    monkeypatch.setattr(action, "_graph_polish", flagged)
    run_experiment(scenario)
    assert 0 < sum(calls) <= 50


@pytest.mark.parametrize("name, fail_at, where", [
    # each graph query sweeps once, so the third sweep is the third rung's
    ("_sweep", 3, "h=(0.3333333333333333, -0.3333333333333333) t=1.0 eps=0.25: "),
    # the joint polish belongs to no one query
    ("_golden_min", 1, "")])
def test_solver_error_names_its_query(monkeypatch, fig8_cover, fig8_lag, name,
                                      fail_at, where):
    scenario = Scenario(name="fig8-small", cover=fig8_cover, model=fig8_lag,
                        datum=InitialDatum.cone(0.6, norm="l1", dim=2),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3, -1 / 3), 1.0),), mesh=32)
    real, seen = getattr(action, name), []

    def fails(*args):
        seen.append(None)
        if len(seen) == fail_at:
            raise SolverError("stalled")
        return real(*args)

    monkeypatch.setattr(action, name, fails)
    with pytest.raises(SolverError) as info:
        run_experiment(scenario)
    assert str(info.value) == f"scenario fig8-small: {where}stalled"


def test_affine_check_free_is_tight(circle, free1):
    report = affine_datum_check(circle, free1, [0.8], 0.1, [0.5, 0.25],
                                (((0.4,), 1.0),), alpha_value=0.32, mesh=32)
    assert report.passed
    assert all(row.deviation <= 1e-12 for row in report.rows)


def test_affine_check_constant_potential_invariance(circle):
    const = TorusHamiltonian.mechanical(TrigPolynomial.constant(1, -0.3))
    report = affine_datum_check(circle, const, [0.5], 0.0, [0.5, 0.25],
                                (((0.4,), 1.0),),
                                alpha_value=0.5 * 0.25 - 0.3, mesh=32)
    assert report.passed
    assert all(row.deviation <= 1e-12 for row in report.rows)


def test_affine_check_pendulum_linear_in_scale(circle, pendulum):
    ladder = [2.0 ** (-j) for j in range(7)]
    report = affine_datum_check(circle, pendulum, [0.0], 0.0, ladder,
                                (((1 / 3,), 1.0),), alpha_value=1.0)
    assert report.passed
    devs = [row.deviation for row in report.rows]
    for prev, nxt in zip(devs, devs[1:]):
        assert nxt == pytest.approx(prev / 2.0, rel=0.05)
    assert devs[-1] < 1e-2
    assert report.fitted_c == pytest.approx(devs[0], rel=0.05)


def test_identity_subcover_reproduces_plain_run(loop2_cover, loop2_lag):
    common = dict(cover=loop2_cover, model=loop2_lag,
                  datum=InitialDatum.affine([0.4]),
                  eps_ladder=(0.5, 0.25), eval_points=(((1 / 3,), 1.0),),
                  mesh=32)
    quotient = run_experiment(
        Scenario(name="loop-ident", subcover=SubcoverMap([[1]]), **common))
    plain = run_experiment(Scenario(name="loop-plain", **common))
    for qrow, prow in zip(quotient.rows, plain.rows):
        assert qrow.v_eps == pytest.approx(prow.v_eps, abs=1e-9)
    assert quotient.cover_kernel_invariance_error <= 1e-9
    assert quotient.dual_limit_error <= 1e-12


def test_unconverged_hopf_lax_polish_is_counted(loop2_cover, loop2_lag,
                                                monkeypatch):
    common = dict(cover=loop2_cover, model=loop2_lag,
                  datum=InitialDatum.affine([0.4]), eps_ladder=(0.5, 0.25),
                  eval_points=(((1 / 3,), 1.0), ((-0.5,), 2.0)), mesh=32)
    plain = Scenario(name="loop-plain", **common)
    quotient = Scenario(name="loop-ident", subcover=SubcoverMap([[1]]), **common)
    before = [run_experiment(plain), run_experiment(quotient)]
    polish = action._nelder_mead

    def stalled(*args, **kwargs):
        x, fun, _, nfev = polish(*args, **kwargs)
        return x, fun, 2, nfev

    # a graph cover solve runs no Nelder-Mead; only the Hopf-Lax polish does
    monkeypatch.setattr(action, "_nelder_mead", stalled)
    after = [run_experiment(plain), run_experiment(quotient)]
    # one polish per evaluation point, and in the subcover run one more per
    # evaluation point for the lifted limit
    assert [r.diagnostics["neldermead_unconverged"] for r in before] == [0, 0]
    assert [r.diagnostics["neldermead_unconverged"] for r in after] == [2, 4]
    # the same values, read from an unconverged polish, fail both runs
    assert [r.passed for r in before] == [True, True]
    assert [r.passed for r in after] == [False, False]
    for old, new in zip(before, after):
        assert [(r.v_eps, r.u_limit) for r in new.rows] == \
            [(r.v_eps, r.u_limit) for r in old.rows]


def test_merged_loops_subcover_consistency(fig8_cover, fig8_lag, fig8):
    # on [[2, 3]] the conjugate of beta-hat peaks beyond |z| = 6
    for matrix in ([1, 1], [2, 3]):
        scenario = Scenario(name="fig8-merge", cover=fig8_cover, model=fig8_lag,
                            datum=InitialDatum.affine([0.5], 0.1),
                            eps_ladder=(1.0, 0.5), eval_points=(((0.8,), 1.0),),
                            mesh=32, subcover=SubcoverMap([matrix]))
        report = run_experiment(scenario)

        # the quotient limit of an affine datum is affine with the
        # pulled-back level
        closed = 0.1 + 0.5 * 0.8 - alpha_graph(fig8, fig8_lag,
                                               0.5 * np.array(matrix)) * 1.0
        for row in report.rows:
            assert row.u_limit == pytest.approx(closed, abs=1e-6)
        assert report.cover_kernel_invariance_error <= 1e-9 + matching_bound(
            fig8_cover, scenario.eps_ladder[-1], scenario.mesh)
        assert report.lifted_limit_error <= 1e-8
        assert report.dual_limit_error <= 1e-12


@pytest.mark.parametrize("wrong", [lambda b: 1.01 * b, lambda b: b + 1e-6],
                         ids=["scaled", "raised"])
def test_lifted_limit_catches_a_wrong_beta_hat(fig8_cover, fig8_lag,
                                               monkeypatch, wrong):
    # the lifted limit over beta at R h is one route, the limit over
    # beta-hat the other; a beta-hat off by 1e-6 moves only the second
    value = BetaHatEvaluator.value
    monkeypatch.setattr(BetaHatEvaluator, "value",
                        lambda self, z: wrong(value(self, z)))
    scenario = Scenario(name="fig8-merge", cover=fig8_cover, model=fig8_lag,
                        datum=InitialDatum.cone(0.6, norm="l1", dim=1),
                        eps_ladder=(1.0,),
                        eval_points=(((1 / 3,), 1.0), ((-2 / 3,), 0.5)),
                        mesh=32, subcover=SubcoverMap([[1, 1]]))
    report = run_experiment(scenario)
    assert report.lifted_limit_error > 1e-8
    assert "lifted_limit_error <= 1e-8" in report.failed


def test_dual_limit_catches_a_scaled_beta_hat(monkeypatch):
    # the conjugate of 1.01 beta-hat is 1.01 alpha-hat(p / 1.01), 3e-3 off
    # alpha at the pulled-back covectors on figure_eight_subcover
    value_many = BetaHatEvaluator.value_many
    monkeypatch.setattr(BetaHatEvaluator, "value_many",
                        lambda self, zs: 1.01 * value_many(self, zs))
    scenario = load_config(os.path.join(
        _SCENARIOS, "figure_eight_subcover.yaml")).scenario()
    report = run_experiment(dataclasses.replace(scenario, eps_ladder=(1.0,)))
    assert report.dual_limit_error > 1e-3
    assert "dual_limit_error <= 1e-12" in report.failed


@pytest.mark.parametrize("matrix", [[[1, 1]], [[1, 2]]])
@pytest.mark.parametrize("datum", [
    InitialDatum.affine([0.7], c=0.1),
    InitialDatum.cone(0.8, center=[0.3], norm="l1", dim=1),
    InitialDatum.quadratic([[2.0]], p=[0.3]),
], ids=["affine", "cone", "quadratic"])
def test_pulled_back_lipschitz_bound_holds(matrix, datum):
    # |f(M h) - f(M h')| <= L |h - h'|_1 on random pairs inside the radius
    pulled = homogenize._PulledBackDatum(datum, SubcoverMap(matrix))
    rng = np.random.default_rng(3)
    for radius in (0.5, 2.0, 7.0):
        bound = pulled.lipschitz_bound(radius, "l1")
        pairs = rng.uniform(-1.0, 1.0, size=(400, 2, 2))
        pairs *= radius * rng.uniform(0.0, 1.0, size=(400, 2, 1)) / np.abs(
            pairs).sum(axis=2, keepdims=True)
        # and the steepest pairs: along one axis, at the edge of the ball
        edge = radius * np.array([[[s, 0.0], [0.99 * s, 0.0]] for s in (1, -1)]
                                 + [[[0.0, s], [0.0, 0.99 * s]] for s in (1, -1)])
        h, g = np.concatenate([pairs, edge]).transpose(1, 0, 2)
        gap = np.abs(pulled.value_many(h) - pulled.value_many(g))
        assert np.all(gap <= bound * np.abs(h - g).sum(axis=1) + 1e-12)
        # the affine bound is attained: M^T p has l1-dual norm col * |p|
        if datum.kind == "affine":
            assert bound == pytest.approx(0.7 * np.abs(matrix).sum(axis=0).max())
