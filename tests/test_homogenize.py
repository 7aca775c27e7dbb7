import numpy as np
import pytest

from effham import homogenize
from effham.action import InitialDatum
from effham.homogenize import (
    ExperimentReport,
    ExperimentRow,
    Scenario,
    affine_datum_check,
    matching_bound,
    run_experiment,
    run_subcover_experiment,
)
from effham.mather import alpha_graph
from effham.model import TorusHamiltonian, TrigPolynomial
from effham.topology import SubcoverMap


LADDER3 = (1.0, 0.5, 0.25)


def test_free_experiment_error_equals_matching(circle, free1):
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3,), 1.0), ((-2 / 3,), 0.5)),
                        mesh=32, rate_rungs=3)
    report = run_experiment(scenario)
    assert report.passed
    assert report.monotone_ok and report.sandwich_ok
    for row in report.rows:
        assert row.abs_error == pytest.approx(row.match_error, abs=1e-12)
    assert report.rate_exponent == pytest.approx(1.0, abs=1e-6)


def test_sandwich_violation_fails_the_report(circle, free1, monkeypatch):
    # a cover solver that undershoots the limit by 1 keeps the error flat
    # (monotone) and under the loose tolerance, so only the sandwich
    # check can catch it
    solve = homogenize.lax_oleinik

    def undershoot(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.value -= 1.0
        return res

    monkeypatch.setattr(homogenize, "lax_oleinik", undershoot)
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3, eval_points=(((1 / 3,), 1.0),),
                        mesh=32, rate_rungs=3, tolerance=2.0)
    report = run_experiment(scenario, with_spaces=False)
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
    solve = homogenize.lax_oleinik

    def nan_value(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.value = float("nan")
        return res

    monkeypatch.setattr(homogenize, "lax_oleinik", nan_value)
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3, eval_points=(((1 / 3,), 1.0),),
                        mesh=32, rate_rungs=3)
    report = run_experiment(scenario, with_spaces=False)
    assert np.isnan(report.final_error)
    assert not report.passed


def test_experiment_reruns_are_identical(circle, free1):
    scenario = Scenario(name="free-line", cover=circle, model=free1,
                        datum=InitialDatum.affine([1.0], 0.25),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3,), 1.0),),
                        mesh=32, rate_rungs=3)
    first = run_experiment(scenario)
    again = run_experiment(scenario)
    assert first.to_json() == again.to_json()


def test_pendulum_experiment_error_decreases(circle, pendulum):
    scenario = Scenario(name="pend-small", cover=circle, model=pendulum,
                        datum=InitialDatum.affine([0.0]),
                        eps_ladder=LADDER3,
                        eval_points=(((1 / 3,), 1.0),),
                        mesh=32, rate_rungs=3)
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
                        mesh=32, rate_rungs=3)
    report = run_experiment(scenario)
    assert report.monotone_ok
    errs = [v for _, v in report.errors_by_eps()]
    # coarse rungs can wobble; the tolerance claim needs the full ladder
    assert errs[-1] < 0.5 * errs[0]


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
    devs = report.deviations()
    for prev, nxt in zip(devs, devs[1:]):
        assert nxt == pytest.approx(prev / 2.0, rel=0.05)
    assert devs[-1] < 1e-2
    assert report.fitted_c == pytest.approx(devs[0], rel=0.05)


def test_identity_subcover_reproduces_plain_run(loop2_cover, loop2_lag):
    common = dict(cover=loop2_cover, model=loop2_lag,
                  datum=InitialDatum.affine([0.4]),
                  eps_ladder=(0.5, 0.25), eval_points=(((1 / 3,), 1.0),),
                  mesh=32, rate_rungs=2)
    quotient = run_subcover_experiment(
        Scenario(name="loop-ident", subcover=SubcoverMap([[1]]), **common))
    plain = run_experiment(Scenario(name="loop-plain", **common),
                           with_spaces=False)
    for qrow, prow in zip(quotient.rows, plain.rows):
        assert qrow.v_eps == pytest.approx(prow.v_eps, abs=1e-9)
    assert quotient.cover_kernel_invariance_error <= 1e-9
    assert quotient.dual_limit_error <= 1e-3


def test_merged_loops_subcover_consistency(fig8_cover, fig8_lag, fig8):
    scenario = Scenario(name="fig8-merge", cover=fig8_cover, model=fig8_lag,
                        datum=InitialDatum.affine([0.5], 0.1),
                        eps_ladder=(1.0, 0.5), eval_points=(((0.8,), 1.0),),
                        mesh=32, rate_rungs=2, subcover=SubcoverMap([[1, 1]]))
    report = run_subcover_experiment(scenario, p_grid=[np.array([0.4])])

    # the quotient limit of an affine datum is affine with the pulled-back level
    closed = 0.1 + 0.5 * 0.8 - alpha_graph(fig8, fig8_lag, [0.5, 0.5]) * 1.0
    for row in report.rows:
        assert row.u_limit == pytest.approx(closed, abs=1e-6)
    assert report.cover_kernel_invariance_error <= 1e-9 + matching_bound(
        fig8_cover, scenario.eps_ladder[-1], scenario.mesh)
    assert report.kernel_invariance_error <= 1e-8
    assert report.dual_limit_error <= 1e-3


def test_scenario_rejects_bad_ladder(circle, free1):
    with pytest.raises(ValueError):
        Scenario(name="bad", cover=circle, model=free1,
                 datum=InitialDatum.affine([0.0]),
                 eps_ladder=(0.25, 0.5), eval_points=(((0.0,), 1.0),))
    with pytest.raises(ValueError):
        Scenario(name="bad", cover=circle, model=free1,
                 datum=InitialDatum.affine([0.0]),
                 eps_ladder=(0.5, 0.25), eval_points=(((0.0,), 0.0),))


def test_scenario_rejects_mismatched_target(circle, free1):
    with pytest.raises(ValueError):
        Scenario(name="bad", cover=circle, model=free1,
                 datum=InitialDatum.affine([0.0]),
                 eps_ladder=(0.5,), eval_points=(((0.0, 0.0), 1.0),))
