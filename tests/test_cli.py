import json
import os

import numpy as np
import pytest
import yaml

from effham import cli
from effham.action import InitialDatum
from effham.errors import SolverError
from effham.homogenize import Scenario, run_experiment
from effham.topology import SubcoverMap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scenario_tree(stem: str) -> dict:
    with open(os.path.join(ROOT, "scenarios", stem + ".yaml")) as fh:
        return yaml.safe_load(fh)


def _write(tmp_path, tree: dict, stem: str = "case") -> str:
    path = tmp_path / f"{stem}.yaml"
    path.write_text(yaml.safe_dump(tree, sort_keys=False))
    return str(path)


def _records(capsys) -> list:
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("stem", ["free_torus_1d", "single_loop"])
def test_cheap_commands_write_their_artifacts(tmp_path, capsys, stem):
    path = os.path.join(ROOT, "scenarios", stem + ".yaml")
    name = _scenario_tree(stem)["name"]
    out = tmp_path / "out"
    for command in ("validate", "alpha", "beta", "spaces"):
        assert cli.run(path, command, out_dir=str(out)) == cli.EXIT_OK, command
    written = sorted(os.listdir(out))
    assert written == sorted(f"{name}_{command}.{ext}"
                             for command in ("alpha", "beta", "spaces")
                             for ext in ("csv", "json"))
    records = _records(capsys)
    assert [r["command"] for r in records] == ["validate", "alpha", "beta",
                                               "spaces"]
    assert all(r["passed"] for r in records)


def _rejected(tmp_path, capsys, tree) -> dict:
    code = cli.run(_write(tmp_path, tree), "validate", out_dir=str(tmp_path))
    assert code == cli.EXIT_SCHEMA
    (record,) = _records(capsys)
    assert record["error"]["exit"] == cli.EXIT_SCHEMA
    return record["error"]


def test_rejects_graph_of_cycle_rank_three(tmp_path, capsys):
    tree = _scenario_tree("single_loop")
    tree["system"] = {"family": "graph", "vertices": 2,
                      "edges": [{"u": 0, "v": 1, "length": 1.0}] * 4}
    tree["datum"]["slope_vector"] = [0.5, 0.0, 0.0]
    tree["experiment"]["points"] = [{"h": [0.3, 0.0, 0.0], "t": 1.0}]
    error = _rejected(tmp_path, capsys, tree)
    assert error["field"] == "system.edges"
    assert "cycle rank 3" in error["message"]


def test_rejects_subcover_on_torus(tmp_path, capsys):
    tree = _scenario_tree("free_torus_1d")
    tree["cover"] = {"subcover": [[1]]}
    assert _rejected(tmp_path, capsys, tree)["field"] == "cover.subcover"


def test_rejects_subcover_with_bump(tmp_path, capsys):
    tree = _scenario_tree("single_loop")
    tree["cover"] = {"subcover": [[1]]}
    tree["datum"]["bump"] = {"family": "edge", "amplitudes": [0.1]}
    assert _rejected(tmp_path, capsys, tree)["field"] == "datum.bump"


def _set(path, value):
    """Mutation that sets one dotted path of a scenario tree (list indices
    as numbers)."""
    *parents, last = path.split(".")

    def mutate(tree):
        node = tree
        for key in parents:
            node = node[int(key) if isinstance(node, list) else key]
        node[int(last) if isinstance(node, list) else last] = value
        return tree
    return mutate


@pytest.mark.parametrize("stem, mutate, field", [
    ("single_loop", lambda tree: "name: [unclosed\n", "config"),
    ("single_loop", _set("name", ""), "name"),
    ("single_loop", _set("system.family", "tree"), "system.family"),
    ("free_torus_1d", _set("system.dimension", 3), "system.dimension"),
    ("single_loop", _set("system.edges.0.length", -1.0),
     "system.edges[0].length"),
    ("single_loop", _set("cover", {"norm": "l3"}), "cover.norm"),
    ("single_loop", _set("datum.family", "sine"), "datum.family"),
    ("free_torus_1d", _set("datum.slope_vector", [1.0, 2.0]),
     "datum.slope_vector"),
    ("single_loop", _set("experiment.ladder", [0.25, 0.5]),
     "experiment.ladder"),
    ("single_loop", _set("experiment.points.0.t", 0.0),
     "experiment.points[0].t"),
    ("single_loop", _set("compute.mesh", 1), "compute.mesh"),
    ("single_loop", _set("compute.rate_rungs", 1), "compute.rate_rungs"),
    ("single_loop", _set("datum", {"family": "quadratic", "matrix": [[-1.0]]}),
     "datum.matrix"),
    ("single_loop", _set("datum", {"family": "quadratic", "matrix": [["a"]]}),
     "datum.matrix"),
    ("single_loop", _set("datum.constant", float("nan")), "datum.constant"),
    ("single_loop", _set("experiment.ladder", [1.0, float("nan")]),
     "experiment.ladder[1]"),
])
def test_config_errors_exit_two_with_their_field(tmp_path, capsys, stem,
                                                 mutate, field):
    changed = mutate(_scenario_tree(stem))
    path = tmp_path / "case.yaml"
    path.write_text(changed if isinstance(changed, str)
                    else yaml.safe_dump(changed, sort_keys=False))
    assert cli.run(str(path), "validate", out_dir=str(tmp_path)) == cli.EXIT_SCHEMA
    (record,) = _records(capsys)
    assert record["error"]["exit"] == cli.EXIT_SCHEMA
    assert record["error"]["field"] == field


def test_solver_failure_exits_three(monkeypatch, capsys, tmp_path):
    def stalled(*args, **kwargs):
        raise SolverError("alpha bracket grew past its cap")

    monkeypatch.setattr(cli, "alpha_graph", stalled)
    path = os.path.join(ROOT, "scenarios", "single_loop.yaml")
    assert cli.run(path, "alpha", out_dir=str(tmp_path)) == cli.EXIT_SOLVER
    (record,) = _records(capsys)
    assert record["error"]["kind"] == "solver"
    assert record["error"]["exit"] == cli.EXIT_SOLVER
    assert "bracket" in record["error"]["message"]


def test_stray_exception_becomes_internal_error(monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    path = os.path.join(ROOT, "scenarios", "single_loop.yaml")
    assert cli.run(path, "validate") == cli.EXIT_INTERNAL
    (record,) = _records(capsys)
    assert record["error"]["kind"] == "internal"
    assert record["error"]["exit"] == cli.EXIT_INTERNAL
    assert "RuntimeError: boom" in record["error"]["message"]


def test_identity_subcover_experiment_matches_plain_run(loop2_cover, loop2_lag):
    common = dict(cover=loop2_cover, model=loop2_lag,
                  datum=InitialDatum.affine([0.4]),
                  eps_ladder=(0.5, 0.25), eval_points=(((1 / 3,), 1.0),),
                  mesh=32, rate_rungs=2)
    quotient = run_experiment(
        Scenario(name="loop", subcover=SubcoverMap([[1]]), **common),
        with_spaces=False)
    plain = run_experiment(Scenario(name="loop", **common), with_spaces=False)
    assert quotient.passed and plain.passed
    assert len(quotient.rows) == len(plain.rows) == 2
    for qrow, prow in zip(quotient.rows, plain.rows):
        assert qrow.v_eps == prow.v_eps
        assert qrow.match_error == prow.match_error
        assert qrow.u_limit == pytest.approx(prow.u_limit, abs=1e-9)


def test_homogenize_runs_on_subcover_config(tmp_path, capsys):
    tree = _scenario_tree("single_loop")
    tree["experiment"]["ladder"] = [1.0, 0.5]
    tree["experiment"]["tolerance"] = 1.0
    plain_path = _write(tmp_path, tree, "plain")
    tree["cover"] = {"subcover": [[1]]}
    sub_path = _write(tmp_path, tree, "sub")
    assert cli.run(plain_path, "homogenize", out_dir=str(tmp_path / "p")) == 0
    assert cli.run(sub_path, "homogenize", out_dir=str(tmp_path / "s")) == 0
    trees = []
    for sub in ("p", "s"):
        with open(tmp_path / sub / "single-loop_homogenize.json") as fh:
            trees.append(json.load(fh))
    np.testing.assert_array_equal([r["v_eps"] for r in trees[0]["rows"]],
                                  [r["v_eps"] for r in trees[1]["rows"]])
