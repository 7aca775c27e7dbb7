import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from effham import action, cli, homogenize, mather, topology
from effham.action import InitialDatum
from effham.config import load_config
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


@pytest.mark.parametrize("stem", ["free_torus_1d", "single_loop",
                                  "figure_eight", "free_torus_2d"])
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


# pendulum alpha at p = 0, 1/8, ..., 2 and beta at the same w; both tables
# are even.  alpha is max V = 1 up to the critical p = 4 / pi.  Every entry
# is within 2.2e-15 of the closed form: the rotation integral of V = cos 2 pi x
# is p(E) = (2/pi) sqrt(2E + 2) E(2/(E + 1)), E the complete elliptic
# integral of the second kind in parameter form, alpha(p) solves p(E) = |p|
# and beta(w) = max_E p(E)|w| - E (40-digit mpmath).
PENDULUM_ALPHA = [1.0] * 11 + [1.0939475063336446, 1.2446376406284063,
                               1.419906911429851, 1.6159061546191835,
                               1.8308679438038404, 2.0637954228622046]
PENDULUM_BETA = [-1.0, -0.8408450569081046, -0.68169011380072475,
                 -0.5225350697230547, -0.363371347873353, -0.2040883457992665,
                 -0.04419469727515246, 0.1174473975807604, 0.28258669076752163,
                 0.45328173224590174, 0.6315609544969361, 0.8192010333181095,
                 1.0176457746454082, 1.228017473014733, 1.4511682501000551,
                 1.6877388317667836, 1.9382104797819082]


def test_pendulum_tables_are_pinned(tmp_path):
    path = os.path.join(ROOT, "scenarios", "pendulum.yaml")
    for command, half in (("alpha", PENDULUM_ALPHA), ("beta", PENDULUM_BETA)):
        assert cli.run(path, command, out_dir=str(tmp_path)) == cli.EXIT_OK
        with open(tmp_path / f"pendulum_{command}.json") as fh:
            table = json.load(fh)[command]
        np.testing.assert_allclose(table, half[:0:-1] + half, rtol=0.0,
                                   atol=1e-13)


def test_validate_and_tables_load_no_scipy(tmp_path):
    # scipy is imported where a solver runs, so validating every shipped
    # config and tabulating its alpha and beta never load it: graph alpha
    # and circle alpha bisect, circle beta sums one tanh-sinh rule.  Nor
    # does spaces on a torus, which prices no cover distance
    script = (
        "import glob, os, sys\n"
        "from effham.cli import run\n"
        "root, out = sys.argv[1:]\n"
        "for path in sorted(glob.glob(os.path.join(root, 'scenarios', '*.yaml'))):\n"
        "    for command in ('validate', 'alpha', 'beta'):\n"
        "        assert run(path, command, out_dir=out) == 0, (path, command)\n"
        "for stem in ('free_torus_1d', 'free_torus_2d', 'pendulum'):\n"
        "    path = os.path.join(root, 'scenarios', stem + '.yaml')\n"
        "    assert run(path, 'spaces', out_dir=out) == 0, path\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script, ROOT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_homogenize_loads_no_scipy_on_graphs_and_only_linalg_on_tori(tmp_path):
    # the Hopf-Lax polish is the package's own Nelder-Mead, and a graph
    # ladder solves nothing else with scipy, nor does a free torus of either
    # dimension, whose actions are exact; the pendulum's ladder factors its
    # chain steps through scipy.linalg's LAPACK and loads no other
    # subpackage.  The families run in that order in one process, so each
    # line reads what its family added.  Each ladder is cut to two rungs
    # with a loose tolerance, so every run passes quickly
    script = (
        "import glob, os, sys, yaml\n"
        "from effham.cli import run\n"
        "from effham.config import load_config\n"
        "root, out = sys.argv[1:]\n"
        "def subpackages():\n"
        "    return sorted(m for m in sys.modules if m.count('.') == 1\n"
        "                  and m.startswith('scipy.') and not m[6:].startswith('_')\n"
        "                  and hasattr(sys.modules[m], '__path__'))\n"
        "paths = {}\n"
        "for path in sorted(glob.glob(os.path.join(root, 'scenarios', '*.yaml'))):\n"
        "    with open(path) as fh:\n"
        "        tree = yaml.safe_load(fh)\n"
        "    tree['experiment'].update(ladder=tree['experiment']['ladder'][:2],\n"
        "                              tolerance=1.0)\n"
        "    cut = os.path.join(out, os.path.basename(path))\n"
        "    with open(cut, 'w') as fh:\n"
        "        yaml.safe_dump(tree, fh)\n"
        "    group = ('graph' if tree['system']['family'] == 'graph' else\n"
        "             'free' if load_config(cut).model.free_kinetic() is not None\n"
        "             else 'circle')\n"
        "    paths.setdefault(group, []).append(cut)\n"
        "for group in ('graph', 'free', 'circle'):\n"
        "    for path in paths[group]:\n"
        "        assert run(path, 'homogenize', out_dir=out) == 0, path\n"
        "    print(group, len(paths[group]),\n"
        "          sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "          if group != 'circle' else subpackages())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script, ROOT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines()
             if not line.startswith("{")]
    assert lines == ["graph 3 []", "free 2 []", "circle 1 ['scipy.linalg']"]


def _csv_and_json_columns(record: dict, command: str):
    """The csv header and rows that a command's json record implies."""
    if command == "spaces":
        columns = ("epsilons", "covering_radius", "covering_bound")
        return (["epsilon", "covering_radius", "covering_bound"],
                [list(row) for row in zip(*(record[c] for c in columns))])
    k = len(record["rows"][0]["h"])
    header = [f"h{j + 1}" for j in range(k)] + ["t", "epsilon", "v_eps",
                                                "u_limit", "abs_error"]
    return header, [[*r["h"], r["t"], r["eps"], r["v_eps"], r["u_limit"],
                     r["abs_error"]] for r in record["rows"]]


@pytest.mark.parametrize("command", ["homogenize", "spaces"])
def test_csv_and_json_artifacts_hold_the_same_numbers(tmp_path, capsys,
                                                      command):
    # one run writes each number twice, as a %.17g csv cell and as a json
    # value; every cell parses back to its value exactly
    path = os.path.join(ROOT, "scenarios", "single_loop.yaml")
    assert cli.run(path, command, out_dir=str(tmp_path)) == cli.EXIT_OK
    texts = {ext: (tmp_path / f"single-loop_{command}.{ext}").read_text()
             for ext in ("csv", "json")}
    for text in texts.values():
        assert text.endswith("\n") and not text.endswith("\n\n")
    header, rows = _csv_and_json_columns(json.loads(texts["json"]), command)
    lines = texts["csv"].splitlines()
    assert lines[0].split(",") == header
    if command == "homogenize":
        assert lines[0] == "h1,t,epsilon,v_eps,u_limit,abs_error"
    assert len(rows) == len(lines) - 1 == 7
    for line, row in zip(lines[1:], rows):
        assert [float(cell) for cell in line.split(",")] == row


def test_loaded_config_is_its_own_scenario():
    cfg = load_config(os.path.join(ROOT, "scenarios", "figure_eight_subcover.yaml"))
    assert isinstance(cfg, Scenario)
    assert cfg.scenario() is cfg
    assert cfg.beta_evaluator() is cfg.evaluator
    # the experiment fields are the Scenario's own; the config adds only
    # the ones the CLI reads
    own = {f.name for f in dataclasses.fields(Scenario)}
    added = [f.name for f in dataclasses.fields(cfg) if f.name not in own]
    assert added == ["seed", "evaluator", "p_grid", "w_grid", "out_dir"]


def test_sweep_script_runs_the_cheap_commands(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "sweep_all", os.path.join(ROOT, "scripts", "sweep_all.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    code = sweep.main(["--scenario-dir", os.path.join(ROOT, "scenarios"),
                       "--out-dir", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    ok = [line.split()[2:4] for line in lines if line.startswith("[     ok]")]
    stems = sorted(name for name in os.listdir(os.path.join(ROOT, "scenarios"))
                   if name.endswith(".yaml"))
    assert len(stems) == 6
    assert sorted(ok) == sorted([stem[:-5], command] for stem in stems
                                for command in sweep.CHEAP)
    # it ends with the digest of each artifact written, sorted by path:
    # alpha, beta and spaces each write a csv and a json
    digests = [line.split("  ") for line in lines[-36:]]
    assert [path for _, path in digests] == sorted(
        os.path.relpath(os.path.join(root, name), tmp_path)
        for root, _, names in os.walk(tmp_path) for name in names)
    for digest, path in digests:
        with open(tmp_path / path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert lines[-37].endswith("0 failing runs")


def test_compare_sweeps_names_each_moved_artifact(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "compare_sweeps", os.path.join(ROOT, "scripts", "compare_sweeps.py"))
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "s").mkdir(parents=True)
        (root / "s" / "same.csv").write_text("w1,beta\n1,0.5\n")
    (old / "s" / "t.json").write_text('{"beta": [1.0, 2.0], "passed": true}\n')
    (new / "s" / "t.json").write_text(
        '{"beta": [1.0, 2.0000000000000004], "passed": true}\n')
    (old / "s" / "t.csv").write_text("w1,beta\n1,0.25\n2,3\n")
    (new / "s" / "t.csv").write_text("w1,beta\n1,0.25\n2,3.5\n")
    (new / "s" / "extra.csv").write_text("x\n")
    assert compare.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"s/extra.csv: only in {new}",
        "s/t.csv: max |diff| 0.5 over 1 of 4 numbers",
        "s/t.json: max |diff| 4.44e-16 over 1 of 2 numbers",
        "3 of 4 artifacts differ"]
    assert compare.main([str(old), str(old)]) == 0


def test_spaces_fails_when_the_limit_norm_is_wrong(tmp_path, capsys,
                                                  monkeypatch):
    # on loops of lengths 1 and 0.37 the stable norm is |h1| + 0.37 |h2|;
    # |.|_1 in its place drifts from the distance by 0.63 |dz2|
    tree = _scenario_tree("figure_eight")
    tree["system"]["edges"][1]["length"] = 0.37
    path = _write(tmp_path, tree)

    def spaces_report():
        code = cli.run(path, "spaces", out_dir=str(tmp_path))
        with open(tmp_path / "figure-eight_spaces.json") as fh:
            return code, json.load(fh)

    code, report = spaces_report()
    assert code == cli.EXIT_OK and report["passed"] is True
    monkeypatch.setattr(topology, "_stable_norm",
                        lambda cover, rows: topology._norm_rows(rows, "l1"))
    code, report = spaces_report()
    assert code == cli.EXIT_TOLERANCE and report["passed"] is False
    assert report["gap_low"] < -report["gap_bound"]
    assert _records(capsys)[-1]["error"]["exit"] == cli.EXIT_TOLERANCE


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


def _both(first, second):
    return lambda tree: second(first(tree))


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
    ("single_loop", _set("experiment.points.0.h", [0.1, 0.2]),
     "experiment.points[0].h"),
    ("single_loop", _set("experiment.seed", -1), "experiment.seed"),
    ("single_loop", _set("compute.mesh", 1), "compute.mesh"),
    ("single_loop", _set("compute.rate_rungs", 1), "compute.rate_rungs"),
    ("single_loop", _set("datum", {"family": "quadratic", "matrix": [[-1.0]]}),
     "datum.matrix"),
    ("single_loop", _set("datum", {"family": "quadratic", "matrix": [["a"]]}),
     "datum.matrix"),
    ("single_loop", _set("datum.constant", float("nan")), "datum.constant"),
    ("single_loop", _set("experiment.ladder", [1.0, float("nan")]),
     "experiment.ladder[1]"),
    ("free_torus_2d", _set("system.potential", [{"k": [1, 0], "cos": 0.5}]),
     "system.potential"),
    ("free_torus_2d", _set("system.kinetic", [
        [{"k": [0, 0], "cos": 1.0}, {"k": [1, 0], "cos": 0.3}],
        [{"k": [0, 0], "cos": 0.0}], [{"k": [0, 0], "cos": 1.0}]]),
     "system.kinetic"),
    # H must be convex in p: A(x) = sin(2 pi x) changes sign, and the
    # constant A = [[1, 2], [2, 1]] has eigenvalue -1
    pytest.param("free_torus_1d",
                 _set("system.kinetic", [[{"k": [1], "sin": 1.0}]]),
                 "system.kinetic", id="free_torus_1d-sign-changing-kinetic"),
    pytest.param("free_torus_2d", _set("system.kinetic", [
        [{"k": [0, 0], "cos": 1.0}], [{"k": [0, 0], "cos": 2.0}],
        [{"k": [0, 0], "cos": 1.0}]]), "system.kinetic",
        id="free_torus_2d-indefinite-kinetic"),
    # graph rates are measured in l1 only
    pytest.param("figure_eight", _set("cover", {"norm": "l2"}), "cover.norm",
                 id="figure_eight-foreign-cover.norm"),
    # the cover datum is f(eps * G(x)) on every cover, with or without a
    # subcover: a bump is rejected, not ignored
    pytest.param("figure_eight", _set("datum.bump", {
        "family": "edge", "amplitudes": [0.1, 0.1]}), "datum.bump",
        id="figure_eight-edge-bump"),
    pytest.param("free_torus_1d", _set("datum.bump", {
        "family": "trig", "terms": [{"k": [1], "cos": 0.1}]}), "datum.bump",
        id="free_torus_1d-trig-bump"),
    pytest.param("single_loop", _both(
        _set("cover", {"subcover": [[1]]}),
        _set("datum.bump", {"family": "edge", "amplitudes": [0.1]})),
        "datum.bump", id="single_loop-subcover-edge-bump"),
    # two loops and an 11-edge path: cycle rank 2, but 13 edges, past what
    # the 2^|E| multiset enumeration of the cover action serves
    pytest.param("figure_eight", _set("system", {
        "family": "graph", "vertices": 12,
        "edges": [{"u": 0, "v": 0, "length": 1.0}] * 2
        + [{"u": i, "v": i + 1, "length": 1.0} for i in range(11)]}),
        "system.edges", id="figure_eight-thirteen-edges"),
    # a cone measures in its cover's norm
    pytest.param("figure_eight", _set("datum.norm", 'linf'), "datum.norm",
                 id="figure_eight-linf-cone"),
    pytest.param("free_torus_2d", _set("datum", {
        "family": "cone", "slope": 0.5, "norm": "l1"}), "datum.norm",
        id="free_torus_2d-l1-cone"),
    # each family has one norm, so no key may restate it either
    pytest.param("free_torus_2d", _set("cover", {"norm": "l2"}), "cover.norm",
                 id="free_torus_2d-own-cover.norm"),
    pytest.param("free_torus_2d", _set("datum", {
        "family": "cone", "slope": 0.5, "norm": "l2"}), "datum.norm",
        id="free_torus_2d-own-cone-norm"),
    # A = 1 + 2 cos(2 pi 64 x) has minimum -1 exactly where a 64-point
    # grid does not look
    pytest.param("free_torus_1d", _set("system.kinetic", [
        [{"k": [0], "cos": 1.0}, {"k": [64], "cos": 2.0}]]), "system.kinetic",
        id="free_torus_1d-aliased-kinetic"),
    # a key that load does not read is an error on its dotted path, in
    # every block and per datum family
    pytest.param("pendulum", _set("datum.slop", 3), "datum.slop",
                 id="pendulum-misspelt-datum-key"),
    pytest.param("free_torus_1d", _set("datum.slope", 0.5), "datum.slope",
                 id="free_torus_1d-cone-key-on-affine"),
    pytest.param("free_torus_1d", _set("datum.norm", "l2"), "datum.norm",
                 id="free_torus_1d-norm-on-affine"),
    pytest.param("figure_eight", _set("datum.slope_vector", [1.0, 0.0]),
                 "datum.slope_vector", id="figure_eight-affine-key-on-cone"),
    pytest.param("single_loop", _set("solver", {"mesh": 8}), "solver",
                 id="single_loop-unknown-block"),
    pytest.param("free_torus_1d", _set("system.dimensions", 1),
                 "system.dimensions", id="free_torus_1d-torus-system-key"),
    pytest.param("single_loop", _set("system.dimension", 1),
                 "system.dimension", id="single_loop-torus-key-on-graph"),
    pytest.param("single_loop", _set("system.edges.0.weight", 2.0),
                 "system.edges[0].weight", id="single_loop-edge-key"),
    pytest.param("pendulum", _set("system.potential.0.phase", 0.1),
                 "system.potential[0].phase", id="pendulum-trig-term-key"),
    pytest.param("single_loop", _set("cover", {"subcovers": [[1]]}),
                 "cover.subcovers", id="single_loop-cover-key"),
    pytest.param("single_loop", _set("experiment.tolerence", 0.1),
                 "experiment.tolerence", id="single_loop-experiment-key"),
    pytest.param("single_loop", _set("experiment.points.0.x", 0.1),
                 "experiment.points[0].x", id="single_loop-point-key"),
    pytest.param("single_loop", _set("compute.meshes", 8), "compute.meshes",
                 id="single_loop-compute-key"),
    pytest.param("single_loop", _set("compute.p_grid.size", 8),
                 "compute.p_grid.size", id="single_loop-grid-key"),
    pytest.param("single_loop", _set("output.directory", "x"),
                 "output.directory", id="single_loop-output-key"),
    # a block that is not a mapping is rejected, not read as absent
    pytest.param("single_loop", _set("cover", 5), "cover",
                 id="single_loop-cover-not-a-mapping"),
    pytest.param("single_loop", _set("compute", 5), "compute",
                 id="single_loop-compute-not-a-mapping"),
    pytest.param("single_loop", _set("compute.p_grid", 5), "compute.p_grid",
                 id="single_loop-grid-not-a-mapping"),
    pytest.param("single_loop", _set("output", 5), "output",
                 id="single_loop-output-not-a-mapping"),
    pytest.param("single_loop", _set("datum.family", ["affine"]),
                 "datum.family", id="single_loop-datum-family-not-a-string"),
    pytest.param("single_loop", _set("output.dir", ["x", 1]), "output.dir",
                 id="single_loop-output-dir-not-a-string"),
    # the artifacts are named after the scenario in one flat directory
    pytest.param("single_loop", _set("name", "a/b"), "name",
                 id="single_loop-name-with-a-separator"),
])
def test_config_errors_exit_two_with_their_field(tmp_path, capsys, stem,
                                                 mutate, field):
    changed = mutate(_scenario_tree(stem))
    path = tmp_path / "case.yaml"
    path.write_text(changed if isinstance(changed, str)
                    else yaml.safe_dump(changed, sort_keys=False))
    # every command loads the config first, so every command rejects it
    for command in cli.COMMANDS:
        code = cli.run(str(path), command, out_dir=str(tmp_path / "out"))
        assert code == cli.EXIT_SCHEMA, command
        (record,) = _records(capsys)
        assert record["error"]["exit"] == cli.EXIT_SCHEMA
        assert record["error"]["field"] == field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stem, mutate", [
    pytest.param(os.path.splitext(name)[0], lambda tree: tree, id=name)
    for name in sorted(os.listdir(os.path.join(ROOT, "scenarios")))
] + [
    # a slow but convex system: A = 0.15 everywhere
    pytest.param("free_torus_1d",
                 _set("system.kinetic", [[{"k": [0], "cos": 0.15}]]),
                 id="slow-kinetic"),
    # a torus cone is an l2 cone
    pytest.param("free_torus_2d", _set("datum", {"family": "cone",
                                                 "slope": 0.5}),
                 id="default-norm-cone"),
    # A = 1 + 0.5 cos(2 pi 64 x) >= 0.5: the certificate's widening must
    # not reject it
    pytest.param("free_torus_1d", _set("system.kinetic", [
        [{"k": [0], "cos": 1.0}, {"k": [64], "cos": 0.5}]]),
        id="fast-positive-kinetic"),
    # the experiment fields that the benchmark workloads override
    pytest.param("pendulum", _both(_set("experiment.ladder", [1.0, 0.5]),
                                   _set("experiment.tolerance", 0.05)),
                 id="benchmark-overrides"),
    # every key that a datum family reads, on one config
    pytest.param("free_torus_2d", _set("datum", {
        "family": "quadratic", "matrix": [[1.0, 0.0], [0.0, 2.0]],
        "slope_vector": [0.5, 0.0], "constant": 0.1}), id="quadratic-keys"),
    pytest.param("figure_eight", _set("datum", {
        "family": "cone", "slope": 0.5, "center": [0.1, 0.0],
        "constant": 0.1}), id="cone-keys"),
])
def test_validate_accepts_supported_systems(tmp_path, capsys, stem, mutate):
    path = _write(tmp_path, mutate(_scenario_tree(stem)))
    assert cli.run(path, "validate") == cli.EXIT_OK
    (record,) = _records(capsys)
    assert record["passed"] is True
    assert record["checks"] == {"schema": True}


def test_solver_failure_exits_three(monkeypatch, capsys, tmp_path):
    def stalled(*args, **kwargs):
        raise SolverError("alpha bracket grew past its cap")

    monkeypatch.setattr(mather, "alpha_graph", stalled)
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
                  mesh=32)
    quotient = run_experiment(
        Scenario(name="loop", subcover=SubcoverMap([[1]]), **common))
    plain = run_experiment(Scenario(name="loop", **common))
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
    # the one run fills the quotient checks on a subcover config only
    checks = ("cover_kernel_invariance_error", "lifted_limit_error",
              "dual_limit_error")
    plain, sub = trees
    assert all(plain[name] is None for name in checks)
    assert all(isinstance(sub[name], float) for name in checks)
    assert "kernel_rank" not in plain["diagnostics"]
    assert sub["diagnostics"]["kernel_rank"] == 0


def _homogenize_with_alpha_raised(tmp_path, capsys, monkeypatch, shift):
    """A short single-loop subcover ladder with alpha raised by shift;
    returns its report and its last JSON line."""
    alpha_graph = homogenize.alpha_graph
    monkeypatch.setattr(homogenize, "alpha_graph",
                        lambda *args: alpha_graph(*args) + shift)
    tree = _scenario_tree("single_loop")
    tree["experiment"]["ladder"] = [1.0, 0.5]
    tree["experiment"]["tolerance"] = 1.0
    tree["cover"] = {"subcover": [[1]]}
    out = tmp_path / "out"
    code = cli.run(_write(tmp_path, tree), "homogenize", out_dir=str(out))
    assert code == cli.EXIT_TOLERANCE
    with open(out / "single-loop_homogenize.json") as fh:
        return json.load(fh), _records(capsys)[-1]


def test_failed_quotient_check_fails_homogenize(tmp_path, capsys,
                                                monkeypatch):
    # alpha raised by 1e-7 leaves the ladder alone and breaks only the
    # duality of alpha with beta-hat
    report, record = _homogenize_with_alpha_raised(tmp_path, capsys,
                                                   monkeypatch, 1e-7)
    assert not report["passed"]
    assert report["dual_limit_error"] > 1e-12
    assert record["error"]["message"].endswith(
        "failed checks: dual_limit_error <= 1e-12")


def test_alpha_raised_below_a_bisection_floor_fails_homogenize(
        tmp_path, capsys, monkeypatch):
    # 1e-10 passes a 1e-8 gate; only the 1e-12 gate, which alpha exact to
    # rounding allows, catches it
    report, record = _homogenize_with_alpha_raised(tmp_path, capsys,
                                                   monkeypatch, 1e-10)
    assert not report["passed"]
    assert report["dual_limit_error"] == pytest.approx(1e-10, rel=1e-3)
    assert record["error"]["message"].endswith(
        "failed checks: dual_limit_error <= 1e-12")


def test_unknown_command_exits_two_and_writes_nothing(tmp_path, capsys):
    # the quotient checks run inside homogenize; there is no subcover command
    path = os.path.join(ROOT, "scenarios", "figure_eight_subcover.yaml")
    out = tmp_path / "out"
    assert cli.run(path, "subcover", out_dir=str(out)) == cli.EXIT_SCHEMA
    (record,) = _records(capsys)
    assert record["error"]["exit"] == cli.EXIT_SCHEMA
    assert record["error"]["field"] == "--command"
    assert not out.exists()


def test_report_line_carries_the_solver_counts(tmp_path, capsys):
    # the torus solver counts are on the JSON line, equal to the report's
    tree = _scenario_tree("free_torus_1d")
    tree["experiment"]["ladder"] = [1.0, 0.5]
    tree["experiment"]["tolerance"] = 1.0
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, tree), "homogenize", out_dir=str(out)) == 0
    (record,) = _records(capsys)
    with open(out / "free-torus-1d_homogenize.json") as fh:
        report = json.load(fh)
    assert record["diagnostics"] == report["diagnostics"]
    assert {"newton_capped",
            "neldermead_unconverged"} <= set(record["diagnostics"])


def test_capped_descent_fails_the_run(tmp_path, capsys, monkeypatch):
    # one pendulum rung passes, and with one Newton iteration per descent
    # its chains stop unconverged, which fails the report and exits 1
    tree = _scenario_tree("pendulum")
    tree["experiment"]["ladder"] = [1.0]
    tree["experiment"]["tolerance"] = 1.0
    path = _write(tmp_path, tree)
    reports = []
    for cap in (action._DESCENT_CAP, 1):
        monkeypatch.setattr(action, "_DESCENT_CAP", cap)
        out = tmp_path / f"cap{cap}"
        code = cli.run(path, "homogenize", out_dir=str(out))
        with open(out / "pendulum_homogenize.json") as fh:
            reports.append((code, json.load(fh)))
    (code, report), (capped_code, capped) = reports
    assert code == cli.EXIT_OK and report["passed"]
    assert report["diagnostics"]["newton_capped"] == 0
    assert capped_code == cli.EXIT_TOLERANCE and not capped["passed"]
    assert capped["diagnostics"]["newton_capped"] > 0
    error = _records(capsys)[-1]["error"]
    assert error["kind"] == "tolerance"
    # the record names the check that failed, and only that one
    assert error["message"].endswith("failed checks: newton_capped")
