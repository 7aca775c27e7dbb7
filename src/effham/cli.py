"""Batch front end: scenario configs in, result tables out.

Five commands share one invocation shape::

    python -m effham.cli --config scenario.yaml --command homogenize

``alpha``/``beta`` tabulate the effective Hamiltonian/Lagrangian on a
grid, ``homogenize`` runs the ladder experiment and writes its report,
``validate`` only loads the config (the load is every check on
the model) and writes nothing.  ``spaces`` measures over point pairs
sampled on a graph cover the gap between the cover distance and the
stable norm of their homology displacement (the metric of the rescaled
covers' limit; on a flat torus the two coincide), and per rung the
covering radius of the scaled mesh image; it exits 1 when a gap
leaves the certified band |gap| <= C or a covering radius exceeds the
matching bound.  ``alpha`` and ``beta`` read the two halves of the one
exact pair that the config picked for its system family; a system with no
such pair is rejected at load.  On a config with ``cover.subcover``,
``homogenize`` runs the ladder on that intermediate cover, and the
quotient consistency checks of the same run gate ``passed``.

Exit codes: 0 all checks passed, 1 a tolerance check failed or a minimiser
stopped unconverged (``passed`` is false), 2 an unknown command or a
rejected config (on every command alike: a malformed field, a system with no
exact (alpha, beta) pair, a torus kinetic matrix not proved positive
definite, or a key the loader does not read, a norm among them: each cover
family has one), 3 a solver gave up, 4 an unexpected internal error (the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback

from .config import ScenarioConfig, load_config
from .errors import ConfigError, ModelValidityError, SolverError
from .homogenize import run_experiment
# unused alpha_graph: perfbench/test_perfbench.py expects the binding
from .mather import alpha_graph
from .topology import _ball_axes, _grid, estimate_space_convergence

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_SCHEMA = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

COMMANDS = ("alpha", "beta", "homogenize", "spaces", "validate")


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _error_record(kind: str, exit_code: int, message: str, field=None) -> dict:
    err = {"kind": kind, "exit": exit_code, "message": message}
    if field is not None:
        err["field"] = field
    return {"error": err}


def _write_artifacts(out_dir: str, stem: str, header, rows, record: dict) -> None:
    """The one artifact writer: ``stem.csv``, the header then the rows, every
    number as ``%.17g``, and ``stem.json``, the record with sorted keys and
    indent 2, into out_dir, each ending in one newline."""
    os.makedirs(out_dir or ".", exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join("%.17g" % float(v) for v in row) for row in rows]
    with open(os.path.join(out_dir, stem + ".csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, stem + ".json"), "w", newline="\n") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _cmd_table(cfg: ScenarioConfig, command: str, out_dir: str) -> int:
    """Tabulate alpha on the config's p grid or beta on its w grid."""
    beta = cfg.beta_evaluator()
    if command == "alpha":
        grid, axis, evaluate = cfg.p_grid, "p", beta.alpha_many
    else:
        grid, axis, evaluate = cfg.w_grid, "w", beta.value_many
    dim = cfg.cover.deck_rank
    radius, n_points = grid["radius"], grid["points"]
    nodes = _grid(_ball_axes(radius, n_points, dim))
    values = [float(v) for v in evaluate(nodes)]
    header = [f"{axis}{i + 1}" for i in range(dim)] + [command]
    rows = [list(node) + [v] for node, v in zip(nodes, values)]
    record = {"scenario": cfg.name, "grid_radius": radius, "points": n_points,
              "nodes": [list(map(float, node)) for node in nodes],
              command: values}
    if command == "beta":
        kappa, voff = beta.coercivity()
        record["coercivity"] = {"kappa": kappa, "offset": voff,
                                "norm": beta.norm}
    _write_artifacts(out_dir, f"{cfg.name}_{command}", header, rows, record)
    _emit({"command": command, "scenario": cfg.name, "rows": len(values),
           "passed": True})
    return EXIT_OK


def _write_report(cfg: ScenarioConfig, report, command: str, out_dir: str) -> int:
    k = len(report.rows[0].h) if report.rows else 1
    header = [f"h{j + 1}" for j in range(k)] + ["t", "epsilon", "v_eps",
                                                "u_limit", "abs_error"]
    rows = [(*r.h, r.t, r.eps, r.v_eps, r.u_limit, r.abs_error)
            for r in report.rows]
    _write_artifacts(out_dir, f"{cfg.name}_{command}", header, rows,
                     dataclasses.asdict(report))
    _emit({"command": command, "scenario": cfg.name,
           "passed": bool(report.passed),
           "final_error": report.final_error,
           "diagnostics": report.diagnostics})
    if not report.passed:
        _emit(_error_record("tolerance", EXIT_TOLERANCE,
                            f"scenario {cfg.name}: failed checks: "
                            + ", ".join(report.failed)))
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_homogenize(cfg: ScenarioConfig, out_dir: str) -> int:
    report = run_experiment(cfg.scenario(), beta_eval=cfg.beta_evaluator())
    return _write_report(cfg, report, "homogenize", out_dir)


def _cmd_spaces(cfg: ScenarioConfig, out_dir: str) -> int:
    sp = estimate_space_convergence(cfg.cover, cfg.eps_ladder, cfg.mesh,
                                    seed=cfg.seed)
    rows = list(zip(sp.epsilons, sp.covering_radius, sp.covering_bound))
    _write_artifacts(out_dir, f"{cfg.name}_spaces",
                     ["epsilon", "covering_radius", "covering_bound"], rows,
                     {"scenario": cfg.name, **dataclasses.asdict(sp),
                      "passed": sp.passed})
    _emit({"command": "spaces", "scenario": cfg.name, "passed": sp.passed,
           "gap_low": sp.gap_low, "gap_high": sp.gap_high,
           "gap_bound": sp.gap_bound})
    if not sp.passed:
        _emit(_error_record("tolerance", EXIT_TOLERANCE,
                            f"scenario {cfg.name}: cover distance or mesh "
                            "image outside its certified bound"))
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_validate(cfg: ScenarioConfig) -> int:
    _emit({"command": "validate", "scenario": cfg.name, "passed": True,
           "checks": {"schema": True}})
    return EXIT_OK


def run(config_path: str, command: str, out_dir=None) -> int:
    """Dispatch one command for one config; returns the process exit code."""
    if command not in COMMANDS:
        _emit(_error_record("schema", EXIT_SCHEMA,
                            f"unknown command {command!r}", field="--command"))
        return EXIT_SCHEMA
    try:
        cfg = load_config(config_path)
        target = out_dir if out_dir is not None else cfg.out_dir
        if command == "validate":
            return _cmd_validate(cfg)
        if command in ("alpha", "beta"):
            return _cmd_table(cfg, command, target)
        if command == "homogenize":
            return _cmd_homogenize(cfg, target)
        return _cmd_spaces(cfg, target)
    except ConfigError as exc:
        _emit(_error_record("schema", EXIT_SCHEMA, exc.message, field=exc.path))
        return EXIT_SCHEMA
    except ModelValidityError as exc:
        _emit(_error_record("schema", EXIT_SCHEMA, str(exc), field="system"))
        return EXIT_SCHEMA
    except SolverError as exc:
        _emit(_error_record("solver", EXIT_SOLVER, str(exc)))
        return EXIT_SOLVER
    except Exception as exc:
        traceback.print_exc()
        _emit(_error_record("internal", EXIT_INTERNAL,
                            f"{type(exc).__name__}: {exc}"))
        return EXIT_INTERNAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="effham", description="effective Hamiltonian batch runner")
    parser.add_argument("--config", required=True,
                        help="path to a scenario YAML file")
    parser.add_argument("--command", required=True,
                        help="one of " + ", ".join(COMMANDS))
    parser.add_argument("--out-dir", default=None,
                        help="artifact directory (default from the config)")
    args = parser.parse_args(argv)
    return run(args.config, args.command, out_dir=args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
