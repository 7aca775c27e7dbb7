"""The benchmark's workloads and one pass over each.

A workload is a set of committed scenario configs, each with a few
``experiment`` fields overridden, run through ``effham.cli.run`` the way a
user runs the CLI.  The benchmark seed is written into ``experiment.seed``.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import yaml

from effham import cli

# figure-eight ladder cut to four rungs, so that one pass fits in about half a
# minute; the default tolerance 1e-2 is sized for eps = 1/64, and the cut
# ladder ends at final_error 0.038, so it takes the 0.05 that
# figure_eight_subcover.yaml uses on the same graph
GRAPH_LADDER = [1.0, 0.5, 0.25, 0.125]

# pendulum ladder cut to five rungs for the same reason; it ends at
# final_error 0.019, so it takes the same tolerance 0.05
TORUS_LADDER = [1.0, 0.5, 0.25, 0.125, 0.0625]

# figure_eight_subcover is left out: its cheap commands repeat figure_eight
TABLE_SCENARIOS = ("figure_eight", "free_torus_1d", "free_torus_2d",
                   "pendulum", "single_loop")


@dataclass(frozen=True)
class Workload:
    scenarios: dict   # config file stem -> experiment fields to override
    commands: tuple
    skip: tuple = ()  # (stem, command) pairs not run


WORKLOADS = {
    "graph-ladder": Workload(
        {"figure_eight": {"ladder": GRAPH_LADDER, "tolerance": 0.05}},
        ("homogenize",)),
    "torus-ladder": Workload(
        {"pendulum": {"ladder": TORUS_LADDER, "tolerance": 0.05}},
        ("homogenize",)),
    # figure-eight spaces is the estimate_space_convergence call that
    # graph-ladder's homogenize already makes on the same cover and seed
    "tables": Workload({stem: {} for stem in TABLE_SCENARIOS},
                       ("validate", "alpha", "beta", "spaces"),
                       skip=(("figure_eight", "spaces"),)),
}

# seed-independent output fields compared against the reference
REFERENCE_FIELDS = {"homogenize": ("v_eps", "u_limit"),
                    "alpha": ("alpha",), "beta": ("beta",)}


def write_configs(root: str, work: str, workload: Workload, seed: int) -> dict:
    """Write the workload's configs with the seed applied; stem -> (name, path)."""
    configs = {}
    for stem, overrides in workload.scenarios.items():
        with open(os.path.join(root, "scenarios", stem + ".yaml")) as fh:
            tree = yaml.safe_load(fh)
        tree["experiment"].update(overrides)
        tree["experiment"]["seed"] = seed
        path = os.path.join(work, stem + ".yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(tree, fh, sort_keys=False)
        configs[stem] = (tree["name"], path)
    return configs


def _error_message(lines: str) -> str:
    for line in lines.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "error" in record:
            return record["error"].get("message", line)
    return "no error record"


def _read_outputs(out_dir: str, name: str, command: str) -> dict:
    fields = REFERENCE_FIELDS.get(command, ())
    if not fields:
        return {}
    with open(os.path.join(out_dir, f"{name}_{command}.json")) as fh:
        tree = json.load(fh)
    if command == "homogenize":
        found = {f"{name}.{f}": [row[f] for row in tree["rows"]] for f in fields}
        found[f"{name}.final_error"] = [tree["final_error"]]
        return found
    return {f"{name}.{f}": list(tree[f]) for f in fields}


def _digests(out_dir: str) -> dict:
    found = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            found[fname] = hashlib.sha256(fh.read()).hexdigest()
    return found


def run_pass(workload: Workload, configs: dict, out_dir: str) -> dict:
    """Run every command on every config once; never raises.

    Returns the pass's perf_counter start and end, its wall and CPU time,
    one record per command (time, exit code, error message), the
    seed-independent outputs and a digest of every artifact file written.
    """
    os.makedirs(out_dir)
    commands = []
    outputs = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for stem in workload.scenarios:
        name, path = configs[stem]
        for command in workload.commands:
            if (stem, command) in workload.skip:
                continue
            captured = io.StringIO()
            start = time.perf_counter()
            error = None
            try:
                with contextlib.redirect_stdout(captured):
                    code = cli.run(path, command, out_dir=out_dir)
            except Exception as exc:  # counted as a failure, not a crash
                code = None
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
            seconds = time.perf_counter() - start
            if code == 0:
                try:
                    outputs.update(_read_outputs(out_dir, name, command))
                except (OSError, KeyError, ValueError) as exc:
                    code, error = None, f"unreadable output: {exc}"
            elif error is None:
                error = _error_message(captured.getvalue())
            commands.append({"scenario": name, "command": command,
                             "seconds": seconds, "exit": code, "error": error})
    wall1, cpu1 = time.perf_counter(), time.process_time()
    digests = _digests(out_dir)
    shutil.rmtree(out_dir)
    return {"start": wall0, "end": wall1, "wall_s": wall1 - wall0,
            "cpu_s": cpu1 - cpu0, "commands": commands, "outputs": outputs,
            "digests": digests}
