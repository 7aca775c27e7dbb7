#!/usr/bin/env python3
"""The repository's benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload graph-ladder|torus-ladder|tables \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Each run starts fresh single-threaded
worker processes (BLAS/OpenMP pinned to one thread, ``src`` on PYTHONPATH):
two that only set up, for the ``setup_s`` median, and one that runs the
workload.  The end-to-end times are calibrated for the CPU speed that other
tenants leave (speedo.py); the raw ones are printed next to them as
``raw_wall_s``, ``raw_cpu_s`` and ``raw_setup_s``.  Every metric is printed
with its unit, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A run whose outputs drift from reference.json by more than
1e-8, or whose traced outputs differ from its untraced ones, is reported as
incorrect and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

DEADLINE_S = 170.0
SETUP_PROBES = 2
REF_DRIFT_BOUND = 1e-8
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The run could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list, work: str, tag: str, deadline: float) -> dict:
    out = os.path.join(work, tag + ".json")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the " + tag + " process")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args, "--work", work,
                               "--out", out], env=_worker_env(), cwd=ROOT,
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} process killed at the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{tag} process exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def ref_drift(outputs: dict, reference: dict) -> float:
    """Max |output - reference| over every reference value; inf if one is missing."""
    drift = 0.0
    for key, want in reference.items():
        got = outputs.get(key)
        if got is None or len(got) != len(want):
            return math.inf
        for a, b in zip(got, want):
            drift = max(drift, abs(a - b))
    return drift


def _check_tree() -> None:
    needed = [os.path.join(ROOT, "src", "effham", "__init__.py"),
              os.path.join(ROOT, "scenarios"), os.path.join(ROOT, "BENCHMARK.json"),
              REFERENCE]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError("not a checkout of the repository; missing "
                         + ", ".join(os.path.relpath(p, ROOT) for p in missing))


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    base = ["--workload", workload, "--seed", str(seed)]
    try:
        probes = [_spawn(["--mode", "setup", *base], work, f"setup{i}", deadline)
                  for i in range(SETUP_PROBES)]
        result = _spawn(["--mode", "run", *base, "--seconds", str(seconds),
                         "--trace", str(trace)], work, "run", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    setups = [*probes, result]
    result["setup_samples"] = [p["setup_cal_s"] for p in setups]
    result["raw_setup_samples"] = [p["import_s"] + p["config_s"] for p in setups]
    return result


def summarize(result: dict, reference: dict, trace: int) -> tuple:
    """(correct, attempted, failed commands, printed metrics, problems).

    A failed command is counted, not fatal; the run is incorrect only when
    outputs drift from the reference (a missing output drifts infinitely) or
    tracing changed them.
    """
    passes = result["passes"] + ([result["traced"]] if trace else [])
    commands = [c for p in passes for c in p["commands"]]
    failed = [c for c in commands if c["exit"] != 0]
    drift = max(ref_drift(p["outputs"], reference) for p in passes)
    problems = []
    if drift > REF_DRIFT_BOUND:
        problems.append(f"ref_drift {drift!r} is above its bound {REF_DRIFT_BOUND}")
    if trace and result["traced"]["digests"] != result["passes"][0]["digests"]:
        problems.append("traced outputs differ from untraced outputs")

    plain = result["passes"]
    values = {
        "wall_s": (statistics.median(p["wall_cal_s"] for p in plain), "s"),
        "cpu_s": (statistics.median(p["cpu_cal_s"] for p in plain), "s"),
        "setup_s": (statistics.median(result["setup_samples"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "raw_wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "raw_cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s"),
        "raw_setup_s": (statistics.median(result["raw_setup_samples"]), "s"),
    }
    for command in sorted({c["command"] for c in plain[0]["commands"]}):
        per_pass = [sum(c["seconds"] for c in p["commands"] if c["command"] == command)
                    for p in plain]
        values[command + "_s"] = (statistics.median(per_pass), "s")
    final = [v[0] for k, v in plain[0]["outputs"].items() if k.endswith(".final_error")]
    if final:
        values["final_error"] = (max(final), "abs")
    values["ref_drift"] = (drift, "abs")
    values["failed_share"] = (len(failed) / len(commands), "ratio")
    values["passes"] = (len(plain), "count")
    return not problems, len(commands), failed, values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_tree()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        with open(REFERENCE) as fh:
            reference = json.load(fh)[args.workload]
        # numpy seeds must be nonnegative
        result = measure(args.workload, args.seed % 2**32, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct, attempted, failed, values, problems = summarize(result, reference,
                                                             args.trace)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(result['environment'], sort_keys=True)}")
    for name, (value, unit) in values.items():
        print(f"{name} {value!r} {unit}")
    if args.trace:
        layers = result["layers"]
        for m in spec["per_layer"]:
            print(f"{m['name']} {layers[m['name']]!r} {m['unit']}")
        chosen = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    for c in failed:
        print(f"perfbench: FAILED {c['scenario']} {c['command']}: exit {c['exit']}: "
              f"{c['error']}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": chosen}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
