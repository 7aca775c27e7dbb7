"""One benchmark process: set up, run passes of a workload, write a result file.

run.py starts this script in a fresh interpreter with the BLAS/OpenMP thread
counts pinned to 1 and ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --mode setup|run --workload NAME --seed N \
        [--seconds S --trace 0|1] --work DIR --out FILE

``setup`` times the import and the per-config set-up and stops.  ``run``
then runs whole passes while the next one is expected to end within
``--seconds`` (at least one).  With ``--trace 1`` it runs one untraced and
one traced pass and computes the per-layer metrics named in BENCHMARK.json.
A speedometer (speedo.py) ticks from the first line on, so that every time
is also reported calibrated for the CPU speed other tenants leave.
"""

import time

from speedo import Speedometer

SPEEDO = Speedometer()
SPEEDO.start()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import effham.cli  # noqa: E402,F401

IMPORT_END = time.perf_counter()

import numpy  # noqa: E402

SPEEDO.use_numpy(numpy)

import scipy  # noqa: E402
import yaml  # noqa: E402

from effham.config import load_config  # noqa: E402
from spans import Tracer, layer_metric  # noqa: E402
from workloads import WORKLOADS, run_pass, write_configs  # noqa: E402


def _check_source() -> None:
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(effham.cli.__file__).startswith(src):
        raise SystemExit(f"effham imported from {effham.cli.__file__}, not {src}")


def _setup(configs: dict) -> dict:
    """Import and per-config set-up times, raw and calibrated."""
    for _, path in configs.values():
        cfg = load_config(path)
        cfg.scenario()
        cfg.beta_evaluator()
    end = time.perf_counter()
    return {"import_s": SPEEDO.window(START, IMPORT_END)["program_s"],
            "config_s": SPEEDO.window(IMPORT_END, end)["program_s"],
            "setup_cal_s": SPEEDO.window(START, end)["calibrated_s"]}


def _calibrate(done: dict) -> dict:
    """Add the pass's calibrated wall and CPU time; take the ticks out of both."""
    span = SPEEDO.window(done["start"], done["end"])
    done["wall_s"] = span["program_s"]
    done["cpu_s"] -= span["handler_cpu_s"]
    done["wall_cal_s"] = span["calibrated_s"]
    done["cpu_cal_s"] = done["cpu_s"] * span["calibrated_s"] / span["program_s"]
    return done


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def _layer_values(names, tracer: Tracer, plain: dict, traced: dict) -> dict:
    values = {}
    for name in names:
        if name == "trace.overhead_share":
            value = (traced["wall_cal_s"] - plain["wall_cal_s"]) / plain["wall_cal_s"]
        elif name == "trace.layer_coverage":
            value = tracer.first_level_seconds() / (traced["end"] - traced["start"])
        elif name.startswith("cli.") and name.endswith(".s"):
            command = name[len("cli."):-len(".s")]
            value = sum(c["seconds"] for c in plain["commands"]
                        if c["command"] == command)
        elif name == "homogenize.final_error":
            found = [v[0] for k, v in plain["outputs"].items()
                     if k.endswith(".final_error")]
            value = max(found) if found else 0.0
        else:
            value = layer_metric(tracer, name)
        values[name] = float(value)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    _check_source()

    workload = WORKLOADS[args.workload]
    configs = write_configs(ROOT, args.work, workload, args.seed)
    result = _setup(configs)
    if args.mode == "run":
        passes = []
        measured = 0.0
        while True:
            done = _calibrate(run_pass(workload, configs,
                                       os.path.join(args.work, f"out-{len(passes)}")))
            passes.append(done)
            measured += done["wall_s"]
            if args.trace or measured + done["wall_s"] > args.seconds:
                break
        result["passes"] = passes
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0)
        if args.trace:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            tracer = Tracer()
            tracer.install()
            try:
                traced = _calibrate(run_pass(workload, configs,
                                             os.path.join(args.work, "out-traced")))
            finally:
                tracer.uninstall()
            result["traced"] = traced
            result["layers"] = _layer_values(names, tracer, passes[0], traced)
        result["environment"] = environment()
    SPEEDO.stop()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
