#!/usr/bin/env python3
"""Sweep every scenario in scenarios/ through validate + its main command.

Prints one line per (scenario, command) with the exit status, the time
and the process's peak resident memory so far in MB (a run that raises
the peak set it), then ends with one ``sha256  path`` line per artifact
the sweep wrote, sorted, the path relative to the output directory;
exits nonzero if any run failed.  Heavy ladder experiments are only
run when --full is given, otherwise the sweep sticks to the cheap
commands (validate, alpha, beta, spaces).  Run it from the repository
root with the package on the path:

    PYTHONPATH=src python scripts/sweep_all.py [--full] [--out-dir DIR]

Two sweeps are compared artifact by artifact with one diff of their
digest lines:

    diff <(grep -E '^[0-9a-f]{64}  ' a.log) <(grep -E '^[0-9a-f]{64}  ' b.log)

and their output trees, with the largest move of each differing artifact's
numbers, by

    python scripts/compare_sweeps.py OLD_OUT_DIR NEW_OUT_DIR
"""

import argparse
import glob
import hashlib
import os
import resource
import sys
import time

from effham.cli import run

CHEAP = ("validate", "alpha", "beta", "spaces")


def _stamps(directory: str) -> dict:
    """Modification time of every file under directory, by path."""
    return {os.path.join(root, name): os.stat(os.path.join(root, name)).st_mtime_ns
            for root, _, names in os.walk(directory) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every scenario config")
    parser.add_argument("--scenario-dir", default="scenarios")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--full", action="store_true",
                        help="also run homogenize (with the quotient checks "
                        "on a subcover config)")
    args = parser.parse_args(argv)

    configs = sorted(glob.glob(os.path.join(args.scenario_dir, "*.yaml")))
    if not configs:
        print(f"no configs under {args.scenario_dir}", file=sys.stderr)
        return 2

    failures = 0
    written = set()
    for path in configs:
        name = os.path.splitext(os.path.basename(path))[0]
        commands = list(CHEAP)
        if args.full:
            commands.append("homogenize")
        out_dir = os.path.join(args.out_dir, name)
        for command in commands:
            before = _stamps(out_dir)
            start = time.perf_counter()
            code = run(path, command, out_dir=out_dir)
            elapsed = time.perf_counter() - start
            written.update(p for p, stamp in _stamps(out_dir).items()
                           if before.get(p) != stamp)
            status = "ok" if code == 0 else f"exit {code}"
            # ru_maxrss is in kilobytes on Linux
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"[{status:>7}] {name:<24} {command:<10} {elapsed:8.2f}s"
                  f" {peak_mb:8.1f} MB")
            failures += code != 0
    print(f"{len(configs)} configs swept, {failures} failing runs")
    for artifact in sorted(os.path.relpath(p, args.out_dir) for p in written):
        with open(os.path.join(args.out_dir, artifact), "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {artifact}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
