#!/usr/bin/env python3
"""Sweep every scenario in scenarios/ through validate + its main command.

Prints one line per (scenario, command) with the exit status and a final
summary; exits nonzero if any run failed.  Heavy ladder experiments are
only run when --full is given, otherwise the sweep sticks to the cheap
commands (validate, alpha, beta, spaces).  Run it from the repository
root with the package on the path:

    PYTHONPATH=src python scripts/sweep_all.py [--full]
"""

import argparse
import glob
import os
import sys
import time

from effham.cli import run

CHEAP = ("validate", "alpha", "beta", "spaces")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every scenario config")
    parser.add_argument("--scenario-dir", default="scenarios")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--full", action="store_true",
                        help="also run homogenize (and subcover where configured)")
    args = parser.parse_args(argv)

    configs = sorted(glob.glob(os.path.join(args.scenario_dir, "*.yaml")))
    if not configs:
        print(f"no configs under {args.scenario_dir}", file=sys.stderr)
        return 2

    failures = 0
    for path in configs:
        name = os.path.splitext(os.path.basename(path))[0]
        commands = list(CHEAP)
        if args.full:
            commands.append("homogenize")
            if "subcover" in name:
                commands.append("subcover")
        for command in commands:
            start = time.perf_counter()
            code = run(path, command, out_dir=os.path.join(args.out_dir, name))
            elapsed = time.perf_counter() - start
            status = "ok" if code == 0 else f"exit {code}"
            print(f"[{status:>7}] {name:<24} {command:<10} {elapsed:8.2f}s")
            failures += code != 0
    print(f"{len(configs)} configs swept, {failures} failing runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
