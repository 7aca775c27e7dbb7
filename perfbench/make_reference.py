#!/usr/bin/env python3
"""Write reference.json: the seed-independent outputs the benchmark checks.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload in BENCHMARK.json (seed 0) and
stores every value that ``ref_drift`` compares: each ladder cell's v_eps and
u_limit, the ladder's final_error, and every alpha and beta table value.
Run it at the commit whose outputs later commits must reproduce.
"""

import json
import os
import sys

from run import REFERENCE, ROOT, measure


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    reference = {}
    for name in names:
        done = measure(name, 0, 0.0, 0)["passes"][0]
        failed = [c for c in done["commands"] if c["exit"] != 0]
        if failed:
            print(f"{name}: failed commands {failed}", file=sys.stderr)
            return 1
        reference[name] = done["outputs"]
        print(f"{name}: {len(done['outputs'])} output series", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
