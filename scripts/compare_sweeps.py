#!/usr/bin/env python3
"""List the artifacts that differ between two ``sweep_all.py`` output trees.

Walks OLD_DIR and NEW_DIR (each a ``sweep_all.py --out-dir``), and prints
one line per artifact whose bytes differ or that only one tree holds.  For
a differing JSON or CSV artifact the line gives the largest absolute
difference over its numeric fields (JSON numbers by their key path, CSV
cells by row and column), how many of them moved, and whether the two
files differ in anything but those numbers (their keys, shapes or text).
Ends with a count; exits 1 when anything differs, else 0.  Run it from
anywhere:

    python scripts/compare_sweeps.py OLD_DIR NEW_DIR
"""

import argparse
import csv
import json
import math
import os
import sys


def _artifacts(root: str) -> set:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _leaves(node, path=()):
    """(key path, value) of every leaf of a parsed JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, path + (i,))
    else:
        yield path, node


def _csv_cells(text: str):
    for r, row in enumerate(csv.reader(text.splitlines())):
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            yield (r, c), value


def _fields(path: str, text: str) -> dict:
    if path.endswith(".json"):
        return dict(_leaves(json.loads(text)))
    return dict(_csv_cells(text))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(old_path: str, new_path: str, name: str) -> str:
    """One report line for an artifact whose bytes differ."""
    with open(old_path) as fh:
        old_text = fh.read()
    with open(new_path) as fh:
        new_text = fh.read()
    if not name.endswith((".json", ".csv")):
        return f"{name}: bytes differ"
    old, new = _fields(name, old_text), _fields(name, new_text)
    worst, moved, numbers, other = 0.0, 0, 0, old.keys() != new.keys()
    for key in old.keys() & new.keys():
        a, b = old[key], new[key]
        if _is_number(a) and _is_number(b):
            numbers += 1
            if a != b:
                moved += 1
                diff = abs(a - b)
                worst = diff if math.isnan(diff) else max(worst, diff)
        elif a != b:
            other = True
    line = (f"{name}: max |diff| {worst:.3g} over {moved} of {numbers} "
            "numbers")
    return line + ("; other fields differ too" if other else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args(argv)

    old, new = _artifacts(args.old_dir), _artifacts(args.new_dir)
    differing = 0
    for name in sorted(old | new):
        if name not in new or name not in old:
            print(f"{name}: only in {args.old_dir if name in old else args.new_dir}")
            differing += 1
            continue
        old_path = os.path.join(args.old_dir, name)
        new_path = os.path.join(args.new_dir, name)
        with open(old_path, "rb") as a, open(new_path, "rb") as b:
            if a.read() == b.read():
                continue
        print(compare(old_path, new_path, name))
        differing += 1
    print(f"{differing} of {len(old | new)} artifacts differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
