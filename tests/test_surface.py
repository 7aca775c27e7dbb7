"""Every public function and class of the package has a caller.

A public top-level name of a module under src/effham must be read
somewhere in src/effham or scripts/ outside its own definition, or be one
of the named test oracles below, which exist to be cross-checked against
the production routes.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "effham")

ORACLES = {"mean_action_check", "affine_datum_check", "fenchel_young_residual",
           "double_legendre_residual", "single_loop", "figure_eight"}


def _sources():
    paths = [os.path.join(PACKAGE, f) for f in sorted(os.listdir(PACKAGE))
             if f.endswith(".py")]
    scripts = os.path.join(ROOT, "scripts")
    paths += [os.path.join(scripts, f) for f in sorted(os.listdir(scripts))
              if f.endswith(".py")]
    trees = {}
    for path in paths:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), filename=path)
    return trees


def _reads(node) -> set:
    """Names read anywhere under a node, as bare names or attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _public_definitions(trees):
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield os.path.basename(path), node


def test_every_public_name_has_a_caller():
    trees = _sources()
    definitions = list(_public_definitions(trees))
    assert {module for module, _ in definitions} >= {
        "action.py", "cli.py", "config.py", "homogenize.py", "mather.py",
        "model.py", "topology.py"}
    unread = []
    for module, node in definitions:
        if node.name in ORACLES:
            continue
        if not any(node.name in _reads(top)
                   for tree in trees.values() for top in tree.body
                   if top is not node):
            unread.append(f"{module}: {node.name}")
    assert unread == []
