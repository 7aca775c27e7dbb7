"""Every public function, class and method of the package has a caller.

A public top-level name of a module under src/effham, and a public method
of a public class defined there, must be read somewhere in src/effham or
scripts/ outside its own definition, or be named by a string in the
benchmark's tracer (perfbench/spans.py wraps methods by name, such as the
one-pair cover ``distance``).  Reference routes that only tests read live
in tests/oracles.py, not in the package.  Reads are matched by name, so a
method that shares its name with something read elsewhere passes.
"""

import ast
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "effham")


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


def _reads(node) -> Counter:
    """Names read anywhere under a node, as bare names or attributes,
    with their counts."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _traced_names() -> set:
    """The string constants of the benchmark's tracer, which names the
    methods it wraps."""
    with open(os.path.join(ROOT, "perfbench", "spans.py")) as fh:
        tree = ast.parse(fh.read())
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _public(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _public_definitions(trees):
    """(label, owner, node) of every public top-level definition and
    every public method of a public class; owner is the class name."""
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        module = os.path.basename(path)
        for node in filter(_public, tree.body):
            yield f"{module}: {node.name}", None, node
            if isinstance(node, ast.ClassDef):
                for method in filter(_public, node.body):
                    yield (f"{module}: {node.name}.{method.name}", node.name,
                           method)


def test_every_public_name_has_a_caller():
    trees = _sources()
    definitions = list(_public_definitions(trees))
    assert {label.split(":")[0] for label, _, _ in definitions} >= {
        "action.py", "cli.py", "config.py", "homogenize.py", "mather.py",
        "model.py", "topology.py"}
    assert any(owner for _, owner, _ in definitions)
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    traced = _traced_names()
    unread = []
    for label, _, node in definitions:
        if node.name in traced:
            continue
        if reads[node.name] <= _reads(node)[node.name]:
            unread.append(label)
    assert unread == []
