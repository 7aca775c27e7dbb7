#!/usr/bin/env python3
"""Count each module's code lines: its lines less the blank ones, the
comment-only ones and those of docstrings (the first string statement of
a module, class or function).

Prints one ``count path`` line per module, then the total, in the layout
of ``wc -l``.  Run it from the repository root:

    python scripts/code_lines.py

It reads ``src/effham/*.py``; to count another tree, run it from that
checkout's root.
"""

import ast
import glob
import io
import tokenize

# tokens that occupy a line without being code on it
_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main() -> None:
    total = 0
    for path in sorted(glob.glob("src/effham/*.py")):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
