"""Code lines of each module of the xythermo package, and their total.

A code line is a line of source that is not blank, not a comment and not
part of a docstring (the string that opens a module, class or function
body).  Docstrings are found with the stdlib ``ast``; a comment line is one
whose first non-blank character is ``#``.  Run from the repository root,
or pass the package directory of another tree:

    python tools/code_lines.py
    python tools/code_lines.py /tmp/parent/src/xythermo
"""
from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _docstring_lines(tree: ast.Module) -> set[int]:
    # the line numbers of every docstring of the module, its classes and functions
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path) as fh:
        source = fh.read()
    docstrings = _docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = argv[0] if argv else os.path.join(ROOT, "src", "xythermo")
    total = 0
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        count = code_lines(os.path.join(package, name))
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
