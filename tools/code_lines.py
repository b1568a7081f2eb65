"""Count the code lines of Python sources: lines without blanks, comments
or docstrings.

    python tools/code_lines.py PATH...

Each PATH is a .py file or a directory searched for .py files.  A line
counts if a token other than a comment starts or continues on it, and it
lies outside every docstring (the string that opens a module, class or
function body).  Prints the total over all paths.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_paths(paths) -> int:
    """The code lines of every .py file under the given paths."""
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return sum(count_source(f.read_text(encoding="utf-8")) for f in files)


def main() -> int:
    paths = sys.argv[1:]
    if not paths:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    print(count_paths(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
