"""Count total and code-only lines of Python sources, per file and per directory.

    python3 tools/count_lines.py [PATH ...]        (default: src/irs_gbsm tests)

Each PATH is a ``.py`` file or a directory, whose ``*.py`` files (not
recursive) are counted.  Total lines are the physical lines of a file.
Code-only lines leave out blank lines, comment lines and docstring lines;
they are found with ``tokenize``: a line counts when a token other than a
comment, a newline, an indent or a docstring starts on it or spans it.  A
docstring is a string statement that opens a module, class or function
body.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """1-based line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total, code-only) lines of one Python file."""
    source = path.read_text()
    docs = docstring_lines(source)
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT or tok.start[0] in docs:
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    for arg in argv or ["src/irs_gbsm", "tests"]:
        root = Path(arg)
        files = sorted(root.glob("*.py")) if root.is_dir() else [root]
        sums = [0, 0]
        for path in files:
            total, code = count(path)
            sums[0] += total
            sums[1] += code
            print(f"{total:7,} {code:7,}  {path}")
        if root.is_dir():
            print(f"{sums[0]:7,} {sums[1]:7,}  {root}  ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
