"""Code lines of each module of ``src/mxspec``, and their total: the size
count that ROADMAP.md records.

A code line holds at least one token other than a comment.  Blank lines,
comment lines and the lines of module, class and function docstrings do
not count; a line that holds code and a trailing comment does.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mxspec"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers of the docstrings of the module and of every class and
    function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in skip)
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
