"""Count the total and the code lines of each ``src/isoslice`` module.

A code line is any line left once docstrings (module, class and function),
comment-only lines and blank lines are taken out.  Run from anywhere::

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isoslice"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token that is not a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    quiet = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in quiet:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> None:
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines, kept = len(source.splitlines()), code_lines(source)
        total, code = total + lines, code + kept
        print(f"{path.name:16} {lines:6} {kept:6}")
    print(f"{'total':16} {total:6} {code:6}")


if __name__ == "__main__":
    main()
