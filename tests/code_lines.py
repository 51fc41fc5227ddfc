"""Count each kind of line in each ``src/isoslice`` module.

Every line is of exactly one kind, so the four kinds sum to the file's line
count.  A docstring line lies inside a module, class or function docstring.
A code line holds a token that is not a comment, outside docstrings.  A
comment line holds a comment and nothing else.  A blank line holds only
whitespace.  Run from anywhere::

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isoslice"
KINDS = ("code", "docstring", "comment", "blank")


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


def line_kinds(source: str) -> dict[str, int]:
    """How many lines of ``source`` are of each of ``KINDS``."""
    docstring = docstring_lines(ast.parse(source))
    code, comment = set(), set()
    quiet = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in quiet:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= code | docstring
    blank = {n for n, line in enumerate(source.splitlines(), 1) if not line.strip()} - docstring - code
    return {"code": len(code), "docstring": len(docstring), "comment": len(comment), "blank": len(blank)}


def main() -> None:
    rows = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, {"lines": len(source.splitlines()), **line_kinds(source)}))
    rows.append(("total", {key: sum(counts[key] for _, counts in rows) for key in rows[0][1]}))
    print(f"{'module':16}" + "".join(f" {key:>9}" for key in rows[0][1]))
    for name, counts in rows:
        print(f"{name:16}" + "".join(f" {n:9}" for n in counts.values()))


if __name__ == "__main__":
    main()
