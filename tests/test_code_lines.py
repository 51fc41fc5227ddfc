import ast

import code_lines

SAMPLE = '''"""Module docstring,

over three lines."""

# A comment line.
import os  # a code line with a comment


def f():
    """One docstring line."""
    text = """a string,

    not a docstring"""
    return text
'''


def test_each_line_is_of_one_kind():
    assert code_lines.line_kinds(SAMPLE) == {"code": 6, "docstring": 4, "comment": 1, "blank": 3}


def test_kinds_sum_to_each_modules_line_count():
    paths = sorted(code_lines.SRC.glob("*.py"))
    assert paths
    for path in paths:
        source = path.read_text()
        assert sum(code_lines.line_kinds(source).values()) == len(source.splitlines()), path.name


def test_sources_parse_as_python_3_10():
    """``requires-python = ">=3.10"``: no module uses syntax newer than 3.10."""
    paths = sorted(code_lines.SRC.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
