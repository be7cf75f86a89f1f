"""Properties of the library source as a whole."""

import ast
from pathlib import Path

import chemosteer

SOURCES = sorted(Path(chemosteer.__file__).parent.glob("*.py"))


def test_no_assert_in_library_paths():
    # an assert vanishes under python -O: a library check raises instead
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"assert statements in {found}"
