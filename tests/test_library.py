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


def names(stmt):
    """Each name that stmt reads, a module's attributes among them."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_the_cli_prints():
    # the library reports and the CLI prints: no module but cli writes to a stream
    # or warns, save build_weights' one warning of an underflowing raw weight
    found = [(path.stem, getattr(stmt, "name", None), name) for path in SOURCES
             if path.name != "cli.py" for stmt in ast.parse(path.read_text(), str(path)).body
             for name in names(stmt) if name in ("print", "stderr", "warn")]
    assert found == [("carleman", "build_weights", "warn")], found
