"""Properties of the library source as a whole."""

import ast
import importlib
import sys
from pathlib import Path

import chemosteer

SOURCES = sorted(Path(chemosteer.__file__).parent.glob("*.py"))


def test_no_assert_in_library_paths():
    # an assert vanishes under python -O: a library check raises instead
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"assert statements in {found}"


# The LAPACK routines the solvers call: with numpy, the only imports outside the standard library.
LAPACK = {"dgtsv", "dgttrf", "dgttrs", "dpttrf", "dpttrs"}


def test_only_numpy_and_the_pinned_lapack_routines_are_imported():
    # the exactness guarantees and the solver timings rest on these routines: a new
    # solver import (scipy.linalg.solve_banded, say) has to be added here first
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(f"import {a.name} as {a.asname}" for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.update(f"from {node.module} import {a.name}" for a in node.names)
    third_party = {line for line in found
                   if line.split()[1].split(".")[0] not in sys.stdlib_module_names}
    assert third_party == {"import numpy as np"} | {
        f"from scipy.linalg.lapack import {name}" for name in LAPACK}, third_party


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


# Traced names the library no longer has: their metrics read 0 until the tracer drops them.
GONE_FROM_TRACE = {"grid.build_domain", "hum.gramian_quadratic_form"}


def test_every_traced_function_exists():
    # the bench tracer skips a name it cannot find, so a rename would zero a metric silently
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text())
    traced, = [ast.literal_eval(stmt.value) for stmt in tree.body if isinstance(stmt, ast.Assign)
               and [getattr(t, "id", None) for t in stmt.targets] == ["TRACED"]]
    missing = [name for name in traced if name not in GONE_FROM_TRACE and not hasattr(
        importlib.import_module("chemosteer." + name.split(".")[0]), name.split(".")[1])]
    assert traced and not missing, missing
