"""The library raises typed errors for its runtime invariants.

``assert`` statements vanish under ``python -O`` and surface as a bare
``AssertionError`` otherwise, outside the :class:`~repro.errors.
ReproError` hierarchy callers catch.  Every invariant in ``src/repro``
raises a typed error instead; this walks the package source and fails
on any ``assert`` statement it finds.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def test_no_assert_statements_in_library():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in paths  # the walk sees the package
    found = [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"runtime asserts in the library: {found}"
