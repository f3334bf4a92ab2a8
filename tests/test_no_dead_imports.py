"""Every import in the library's modules is used.

An import nothing reads costs start-up time, hides real dependencies
and survives deletions unnoticed.  This walks each non-``__init__``
module of ``src/repro`` and fails on any imported name the module never
reads.  A name counts as read when it appears as an expression name
(attribute chains included), in ``__all__``, or inside a quoted
annotation.  Package ``__init__`` modules re-export by design and are
skipped.
"""

import ast
from pathlib import Path
from typing import Iterator, Set, Tuple

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of every import binding in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (a.annotation for a in (
                *node.args.posonlyargs, *node.args.args,
                *node.args.kwonlyargs, node.args.vararg, node.args.kwarg)
                if a is not None and a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> Set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, per the module docstring."""
    names = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant)
                      and isinstance(c.value, str)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _names(ast.parse(node.value, mode="eval"))
                except SyntaxError:  # a string literal, not a type
                    pass
    return names


def dead_imports(source: str, filename: str = "<module>"):
    """``[(line, name)]`` of the imports ``source`` never reads."""
    tree = ast.parse(source, filename=filename)
    read = _read_names(tree)
    return sorted((line, name) for name, line in _imported(tree)
                  if name not in read)


def test_no_dead_imports_in_library():
    paths = sorted(p for p in PACKAGE.rglob("*.py")
                   if p.name != "__init__.py")
    assert PACKAGE / "config.py" in paths  # the walk sees the package
    found = [f"{path.relative_to(PACKAGE.parent)}:{line} {name}"
             for path in paths
             for line, name in dead_imports(path.read_text(), str(path))]
    assert not found, f"unused imports in the library: {found}"


def test_detector_sees_uses_and_misses():
    source = '''
from __future__ import annotations
import os.path
from typing import Dict, List, Optional, Set
from x import exported, quoted, unused as alias

__all__ = ["exported"]

def f(a: "Optional[quoted]") -> Dict[str, int]:
    return os.path.join(a)
'''
    assert dead_imports(source) == [(4, "List"), (4, "Set"), (5, "alias")]
