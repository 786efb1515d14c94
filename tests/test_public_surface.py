"""Every public name of gpattr has a use outside the tests.

A name is in use when live code refers to it. Live code is everything in
scripts/ and perfbench/ (whose span tracer names functions by string), the
module-level statements of src/gpattr other than imports and __all__, and,
transitively, the body of every top-level function or class of src/gpattr
whose name live code refers to. A helper that only tests call belongs in
tests/oracles.py, not in the package.
"""

import ast
import importlib
import types
from pathlib import Path

import gpattr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpattr"


def _refs(node: ast.AST, strings: bool) -> set[str]:
    """Names, attribute names and (with strings) string constants in node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _is_export(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def _live_names() -> set[str]:
    bodies: dict[str, set[str]] = {}
    live: set[str] = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_refs(stmt, strings=False))
            elif not _is_export(stmt):
                live |= _refs(stmt, strings=False)
    for path in [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]:
        live |= _refs(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    frontier = list(live)
    while frontier:
        for name in bodies.get(frontier.pop(), ()):
            if name not in live:
                live.add(name)
                frontier.append(name)
    return live


def _public_names() -> set[str]:
    names = {
        name
        for name, value in vars(gpattr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    for path in SRC.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            names |= set(importlib.import_module(f"gpattr.{path.stem}").__all__)
    return names


def test_every_public_name_is_used_outside_tests():
    unused = sorted(_public_names() - _live_names())
    assert not unused, f"public names with no use outside tests/: {unused}"
