"""Every public name of gpattr, and every private top-level function or class, has a use outside the tests.

A name is in use when live code refers to it. Live code is everything in
scripts/ and perfbench/ (whose span tracer names functions by string), the
module-level statements of src/gpattr other than imports and __all__, and,
transitively, the body of every top-level function or class of src/gpattr
whose name live code refers to. A helper that only tests call belongs in
tests/oracles.py, not in the package.

A few public names are live only because the span tracer in perfbench/
names them in a string. They are listed in TRACER_ONLY, so a new one fails
the tests, and the benchmark change that drops a name from the tracer
moves that function to tests/oracles.py and removes it from the set.
"""

import ast
import importlib
import types
from pathlib import Path

import gpattr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpattr"

# public names whose only use outside tests/ is a string in perfbench/
TRACER_ONLY = {"gpr_attribution", "prior_attribution_variance", "grad_i_cross", "hess_ii_cross", "predict"}


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


def _live_names(perfbench_strings: bool = True) -> set[str]:
    bodies: dict[str, set[str]] = {}
    live: set[str] = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_refs(stmt, strings=False))
            elif not _is_export(stmt):
                live |= _refs(stmt, strings=False)
    for path in ROOT.glob("scripts/*.py"):
        live |= _refs(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    for path in ROOT.glob("perfbench/*.py"):
        live |= _refs(ast.parse(path.read_text(encoding="utf-8")), strings=perfbench_strings)
    frontier = list(live)
    while frontier:
        for name in bodies.get(frontier.pop(), ()):
            if name not in live:
                live.add(name)
                frontier.append(name)
    return live


def _exported() -> set[str]:
    """The public names of the package itself, leaving out its submodules."""
    return {
        name
        for name, value in vars(gpattr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def _public_names() -> set[str]:
    names = _exported()
    for path in SRC.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            names |= set(importlib.import_module(f"gpattr.{path.stem}").__all__)
    return names


LAYERS = ("attrib_exact", "attrib_quad", "data_io", "gpr", "kernels", "rfgp")


def test_package_exports_exactly_the_layers_all():
    # each layer module's __all__ is the one declaration of what gpattr
    # exports; NumericalError comes from specfun, whose other names stay there
    declared = {"NumericalError"}.union(*(importlib.import_module(f"gpattr.{m}").__all__ for m in LAYERS))
    assert _exported() == declared
    assert len(declared) == 43


def test_every_public_name_is_used_outside_tests():
    unused = sorted(_public_names() - _live_names())
    assert not unused, f"public names with no use outside tests/: {unused}"


def test_names_kept_alive_only_by_the_tracer_are_the_known_set():
    only = _public_names() & (_live_names() - _live_names(perfbench_strings=False))
    assert only == TRACER_ONLY


def test_every_import_is_used_or_exported():
    # a module's imports are read by its own code or re-exported in its
    # __all__; the package's __init__ only re-exports, so it is exempt
    unused = []
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        exported = set(getattr(importlib.import_module(f"gpattr.{path.stem}"), "__all__", ()))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - loaded - exported)]
    assert not unused, f"imports no code uses: {unused}"


def test_every_private_function_and_class_is_live():
    # a _-prefixed helper that only tests call is a scalar twin or an oracle
    # kept alive by them: it belongs in tests/oracles.py (dunders are exempt)
    live = _live_names()
    dead = [
        f"{path.name}: {stmt.name}"
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.endswith("__") and stmt.name not in live
    ]
    assert not dead, f"private functions or classes no live code uses: {dead}"
