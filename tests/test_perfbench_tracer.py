"""The benchmark's span tracer names gpattr functions by (module, attribute)
and CLI handlers by name; a rename in the package must show here, not only
under a traced benchmark run."""

from pathlib import Path

import gpattr
import gpattr.cli

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"


def _spantrace() -> dict:
    # executed from its source text, so nothing is imported or written
    # under perfbench/
    namespace = {"__name__": "spantrace"}
    exec(compile(SPANTRACE.read_text(encoding="utf-8"), str(SPANTRACE), "exec"), namespace)
    return namespace


def test_traced_functions_resolve_on_gpattr():
    trace = _spantrace()
    for module, attr in trace["TRACED"]:
        assert callable(getattr(getattr(gpattr, module), attr, None)), f"{module}.{attr}"
    parser = gpattr.cli.build_parser()
    for handler, command in trace["CLI_COMMANDS"].items():
        argv = [command, "--simulate", "10"] if command == "fit" else [command, "--model", "model.json"]
        assert parser.parse_args(argv).func is getattr(gpattr.cli, handler, None), handler


def test_traced_solve_method_exists():
    # install() wraps GprModel.solve on the class by name and counts its
    # right-hand sides, so the attribution reports' solve counters need it
    assert "GprModel.solve" in SPANTRACE.read_text(encoding="utf-8")
    assert callable(getattr(gpattr.gpr.GprModel, "solve", None))
