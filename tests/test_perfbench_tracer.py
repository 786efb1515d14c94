"""The benchmark's span tracer names gpattr functions by (module, attribute)
and CLI handlers by name; a rename in the package must show here, not only
under a traced benchmark run."""

from pathlib import Path

import numpy as np

import gpattr
import gpattr.cli
from oracles import packed_builder

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


def test_jittered_cholesky_calls_gpr_cholesky_once_per_attempt(monkeypatch):
    # install() wraps gpattr.gpr.cholesky and counts its calls under
    # jittered_cholesky as attempts; retries = attempts - calls holds only
    # if every attempt is one call of that module-level name
    assert "gpattr.gpr.cholesky" in SPANTRACE.read_text(encoding="utf-8")
    real = gpattr.gpr.cholesky
    assert callable(real)
    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(gpattr.gpr, "cholesky", counted)
    gpattr.gpr.jittered_cholesky(packed_builder(np.array([[2.0, 0.5], [0.5, 1.0]])))
    assert len(calls) == 1
    gpattr.gpr.jittered_cholesky(packed_builder(np.ones((2, 2))))  # one retry
    assert len(calls) == 3
