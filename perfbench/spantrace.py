"""Span tracing for gpattr, installed from outside the package.

A traced benchmark child calls install() before it runs any gpattr code.
install() replaces each traced function with a timing wrapper in every gpattr
module namespace that holds it, because callers look functions up by the
names they imported (gpattr.gpr.kernel_matrix, gpattr.cli.attribution_report,
...). GprModel.solve is wrapped on the class, and the CLI subcommand handlers
on gpattr.cli, where build_parser looks them up.

Spans stay in memory and are written once, as JSON, when the child ends:

    {"run": RUN_ID, "imported_at": T, "spans": [[name, start, end, parent, size], ...]}

Times are time.monotonic() seconds, which every process on the machine
shares, so the parent can subtract its own spawn time from imported_at.
parent is the index of the enclosing span (-1 at top level); size is a
per-call work count for the functions in _SIZES, else null.
"""

import functools
import json
import os
import time

import numpy as np

# (module, attribute) of every traced gpattr function.
TRACED = (
    ("specfun", "erf"),
    ("kernels", "kernel_cross"),
    ("kernels", "kernel_matrix"),
    ("kernels", "grad_i_cross"),
    ("kernels", "hess_ii_cross"),
    ("gpr", "jittered_cholesky"),
    ("gpr", "fit"),
    ("gpr", "optimize_hyperparameters"),
    ("gpr", "load_model"),
    ("gpr", "predict"),
    ("attrib_exact", "attribution_report"),
    ("attrib_exact", "gpr_attribution"),
    ("attrib_exact", "prior_attribution_variance"),
    ("attrib_quad", "quad_attribution"),
    ("attrib_quad", "convergence_sweep"),
    ("attrib_quad", "mc_attribution_oracle"),
    ("rfgp", "rfgp_fit"),
    ("rfgp", "rfgp_attribution"),
    ("rfgp", "marginalized_attribution"),
    ("data_io", "load_csv"),
)

CLI_COMMANDS = {
    "cmd_fit": "fit",
    "cmd_attribute": "attribute",
    "cmd_quad_sweep": "quad-sweep",
    "cmd_rfgp_compare": "rfgp-compare",
    "cmd_mc_validate": "mc-validate",
}


def _rows(a) -> int:
    shape = np.shape(a)
    return 1 if len(shape) < 2 else shape[0]


# Per-call work counts, from the positional arguments the package passes.
_SIZES = {
    "specfun.erf": lambda args: int(np.size(args[0])),
    # bytes of the (n, m, d) float64 difference array kernel_cross forms
    "kernels.kernel_cross": lambda args: _rows(args[0]) * _rows(args[1]) * np.shape(args[0])[-1] * 8,
    "gpr.GprModel.solve": lambda args: 1 if np.ndim(args[1]) < 2 else np.shape(args[1])[1],
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str, imported_at: float):
        self.run_id = run_id
        self.imported_at = imported_at
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        size = _SIZES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic(), None, stack[-1] if stack else -1,
                    size(args) if size else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.monotonic()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "imported_at": self.imported_at, "spans": self.spans}, fh)


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install() -> Tracer:
    """Import gpattr, wrap the traced functions, and return the recorder."""
    import gpattr
    import gpattr.cli

    tracer = Tracer(os.environ.get("PERFBENCH_RUN_ID", ""), time.monotonic())
    modules = [m for m in vars(gpattr).values() if isinstance(m, type(gpattr))]
    modules.append(gpattr)
    for mod_name, attr in TRACED:
        fn = getattr(getattr(gpattr, mod_name), attr)
        _rebind(modules, fn, tracer.wrap(f"{mod_name}.{attr}", fn))
    model_cls = gpattr.gpr.GprModel
    model_cls.solve = tracer.wrap("gpr.GprModel.solve", model_cls.solve)
    # Only gpr's binding: it sees every attempt jittered_cholesky makes, so
    # retries = attempts - 1. Other modules keep scipy's function.
    gpattr.gpr.cholesky = tracer.wrap("gpr.cholesky", gpattr.gpr.cholesky)
    for handler, command in CLI_COMMANDS.items():
        setattr(gpattr.cli, handler, tracer.wrap(f"cli.{command}", getattr(gpattr.cli, handler)))
    return tracer


def run_cli(argv) -> int:
    """gpattr.cli.main under tracing; spans go to $PERFBENCH_SPANS."""
    tracer = install()
    import gpattr.cli

    try:
        return gpattr.cli.main(argv)
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
