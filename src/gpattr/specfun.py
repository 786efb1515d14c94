"""The compiled scipy routines the package runs on, and its numerical error type.

The package's one way into scipy. scipy.linalg._flapack gives LAPACK's
packed (RFP) Cholesky routines dpftrf, dpftrs and dtfsm, and for the
random-feature fit dgeqrf, dormqr (which applies the QR's Q from its
Householder reflectors, so Q is never formed), dpotrf, dpotrs and dtrtrs.
erf comes from scipy.special._special_ufuncs, on first use (a fit or a
search never maps it), cdist_sqeuclidean, the pass behind cdist(X, Z,
"sqeuclidean", w=w), from scipy.spatial._distance_pybind, and the
manifests' scipy_version from scipy/version.py. Each is loaded from its
file under its own name, so neither scipy's __init__ (which loads its test
utilities) nor a subpackage's (scipy's array-API layer, which loads
numpy.f2py, numpy.testing and numpy.ma) runs. On a 2-core x86-64 host
(numpy 2.4, scipy 1.17), after numpy, the public imports took 0.29-0.55 s
and left 64.5 MiB of RSS (scipy's __init__ alone 0.012-0.016 s and
1.3 MiB), the direct loads 0.006-0.014 s and 30.2 MiB (erf 1.1 MiB more).
A later public import returns the same compiled objects. If a load fails,
the public imports serve.
"""

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["NumericalError", "cdist_sqeuclidean", "dgeqrf", "dormqr", "dpftrf", "dpftrs", "dpotrf", "dpotrs",
           "dtfsm", "dtrtrs", "erf", "scipy_version"]


class NumericalError(RuntimeError):
    """A linear solve, factorization, or stability guard failed."""


def _load(name: str):
    """scipy.MODULE or scipy.SUBPACKAGE.MODULE, from its file, running no
    package __init__. Only a compiled module joins sys.modules, so a later
    public import returns it; a later `import scipy` loads version.py anew
    and binds it as scipy.version."""
    if name in sys.modules:
        return sys.modules[name]
    package = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], *name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [package])
    if spec is None:
        raise ImportError(f"no {name} in {package}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        sys.modules[name] = module
    return module


try:
    scipy_version = _load("scipy.version").version
    _flapack = _load("scipy.linalg._flapack")
    dgeqrf, dormqr, dpftrf, dpftrs = _flapack.dgeqrf, _flapack.dormqr, _flapack.dpftrf, _flapack.dpftrs
    dpotrf, dpotrs, dtfsm, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtfsm, _flapack.dtrtrs
    cdist_sqeuclidean = _load("scipy.spatial._distance_pybind").cdist_sqeuclidean
except (ImportError, AttributeError):  # another layout: no such file, or no such routine in it
    from scipy import __version__ as scipy_version
    from scipy.linalg.lapack import dgeqrf, dormqr, dpftrf, dpftrs, dpotrf, dpotrs, dtfsm, dtrtrs
    from scipy.spatial.distance import cdist

    def cdist_sqeuclidean(X, Z, w):
        return cdist(X, Z, "sqeuclidean", w=w)


def __getattr__(name: str):
    """erf, loaded on first use (PEP 562), so a process that never evaluates it never maps its module."""
    if name != "erf":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        erf = _load("scipy.special._special_ufuncs").erf
    except (ImportError, AttributeError):
        from scipy.special import erf
    globals()["erf"] = erf
    return erf
