"""The compiled scipy routines the package runs on, and its numerical error type.

The package's one way into scipy's compiled objects. scipy.linalg._flapack
gives LAPACK's packed (RFP) Cholesky routines dpftrf, dpftrs and dtfsm, and
for the random-feature fit dgeqrf, dormqr (which applies the QR's Q from
its Householder reflectors, so Q is never formed), dpotrf, dpotrs and
dtrtrs. erf comes from scipy.special._special_ufuncs, on first use (a fit
or a search never maps it), and cdist_sqeuclidean, the pass behind
cdist(X, Z, "sqeuclidean", w=w), from scipy.spatial._distance_pybind.
Each is loaded from its file under its own sys.modules name, so no
subpackage __init__ runs: those run scipy's array-API layer, which loads
numpy.f2py, numpy.testing and numpy.ma. On a 2-core x86-64 host (numpy
2.4, scipy 1.17), after numpy and scipy, the public imports took
0.20-0.24 s and left 64.6 MiB of RSS, the direct loads 0.004 s and
31.4 MiB (erf 1.1 MiB more). A later public import returns the same
objects. If a load fails, the public imports serve.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy

__all__ = ["NumericalError", "cdist_sqeuclidean", "dgeqrf", "dormqr", "dpftrf", "dpftrs", "dpotrf", "dpotrs",
           "dtfsm", "dtrtrs", "erf"]


class NumericalError(RuntimeError):
    """A linear solve, factorization, or stability guard failed."""


def _load(name: str):
    """The compiled module scipy.SUBPACKAGE.MODULE, from its file, without
    importing the subpackage."""
    if name not in sys.modules:
        subpackage = os.path.join(scipy.__path__[0], name.split(".")[1])
        spec = importlib.machinery.PathFinder.find_spec(name, [subpackage])
        if spec is None:
            raise ImportError(f"no {name} in {subpackage}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


try:
    _flapack = _load("scipy.linalg._flapack")
    dgeqrf, dormqr, dpftrf, dpftrs = _flapack.dgeqrf, _flapack.dormqr, _flapack.dpftrf, _flapack.dpftrs
    dpotrf, dpotrs, dtfsm, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtfsm, _flapack.dtrtrs
    cdist_sqeuclidean = _load("scipy.spatial._distance_pybind").cdist_sqeuclidean
except (ImportError, AttributeError):  # another layout: no such file, or no such routine in it
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
