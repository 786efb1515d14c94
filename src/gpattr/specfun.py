"""The compiled scipy routines the package runs on, and its numerical error type.

The package's one way into scipy's compiled objects. scipy.linalg._flapack
gives LAPACK's packed (RFP) Cholesky routines dpftrf, dpftrs and dtfsm, and
dgeqrf, dorgqr, dpotrf, dpotrs and dtrtrs for the random-feature fit. erf
comes from scipy.special._special_ufuncs, and cdist_sqeuclidean, the pass
behind cdist(X, Z, "sqeuclidean", w=w), from scipy.spatial._distance_pybind.
Each is loaded from its file under its own sys.modules name, so no
subpackage __init__ runs: those run scipy's array-API layer, which loads
numpy.f2py, numpy.testing and numpy.ma. On a 2-core x86-64 host (numpy 2.4,
scipy 1.17), after numpy and scipy, the public imports took 0.31-0.48 s and
left 64.5 MB of RSS, the direct loads 0.01 s and 32.5 MB. A later public
import returns the same objects. If a load fails, the public imports serve.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy

__all__ = ["NumericalError", "cdist_sqeuclidean", "dgeqrf", "dorgqr", "dpftrf", "dpftrs", "dpotrf", "dpotrs",
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
    dgeqrf, dorgqr, dpftrf, dpftrs = _flapack.dgeqrf, _flapack.dorgqr, _flapack.dpftrf, _flapack.dpftrs
    dpotrf, dpotrs, dtfsm, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtfsm, _flapack.dtrtrs
    erf = _load("scipy.special._special_ufuncs").erf
    cdist_sqeuclidean = _load("scipy.spatial._distance_pybind").cdist_sqeuclidean
except (ImportError, AttributeError):  # another layout: no such file, or no such routine in it
    from scipy.linalg.lapack import dgeqrf, dorgqr, dpftrf, dpftrs, dpotrf, dpotrs, dtfsm, dtrtrs
    from scipy.spatial.distance import cdist
    from scipy.special import erf

    def cdist_sqeuclidean(X, Z, w):
        return cdist(X, Z, "sqeuclidean", w=w)
