"""Gaussian process regression with exact integrated-gradients attribution.

The modules group the package by layer: special functions, kernels,
regression, exact attribution, quadrature benchmarking, random-feature
approximation, data handling, and the command line. Every name in a layer
module's __all__ can be imported from the package itself, as can
NumericalError.
"""

from .attrib_exact import *
from .attrib_quad import *
from .data_io import *
from .gpr import *
from .kernels import *
from .rfgp import *
# By name: a star import reads every name in specfun.__all__, and reading erf loads the ufunc module it defers.
from .specfun import NumericalError

__version__ = "0.1.0"
