"""The error function the closed forms use, and the package's numerical error type.

erf is scipy's, bound here so that every module reads it from one place.
"""

from scipy.special import erf

__all__ = ["NumericalError", "erf"]


class NumericalError(RuntimeError):
    """A linear solve, factorization, or stability guard failed."""
