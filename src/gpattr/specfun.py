"""Scalar special functions and the package's numerical error type.

The error function is evaluated with the classic three-branch rational
minimax scheme (Cody-style coefficients), vectorized over numpy arrays.
No special-function library is pulled in for it: downstream closed-form
attribution code needs erf on arrays with strict accuracy on [-6, 6],
and the rational approximation delivers ~1e-16 relative error there.
"""

import numpy as np

__all__ = ["NumericalError", "erf"]


class NumericalError(RuntimeError):
    """A linear solve, factorization, or stability guard failed."""


# Rational minimax coefficients for erf/erfc (Cody's CALERF arrangement).
# Branch 1: erf(x) = x * R(x^2) on |x| <= 0.46875.
_ERF_P = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_Q = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
# Branch 2: erfc(x) = exp(-x^2) * R(x) on 0.46875 < x <= 4.
_ERFC_P = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERFC_Q = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
# Branch 3: erfc(x) = exp(-x^2)/x * (1/sqrt(pi) - R(1/x^2)/x^2) on x > 4.
_ERFC_R = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERFC_S = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _erf_small(y2: np.ndarray) -> np.ndarray:
    """erf(y)/y via the branch-1 rational function of y^2."""
    num = _ERF_P[4] * y2
    den = y2.copy()
    for i in range(3):
        num = (num + _ERF_P[i]) * y2
        den = (den + _ERF_Q[i]) * y2
    return (num + _ERF_P[3]) / (den + _ERF_Q[3])


def _erfc_scaled_mid(y: np.ndarray) -> np.ndarray:
    """exp(y^2) * erfc(y) on 0.46875 < y <= 4."""
    num = _ERFC_P[8] * y
    den = y.copy()
    for i in range(7):
        num = (num + _ERFC_P[i]) * y
        den = (den + _ERFC_Q[i]) * y
    return (num + _ERFC_P[7]) / (den + _ERFC_Q[7])


def _erfc_scaled_far(y: np.ndarray) -> np.ndarray:
    """exp(y^2) * erfc(y) on y > 4."""
    z = 1.0 / (y * y)
    num = _ERFC_R[5] * z
    den = z.copy()
    for i in range(4):
        num = (num + _ERFC_R[i]) * z
        den = (den + _ERFC_S[i]) * z
    r = z * (num + _ERFC_R[4]) / (den + _ERFC_S[4])
    return (_INV_SQRT_PI - r) / y


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    # Split y^2 into a 1/16-grid part and a remainder so the two
    # exponentials keep full precision for large arguments.
    ysq = np.trunc(y * 16.0) / 16.0
    rem = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-rem)


def erf(z):
    """Error function, elementwise on scalars or arrays.

    Raises ValueError on non-finite input. Scalar input returns float.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("erf: input must be finite")
    y = np.abs(arr)

    small = y <= 0.46875
    far = y > 4.0
    mid = ~small & ~far

    out = np.empty_like(y)
    if np.any(small):
        ys = y[small]
        out[small] = ys * _erf_small(ys * ys)
    if np.any(mid):
        ym = y[mid]
        out[mid] = 1.0 - _exp_neg_square(ym) * _erfc_scaled_mid(ym)
    if np.any(far):
        yf = y[far]
        out[far] = 1.0 - _exp_neg_square(yf) * _erfc_scaled_far(yf)

    out = np.copysign(out, arr)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out
