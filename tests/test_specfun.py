"""Error function tests against an exact rational-series oracle.

The oracle sums the alternating Maclaurin series of int_0^x exp(-t^2) dt
in Fraction arithmetic, so the only inexactness is the truncation tail
(~1e-30 for |x| <= 6 at 160 terms) and the final rounding to float. That
makes it independent of every floating-point erf implementation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpattr import NumericalError, erf


def erf_series(x: Fraction, terms: int = 160) -> float:
    # term ratio: t_k / t_{k-1} = -x^2 (2k-1) / (k (2k+1))
    term = x
    total = x
    for k in range(1, terms):
        term *= -x * x * Fraction(2 * k - 1, k * (2 * k + 1))
        total += term
    return float(total) * (2.0 / math.sqrt(math.pi))


# dyadic rationals so float(x) is exact; includes the rational-approximation
# branch boundaries 15/32 and 4 and their neighborhoods
ORACLE_GRID = (
    [Fraction(k, 8) for k in range(-48, 49, 3)]
    + [Fraction(15, 32) + Fraction(d, 256) for d in (-1, 0, 1)]
    + [Fraction(4) + Fraction(d, 256) for d in (-1, 0, 1)]
    + [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1), Fraction(11, 2)]
)


def test_matches_rational_series_oracle():
    for x in ORACLE_GRID:
        want = erf_series(x)
        got = erf(float(x))
        assert abs(got - want) <= 1e-14 * max(abs(want), 1e-16), f"x={float(x)}"


def test_matches_stdlib_on_dense_grid():
    rng = np.random.default_rng(42)
    xs = np.concatenate(
        [
            rng.uniform(-6.5, 6.5, size=2000),
            0.46875 + rng.uniform(-1e-3, 1e-3, size=100),
            4.0 + rng.uniform(-1e-3, 1e-3, size=100),
            -4.0 + rng.uniform(-1e-3, 1e-3, size=100),
        ]
    )
    for x in xs:
        want = math.erf(float(x))
        assert abs(erf(float(x)) - want) <= 1e-15 * max(abs(want), 1e-300)


def test_known_literature_values():
    # correctly rounded reference values
    assert erf(0.5) == pytest.approx(0.5204998778130465, rel=1e-15)
    assert erf(1.0) == pytest.approx(0.8427007929497149, rel=1e-15)
    assert erf(2.0) == pytest.approx(0.9953222650189527, rel=1e-15)


def test_zero_and_saturation():
    assert erf(0.0) == 0.0
    assert erf(6.0) >= 1.0 - 1e-15
    assert erf(30.0) == 1.0
    assert erf(-30.0) == -1.0


def test_monotone_increasing():
    xs = np.linspace(-4.0, 4.0, 801)
    vals = [erf(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    wide = [erf(float(x)) for x in np.linspace(-12.0, 12.0, 401)]
    assert all(b >= a for a, b in zip(wide, wide[1:]))


def test_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            erf(bad)


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_odd_symmetry_is_exact(x):
    assert erf(-x) == -erf(x)


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(max_examples=200)
def test_range_and_sign(x):
    v = erf(x)
    assert -1.0 <= v <= 1.0
    if x > 0:
        assert v > 0.0
    elif x < 0:
        assert v < 0.0
    # slope is maximal at the origin
    assert abs(v) <= (2.0 / math.sqrt(math.pi)) * abs(x) * (1.0 + 1e-12)


def test_numerical_error_is_runtime_error():
    assert issubclass(NumericalError, RuntimeError)
