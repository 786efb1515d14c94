"""Tests of the compiled routines specfun binds, and of erf against an exact
rational-series oracle.

The bindings are checked in fresh processes: they are scipy's own public
objects, and a failed direct load falls back to the public imports with
the same results.

The oracle sums the alternating Maclaurin series of int_0^x exp(-t^2) dt
in Fraction arithmetic, so the only inexactness is the truncation tail
(~1e-30 for |x| <= 6 at 160 terms) and the final rounding to float. That
makes it independent of every floating-point erf implementation.
"""

import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpattr
from gpattr.specfun import NumericalError, erf

SRC = str(Path(gpattr.__file__).resolve().parents[1])
COMPILED = ("scipy.linalg._flapack", "scipy.special._special_ufuncs", "scipy.spatial._distance_pybind")
LAPACK = ("dgeqrf", "dormqr", "dpftrf", "dpftrs", "dpotrf", "dpotrs", "dtfsm", "dtrtrs")
# a fit, its weights and a report, and rfgp fits and attributions at
# 2M < N and 2M > N: every binding, printed as exact bytes
RESULTS = """
import gpattr
data, hyper = gpattr.simulate(40, 0.3, seed=4), gpattr.ArdSeHyper(0.6, [1.2, 0.8], 0.1)
model = gpattr.fit(data, hyper)
report = gpattr.attribution_report(model, [6.0, 1.5], [4.0, 5.0])
print("results:", *(a.tobytes().hex() for a in (model.chol, model.alpha, report.means, report.variances)))
for m in (8, 30):
    rf = gpattr.rfgp_fit(data, hyper, m, seed=m)
    laws = gpattr.rfgp_attribution(rf, [6.0, 1.5], [4.0, 5.0])
    print("results:", *(a.tobytes().hex() for a in (rf.reflectors, rf.tau, rf.core_factor, rf.weights, *laws)))
"""


@functools.cache
def _python(code: str) -> list[str]:
    """Lines of a fresh interpreter's stdout, gpattr importable from src/."""
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_bindings_are_scipys_public_objects():
    # loaded without the subpackages, the routines are the very objects a
    # later public import returns, so they give the same bits
    code = f"""
import sys
from gpattr import specfun
print([m for m in ("scipy.linalg", "scipy.special", "scipy.spatial") if m in sys.modules])
from scipy.linalg import lapack
from scipy.special import erf
from scipy.spatial.distance import cdist
print([getattr(specfun, f) is getattr(lapack, f) for f in {LAPACK!r}], specfun.erf is erf)
"""
    assert _python(code) == ["[]", f"{[True] * len(LAPACK)} True"]


@pytest.mark.parametrize("failing", COMPILED)
def test_a_failed_load_falls_back_to_the_public_imports(failing):
    # one direct load fails, as on another scipy layout: the public imports
    # serve and every result keeps its bits; erf loads on first use, in
    # RESULTS, so the subpackages are listed after it, and it falls back on
    # its own while the LAPACK and distance routines fall back together
    code = f"""
import importlib.util, sys
real = importlib.util.module_from_spec
def module_from_spec(spec):
    if spec.name == {failing!r}:
        raise ImportError("simulated layout change")
    return real(spec)
importlib.util.module_from_spec = module_from_spec
""" + RESULTS + """
print("subpackages:", [m for m in ("scipy.linalg", "scipy.special", "scipy.spatial") if m in sys.modules])
"""
    direct = [line for line in _python(RESULTS) if line.startswith("results:")]
    lines = _python(code)
    public = ["scipy.special"] if failing == "scipy.special._special_ufuncs" else [
        "scipy.linalg", "scipy.special", "scipy.spatial"]
    assert f"subpackages: {public}" in lines
    assert [line for line in lines if line.startswith("results:")] == direct


def erf_series(x: Fraction, terms: int = 160) -> float:
    # term ratio: t_k / t_{k-1} = -x^2 (2k-1) / (k (2k+1))
    term = x
    total = x
    for k in range(1, terms):
        term *= -x * x * Fraction(2 * k - 1, k * (2 * k + 1))
        total += term
    return float(total) * (2.0 / math.sqrt(math.pi))


# dyadic rationals so float(x) is exact; includes 15/32 and 4, where
# Cody-style rational schemes switch branches, and their neighborhoods
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
