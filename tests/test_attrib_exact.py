"""Closed-form attribution tests.

Oracles: the integrand coefficients are checked pointwise against the raw
kernel derivative along the path, and the closed-form integrals against
high-resolution Simpson quadrature of those same integrands (scipy's
simpson, not this package's quadrature module).
"""

import csv
import functools
import itertools
import json
import math
import tracemalloc
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import gpattr
from gpattr import (
    ArdSeHyper,
    GprModel,
    NumericalError,
    attribution_report,
    fit,
    gpr_attribution,
    predict,
    prior_attribution_variance,
    report_from_rows,
)
from gpattr.attrib_exact import _BLOCK_VALUES, SINGULAR_THRESHOLD, AttributionGaussian, _query_pair, _slice_matrix
from gpattr.cli import _report_doc, _write_csv
from gpattr.data_io import Dataset, simulate
from gpattr.kernels import hess_ii_cross
from oracles import (
    ardse_eval,
    ardse_grad_i,
    attr_coefficients,
    bayes_linear_attribution,
    bayes_linear_posterior,
    gpr_attribution_per_feature,
    kernel_slice_attribution,
    slice_attribution_vector,
    slice_matrix_single_pass,
)


def _draw(rng, dim=3):
    hyper = ArdSeHyper(
        float(rng.uniform(0.3, 2.0)), rng.uniform(0.6, 1.5, size=dim), 0.0
    )
    x = rng.uniform(-1.5, 1.5, size=dim)
    z = rng.uniform(-1.5, 1.5, size=dim)
    c = rng.uniform(-1.5, 1.5, size=dim)
    return hyper, x, z, c


def test_coefficients_reproduce_path_gradient(rng):
    # (q1 t + q0) exp(-(p2 t^2 + p1 t + p0)/2) must equal
    # (x_i - z_i) * dk/dx_i evaluated on the straight path at every t
    for _ in range(30):
        hyper, x, z, c = _draw(rng)
        for i in range(3):
            co = attr_coefficients(x, z, c, i, hyper)
            for t in rng.uniform(0.0, 1.0, size=7):
                point = z + t * (x - z)
                want = (x[i] - z[i]) * ardse_grad_i(point, c, i, hyper)
                got = (co.q1 * t + co.q0) * math.exp(
                    -0.5 * (co.p2 * t * t + co.p1 * t + co.p0)
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_coefficients_reproduce_variance_kernel(rng):
    # (r0 + r2 u^2) exp(-p2 u^2 / 2) at lag u = s - t must equal the mixed
    # second kernel derivative between two path points
    for _ in range(20):
        hyper, x, z, _ = _draw(rng)
        for i in range(3):
            co = attr_coefficients(x, z, z, i, hyper)
            for s, t in rng.uniform(0.0, 1.0, size=(5, 2)):
                pa = (z + s * (x - z))[None, :]
                pb = (z + t * (x - z))[None, :]
                want = hess_ii_cross(pa, pb, i, hyper)[0, 0]
                u = s - t
                got = (co.r0 + co.r2 * u * u) * math.exp(-0.5 * co.p2 * u * u)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_coefficient_invariants(rng):
    for _ in range(50):
        hyper, x, z, c = _draw(rng)
        co = attr_coefficients(x, z, c, 0, hyper)
        assert co.p2 >= 0.0 and co.p0 >= 0.0
        # Cauchy-Schwarz keeps the completed-square exponent non-positive
        assert co.p1**2 <= 4.0 * co.p2 * co.p0 + 1e-12
        assert co.r2 <= 0.0 and co.r0 > 0.0


def test_coefficients_validation():
    hyper = ArdSeHyper(1.0, np.array([1.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        attr_coefficients([0.0], [0.0, 0.0], [0.0, 0.0], 0, hyper)
    with pytest.raises(IndexError):
        attr_coefficients([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 2, hyper)


def test_slice_matches_simpson_oracle(rng):
    ts = np.linspace(0.0, 1.0, 4097)
    for _ in range(25):
        hyper, x, z, c = _draw(rng)
        for i in range(3):
            vals = np.array(
                [(x[i] - z[i]) * ardse_grad_i(z + t * (x - z), c, i, hyper) for t in ts]
            )
            want = simpson(vals, x=ts)
            got = kernel_slice_attribution(x, z, c, i, hyper)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_slice_zero_when_feature_unchanged(rng):
    hyper, x, z, c = _draw(rng)
    x[1] = z[1]
    assert kernel_slice_attribution(x, z, c, 1, hyper) == 0.0


def test_slice_finite_for_distant_baseline():
    # baseline hundreds of lengthscales out while the query sits on the
    # center: the one-sided expm1 factoring used to blow up to inf * 0 here
    hyper = ArdSeHyper(1.2, np.array([0.2, 0.3]), 0.0)
    c = np.array([0.0, 0.0])
    x = np.array([0.0, 0.0])
    z = np.array([-8.0, -8.0])
    ts = np.linspace(0.0, 1.0, 4097)
    for i in range(2):
        got = kernel_slice_attribution(x, z, c, i, hyper)
        vals = np.array(
            [(x[i] - z[i]) * ardse_grad_i(z + t * (x - z), c, i, hyper) for t in ts]
        )
        assert np.isfinite(got)
        assert got == pytest.approx(simpson(vals, x=ts), rel=1e-8)


def test_slice_telescopes_in_one_dimension(rng):
    # with a single feature the path integral is the fundamental theorem
    # of calculus: k(x, c) - k(z, c)
    hyper = ArdSeHyper(1.3, np.array([0.8]), 0.0)
    for _ in range(20):
        x, z, c = rng.uniform(-2.0, 2.0, size=3)
        want = ardse_eval([x], [c], hyper) - ardse_eval([z], [c], hyper)
        got = kernel_slice_attribution([x], [z], [c], 0, hyper)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_slice_degenerate_path_falls_back_to_quadrature(rng):
    # query on top of the baseline: the closed form divides by ~0, the
    # fallback integrates a nearly constant gradient
    hyper = ArdSeHyper(1.0, np.array([1.0, 1.0]), 0.0)
    z = np.array([0.3, -0.2])
    c = np.array([1.0, 0.5])
    x = z + np.array([1e-8, 0.0])
    got = kernel_slice_attribution(x, z, c, 0, hyper)
    want = (x[0] - z[0]) * ardse_grad_i(z, c, 0, hyper)
    assert got == pytest.approx(want, rel=1e-6)
    assert kernel_slice_attribution(z, z, c, 0, hyper) == 0.0


def _slice_mp(x: np.ndarray, z: np.ndarray, c: np.ndarray, hyper: ArdSeHyper) -> list[float]:
    """Every feature's attribution of k(., c) along the path from z to x in
    100-digit arithmetic, from the float inputs taken as exact: the
    integrand (q1 t + q0) exp(-(p2 t^2 + p1 t + p0)/2) with the square
    completed at t0 = -p1 / (2 p2)."""
    def mp(v):
        return [mpmath.mpf(float(a)) for a in v]

    with mpmath.workdps(100):
        d = [a - b for a, b in zip(mp(x), mp(z))]
        r = [a - b for a, b in zip(mp(z), mp(c))]
        ls2 = [v**2 for v in mp(hyper.lengthscales)]
        p2 = mpmath.fsum(a**2 / l for a, l in zip(d, ls2))
        p1 = 2 * mpmath.fsum(a * b / l for a, b, l in zip(d, r, ls2))
        p0 = mpmath.fsum(b**2 / l for b, l in zip(r, ls2))
        t0, root = -p1 / (2 * p2), mpmath.sqrt(p2 / 2)
        ends = (mpmath.exp(-p0 / 2) - mpmath.exp(-(p2 + p1 + p0) / 2)) / p2
        gauss = (
            mpmath.exp(p2 * t0**2 / 2 - p0 / 2) * mpmath.sqrt(mpmath.pi / (2 * p2))
            * (mpmath.erf(root * (1 - t0)) + mpmath.erf(root * t0))
        )
        sv = mpmath.mpf(hyper.signal_variance)
        return [float(-sv * d[i] / ls2[i] * (d[i] * ends + (r[i] + t0 * d[i]) * gauss)) for i in range(len(d))]


@pytest.mark.parametrize("dim", [2, 3])
def test_slice_matches_high_precision_on_every_path_length(dim):
    # paths of 1e-5 to 1e12 lengthscales: the closed form used to lose about
    # eps * L^2 and overflowed to inf for centers near the query. Near an
    # endpoint it is accurate to round-off; a center mid-path sits L/2 from
    # both ends, so forming z - c alone moves the result by about eps * L
    rng = np.random.default_rng(dim)
    eps = np.finfo(float).eps
    for L in 10.0 ** np.arange(-5.0, 13.0):
        hyper = ArdSeHyper(float(rng.uniform(0.3, 3.0)), rng.uniform(0.5, 2.0, size=dim), 0.0)
        step = rng.standard_normal(dim)
        step *= L / math.sqrt(np.sum(step**2 / hyper.lengthscales**2))
        z = rng.uniform(-1.0, 1.0, size=dim)
        x = z + step
        offsets = rng.standard_normal((4, dim)) * hyper.lengthscales
        centers = {
            "near z": z + offsets[0],
            "near x": x + offsets[1],
            "mid-path": z + 0.5 * step + 0.3 * offsets[2],
            "off the path": z + rng.uniform() * step + 2.0 * offsets[3],
        }
        sv = hyper.signal_variance
        for where, c in centers.items():
            bound = sv * (1e-14 if where.startswith("near") else max(1e-14, 10.0 * eps * L))
            want = _slice_mp(x, z, c, hyper)
            got = _slice_matrix(x, z, c[None, :], hyper)[0]
            oracle = [slice_attribution_vector(x, z, c[None, :], i, hyper)[0] for i in range(dim)]
            assert np.abs(got - want).max() <= bound, (L, where)
            assert np.abs(np.array(oracle) - want).max() <= bound, (L, where)


def test_prior_variance_matches_tensor_simpson(rng):
    ts = np.linspace(0.0, 1.0, 513)
    for _ in range(8):
        hyper, x, z, _ = _draw(rng)
        path = z[None, :] + ts[:, None] * (x - z)[None, :]
        for i in range(3):
            H = hess_ii_cross(path, path, i, hyper)
            inner = simpson(H, x=ts, axis=1)
            want = (x[i] - z[i]) ** 2 * simpson(inner, x=ts)
            got = prior_attribution_variance(x, z, i, hyper)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-10)


def _prior_closed_form_mp(delta: np.ndarray, hyper: ArdSeHyper, i: int) -> mpmath.mpf:
    """The closed-form prior variance of prior_attribution_variance in
    80-digit arithmetic, from the float inputs taken as exact."""
    with mpmath.workdps(80):
        d = [mpmath.mpf(float(v)) for v in delta]
        ls2 = [mpmath.mpf(float(v)) ** 2 for v in hyper.lengthscales]
        p2 = mpmath.fsum(dj**2 / l2 for dj, l2 in zip(d, ls2))
        r0 = mpmath.mpf(hyper.signal_variance) / ls2[i]
        r2 = -r0 * d[i] ** 2 / ls2[i]
        bracket = (
            mpmath.sqrt(2 * mpmath.pi) * mpmath.erf(mpmath.sqrt(p2 / 2)) * (p2 * r0 + r2) / p2**1.5
            - 2 * -mpmath.expm1(-p2 / 2) * (p2 * r0 + 2 * r2) / p2**2
        )
        return d[i] ** 2 * bracket


def test_prior_variance_matches_high_precision_when_one_feature_dominates():
    # one feature's step is 1e6 to 1e15 of its lengthscale and carries
    # nearly all of p2; p2 * r0 + r2 formed in floats cancels there, which
    # gave errors up to 30% with no error raised
    rng = np.random.default_rng(77)
    for _ in range(60):
        dim = int(rng.integers(2, 6))
        hyper = ArdSeHyper(float(10.0 ** rng.uniform(-2.0, 2.0)), 10.0 ** rng.uniform(-1.0, 1.0, size=dim), 0.0)
        delta = rng.uniform(0.1, 3.0, size=dim) * hyper.lengthscales
        k = int(rng.integers(dim))
        delta[k] = hyper.lengthscales[k] * 10.0 ** rng.uniform(6.0, 15.0)
        for i in range(dim):
            # a zero baseline makes x - z = delta exactly
            got = prior_attribution_variance(delta, np.zeros(dim), i, hyper)
            want = _prior_closed_form_mp(delta, hyper, i)
            assert abs(got - want) <= 1e-13 * want, (i, k, delta, hyper)


def test_prior_variance_nonnegative_everywhere(rng):
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        hyper = ArdSeHyper(
            float(rng.uniform(0.1, 3.0)), rng.uniform(0.2, 3.0, size=dim), 0.0
        )
        x = rng.uniform(-4.0, 4.0, size=dim)
        z = rng.uniform(-4.0, 4.0, size=dim)
        i = int(rng.integers(0, dim))
        assert prior_attribution_variance(x, z, i, hyper) >= 0.0


def test_prior_variance_zero_when_feature_unchanged(rng):
    hyper, x, z, _ = _draw(rng)
    x[0] = z[0]
    assert prior_attribution_variance(x, z, 0, hyper) == 0.0


def test_prior_variance_degenerate_path(rng):
    hyper = ArdSeHyper(1.0, np.array([1.0, 1.0]), 0.0)
    z = np.array([0.1, 0.2])
    assert prior_attribution_variance(z, z, 0, hyper) == 0.0
    x = z + np.array([1e-8, 0.0])
    # nearly constant integrand: variance ~ gap^2 * hess(z, z)
    want = 1e-16 * hess_ii_cross(z[None, :], z[None, :], 0, hyper)[0, 0]
    assert prior_attribution_variance(x, z, 0, hyper) == pytest.approx(want, rel=1e-4)


def test_model_attribution_zero_at_baseline(sim_model):
    z = np.array([2.0, 5.0])
    for i in range(2):
        a = gpr_attribution(sim_model, z, z, i)
        assert a.mean == 0.0 and a.variance == 0.0


def test_model_attribution_completeness(sim_model, rng):
    # the per-feature means must sum to the prediction difference
    for _ in range(100):
        x = rng.uniform(0.0, 10.0, size=2)
        z = rng.uniform(0.0, 10.0, size=2)
        total = sum(gpr_attribution(sim_model, x, z, i).mean for i in range(2))
        want = predict(sim_model, x)[0] - predict(sim_model, z)[0]
        assert abs(total - want) <= 1e-10


def test_model_attribution_posterior_variance_below_prior(sim_model, rng):
    for _ in range(25):
        x = rng.uniform(0.0, 10.0, size=2)
        z = rng.uniform(0.0, 10.0, size=2)
        for i in range(2):
            a = gpr_attribution(sim_model, x, z, i)
            prior = prior_attribution_variance(x, z, i, sim_model.hyper)
            assert 0.0 <= a.variance <= prior + 1e-12


def test_model_attribution_ignores_inert_feature(rng):
    # a feature with an enormous lengthscale cannot move the kernel, so its
    # attribution collapses to zero regardless of the gap
    hyper = ArdSeHyper(1.0, np.array([1.0, 1.0, 1e6]), 0.1)
    X = rng.uniform(-2.0, 2.0, size=(30, 3))
    y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(30)
    model = fit(Dataset(X, y, ("a", "b", "inert")), hyper)
    a = gpr_attribution(model, [1.0, 0.5, 2.0], [0.0, 0.0, -2.0], 2)
    assert abs(a.mean) <= 1e-9
    assert a.variance <= 1e-9


def test_model_attribution_uncertainty_grows_with_distance(sim_model):
    # same direction, growing gap, baseline at a training-dense spot:
    # the attribution variance should grow with how far the path wanders
    z = np.array([5.0, 5.0])
    small = gpr_attribution(sim_model, z + np.array([0.1, 0.1]), z, 0).variance
    large = gpr_attribution(sim_model, z + np.array([4.0, 4.0]), z, 0).variance
    assert large > small


_CASES = ("generic", "tiny_path", "threshold_path", "far_baseline", "feature_at_baseline", "at_baseline")


def _equivalence_draw(rng, dim: int, case: str, scale: float):
    """A fitted model and a (query, baseline) pair for one edge case, with
    targets and kernel amplitude multiplied by scale."""
    n = int(rng.integers(10, 40))
    ls = rng.uniform(0.5, 2.0, size=dim)
    sv = scale**2 * float(rng.uniform(0.3, 2.0))
    hyper = ArdSeHyper(sv, ls, sv * float(rng.uniform(0.05, 0.3)))
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    y = scale * (np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n))
    model = fit(Dataset(X, y, tuple(f"f{j}" for j in range(dim))), hyper)
    x = rng.uniform(-2.0, 2.0, size=dim)
    z = rng.uniform(-2.0, 2.0, size=dim)
    if case in ("tiny_path", "threshold_path"):
        # nonzero path at or below the singular threshold, which takes the
        # one-node fallback: at half and just under the largest p2 it serves
        step = rng.standard_normal(dim)
        share = 0.5 if case == "tiny_path" else 1.0 - 1e-6
        step *= math.sqrt(share * SINGULAR_THRESHOLD / np.sum(step**2 / ls**2))
        x = z + step
        assert np.sum((x - z) ** 2 / ls**2) <= SINGULAR_THRESHOLD
    elif case == "far_baseline":
        # baseline 30 lengthscales out, query on a training point: p1 << -p2
        x = X[0].copy()
        z = X[0] + 30.0 * ls * rng.choice((-1.0, 1.0), size=dim)
    elif case == "feature_at_baseline":
        j = int(rng.integers(dim))
        x[j] = z[j]
    elif case == "at_baseline":
        x = z.copy()
    return model, x, z


def test_one_pass_matches_per_feature_oracle():
    rng = np.random.default_rng(20240311)
    grid = itertools.product((1, 3, 8), _CASES, (1.0, 1e-6, 1e6, 1e3))
    for draw, (dim, case, scale) in enumerate(grid):
        model, x, z = _equivalence_draw(rng, dim, case, scale)
        sv = model.hyper.signal_variance
        rep = attribution_report(model, x, z)
        assert rep.means.shape == rep.variances.shape == (dim,)
        for i, (mean, variance) in enumerate(zip(rep.means, rep.variances)):
            want = gpr_attribution_per_feature(model, x, z, i)
            where = f"draw {draw} ({case}, d={dim}, scale={scale:g}), feature {i}"
            assert abs(mean - want.mean) <= 1e-12 * max(abs(want.mean), math.sqrt(sv)), where
            assert abs(variance - want.variance) <= 1e-13 * sv, where
            if case in ("tiny_path", "threshold_path"):
                # both laws are O(step) here, far below the bounds above
                assert abs(mean - want.mean) <= 1e-10 * abs(want.mean), where
                assert abs(variance - want.variance) <= 1e-10 * want.variance, where
            if x[i] == z[i]:
                assert mean == 0.0 and variance == 0.0, where


def _count_calls(monkeypatch):
    """Record the shape of every GprModel.solve right-hand side, the
    element count of every erf call, and the name of every packed-factor
    LAPACK solve, wherever gpattr looks these up."""
    solves, erf_sizes, factor_solves = [], [], []
    real_solve, real_erf = GprModel.solve, gpattr.specfun.erf

    def solve(self, b):
        solves.append(np.shape(b))
        return real_solve(self, b)

    def erf(z):
        erf_sizes.append(int(np.size(z)))
        return real_erf(z)

    def predict(*args, **kwargs):
        raise AssertionError("attribution_report must not call predict")

    def counted(real, name):
        def wrapper(*args, **kwargs):
            factor_solves.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(GprModel, "solve", solve)
    swaps = ((real_erf, erf), (gpattr.gpr.predict, predict))
    for name in ("dtfsm", "dpftrs"):  # the packed-factor solves, looked up on gpattr.specfun
        monkeypatch.setattr(gpattr.specfun, name, counted(getattr(gpattr.specfun, name), name))
    for module in [gpattr, *(m for m in vars(gpattr).values() if isinstance(m, types.ModuleType))]:
        for name, value in list(vars(module).items()):
            for old, new in swaps:
                if value is old:
                    monkeypatch.setattr(module, name, new)
    return solves, erf_sizes, factor_solves


def test_report_costs_one_solve_and_one_erf_sweep(rng, monkeypatch):
    # the paper's cost claim: d + 2 right-hand sides in one solve, one erf
    # over the 2n completed-square endpoints, one scalar erf for the prior;
    # the solve is one triangular pass over the packed factor (dtfsm), not a
    # full Cholesky solve (dpftrs)
    n, dim = 23, 4
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    data = Dataset(X, np.cos(X).sum(axis=1), tuple(f"f{j}" for j in range(dim)))
    model = fit(data, ArdSeHyper(0.8, np.full(dim, 1.1), 0.1))
    solves, erf_sizes, factor_solves = _count_calls(monkeypatch)
    attribution_report(model, rng.uniform(-2.0, 2.0, size=dim), X.mean(axis=0))
    assert solves == [(n, dim + 2)]
    assert sorted(erf_sizes) == [1, 2 * n]
    assert factor_solves == ["dtfsm"]
    # three row blocks of centers, the short tail joined to the last: the
    # erf sweep is split, not repeated, and the solve is still one
    wide, rows = 64, _BLOCK_VALUES // 64
    m = 3 * rows + 10
    Xw = rng.uniform(-2.0, 2.0, size=(m, wide))
    data = Dataset(Xw, np.cos(Xw).sum(axis=1), tuple(f"f{j}" for j in range(wide)))
    wide_model = fit(data, ArdSeHyper(0.8, np.full(wide, 6.0), 0.1))
    solves.clear(), erf_sizes.clear(), factor_solves.clear()
    attribution_report(wide_model, rng.uniform(-2.0, 2.0, size=wide), Xw.mean(axis=0))
    assert solves == [(m, wide + 2)]
    assert sorted(erf_sizes) == [1, 2 * rows, 2 * rows, 2 * (m - 2 * rows)]
    assert sum(erf_sizes) == 2 * m + 1
    assert factor_solves == ["dtfsm"]
    # the degenerate path takes the one-node fallback: still one solve, no erf
    solves.clear(), erf_sizes.clear(), factor_solves.clear()
    rep = attribution_report(model, X.mean(axis=0), X.mean(axis=0))
    assert solves == [(n, dim + 2)] and erf_sizes == []
    assert factor_solves == ["dtfsm"]
    assert np.all(rep.means == 0.0) and np.all(rep.variances == 0.0)


def test_report_working_set_is_its_right_hand_side_plus_blocks(rng):
    # the slice matrix is built in 64 KiB row blocks, so one report's traced
    # peak stays within a few copies of its (n, d + 2) right-hand side; the
    # single pass over every center held about eight (n, d) temporaries
    n, dim = 3000, 8
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    data = Dataset(X, np.cos(X).sum(axis=1), tuple(f"f{j}" for j in range(dim)))
    model = fit(data, ArdSeHyper(1.0, np.full(dim, 1.5), 0.1))
    x = rng.uniform(-2.0, 2.0, size=dim)
    attribution_report(model, x, X.mean(axis=0))  # first use loads erf
    tracemalloc.start()
    try:
        attribution_report(model, x, X.mean(axis=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * (dim + 2) * 8, peak / (n * (dim + 2) * 8)


def test_one_block_slice_matrix_is_the_single_pass_bit_for_bit(rng):
    # n = 199 at d = 2 fits in one block: the README model's rows and the
    # validate workload's uniform rows give the single pass's bits
    readme = simulate(200, 0.5, seed=5).X[:-1]
    uniform = rng.uniform(0.0, 10.0, size=(199, 2))
    hyper = ArdSeHyper(0.5, np.array([0.71, 0.74]), 0.2)
    for centers in (readme, uniform):
        for _ in range(20):
            x, z = rng.uniform(0.0, 10.0, size=(2, 2))
            got = _slice_matrix(x, z, centers, hyper)
            assert np.array_equal(got, slice_matrix_single_pass(x, z, centers, hyper))


@pytest.mark.parametrize("dim", [1, 2, 8, 33, 100])
def test_blocked_slice_matrix_matches_single_pass_across_blocks(dim):
    # every n around one and two block lengths, the joined tail included;
    # a short block may take another BLAS path, so the rows agree to
    # round-off of the largest slice, not bit for bit
    rng = np.random.default_rng(dim)
    rows = _BLOCK_VALUES // dim
    for n in (rows - 1, rows, rows + 1, rows + 63, 2 * rows + 3):
        hyper = ArdSeHyper(float(rng.uniform(0.3, 2.0)), math.sqrt(dim) * rng.uniform(0.5, 2.0, size=dim), 0.0)
        centers = rng.uniform(-2.0, 2.0, size=(n, dim))
        x, z = rng.uniform(-2.0, 2.0, size=(2, dim))
        got = _slice_matrix(x, z, centers, hyper)
        want = slice_matrix_single_pass(x, z, centers, hyper)
        assert got.shape == want.shape == (n, dim)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), n


@functools.cache
def _zero_noise_laws(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Attribution and prediction means and variances at every training row
    of a zero-noise fit (n=60, d=2, lengthscales 0.5) whose targets are
    scaled by c and signal variance is c^2. At the training rows the
    posterior variance is round-off around zero."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, size=(60, 2))
    y = np.sin(X[:, 0]) + np.cos(2.0 * X[:, 1])
    model = fit(Dataset(X, c * y, ("a", "b")), ArdSeHyper(c**2, np.full(2, 0.5), 0.0))
    means, variances = [], []
    for row in X:
        rep = attribution_report(model, row, X.mean(axis=0))
        mean, var = predict(model, row)
        means.append([*rep.means, mean])
        variances.append([*rep.variances, var])
    return np.array(means), np.array(variances)


@given(st.floats(min_value=-6.0, max_value=8.0))
@example(-6.0)
@example(3.0)
@example(8.0)
@settings(max_examples=20, deadline=None)
def test_target_scale_scales_means_and_variances(log_c):
    # scaling the targets by c and the signal variance by c^2 scales every
    # mean by c and every variance by c^2; round-off negatives are judged at
    # the signal variance's scale, so no scale raises NumericalError
    c = 10.0**log_c
    means, variances = _zero_noise_laws(c)
    ref_means, ref_vars = _zero_noise_laws(1.0)
    assert np.abs(means / c - ref_means).max() <= 1e-10 * np.abs(ref_means).max()
    assert np.abs(variances / c**2 - ref_vars).max() <= 1e-10


_COORDINATE = st.one_of(
    st.floats(-5.0, 15.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-5.0, 300.0)),
)


@given(st.tuples(_COORDINATE, _COORDINATE), st.tuples(_COORDINATE, _COORDINATE), st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_admitted_path_gives_finite_laws(sim_model, x, b, step):
    # queries and baselines from the training box out to 1e300, the baseline
    # drawn on its own or as a step from the query: long paths near the data,
    # short paths far from it, and paths whose p2^2 overflows, which
    # _query_pair refuses. Every path it admits gives finite laws with
    # variances >= 0 and no RuntimeWarning
    z = tuple(xi + bi for xi, bi in zip(x, b)) if step else b
    try:
        _query_pair(x, z, sim_model.hyper)
    except NumericalError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = attribution_report(sim_model, x, z)
    assert np.all(np.isfinite(report.means)) and np.all(np.isfinite(report.variances))
    assert np.all(report.variances >= 0.0)
    assert math.isfinite(report.completeness_residual)


def test_report_rejects_non_finite_query(sim_model):
    with pytest.raises(ValueError):
        attribution_report(sim_model, [np.nan, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        attribution_report(sim_model, [1.0, 1.0], [np.inf, 0.0])
    with pytest.raises(ValueError):
        attribution_report(sim_model, [1.0, 1.0], [])


def test_report_fields_and_residual(sim_model):
    x = np.array([7.0, 2.0])
    z = np.array([3.0, 4.0])
    rep = attribution_report(sim_model, x, z)
    assert rep.means.shape == rep.variances.shape == (2,)
    assert not (rep.means.flags.writeable or rep.variances.flags.writeable)
    assert rep.attributions == tuple(AttributionGaussian(i, *law) for i, law in enumerate(zip(rep.means, rep.variances)))
    assert rep.prediction_mean == pytest.approx(predict(sim_model, x)[0])
    assert rep.baseline_prediction_mean == pytest.approx(predict(sim_model, z)[0])
    want = abs(sum(rep.means.tolist()) - (rep.prediction_mean - rep.baseline_prediction_mean))
    assert rep.completeness_residual == pytest.approx(want, abs=1e-15)
    assert rep.completeness_residual <= 1e-10


def test_report_json_dict_shape(sim_model):
    rep = attribution_report(sim_model, [7.0, 2.0], [3.0, 4.0])
    doc = _report_doc(rep, ["alpha", "beta"])
    assert doc["format"] == "gpattr-attribution-report" and doc["version"] == 1
    assert [a["feature"] for a in doc["attributions"]] == ["alpha", "beta"]
    a0 = doc["attributions"][0]
    assert a0["std"] == pytest.approx(math.sqrt(a0["variance"]))
    json.dumps(doc)  # must be serializable as-is
    with pytest.raises(ValueError):
        _report_doc(rep, ["only-one"])


def test_report_csv_round_trips(sim_model, tmp_path):
    rep = attribution_report(sim_model, [7.0, 2.0], [3.0, 4.0])
    path = tmp_path / "report.csv"
    doc = _report_doc(rep, ["x0", "x1"])
    _write_csv(str(path), ["feature", "mean", "std", "completeness_residual"],
               [(a["feature"], a["mean"], a["std"], doc["completeness_residual"]) for a in doc["attributions"]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "mean", "std", "completeness_residual"]
    assert len(rows) == 3
    # repr round-trips floats exactly
    assert float(rows[1][1]) == rep.means[0]
    assert float(rows[2][2]) == math.sqrt(rep.variances[1])


def test_report_moments_validation(sim_model):
    # one vectorized check serves every engine: a law that is not finite
    # names its feature, a negative variance is a caller's error
    x, z = [7.0, 2.0], [3.0, 4.0]
    rep = report_from_rows(sim_model, x, z, [1.0, 0.0], [4.0, 0.0])
    assert rep.attributions[0] == AttributionGaussian(0, 1.0, 4.0)
    assert _report_doc(rep, ["a", "b"])["attributions"][0]["std"] == 2.0
    with pytest.raises(NumericalError, match="feature 0"):
        report_from_rows(sim_model, x, z, [np.nan, 0.0], [1.0, 0.0])
    with pytest.raises(NumericalError, match="feature 1"):
        report_from_rows(sim_model, x, z, [0.0, 0.0], [1.0, np.inf])
    with pytest.raises(ValueError):
        report_from_rows(sim_model, x, z, [0.0, 0.0], [0.0, -1e-6])


def test_report_from_rows_rejects_moments_of_the_wrong_length(sim_model):
    # a model with d = 2 takes exactly two means and two variances: a
    # shorter or longer list must not become a report of fewer features
    x, z = [7.0, 2.0], [3.0, 4.0]
    for means, variances in (([0.1], [0.2, 0.3, 0.4]), ([0.1, 0.2], [0.3]), ([[0.1, 0.2]], [[0.3, 0.4]])):
        with pytest.raises(ValueError, match=r"expected \(2,\) means and variances"):
            report_from_rows(sim_model, x, z, means, variances)


def test_variance_clamp_policy():
    from gpattr.gpr import _clamp_variance

    assert _clamp_variance(-5e-11, "test", 1.0) == 0.0
    assert _clamp_variance(2.0, "test", 1.0) == 2.0
    with pytest.raises(NumericalError):
        _clamp_variance(-1e-6, "test", 1.0)
    # the tolerance is relative to the variance scale
    assert _clamp_variance(-4.0, "test", 1e16) == 0.0
    with pytest.raises(NumericalError):
        _clamp_variance(-5e-11, "test", 1e-6)
    assert list(_clamp_variance(np.array([-5e-7, 3.0]), "test", 1e4)) == [0.0, 3.0]


def test_linear_posterior_matches_dense_oracle(rng):
    d, n = 3, 40
    X = rng.standard_normal((n, d))
    w_true = np.array([1.5, -2.0, 0.5])
    y = X @ w_true + 0.1 * rng.standard_normal(n)
    mu0 = np.zeros(d)
    S0 = 2.0 * np.eye(d) + 0.3
    noise = 0.04
    mean, cov = bayes_linear_posterior(X, y, mu0, S0, noise)
    S0_inv = np.linalg.inv(S0)
    cov_want = np.linalg.inv(S0_inv + X.T @ X / noise)
    mean_want = cov_want @ (S0_inv @ mu0 + X.T @ y / noise)
    assert np.abs(cov - cov_want).max() <= 1e-10
    assert np.abs(mean - mean_want).max() <= 1e-10


def test_linear_posterior_no_data_returns_prior():
    mu0 = np.array([1.0, -1.0])
    S0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    mean, cov = bayes_linear_posterior(np.zeros((0, 2)), np.zeros(0), mu0, S0, 1.0)
    assert np.allclose(mean, mu0, atol=1e-12)
    assert np.allclose(cov, S0, atol=1e-12)


def test_linear_posterior_huge_noise_keeps_prior(rng):
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    mu0 = np.array([0.3, -0.7])
    S0 = np.eye(2) * 1.5
    mean, cov = bayes_linear_posterior(X, y, mu0, S0, 1e12)
    assert np.allclose(mean, mu0, atol=1e-9)
    assert np.allclose(cov, S0, atol=1e-9)


def test_linear_posterior_rejects_bad_prior():
    with pytest.raises(NumericalError):
        bayes_linear_posterior(np.zeros((1, 2)), [0.0], np.zeros(2), -np.eye(2), 1.0)
    with pytest.raises(ValueError):
        bayes_linear_posterior(np.zeros((1, 2)), [0.0], np.zeros(2), np.eye(2), 0.0)


def test_linear_attribution_exact_for_known_weights():
    # integrated gradient of a linear function is the weight times the gap
    mean = np.array([2.0, -3.0])
    cov = np.array([[0.5, 0.1], [0.1, 0.25]])
    x = np.array([2.0, 1.0])
    z = np.array([0.5, 3.0])
    a0 = bayes_linear_attribution(mean, cov, x, z, 0)
    a1 = bayes_linear_attribution(mean, cov, x, z, 1)
    assert a0.mean == pytest.approx(2.0 * 1.5) and a0.variance == pytest.approx(0.5 * 1.5**2)
    assert a1.mean == pytest.approx(-3.0 * -2.0) and a1.variance == pytest.approx(0.25 * 4.0)
    # completeness for the linear family: sum of means equals w . (x - z)
    assert a0.mean + a1.mean == pytest.approx(mean @ (x - z))


def test_linear_attribution_variance_scales_with_gap_squared():
    mean = np.array([1.0])
    cov = np.array([[0.7]])
    base = bayes_linear_attribution(mean, cov, [1.0], [0.0], 0).variance
    scaled = bayes_linear_attribution(mean, cov, [3.0], [0.0], 0).variance
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)
