"""Random trigonometric feature tests: spectral sampling, kernel estimate,
ridge fit, per-feature path integrals, and the ensemble mixture."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import block_diag

from gpattr import (
    ArdSeHyper,
    AttributionMixture,
    NumericalError,
    marginalized_attribution,
    prior_attribution_variance,
    rfgp_attribution,
    rfgp_fit,
    sample_frequencies,
)
from gpattr.cli import _mixture_doc
from gpattr.data_io import Dataset, simulate
from gpattr.rfgp import design_matrix, feature_gradient_integral
from oracles import (
    ardse_eval,
    feature_gradient_integral_per_feature,
    feature_map,
    rfgp_attribution_per_feature,
    rfgp_attribution_scipy,
    rfgp_fit_copying,
    rfgp_fit_dense,
    rfgp_mean,
    rfgp_orthogonal_factor,
)

HYP = ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.1)


def test_frequencies_deterministic_and_lengthscale_scaled():
    a = sample_frequencies(50, HYP, seed=3)
    b = sample_frequencies(50, HYP, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (50, 2)
    doubled = ArdSeHyper(0.6, 2.0 * HYP.lengthscales, 0.1)
    c = sample_frequencies(50, doubled, seed=3)
    assert np.array_equal(c, a / 2.0)  # same raw draws, rescaled columns
    assert not np.array_equal(sample_frequencies(50, HYP, seed=4), a)


def test_frequency_marginals_match_spectral_density():
    hyper = ArdSeHyper(1.0, np.array([0.5, 2.0]), 0.0)
    V = sample_frequencies(20000, hyper, seed=0)
    assert V[:, 0].std() == pytest.approx(2.0, rel=0.02)
    assert V[:, 1].std() == pytest.approx(0.5, rel=0.02)
    assert abs(V.mean(axis=0)).max() <= 0.05


def test_feature_map_layout_and_norm(rng):
    V = sample_frequencies(40, HYP, seed=1)
    x = rng.uniform(-2.0, 2.0, size=2)
    phi = feature_map(x, V)
    proj = V @ x
    assert phi.shape == (80,)
    assert np.allclose(phi[0::2], np.sin(proj), atol=1e-15)
    assert np.allclose(phi[1::2], np.cos(proj), atol=1e-15)
    # sin^2 + cos^2 per frequency makes the squared norm exactly M
    assert phi @ phi == pytest.approx(40.0, rel=1e-12)


def test_design_matrix_matches_feature_map(rng):
    V = sample_frequencies(10, HYP, seed=2)
    X = rng.uniform(-1.0, 1.0, size=(6, 2))
    Phi = design_matrix(X, V)
    assert Phi.shape == (20, 6)
    for n in range(6):
        assert np.allclose(Phi[:, n], feature_map(X[n], V), atol=1e-15)


def test_kernel_estimate_converges(rng):
    hyper = ArdSeHyper(1.0, np.array([1.0, 0.7]), 0.0)
    pairs = [
        (rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=2))
        for _ in range(20)
    ]
    V = sample_frequencies(10000, hyper, seed=0)
    for x, z in pairs:
        est = hyper.signal_variance / 10000 * (feature_map(x, V) @ feature_map(z, V))
        assert abs(est - ardse_eval(x, z, hyper)) <= 0.03


def test_kernel_estimate_error_shrinks_like_sqrt_m(rng):
    hyper = ArdSeHyper(1.0, np.array([1.0, 0.7]), 0.0)
    pairs = [
        (rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=2))
        for _ in range(40)
    ]
    med = {}
    for m in (64, 4096):
        errs = []
        for seed in range(6):
            V = sample_frequencies(m, hyper, seed=seed)
            for x, z in pairs:
                est = hyper.signal_variance / m * (feature_map(x, V) @ feature_map(z, V))
                errs.append(abs(est - ardse_eval(x, z, hyper)))
        med[m] = np.median(errs)
    # 64x more features should shrink the error ~8x; demand at least 3x
    assert med[4096] < med[64] / 3.0


def test_fit_matches_dense_ridge_oracle():
    data = simulate(40, 0.3, seed=6)
    model = rfgp_fit(data, HYP, m_features=30, seed=1)
    V = model.frequencies
    Phi = design_matrix(data.X, V)
    ridge = 30 * HYP.noise_variance / HYP.signal_variance
    A = Phi @ Phi.T + ridge * np.eye(60)
    want = np.linalg.solve(A, Phi @ (data.y - data.y.mean()))
    assert np.abs(model.weights - want).max() <= 1e-8
    assert np.abs(rfgp_fit_dense(data, HYP, 30, seed=1).weights - want).max() <= 1e-8
    # 2M = 60 > N = 40: the reflectors' full Q and the core factor rebuild
    # the same A = Q diag(C C^T, ridge I) Q^T
    Q, C = rfgp_orthogonal_factor(model), model.core_factor
    assert model.reflectors.shape == (60, 40) and model.tau.shape == (40,) and C.shape == (40, 40)
    assert np.abs(Q.T @ Q - np.eye(60)).max() <= 1e-14
    rebuilt = Q @ block_diag(C @ C.T, ridge * np.eye(20)) @ Q.T
    assert np.abs(rebuilt - A).max() <= 1e-13 * np.abs(A).max()
    # prediction formula against the same dense system
    x = np.array([2.0, 7.0])
    assert rfgp_mean(model, x) == pytest.approx(data.y.mean() + feature_map(x, V) @ want, abs=1e-9)


@pytest.mark.parametrize("m, n", [(10, 60), (30, 60), (60, 30)])
@pytest.mark.parametrize("ratio", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
def test_thin_fit_matches_dense_primal_oracle(m, n, ratio):
    # ridge / |Phi|_2^2 = ratio, with 2M < N, 2M = N and 2M > N: weights and laws
    # agree with the dense primal solve to its own round-off, eps cond(A)
    # with cond(A) <= 1 + 1/ratio
    rng = np.random.default_rng(5 + n)
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    data = Dataset(X, np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n), ("a", "b"))
    sv, ls = 0.7, np.array([0.9, 1.3])
    Phi = design_matrix(X, sample_frequencies(m, ArdSeHyper(sv, ls, 0.0), seed=3))
    hyper = ArdSeHyper(sv, ls, ratio * np.linalg.norm(Phi, 2) ** 2 * sv / m)
    tol = 10.0 * np.finfo(float).eps * (1.0 + 1.0 / ratio)
    model = rfgp_fit(data, hyper, m, seed=3)
    dense = rfgp_fit_dense(data, hyper, m, seed=3)
    assert model.reflectors.shape == (2 * m, min(2 * m, n)) and model.tau.shape == (min(2 * m, n),)
    assert np.abs(model.weights - dense.weights).max() <= tol * np.abs(dense.weights).max()
    for _ in range(3):
        x = rng.uniform(-2.0, 2.0, size=2)
        z = rng.uniform(-2.0, 2.0, size=2)
        zeta = feature_gradient_integral(x, z, dense.frequencies)
        for i, (mean, variance) in enumerate(zip(*rfgp_attribution(model, x, z))):
            want = rfgp_attribution_per_feature(dense, x, z, i)
            scale = abs(x[i] - z[i]) * np.abs(zeta[:, i]) @ np.abs(dense.weights)
            assert abs(mean - want.mean) <= tol * scale
            assert abs(variance - want.variance) <= tol * want.variance


def test_fit_memory_is_linear_in_features_times_rows():
    # M = 1000 on N = 199 rows: peak O(M N), one (2M, N) array of 3.2 MB
    # that the QR overwrites with its reflectors, where one 2M x 2M normal
    # matrix alone would be 32 MB
    data = simulate(199, 0.5, seed=5)
    m, n = 1000, 199
    tracemalloc.start()
    try:
        model = rfgp_fit(data, HYP, m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.reflectors.shape == (2 * m, n)
    assert peak <= 1.5 * (2 * m) * n * 8


@pytest.mark.parametrize("m", [3, 10, 100, 1000])
@pytest.mark.parametrize("n", [37, 199, 500])
def test_in_place_fit_is_bit_identical_to_copying_fit(n, m):
    data = simulate(n, 0.5, seed=n)
    got = rfgp_fit(data, HYP, m, seed=m)
    want = rfgp_fit_copying(data, HYP, m, seed=m)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.reflectors, want.reflectors)
    assert np.array_equal(got.tau, want.tau)
    assert np.array_equal(got.core_factor, want.core_factor)


@pytest.mark.parametrize("m, n", [(10, 60), (30, 60), (60, 30)])
@pytest.mark.parametrize("noise", [0.1, 0.0])
def test_fit_and_attribution_equal_the_scipy_linalg_reference_bit_for_bit(m, n, noise):
    # rfgp calls LAPACK's QR, Cholesky, triangular and reflector routines
    # directly, with the workspaces scipy's wrappers ask for, so at 2M < N,
    # 2M = N and 2M > N it keeps the bits of scipy.linalg's qr (mode "raw"),
    # cholesky, cho_solve and solve_triangular and of lapack.dormqr; zero
    # noise is rank deficient only when 2M > N, and at 2M = N the ridge is 0
    # and Q^T zeta has no tail rows
    data = simulate(n, 0.5, seed=n + m)
    hyper = ArdSeHyper(HYP.signal_variance, HYP.lengthscales, noise)
    if noise == 0.0 and 2 * m > n:
        with pytest.raises(NumericalError, match="singular"):
            rfgp_fit(data, hyper, m, seed=m)
        return
    got, want = rfgp_fit(data, hyper, m, seed=m), rfgp_fit_copying(data, hyper, m, seed=m)
    for name in ("reflectors", "tau", "core_factor", "weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    rng = np.random.default_rng(m)
    for x, z in rng.uniform(0.0, 10.0, size=(3, 2, 2)):
        laws = zip(rfgp_attribution(got, x, z), rfgp_attribution_scipy(want, x, z))
        assert all(np.array_equal(a, b) for a, b in laws)


def test_fit_keeps_no_design_sized_buffer_when_2m_is_below_n():
    # with 2M < N the reflectors are (2M, 2M); they must not hold the (2M, N)
    # buffer the QR factored the design matrix in
    model = rfgp_fit(simulate(500, 0.5, seed=5), HYP, m_features=10, seed=0)
    assert model.reflectors.shape == (20, 20)
    assert model.reflectors.base is None or model.reflectors.base.size == model.reflectors.size


def test_fit_rejects_zero_noise_rank_deficiency():
    data = simulate(20, 0.3, seed=7)
    hyper = ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.0)
    with pytest.raises(NumericalError):
        rfgp_fit(data, hyper, m_features=50, seed=0)


def test_fit_rejects_inputs_and_targets_that_overflow():
    # finite data whose design matrix (x . v past the float range) or whose
    # weights (targets near it) overflow raise NumericalError, not numpy's
    # or scipy's ValueError
    data = simulate(20, 0.3, seed=7)
    X = data.X.copy()
    X[3, 0] = 1e308
    with pytest.raises(NumericalError, match="design matrix"):
        rfgp_fit(Dataset(X, data.y, data.feature_names), HYP, m_features=50, seed=0)
    y = np.resize([1e308, -1e308], data.n)
    with pytest.raises(NumericalError, match="weights"):
        rfgp_fit(Dataset(data.X, y, data.feature_names), HYP, m_features=50, seed=0)


def test_prediction_improves_with_more_features():
    train = simulate(120, 0.2, seed=8)
    test = simulate(200, 0.0, seed=9)  # noise-free targets
    mse = {}
    for m in (10, 500):
        model = rfgp_fit(train, ArdSeHyper(0.3, np.array([1.0, 0.6]), 0.04), m, seed=2)
        preds = np.array([rfgp_mean(model, xq) for xq in test.X])
        mse[m] = float(np.mean((preds - test.y) ** 2))
    assert mse[500] < mse[10]


def test_gradient_integral_matches_simpson_per_row(rng):
    V = rng.standard_normal((20, 3)) / np.array([0.8, 1.2, 1.6])
    x = rng.uniform(-1.5, 1.5, size=3)
    z = rng.uniform(-1.5, 1.5, size=3)
    ts = np.linspace(0.0, 1.0, 2049)
    path = z[None, :] + ts[:, None] * (x - z)[None, :]
    integrals = feature_gradient_integral(x, z, V)
    for i in range(3):
        zeta = integrals[:, i]
        for m in range(20):
            phase = path @ V[m]
            want_sin = simpson(V[m, i] * np.cos(phase), x=ts)
            want_cos = simpson(-V[m, i] * np.sin(phase), x=ts)
            assert zeta[2 * m] == pytest.approx(want_sin, rel=1e-8, abs=1e-10)
            assert zeta[2 * m + 1] == pytest.approx(want_cos, rel=1e-8, abs=1e-10)


def test_gradient_integral_degenerate_direction_uses_limit():
    # frequency orthogonal to the path: the phase never moves, and the
    # integrand is constant at the baseline phase
    V = np.array([[1.0, -1.0], [0.3, 0.7]])
    z = np.array([0.4, 0.1])
    delta = np.array([1.0, 1.0])  # orthogonal to row 0
    x = z + delta
    zeta = feature_gradient_integral(x, z, V)[:, 0]
    c0 = V[0] @ z
    assert zeta[0] == pytest.approx(V[0, 0] * np.cos(c0), rel=1e-12)
    assert zeta[1] == pytest.approx(-V[0, 0] * np.sin(c0), rel=1e-12)


def test_gradient_integral_continuous_across_branch():
    V = np.array([[1.0, -1.0]])
    z = np.zeros(2)
    # a projection just off zero gives the u -> 0 limit
    for eps in (1e-9, 1e-7):
        x = z + np.array([1.0 + eps, 1.0])
        zeta = feature_gradient_integral(x, z, V)[:, 0]
        limit = V[0, 0] * np.cos(V[0] @ z)
        assert zeta[0] == pytest.approx(limit, rel=1e-6)


def test_gradient_integral_matches_high_precision_at_every_step():
    # the quotients (sin(c + u) - sin c) / u used to be formed by subtraction,
    # which lost eps / |u| (0.04 at |x - z| = 1e-12); as a midpoint phase
    # times sinc they are exact to round-off at every step length
    rng = np.random.default_rng(11)
    for step in (1.0, 1e-7, 1e-12):
        V = rng.standard_normal((20, 3))
        z = rng.uniform(-2.0, 2.0, size=3)
        direction = rng.standard_normal(3)
        x = z + step * direction / np.linalg.norm(direction)
        got = feature_gradient_integral(x, z, V)
        with mpmath.workdps(50):
            for m, v in enumerate(V):
                c = mpmath.fsum(mpmath.mpf(float(a)) * mpmath.mpf(float(b)) for a, b in zip(v, z))
                u = mpmath.fsum(mpmath.mpf(float(a)) * (mpmath.mpf(float(b)) - mpmath.mpf(float(e)))
                                for a, b, e in zip(v, x, z))
                quotients = ((mpmath.sin(c + u) - mpmath.sin(c)) / u, (mpmath.cos(c + u) - mpmath.cos(c)) / u)
                for row, q in enumerate(quotients):
                    want = [float(mpmath.mpf(float(a)) * q) for a in v]
                    assert np.abs(got[2 * m + row] - want).max() <= 1e-14, (step, m, row)


def test_gradient_integral_validation():
    V = np.ones((3, 2))
    with pytest.raises(ValueError):
        feature_gradient_integral([0.0], [0.0, 0.0], V)


def test_attribution_completeness_within_feature_class(rng):
    data = simulate(60, 0.3, seed=10)
    model = rfgp_fit(data, HYP, m_features=80, seed=3)
    for _ in range(10):
        x = rng.uniform(0.0, 10.0, size=2)
        z = rng.uniform(0.0, 10.0, size=2)
        total = sum(rfgp_attribution(model, x, z)[0].tolist())
        want = rfgp_mean(model, x) - rfgp_mean(model, z)
        assert abs(total - want) <= 1e-9


def test_attribution_zero_at_baseline_and_nonnegative_variance(rng):
    data = simulate(50, 0.3, seed=11)
    model = rfgp_fit(data, HYP, m_features=40, seed=4)
    z = np.array([5.0, 5.0])
    means, variances = rfgp_attribution(model, z, z)
    assert means[0] == 0.0 and variances[0] == 0.0
    for _ in range(20):
        x = rng.uniform(0.0, 10.0, size=2)
        zq = rng.uniform(0.0, 10.0, size=2)
        assert rfgp_attribution(model, x, zq)[1][0] >= 0.0


def test_mixture_law_of_total_variance():
    data = simulate(50, 0.3, seed=12)
    mix = marginalized_attribution(
        data, HYP, m_features=30, x=[7.0, 2.0], baseline=[3.0, 4.0],
        ensemble_size=12, seed=5,
    )
    means, variances = mix.means[0], mix.variances[0]
    assert mix.means.shape == mix.variances.shape == (2, 12)
    assert mix.mixture_mean[0] == pytest.approx(means.mean(), abs=1e-14)
    want = variances.mean() + np.var(means)
    assert mix.total_variance[0] == pytest.approx(want, abs=1e-14)
    # mean spread across draws makes the mixture wider than the average component
    assert mix.total_variance[0] >= variances.mean()


def test_mixture_single_component_degenerates():
    data = simulate(40, 0.3, seed=13)
    mix = marginalized_attribution(
        data, HYP, m_features=30, x=[7.0, 2.0], baseline=[3.0, 4.0],
        ensemble_size=1, seed=6,
    )
    means, variances = rfgp_attribution(
        rfgp_fit(data, HYP, m_features=30, seed=6), [7.0, 2.0], [3.0, 4.0]
    )
    assert mix.mixture_mean[1] == pytest.approx(means[1], abs=1e-15)
    assert mix.total_variance[1] == pytest.approx(variances[1], abs=1e-15)


def test_mixture_uses_consecutive_seeds():
    data = simulate(40, 0.3, seed=14)
    mix = marginalized_attribution(
        data, HYP, m_features=25, x=[6.0, 3.0], baseline=[2.0, 5.0],
        ensemble_size=3, seed=20,
    )
    for offset, (mean, variance) in enumerate(zip(mix.means[0], mix.variances[0])):
        model = rfgp_fit(data, HYP, m_features=25, seed=20 + offset)
        want_means, want_variances = rfgp_attribution(model, [6.0, 3.0], [2.0, 5.0])
        assert mean == want_means[0] and variance == want_variances[0]


def test_first_k_components_are_the_ensemble_of_k_bit_for_bit():
    # rfgp-compare fits each M once and reads the draws and the mixture at
    # --ensemble-m as prefixes of one ensemble; from 8 components numpy sums
    # with eight accumulators, so k runs across that boundary
    data = simulate(40, 0.3, seed=18)
    common = dict(data=data, hyper=HYP, m_features=20, x=[6.0, 3.0], baseline=[2.0, 5.0], seed=3)
    full = marginalized_attribution(**common, ensemble_size=12)
    assert full.first(12) is full and full.first(20) is full
    for k in (1, 2, 7, 8, 9, 11):
        got, want = full.first(k), marginalized_attribution(**common, ensemble_size=k)
        assert got.means.flags.c_contiguous and got.variances.flags.c_contiguous
        for field in ("means", "variances", "mixture_mean", "total_variance"):
            assert getattr(got, field).shape == getattr(want, field).shape, (k, field)
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (k, field)


def test_mixture_json_dict():
    data = simulate(30, 0.3, seed=15)
    mix = marginalized_attribution(
        data, HYP, m_features=20, x=[6.0, 3.0], baseline=[2.0, 5.0],
        ensemble_size=2, seed=0,
    )
    doc = _mixture_doc(mix, 1)
    assert doc["format"] == "gpattr-attribution-mixture" and doc["version"] == 1
    assert doc["feature_index"] == 1 and len(doc["components"]) == 2


def test_mixture_json_moments_equal_one_dimensional_reductions_bit_for_bit():
    # numpy sums 8 or more entries with eight accumulators, and a row of a
    # C-contiguous (d, R) array exactly as it sums the 1-D array of that
    # feature's components; a strided column of an (R, d) array is summed
    # in another order and can differ in the last digit
    data = simulate(40, 0.3, seed=17)
    mix = marginalized_attribution(
        data, HYP, m_features=20, x=[6.0, 3.0], baseline=[2.0, 5.0],
        ensemble_size=25, seed=1,
    )
    assert mix.means.flags.c_contiguous and mix.variances.flags.c_contiguous
    for i in range(2):
        doc = _mixture_doc(mix, i)
        means = np.array([c["mean"] for c in doc["components"]])
        variances = np.array([c["variance"] for c in doc["components"]])
        assert means.size == 25
        assert doc["mixture_mean"] == float(np.mean(means))
        assert doc["total_variance"] == float(np.mean(variances) + np.var(means))


def test_mixture_validation():
    data = simulate(30, 0.3, seed=16)
    with pytest.raises(ValueError):
        marginalized_attribution(
            data, HYP, m_features=10, x=[1.0, 1.0], baseline=[0.0, 0.0],
            ensemble_size=0,
        )
    # components that do not pair up, negative variances, no components,
    # or a prefix of fewer than one component: each named, not reduced
    with pytest.raises(ValueError, match="one shape"):
        AttributionMixture.of(np.zeros((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="one shape"):
        AttributionMixture.of(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="nonnegative"):
        AttributionMixture.of(np.zeros((2, 3)), np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="at least one component"):
        AttributionMixture.of(np.zeros((2, 0)), np.zeros((2, 0)))
    mixture = AttributionMixture.of(np.arange(6.0).reshape(2, 3), np.ones((2, 3)))
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            mixture.first(k)
    assert mixture.first(3) is mixture and mixture.first(2).means.shape == (2, 2)


def test_all_features_match_per_feature_oracle():
    rng = np.random.default_rng(20240413)
    cases = ("generic", "feature_at_baseline", "at_baseline")
    grid = itertools.product((1, 3, 8), cases, (1.0, 1e6), (5, 60))
    for draw, (dim, case, scale, m) in enumerate(grid):
        n = int(rng.integers(15, 40))
        sv = scale**2 * float(rng.uniform(0.3, 2.0))
        hyper = ArdSeHyper(sv, rng.uniform(0.5, 2.0, size=dim), sv * float(rng.uniform(0.05, 0.3)))
        X = rng.uniform(-2.0, 2.0, size=(n, dim))
        y = scale * (np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n))
        data = Dataset(X, y, tuple(f"f{j}" for j in range(dim)))
        model = rfgp_fit(data, hyper, m, seed=draw)
        dense = rfgp_fit_dense(data, hyper, m, seed=draw)
        x = rng.uniform(-2.0, 2.0, size=dim)
        z = rng.uniform(-2.0, 2.0, size=dim)
        if case == "feature_at_baseline":
            j = int(rng.integers(dim))
            x[j] = z[j]
        elif case == "at_baseline":
            x = z.copy()
        integrals = feature_gradient_integral(x, z, model.frequencies)
        means, variances = rfgp_attribution(model, x, z)
        assert integrals.shape == (2 * m, dim) and means.shape == variances.shape == (dim,)
        assert not (means.flags.writeable or variances.flags.writeable)
        for i, (mean, variance) in enumerate(zip(means, variances)):
            where = f"draw {draw} (d={dim}, {case}, scale={scale:g}, M={m}), feature {i}"
            column = feature_gradient_integral_per_feature(x, z, i, model.frequencies)
            assert np.array_equal(integrals[:, i], column), where
            want = rfgp_attribution_per_feature(dense, x, z, i)
            prior = prior_attribution_variance(x, z, i, hyper)
            assert abs(mean - want.mean) <= 1e-12 * max(abs(want.mean), math.sqrt(prior)), where
            assert abs(variance - want.variance) <= 1e-12 * max(want.variance, prior), where
            if x[i] == z[i]:
                assert mean == 0.0 and variance == 0.0, where
