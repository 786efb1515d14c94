"""Random trigonometric feature tests: spectral sampling, kernel estimate,
ridge fit, per-feature path integrals, and the ensemble mixture."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from gpattr import (
    ArdSeHyper,
    NumericalError,
    marginalized_attribution,
    prior_attribution_variance,
    rfgp_attribution,
    rfgp_fit,
    sample_frequencies,
)
from gpattr.data_io import Dataset, simulate
from gpattr.rfgp import design_matrix, feature_gradient_integral
from oracles import (
    ardse_eval,
    feature_gradient_integral_per_feature,
    feature_map,
    rfgp_attribution_per_feature,
    rfgp_fit_copying,
    rfgp_fit_dense,
    rfgp_mean,
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
    # 2M = 60 > N = 40: the thin basis and core factor rebuild the same A
    Q, C = model.basis, model.core_factor
    assert Q.shape == (60, 40) and C.shape == (40, 40)
    assert np.abs(Q.T @ Q - np.eye(40)).max() <= 1e-14
    rebuilt = Q @ C @ C.T @ Q.T + ridge * (np.eye(60) - Q @ Q.T)
    assert np.abs(rebuilt - A).max() <= 1e-13 * np.abs(A).max()
    # prediction formula against the same dense system
    x = np.array([2.0, 7.0])
    assert rfgp_mean(model, x) == pytest.approx(data.y.mean() + feature_map(x, V) @ want, abs=1e-9)


@pytest.mark.parametrize("m, n", [(10, 60), (60, 30)])
@pytest.mark.parametrize("ratio", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
def test_thin_fit_matches_dense_primal_oracle(m, n, ratio):
    # ridge / |Phi|_2^2 = ratio, with 2M < N and 2M > N: weights and laws
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
    assert model.basis.shape == (2 * m, min(2 * m, n))
    assert np.abs(model.weights - dense.weights).max() <= tol * np.abs(dense.weights).max()
    for _ in range(3):
        x = rng.uniform(-2.0, 2.0, size=2)
        z = rng.uniform(-2.0, 2.0, size=2)
        zeta = feature_gradient_integral(x, z, dense.frequencies)
        for i, got in enumerate(rfgp_attribution(model, x, z)):
            want = rfgp_attribution_per_feature(dense, x, z, i)
            scale = abs(x[i] - z[i]) * np.abs(zeta[:, i]) @ np.abs(dense.weights)
            assert abs(got.mean - want.mean) <= tol * scale
            assert abs(got.variance - want.variance) <= tol * want.variance


def test_fit_memory_is_linear_in_features_times_rows():
    # M = 1000 on N = 199 rows: peak O(M N), one (2M, N) array of 3.2 MB
    # that the QR overwrites with Q, where one 2M x 2M normal matrix alone
    # would be 32 MB
    data = simulate(199, 0.5, seed=5)
    m, n = 1000, 199
    tracemalloc.start()
    try:
        model = rfgp_fit(data, HYP, m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.basis.shape == (2 * m, n)
    assert peak <= 1.5 * (2 * m) * n * 8


@pytest.mark.parametrize("m", [3, 10, 100, 1000])
@pytest.mark.parametrize("n", [37, 199, 500])
def test_in_place_fit_is_bit_identical_to_copying_fit(n, m):
    data = simulate(n, 0.5, seed=n)
    got = rfgp_fit(data, HYP, m, seed=m)
    want = rfgp_fit_copying(data, HYP, m, seed=m)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.basis, want.basis)
    assert np.array_equal(got.core_factor, want.core_factor)


def test_fit_rejects_zero_noise_rank_deficiency():
    data = simulate(20, 0.3, seed=7)
    hyper = ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.0)
    with pytest.raises(NumericalError):
        rfgp_fit(data, hyper, m_features=50, seed=0)


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
    # nudge the projection just above the switching threshold
    for eps in (1e-9, 1e-7):
        x = z + np.array([1.0 + eps, 1.0])
        zeta = feature_gradient_integral(x, z, V)[:, 0]
        limit = V[0, 0] * np.cos(V[0] @ z)
        assert zeta[0] == pytest.approx(limit, rel=1e-6)


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
        total = sum(a.mean for a in rfgp_attribution(model, x, z))
        want = rfgp_mean(model, x) - rfgp_mean(model, z)
        assert abs(total - want) <= 1e-9


def test_attribution_zero_at_baseline_and_nonnegative_variance(rng):
    data = simulate(50, 0.3, seed=11)
    model = rfgp_fit(data, HYP, m_features=40, seed=4)
    z = np.array([5.0, 5.0])
    a = rfgp_attribution(model, z, z)[0]
    assert a.mean == 0.0 and a.variance == 0.0
    for _ in range(20):
        x = rng.uniform(0.0, 10.0, size=2)
        zq = rng.uniform(0.0, 10.0, size=2)
        assert rfgp_attribution(model, x, zq)[0].variance >= 0.0


def test_mixture_law_of_total_variance():
    data = simulate(50, 0.3, seed=12)
    mix = marginalized_attribution(
        data, HYP, m_features=30, x=[7.0, 2.0], baseline=[3.0, 4.0],
        ensemble_size=12, seed=5,
    )[0]
    means = np.array([c.mean for c in mix.components])
    variances = np.array([c.variance for c in mix.components])
    assert len(mix.components) == 12
    assert mix.mixture_mean == pytest.approx(means.mean(), abs=1e-14)
    want = variances.mean() + np.var(means)
    assert mix.total_variance == pytest.approx(want, abs=1e-14)
    # mean spread across draws makes the mixture wider than the average component
    assert mix.total_variance >= variances.mean()


def test_mixture_single_component_degenerates():
    data = simulate(40, 0.3, seed=13)
    mix = marginalized_attribution(
        data, HYP, m_features=30, x=[7.0, 2.0], baseline=[3.0, 4.0],
        ensemble_size=1, seed=6,
    )[1]
    single = rfgp_attribution(
        rfgp_fit(data, HYP, m_features=30, seed=6), [7.0, 2.0], [3.0, 4.0]
    )[1]
    assert mix.mixture_mean == pytest.approx(single.mean, abs=1e-15)
    assert mix.total_variance == pytest.approx(single.variance, abs=1e-15)


def test_mixture_uses_consecutive_seeds():
    data = simulate(40, 0.3, seed=14)
    mix = marginalized_attribution(
        data, HYP, m_features=25, x=[6.0, 3.0], baseline=[2.0, 5.0],
        ensemble_size=3, seed=20,
    )[0]
    for offset, comp in enumerate(mix.components):
        model = rfgp_fit(data, HYP, m_features=25, seed=20 + offset)
        want = rfgp_attribution(model, [6.0, 3.0], [2.0, 5.0])[0]
        assert comp.mean == want.mean and comp.variance == want.variance


def test_mixture_json_dict():
    data = simulate(30, 0.3, seed=15)
    mix = marginalized_attribution(
        data, HYP, m_features=20, x=[6.0, 3.0], baseline=[2.0, 5.0],
        ensemble_size=2, seed=0,
    )[1]
    doc = mix.to_json_dict()
    assert doc["format"] == "gpattr-attribution-mixture" and doc["version"] == 1
    assert doc["feature_index"] == 1 and len(doc["components"]) == 2


def test_mixture_validation():
    data = simulate(30, 0.3, seed=16)
    with pytest.raises(ValueError):
        marginalized_attribution(
            data, HYP, m_features=10, x=[1.0, 1.0], baseline=[0.0, 0.0],
            ensemble_size=0,
        )


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
        rows = rfgp_attribution(model, x, z)
        assert integrals.shape == (2 * m, dim) and len(rows) == dim
        for i, got in enumerate(rows):
            where = f"draw {draw} (d={dim}, {case}, scale={scale:g}, M={m}), feature {i}"
            column = feature_gradient_integral_per_feature(x, z, i, model.frequencies)
            assert np.array_equal(integrals[:, i], column), where
            want = rfgp_attribution_per_feature(dense, x, z, i)
            prior = prior_attribution_variance(x, z, i, hyper)
            assert got.feature_index == i, where
            assert abs(got.mean - want.mean) <= 1e-12 * max(abs(want.mean), math.sqrt(prior)), where
            assert abs(got.variance - want.variance) <= 1e-12 * max(want.variance, prior), where
            if x[i] == z[i]:
                assert got.mean == 0.0 and got.variance == 0.0, where
