"""Acceptance gate: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the printed
[PASS]/[FAIL] checklist with the measured quantities. Every check compares
the library against an independent route to the same number: brute-force
quadrature of the path integrals, finite differences, dense linear algebra,
or Monte Carlo sampling of the posterior.
"""

import numpy as np
import pytest
from scipy.integrate import simpson as sp_simpson

from gpattr import (
    ArdSeHyper,
    Dataset,
    QuadratureSpec,
    fit,
    gpr_attribution,
    grad_i_cross,
    hess_ii_cross,
    marginalized_attribution,
    mc_attribution_oracle,
    nodes_weights,
    optimize_hyperparameters,
    predict,
    prior_attribution_variance,
    quad_attribution,
    rfgp_attribution,
    rfgp_fit,
    simulate,
)
from oracles import (
    ardse_eval,
    ardse_grad_i,
    ardse_hess_ii,
    bayes_linear_attribution,
    bayes_linear_posterior,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num:2d} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _draw_pairs(data: Dataset, n: int, seed: int, min_gap: float = 0.0):
    """Random (query, baseline) pairs inside the training box."""
    rng = np.random.default_rng(seed)
    lo = data.X.min(axis=0)
    hi = data.X.max(axis=0)
    pairs = []
    while len(pairs) < n:
        x = rng.uniform(lo, hi)
        z = rng.uniform(lo, hi)
        if np.all(np.abs(x - z) >= min_gap):
            pairs.append((x, z))
    return pairs


def _quad_mean(model, x, z, i: int, rule: str, partitions: int) -> float:
    # quadrature of the posterior-mean path gradient, no variance work
    t, w = nodes_weights(QuadratureSpec(rule=rule, partitions=partitions))
    path = z[None, :] + t[:, None] * (x - z)[None, :]
    G = grad_i_cross(path, model.x_train, i, model.hyper)
    return float((x[i] - z[i]) * (w @ (G @ model.alpha)))


@pytest.fixture(scope="module")
def fitted():
    """Simulated benchmark with searched hyperparameters."""
    data = simulate(200, 0.5, seed=5)
    init = ArdSeHyper(1.0, np.ones(2), 0.25)
    hyper = optimize_hyperparameters(data, init, budget=60)
    return data, fit(data, hyper)


def test_criterion_01_closed_form_means_match_fine_quadrature(fitted):
    data, model = fitted
    t, w = nodes_weights(QuadratureSpec(rule="simpson", partitions=4096))
    worst = 0.0
    for x, z in _draw_pairs(data, 50, seed=101):
        path = z[None, :] + t[:, None] * (x - z)[None, :]
        for i in range(data.dim):
            G = grad_i_cross(path, model.x_train, i, model.hyper)
            ref = float((x[i] - z[i]) * (w @ (G @ model.alpha)))
            got = gpr_attribution(model, x, z, i).mean
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-8))
    _verdict(
        1,
        "closed-form means vs Simpson-4096",
        worst <= 1e-7,
        f"max rel err {worst:.3e} (tol 1e-7, 50 pairs)",
    )


def test_criterion_02_closed_form_variances_match_tensor_quadrature(fitted):
    data, model = fitted
    hyper = model.hyper
    t = np.linspace(0.0, 1.0, 513)
    spec = QuadratureSpec(rule="simpson", partitions=512)
    worst_prior = 0.0
    worst_full = 0.0
    for x, z in _draw_pairs(data, 20, seed=202, min_gap=0.05):
        path = z[None, :] + t[:, None] * (x - z)[None, :]
        quad = quad_attribution(model, x, z, spec)
        for i in range(data.dim):
            H = hess_ii_cross(path, path, i, hyper)
            ref = float((x[i] - z[i]) ** 2 * sp_simpson(sp_simpson(H, x=t, axis=1), x=t))
            got = prior_attribution_variance(x, z, i, hyper)
            worst_prior = max(worst_prior, abs(got - ref) / max(abs(ref), 1e-10))
            qv = quad.variances[i]
            ev = gpr_attribution(model, x, z, i).variance
            worst_full = max(worst_full, abs(qv - ev) / max(ev, 1e-10))
    _verdict(
        2,
        "closed-form variances vs tensor quadrature",
        worst_prior <= 1e-6 and worst_full <= 1e-5,
        f"prior rel err {worst_prior:.3e} (tol 1e-6), "
        f"posterior rel err {worst_full:.3e} (tol 1e-5)",
    )


def test_criterion_03_completeness(fitted):
    data, model = fitted
    worst = 0.0
    for x, z in _draw_pairs(data, 100, seed=303):
        total = sum(gpr_attribution(model, x, z, i).mean for i in range(data.dim))
        gap = predict(model, x)[0] - predict(model, z)[0]
        worst = max(worst, abs(total - gap))
    _verdict(
        3,
        "attribution means sum to the prediction gap",
        worst <= 1e-10,
        f"max residual {worst:.3e} (tol 1e-10, 100 queries)",
    )


def test_criterion_04_variance_grows_along_the_diagonal(fitted):
    _, model = fitted
    z = np.zeros(2)

    def variances(t: float):
        x = np.array([t, t])
        return [gpr_attribution(model, x, z, i).variance for i in range(2)]

    at_zero = variances(0.0)
    near = variances(0.1)
    far = variances(10.0)
    ok = at_zero == [0.0, 0.0] and all(f > n for f, n in zip(far, near))
    _verdict(
        4,
        "heteroscedastic attribution variance",
        ok,
        f"var(0)={at_zero}, var(0.1)={[f'{v:.3e}' for v in near]}, "
        f"var(10)={[f'{v:.3e}' for v in far]}",
    )


def test_criterion_05_affine_scale_invariance(fitted):
    data, model = fitted
    lam = np.array([2.0, -0.5])
    shift = np.array([3.0, -1.0])
    hyper = model.hyper
    co_hyper = ArdSeHyper(
        hyper.signal_variance, np.abs(lam) * hyper.lengthscales, hyper.noise_variance
    )
    co_data = Dataset(data.X * lam + shift, data.y, data.feature_names)
    co_model = fit(co_data, co_hyper)
    worst = 0.0
    for x, z in _draw_pairs(data, 10, seed=505):
        for i in range(2):
            a = gpr_attribution(model, x, z, i)
            b = gpr_attribution(co_model, lam * x + shift, lam * z + shift, i)
            worst = max(worst, abs(a.mean - b.mean), abs(a.variance - b.variance))
    _verdict(
        5,
        "affine reparametrization invariance",
        worst <= 1e-10,
        f"max abs drift {worst:.3e} (tol 1e-10)",
    )


def test_criterion_06_rule_ordering_at_equal_budget(fitted):
    data, model = fitted
    rng = np.random.default_rng(606)
    queries = rng.uniform(data.X.min(axis=0), data.X.max(axis=0), size=(20, 2))
    z = data.X.mean(axis=0)
    exact = [[gpr_attribution(model, q, z, i).mean for i in range(2)] for q in queries]
    ok = True
    parts = []
    for evals in (17, 33, 65):
        med = {}
        for rule, L in (
            ("simpson", (evals - 1) // 2),
            ("trapezoid", evals - 1),
            ("right_hand", evals),
        ):
            errs = [
                abs(_quad_mean(model, q, z, i, rule, L) - exact[qi][i])
                for qi, q in enumerate(queries)
                for i in range(2)
            ]
            med[rule] = float(np.median(errs))
        ok = ok and med["simpson"] <= med["trapezoid"] <= med["right_hand"]
        parts.append(
            f"E={evals}: {med['simpson']:.1e} <= {med['trapezoid']:.1e}"
            f" <= {med['right_hand']:.1e}"
        )
    _verdict(6, "Simpson <= trapezoid <= right-hand at equal evals", ok, "; ".join(parts))


def test_criterion_07_every_rule_converges_monotonically(fitted):
    data, model = fitted
    rng = np.random.default_rng(707)
    queries = rng.uniform(data.X.min(axis=0), data.X.max(axis=0), size=(20, 2))
    z = data.X.mean(axis=0)
    exact = [[gpr_attribution(model, q, z, i).mean for i in range(2)] for q in queries]
    ladder = (8, 16, 32, 64, 128, 256, 512, 1024)
    ok = True
    parts = []
    for rule in ("right_hand", "trapezoid", "simpson"):
        meds = []
        for L in ladder:
            errs = [
                abs(_quad_mean(model, q, z, i, rule, L) - exact[qi][i])
                for qi, q in enumerate(queries)
                for i in range(2)
            ]
            meds.append(float(np.median(errs)))
        strict = all(b < a for a, b in zip(meds, meds[1:]))
        ok = ok and strict
        parts.append(f"{rule} {meds[0]:.1e}->{meds[-1]:.1e} strict={strict}")
    _verdict(7, "median error strictly falls over L=8..1024", ok, "; ".join(parts))


def test_criterion_08_random_feature_attributions_approach_exact(fitted):
    data, model = fitted
    hyper = model.hyper
    pairs = _draw_pairs(data, 5, seed=808, min_gap=0.1)
    exact = [
        [gpr_attribution(model, x, z, i).mean for i in range(2)] for x, z in pairs
    ]
    medians = []
    for m in (10, 100, 1000):
        gaps = []
        for seed in range(20):
            approx = rfgp_fit(data, hyper, m, seed)
            for (x, z), ex in zip(pairs, exact):
                for a, e in zip(rfgp_attribution(approx, x, z)[0], ex):
                    gaps.append(abs(a - e))
        medians.append(float(np.median(gaps)))
    decreasing = medians[0] > medians[1] > medians[2]

    x, z = pairs[0]
    mix = marginalized_attribution(data, hyper, 100, x, z, ensemble_size=100, seed=0)
    med_single = float(np.median(mix.variances[0]))
    widened = mix.total_variance[0] >= med_single
    _verdict(
        8,
        "random-feature convergence and mixture spread",
        decreasing and widened,
        f"median |mean gap| {medians[0]:.3f} > {medians[1]:.3f} > {medians[2]:.3f}; "
        f"mixture var {mix.total_variance[0]:.4f} >= median single {med_single:.4f}",
    )


def test_criterion_09_monte_carlo_agrees_with_closed_form(fitted):
    data, model = fitted
    worst_z = 0.0
    worst_var = 0.0
    for k, (x, z) in enumerate(_draw_pairs(data, 5, seed=909, min_gap=0.3)):
        mc = mc_attribution_oracle(model, x, z, grid_points=257, samples=10_000, seed=k)
        for i in range(2):
            exact = gpr_attribution(model, x, z, i)
            worst_z = max(worst_z, abs(mc.empirical_mean[i] - exact.mean) / mc.std_error[i])
            worst_var = max(
                worst_var, abs(mc.empirical_var[i] - exact.variance) / exact.variance
            )
    _verdict(
        9,
        "posterior path sampling recovers the law",
        worst_z <= 3.0 and worst_var <= 0.10,
        f"max |mean z-score| {worst_z:.2f} (tol 3), "
        f"max var rel err {worst_var:.3f} (tol 0.10)",
    )


def test_criterion_10_kernel_derivatives_match_finite_differences():
    rng = np.random.default_rng(1010)
    h = 1e-5
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        hyper = ArdSeHyper(
            float(rng.uniform(0.2, 3.0)), rng.uniform(0.3, 2.5, size=dim), 0.0
        )
        x = rng.uniform(-2.0, 2.0, size=dim)
        z = rng.uniform(-2.0, 2.0, size=dim)
        i = int(rng.integers(dim))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd_g = (ardse_eval(xp, z, hyper) - ardse_eval(xm, z, hyper)) / (2.0 * h)
        g = ardse_grad_i(x, z, i, hyper)
        g_scale = hyper.signal_variance / hyper.lengthscales[i]
        worst_g = max(worst_g, abs(g - fd_g) / max(abs(g), g_scale))
        fd_h = 0.0
        for sx in (1.0, -1.0):
            for sz in (1.0, -1.0):
                zp = z.copy()
                zp[i] += sz * h
                xs = x.copy()
                xs[i] += sx * h
                fd_h += sx * sz * ardse_eval(xs, zp, hyper)
        fd_h /= 4.0 * h * h
        hh = ardse_hess_ii(x, z, i, hyper)
        h_scale = hyper.signal_variance / hyper.lengthscales[i] ** 2
        worst_h = max(worst_h, abs(hh - fd_h) / max(abs(hh), h_scale))
    _verdict(
        10,
        "analytic kernel derivatives vs finite differences",
        worst_g <= 1e-6 and worst_h <= 1e-5,
        f"grad rel err {worst_g:.3e} (tol 1e-6), "
        f"hess rel err {worst_h:.3e} (tol 1e-5), 100 pairs",
    )


def test_criterion_11_linear_weight_posterior_and_scaling_law():
    rng = np.random.default_rng(1111)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.5, -2.0, 0.5]) + 0.1 * rng.normal(size=40)
    mu0 = np.array([0.0, 0.1, -0.2])
    S0 = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.2]])
    nv = 0.04
    mean, cov = bayes_linear_posterior(X, y, mu0, S0, nv)
    S0_inv = np.linalg.inv(S0)
    cov_ref = np.linalg.inv(S0_inv + X.T @ X / nv)
    mean_ref = cov_ref @ (S0_inv @ mu0 + X.T @ y / nv)
    err = max(
        float(np.max(np.abs(mean - mean_ref))), float(np.max(np.abs(cov - cov_ref)))
    )

    z = np.zeros(3)
    x = np.array([0.7, -1.3, 2.1])
    scaling_exact = True
    for i in range(3):
        one = bayes_linear_attribution(mean, cov, x, z, i)
        two = bayes_linear_attribution(mean, cov, 2.0 * x, z, i)
        scaling_exact = scaling_exact and (
            two.mean == 2.0 * one.mean and two.variance == 4.0 * one.variance
        )
    _verdict(
        11,
        "linear attribution posterior and scaling",
        err <= 1e-10 and scaling_exact,
        f"dense-oracle err {err:.3e} (tol 1e-10), "
        f"mean/var scale exactly with the gap: {scaling_exact}",
    )


def test_criterion_12_irrelevant_feature_gets_long_lengthscale():
    base = simulate(150, 0.4, seed=11)
    rng = np.random.default_rng(7)
    junk = rng.uniform(-2.0, 2.0, size=(base.n, 1))
    data = Dataset(
        np.hstack([base.X, junk]), base.y, (*base.feature_names, "junk")
    )
    # same data-driven starting point the command line uses
    y_var = float(np.var(data.y))
    init = ArdSeHyper(y_var, data.X.std(axis=0), 0.1 * y_var)
    hyper = optimize_hyperparameters(data, init, budget=120)
    relevance = 1.0 / hyper.lengthscales
    ratio = float(min(relevance[0], relevance[1]) / relevance[2])
    _verdict(
        12,
        "appended noise feature is down-weighted",
        ratio >= 10.0,
        f"min real relevance / junk relevance = {ratio:.1f} (need >= 10)",
    )
