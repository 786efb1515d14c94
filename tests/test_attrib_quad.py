"""Quadrature rules, the discretized attribution, and the MC validator."""

import itertools
import math
import tracemalloc
import types
from dataclasses import astuple

import numpy as np
import pytest

import gpattr
from gpattr import (
    ArdSeHyper,
    GprModel,
    QuadratureSpec,
    attribution_report,
    convergence_sweep,
    fit,
    gpr_attribution,
    mc_attribution_oracle,
    nodes_weights,
    predict,
    prior_attribution_variance,
    quad_attribution,
)
from gpattr.attrib_exact import _path_quadrature
from gpattr.attrib_quad import _median
from gpattr.data_io import Dataset, simulate
from oracles import (
    FD_STEP,
    mc_attribution_oracle_dense,
    mc_attribution_oracle_direct,
    path_priors_dense,
    posterior_mean_gradient,
    quad_attribution_per_feature,
)


def test_right_hand_rule_layout():
    t, w = nodes_weights(QuadratureSpec("right_hand", 2))
    assert np.allclose(t, [0.5, 1.0]) and np.allclose(w, [0.5, 0.5])
    t, _ = nodes_weights(QuadratureSpec("right_hand", 4))
    assert t[0] > 0.0  # never evaluates at the baseline endpoint


def test_trapezoid_rule_layout():
    t, w = nodes_weights(QuadratureSpec("trapezoid", 4))
    assert np.allclose(t, np.linspace(0.0, 1.0, 5))
    assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])


def test_simpson_rule_layout():
    t, w = nodes_weights(QuadratureSpec("simpson", 2))
    assert np.allclose(t, np.linspace(0.0, 1.0, 5))
    assert np.allclose(w, np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0)


@pytest.mark.parametrize("rule", ["right_hand", "trapezoid", "simpson"])
@pytest.mark.parametrize("L", [1, 2, 3, 7, 64, 1000])
def test_weights_sum_to_one(rule, L):
    _, w = nodes_weights(QuadratureSpec(rule, L))
    assert abs(w.sum() - 1.0) <= 1e-14


def test_polynomial_exactness():
    # trapezoid is exact on degree 1, Simpson on degree 3
    t, w = nodes_weights(QuadratureSpec("trapezoid", 5))
    assert w @ (2.0 * t + 1.0) == pytest.approx(2.0, rel=1e-15)
    t, w = nodes_weights(QuadratureSpec("simpson", 4))
    assert w @ t**3 == pytest.approx(0.25, abs=1e-15)
    assert w @ t**2 == pytest.approx(1.0 / 3.0, abs=1e-15)
    # and not exact on degree 4 (catches accidentally-higher-order weights)
    assert w @ t**4 != pytest.approx(0.2, abs=1e-12)


def test_function_eval_counts():
    assert nodes_weights(QuadratureSpec("right_hand", 8))[0].size == 8
    assert nodes_weights(QuadratureSpec("trapezoid", 8))[0].size == 9
    assert nodes_weights(QuadratureSpec("simpson", 8))[0].size == 17


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec("midpoint", 4)
    with pytest.raises(ValueError):
        QuadratureSpec("simpson", 0)


def test_mean_gradient_matches_finite_differences(sim_model, rng):
    h = FD_STEP
    for _ in range(20):
        x = rng.uniform(0.0, 10.0, size=2)
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (predict(sim_model, xp)[0] - predict(sim_model, xm)[0]) / (2 * h)
            got = posterior_mean_gradient(sim_model, x, i)
            assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_mean_gradient_vanishes_far_from_data(sim_model):
    assert posterior_mean_gradient(sim_model, [300.0, 300.0], 0) == pytest.approx(0.0, abs=1e-12)


def test_single_panel_right_hand_is_endpoint_gradient(sim_model):
    x = np.array([6.0, 3.0])
    z = np.array([2.0, 5.0])
    mean = quad_attribution(sim_model, x, z, QuadratureSpec("right_hand", 1)).means[0]
    want = (x[0] - z[0]) * posterior_mean_gradient(sim_model, x, 0)
    assert mean == pytest.approx(want, rel=1e-12)


def test_quad_zero_at_baseline(sim_model):
    z = np.array([4.0, 4.0])
    for rule in ("right_hand", "trapezoid", "simpson"):
        rep = quad_attribution(sim_model, z, z, QuadratureSpec(rule, 8))
        assert rep.means[1] == 0.0 and rep.variances[1] == 0.0


def test_fine_simpson_agrees_with_closed_form(sim_model, rng):
    spec = QuadratureSpec("simpson", 2048)
    for _ in range(3):
        x = rng.uniform(0.0, 10.0, size=2)
        z = rng.uniform(0.0, 10.0, size=2)
        approx = quad_attribution(sim_model, x, z, spec)
        for i in range(2):
            exact = gpr_attribution(sim_model, x, z, i)
            assert approx.means[i] == pytest.approx(exact.mean, rel=1e-7, abs=1e-9)
            assert approx.variances[i] == pytest.approx(exact.variance, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("rule", ["right_hand", "trapezoid", "simpson"])
def test_quad_report_shares_the_exact_posterior_step(sim_model, rng, rule):
    # the rule only changes the path integral: the predictions at x and z
    # are the closed form's bit for bit, and the completeness residual is
    # the rule's sum of means against the exact posterior gap mu(x) - mu(z)
    for _ in range(4):
        x = rng.uniform(0.0, 10.0, size=2)
        z = rng.uniform(0.0, 10.0, size=2)
        exact = attribution_report(sim_model, x, z)
        gap = predict(sim_model, x)[0] - predict(sim_model, z)[0]
        for L in (1, 8, 64):
            quad = quad_attribution(sim_model, x, z, QuadratureSpec(rule, L))
            assert quad.prediction_mean == exact.prediction_mean
            assert quad.baseline_prediction_mean == exact.baseline_prediction_mean
            want = abs(sum(quad.means.tolist()) - gap)
            assert quad.completeness_residual == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_quad_variance_nonnegative(sim_model, rng):
    for _ in range(10):
        x = rng.uniform(0.0, 10.0, size=2)
        z = rng.uniform(0.0, 10.0, size=2)
        assert quad_attribution(sim_model, x, z, QuadratureSpec("trapezoid", 16)).variances[0] >= 0.0


def test_sweep_errors_shrink_with_partitions(sim_model, rng):
    queries = rng.uniform(1.0, 9.0, size=(4, 2))
    z = np.array([5.0, 5.0])
    l_values = (8, 32, 128)
    rows = convergence_sweep(sim_model, queries, z, ("right_hand", "simpson"), l_values)
    assert len(rows) == 6
    by_rule = {}
    for row in rows:
        by_rule.setdefault(row.rule, []).append(row)
    for rule, cells in by_rule.items():
        errs = [c.mean_abs_err for c in cells]
        assert errs == sorted(errs, reverse=True), rule
        assert errs[-1] < errs[0] / 10.0


def test_sweep_rows_carry_eval_counts(sim_model):
    rows = convergence_sweep(
        sim_model, np.array([[6.0, 3.0]]), [2.0, 2.0], ("simpson",), (4,)
    )
    assert rows[0].function_evals == 9 and rows[0].partitions == 4



def test_median_is_np_median_bit_for_bit():
    # the sort that quad-sweep and rfgp-compare take their medians by gives
    # np.median's values at odd and even counts, along the last axis
    rng = np.random.default_rng(8)
    for count in range(1, 8):
        values = rng.standard_normal((3, count)) * 10.0 ** rng.integers(-150, 150, size=(3, count))
        assert np.array_equal(_median(values), np.median(values, axis=-1))
        assert _median(values[0].tolist()) == np.median(values[0])


def test_simpson_beats_right_hand_at_equal_partitions(sim_model, rng):
    queries = rng.uniform(1.0, 9.0, size=(4, 2))
    rows = convergence_sweep(
        sim_model, queries, [5.0, 5.0], ("right_hand", "simpson"), (64,)
    )
    err = {r.rule: r.mean_abs_err for r in rows}
    assert err["simpson"] < err["right_hand"]


def test_mc_oracle_exact_zero_at_baseline(sim_model):
    z = np.array([3.0, 7.0])
    res = mc_attribution_oracle(sim_model, z, z, grid_points=33, samples=100)
    for i in range(2):
        assert res.empirical_mean[i] == 0.0 and res.empirical_var[i] == 0.0 and res.std_error[i] == 0.0
    # a feature at its baseline keeps exact zeros while the other moves
    res = mc_attribution_oracle(sim_model, [3.0, 5.0], z, grid_points=33, samples=100)
    assert res.empirical_mean[0] == 0.0 and res.empirical_var[0] == 0.0 and res.std_error[0] == 0.0
    assert res.empirical_var[1] > 0.0


def test_mc_oracle_deterministic_by_seed(sim_model):
    kw = dict(grid_points=65, samples=500, seed=11)
    a = mc_attribution_oracle(sim_model, [7.0, 2.0], [3.0, 4.0], **kw)
    b = mc_attribution_oracle(sim_model, [7.0, 2.0], [3.0, 4.0], **kw)
    assert all(np.array_equal(u, v) for u, v in zip(astuple(a), astuple(b)))
    c = mc_attribution_oracle(sim_model, [7.0, 2.0], [3.0, 4.0], grid_points=65, samples=500, seed=12)
    assert c.empirical_mean[0] != a.empirical_mean[0]


def test_mc_oracle_recovers_closed_form(sim_model):
    x, z = np.array([7.0, 2.0]), np.array([3.0, 4.0])
    res = mc_attribution_oracle(sim_model, x, z, grid_points=129, samples=4000, seed=5)
    assert res.empirical_mean.shape == res.empirical_var.shape == res.std_error.shape == (2,)
    for i in range(2):
        exact = gpr_attribution(sim_model, x, z, i)
        assert abs(res.empirical_mean[i] - exact.mean) <= 5.0 * res.std_error[i] + 1e-12
        assert res.empirical_var[i] == pytest.approx(exact.variance, rel=0.15)


@pytest.mark.parametrize("samples", [2, 777, 1000, 2500])
def test_mc_oracle_matches_direct_law_oracle(sim_model, samples):
    # feature i's normals from stream seed + i, scaled by the standard
    # deviation of the all-feature trapezoid law, give the statistics of the
    # same draws scaled by sqrt(w^T cov w) from that feature's dense field
    # covariance, to round-off
    x, z = np.array([7.0, 2.0]), np.array([3.0, 4.0])
    got = mc_attribution_oracle(sim_model, x, z, grid_points=65, samples=samples, seed=9)
    for i in range(2):
        want = mc_attribution_oracle_direct(sim_model, x, z, i, 65, samples, seed=9 + i)
        assert got.empirical_mean[i] == pytest.approx(want.empirical_mean, rel=1e-12, abs=1e-14)
        assert got.empirical_var[i] == pytest.approx(want.empirical_var, rel=1e-12)
        assert got.std_error[i] == pytest.approx(want.std_error, rel=1e-12)


def test_mc_oracle_moments_match_field_matrix_oracle(sim_model):
    # the draws have the law of the trapezoid integral of sampled gradient
    # fields: at 20000 samples the two estimates of the mean agree within
    # 5 standard errors of their difference, and the variances within 5
    # standard errors of a Gaussian sample variance, sqrt(2 / (samples - 1)).
    # The oracle draws from streams 3 and 4, the field matrices from 5.
    samples = 20_000
    x, z = np.array([7.0, 2.0]), np.array([3.0, 4.0])
    got = mc_attribution_oracle(sim_model, x, z, grid_points=65, samples=samples, seed=3)
    for i in range(2):
        want = mc_attribution_oracle_dense(sim_model, x, z, i, 65, samples, seed=5)
        gap = abs(got.empirical_mean[i] - want.empirical_mean)
        assert gap <= 5.0 * math.hypot(got.std_error[i], want.std_error)
        var_se = math.sqrt(2.0 / (samples - 1)) * math.hypot(got.empirical_var[i], want.empirical_var)
        assert abs(got.empirical_var[i] - want.empirical_var) <= 5.0 * var_se


def test_mc_oracle_memory_is_one_chunk(sim_model):
    # defaults: 10000 samples on 257 grid points; the (samples, grid) draw
    # matrix alone would be 20.6 MB, while the oracle holds one normal per
    # sample next to the quadrature engine's (grid, n) kernel block and no
    # (grid, grid) block, within 3 MB
    tracemalloc.start()
    try:
        mc_attribution_oracle(sim_model, [7.0, 2.0], [3.0, 4.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_mc_oracle_validation(sim_model):
    with pytest.raises(ValueError):
        mc_attribution_oracle(sim_model, [1.0, 1.0], [0.0, 0.0], grid_points=2)
    with pytest.raises(ValueError):
        mc_attribution_oracle(sim_model, [1.0, 1.0], [0.0, 0.0], samples=1)


@pytest.mark.parametrize("rule", ["right_hand", "trapezoid", "simpson"])
@pytest.mark.parametrize("L", [1, 2, 7, 1024])
def test_lag_sum_priors_match_dense_node_block(rule, L):
    # the priors from sums over node lags equal w.K.w and w.(K o (s-t)^2).w
    # of the J x J block to round-off, on generic and degenerate paths, and a
    # feature at its baseline keeps an exact zero
    rng = np.random.default_rng(L)
    t, w = nodes_weights(QuadratureSpec(rule, L))
    for case in ("generic", "degenerate", "feature_at_baseline"):
        for dim in (1, 3, 8):
            hyper = ArdSeHyper(float(rng.uniform(0.3, 2.0)), rng.uniform(0.5, 2.0, size=dim), 0.1)
            z = rng.uniform(-2.0, 2.0, size=dim)
            x = rng.uniform(-2.0, 2.0, size=dim)
            if case == "degenerate":
                x = z + 1e-7 * rng.standard_normal(dim)
            elif case == "feature_at_baseline":
                x[0] = z[0]
            _, got = _path_quadrature(x, z, np.empty((0, dim)), hyper, t, w)
            want = path_priors_dense(x, z, hyper, t, w)
            ls2 = hyper.lengthscales**2
            delta = x - z
            scale = delta**2 * hyper.signal_variance * (1.0 / ls2 + delta**2 / ls2**2)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (case, dim)
            if case == "feature_at_baseline":
                assert got[0] == 0.0


def test_degenerate_path_fallback_matches_dense_node_block():
    # the exact engine's one-node (midpoint) fallback against the dense
    # Simpson-256 node block: at p2 ~ 1e-16 the two agree to round-off
    hyper = ArdSeHyper(0.8, np.array([1.1, 0.7, 1.9]), 0.1)
    z = np.array([0.3, -1.2, 0.8])
    x = z + np.array([1e-8, -2e-8, 5e-9])
    want = path_priors_dense(x, z, hyper, *nodes_weights(QuadratureSpec("simpson", 256)))
    for i in range(3):
        got = prior_attribution_variance(x, z, i, hyper)
        assert got == pytest.approx(want[i], rel=1e-13, abs=0.0)


def test_quad_memory_is_one_node_by_train_block():
    # Simpson-1024 on n=200: J = 2049 nodes; peak O(J n), where one J x J
    # block alone would be 2049^2 * 8 bytes, about 33.6 MB
    model = fit(simulate(200, 0.5, seed=5), ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.1))
    spec = QuadratureSpec("simpson", 1024)
    J, n = nodes_weights(spec)[0].size, 200
    tracemalloc.start()
    try:
        quad_attribution(model, [7.0, 2.0], model.x_train.mean(axis=0), spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * J * n * 8


def test_quad_matches_exact_on_inert_feature(rng):
    # the huge-lengthscale feature contributes nothing through either route
    hyper = ArdSeHyper(1.0, np.array([1.0, 1e6]), 0.1)
    X = rng.uniform(-2.0, 2.0, size=(25, 2))
    y = np.sin(X[:, 0]) + 0.2 * rng.standard_normal(25)
    model = fit(Dataset(X, y, ("a", "inert")), hyper)
    rep = quad_attribution(model, [1.0, 3.0], [0.0, -3.0], QuadratureSpec("simpson", 64))
    assert abs(rep.means[1]) <= 1e-9 and rep.variances[1] <= 1e-9


def _quad_draw(rng, dim: int, case: str, scale: float):
    """A fitted model and a (query, baseline) pair, with targets and kernel
    amplitude multiplied by scale."""
    n = int(rng.integers(10, 40))
    ls = rng.uniform(0.5, 2.0, size=dim)
    sv = scale**2 * float(rng.uniform(0.3, 2.0))
    hyper = ArdSeHyper(sv, ls, sv * float(rng.uniform(0.05, 0.3)))
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    y = scale * (np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n))
    model = fit(Dataset(X, y, tuple(f"f{j}" for j in range(dim))), hyper)
    x = rng.uniform(-2.0, 2.0, size=dim)
    z = rng.uniform(-2.0, 2.0, size=dim)
    if case == "feature_at_baseline":
        j = int(rng.integers(dim))
        x[j] = z[j]
    elif case == "at_baseline":
        x = z.copy()
    return model, x, z


def test_all_features_match_per_feature_oracle():
    rng = np.random.default_rng(20240412)
    cases = ("generic", "feature_at_baseline", "at_baseline")
    rules = ("right_hand", "trapezoid", "simpson")
    grid = itertools.product(rules, (1, 8, 64), (1, 3, 8), cases, (1.0, 1e6))
    for draw, (rule, L, dim, case, scale) in enumerate(grid):
        model, x, z = _quad_draw(rng, dim, case, scale)
        spec = QuadratureSpec(rule, L)
        rep = quad_attribution(model, x, z, spec)
        assert rep.means.shape == rep.variances.shape == (dim,)
        for i, (mean, variance) in enumerate(zip(rep.means, rep.variances)):
            want = quad_attribution_per_feature(model, x, z, i, spec)
            prior = prior_attribution_variance(x, z, i, model.hyper)
            where = f"draw {draw} ({rule}, L={L}, d={dim}, {case}, scale={scale:g}), feature {i}"
            assert abs(mean - want.mean) <= 1e-12 * max(abs(want.mean), math.sqrt(prior)), where
            assert abs(variance - want.variance) <= 1e-12 * max(want.variance, prior), where
            if x[i] == z[i]:
                assert mean == 0.0 and variance == 0.0, where


def test_quad_costs_one_kernel_block_and_one_solve(rng, monkeypatch):
    # every feature shares K(path, train); the priors need no K(path, path)
    # and no per-feature derivative blocks; from there the report costs what
    # the exact engine's does: the (2, n) rows at x and z and one solve with
    # d + 2 right-hand sides
    n, dim, L = 17, 3, 8
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    data = Dataset(X, np.cos(X).sum(axis=1), ("a", "b", "c"))
    model = fit(data, ArdSeHyper(0.8, np.full(dim, 1.1), 0.1))
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, len(args[0]), len(args[1])))
            return fn(*args, **kwargs)

        return wrapper

    real_solve = GprModel.solve

    def solve(self, b):
        calls.append(("solve", *np.shape(b)))
        return real_solve(self, b)

    monkeypatch.setattr(GprModel, "solve", solve)
    swaps = []
    for name in ("kernel_cross", "grad_i_cross", "hess_ii_cross"):
        fn = getattr(gpattr.kernels, name)
        swaps.append((fn, counting(name, fn)))
    for module in [gpattr, *(m for m in vars(gpattr).values() if isinstance(m, types.ModuleType))]:
        for attr, value in list(vars(module).items()):
            for old, new in swaps:
                if value is old:
                    monkeypatch.setattr(module, attr, new)
    for rule, nodes in (("right_hand", L), ("trapezoid", L + 1), ("simpson", 2 * L + 1)):
        calls.clear()
        x = rng.uniform(-2.0, 2.0, size=dim)
        quad_attribution(model, x, X.mean(axis=0), QuadratureSpec(rule, L))
        want = [("kernel_cross", nodes, n), ("kernel_cross", 2, n), ("solve", n, dim + 2)]
        assert sorted(calls) == sorted(want), rule
