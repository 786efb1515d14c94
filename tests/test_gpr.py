"""Regression-layer tests: Cholesky fit, prediction, likelihood, search,
serialization. Dense linear algebra (explicit inverse, slogdet) on the
unpacked kernel matrix serves as the oracle for the packed factored solves.
"""

import hashlib
import io
import json
import multiprocessing
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gpattr import (
    ArdSeHyper,
    GprModel,
    NumericalError,
    fit,
    kernel_matrix,
    load_model,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict,
    save_model,
)
from gpattr.data_io import Dataset, simulate
from gpattr import gpr, specfun
from gpattr.gpr import _read_model, jittered_cholesky
from gpattr.kernels import grad_i_cross, hess_ii_cross
from oracles import jittered_cholesky_copying, packed_builder, unpack_factor, unpack_symmetric

HYP = ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.1)


def _dataset(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    y = np.sin(X[:, 0]) + 0.5 * rng.standard_normal(n)
    return Dataset(X, y, tuple(f"f{j}" for j in range(dim)))


def test_two_point_weights_by_hand():
    # the rows are far enough apart that their kernel value is an exact zero,
    # so K + noise I = 2 I; the targets have mean zero, so the weights are y / 2
    data = Dataset(np.array([[0.0, 0.0], [100.0, 100.0]]), np.array([2.0, -2.0]), ("a", "b"))
    hyper = ArdSeHyper(1.0, np.array([1.0, 1.0]), 1.0)
    model = fit(data, hyper)
    assert model.y_mean_offset == 0.0
    assert model.alpha == pytest.approx([1.0, -1.0], rel=1e-15)
    mean, var = predict(model, [0.0, 0.0])
    assert mean == pytest.approx(1.0, rel=1e-15)
    assert var == pytest.approx(1.0 - 0.5, rel=1e-14)


def test_weights_match_dense_solve():
    data = _dataset(40, seed=2)
    model = fit(data, HYP)
    K = unpack_symmetric(kernel_matrix(data.X, HYP)) + HYP.noise_variance * np.eye(data.n)
    want = np.linalg.solve(K, data.y - data.y.mean())
    assert np.abs(model.alpha - want).max() <= 1e-8


def test_solve_is_half_of_the_dense_quadratic_form(rng):
    # solve(b)^T solve(c) = b^T (K + noise I)^{-1} c, and solve inverts the
    # lower factor: chol @ solve(b) = b
    data = _dataset(40, seed=2)
    model = fit(data, HYP)
    K = unpack_symmetric(kernel_matrix(data.X, HYP)) + HYP.noise_variance * np.eye(data.n)
    B = rng.standard_normal((data.n, 3))
    C = rng.standard_normal((data.n, 4))
    got = model.solve(B).T @ model.solve(C)
    want = B.T @ np.linalg.solve(K, C)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    v = model.solve(B[:, 0])
    assert v.shape == (data.n,)
    assert np.abs(unpack_factor(model.chol) @ v - B[:, 0]).max() <= 1e-14 * np.abs(B[:, 0]).max()
    with pytest.raises(NumericalError, match="not finite"):
        model.solve(np.full(data.n, np.nan))


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    model = fit(_dataset(10, seed=2), HYP)
    with pytest.raises(ValueError, match=r"shape \(9,\) for a model fit on 10 points"):
        model.solve(np.ones(9))


def test_prediction_matches_dense_formulas(rng):
    data = _dataset(35, seed=3)
    model = fit(data, HYP)
    K = unpack_symmetric(kernel_matrix(data.X, HYP)) + HYP.noise_variance * np.eye(data.n)
    Kinv = np.linalg.inv(K)
    for _ in range(10):
        xs = rng.uniform(-2.0, 2.0, size=2)
        ks = np.array([float(v) for v in
                       (np.exp(-0.5 * (((data.X - xs) / HYP.lengthscales) ** 2).sum(axis=1))
                        * HYP.signal_variance)])
        want_mean = data.y.mean() + ks @ Kinv @ (data.y - data.y.mean())
        want_var = HYP.signal_variance - ks @ Kinv @ ks
        mean, var = predict(model, xs)
        assert mean == pytest.approx(want_mean, abs=1e-10)
        assert var == pytest.approx(want_var, abs=1e-10)


def test_prediction_invariant_to_training_order(rng):
    data = _dataset(30, seed=4)
    perm = rng.permutation(data.n)
    shuffled = Dataset(data.X[perm], data.y[perm], data.feature_names)
    m1, m2 = fit(data, HYP), fit(shuffled, HYP)
    for _ in range(5):
        xs = rng.uniform(-2.0, 2.0, size=2)
        assert predict(m1, xs) == pytest.approx(predict(m2, xs), abs=1e-9)


def test_near_interpolation_at_tiny_noise():
    data = _dataset(25, seed=5)
    model = fit(data, ArdSeHyper(1.0, np.array([1.0, 1.0]), 1e-12))
    for j in range(data.n):
        mean, var = predict(model, data.X[j])
        assert abs(mean - data.y[j]) <= 1e-4
        assert 0.0 <= var <= 1e-4


def test_far_from_data_recovers_prior():
    data = _dataset(20, seed=6)
    model = fit(data, HYP)
    mean, var = predict(model, [500.0, -500.0])
    assert mean == pytest.approx(data.y.mean(), abs=1e-12)
    assert var == pytest.approx(HYP.signal_variance, abs=1e-12)


def test_posterior_variance_never_exceeds_prior(rng):
    data = _dataset(30, seed=7)
    model = fit(data, HYP)
    for _ in range(50):
        _, var = predict(model, rng.uniform(-3.0, 3.0, size=2))
        assert 0.0 <= var <= HYP.signal_variance + 1e-12


def test_loglik_single_zero_target_by_hand():
    # y = 0 and K + noise I = [[1.0]] leaves only the normalizing constant
    data = Dataset(np.array([[0.0]]), np.array([0.0]), ("a",))
    model = fit(data, ArdSeHyper(0.5, np.array([1.0]), 0.5))
    want = -0.5 * np.log(2.0 * np.pi)
    assert log_marginal_likelihood(model) == pytest.approx(want, rel=1e-14)


def test_loglik_matches_dense_evaluation():
    data = _dataset(30, seed=8)
    model = fit(data, HYP)
    K = unpack_symmetric(kernel_matrix(data.X, HYP)) + HYP.noise_variance * np.eye(data.n)
    yc = data.y - data.y.mean()
    _, logdet = np.linalg.slogdet(K)
    want = -0.5 * yc @ np.linalg.solve(K, yc) - 0.5 * logdet - 0.5 * data.n * np.log(2 * np.pi)
    assert log_marginal_likelihood(model) == pytest.approx(want, rel=1e-10)


def test_centering_offset():
    data = _dataset(15, seed=10)
    assert fit(data, HYP).y_mean_offset == pytest.approx(data.y.mean())


def test_search_with_unit_budget_returns_init():
    data = _dataset(20, seed=11)
    init = ArdSeHyper(0.7, np.array([1.0, 1.5]), 0.2)
    out = optimize_hyperparameters(data, init, 1)
    assert out.signal_variance == init.signal_variance
    assert out.noise_variance == init.noise_variance
    assert np.array_equal(out.lengthscales, init.lengthscales)


def test_search_objective_monotone_in_budget():
    data = simulate(60, 0.3, seed=4)
    init = ArdSeHyper(max(np.var(data.y), 1e-8), data.X.std(axis=0), 0.1 * np.var(data.y))
    scores = []
    for budget in (1, 8, 25, 60, 120):
        best = optimize_hyperparameters(data, init, budget)
        scores.append(log_marginal_likelihood(fit(data, best)))
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 1e-12
    assert scores[-1] > scores[0]  # the search actually moved


def test_search_never_worse_than_init():
    data = _dataset(25, seed=12)
    init = ArdSeHyper(0.4, np.array([0.9, 1.1]), 0.3)
    base = log_marginal_likelihood(fit(data, init))
    best = optimize_hyperparameters(data, init, 30)
    assert log_marginal_likelihood(fit(data, best)) >= base - 1e-12


def test_search_rejects_bad_budget():
    data = _dataset(10, seed=13)
    with pytest.raises(ValueError):
        optimize_hyperparameters(data, HYP, 0)


def test_search_discounts_pure_noise_feature():
    rng = np.random.default_rng(7)
    base = simulate(150, 0.4, seed=11)
    aug = Dataset(
        np.column_stack([base.X, rng.uniform(0.0, 10.0, base.n)]),
        base.y,
        ("a", "b", "junk"),
    )
    init = ArdSeHyper(max(np.var(aug.y), 1e-8), aug.X.std(axis=0), 0.1 * np.var(aug.y))
    best = optimize_hyperparameters(aug, init, 60)
    relevance = 1.0 / best.lengthscales
    assert relevance[2] < 0.5 * relevance[:2].min()


def _log_theta(hyper: ArdSeHyper) -> np.ndarray:
    """The search's coordinates of hyper: log signal variance, log noise variance, log lengthscales."""
    return np.log([hyper.signal_variance, hyper.noise_variance, *hyper.lengthscales])


def test_search_drops_a_start_whose_first_score_is_not_finite(monkeypatch):
    # start 1 (every lengthscale / 4) fails at its first point: it ends
    # there, spending one evaluation of its share, and the search returns
    # the best of the other starts
    data = _dataset(25, seed=12)
    init = ArdSeHyper(0.4, np.array([0.9, 1.1]), 0.3)
    starts = [_log_theta(init) + [0.0, 0.0, s, s] for s in np.log([1.0, 0.25, 0.0625, 4.0])]
    real_fit, calls = gpr.fit, []

    def failing_at_start_1(data, hyper):
        calls.append(hyper)
        if np.array_equal(hyper.lengthscales, np.exp(starts[1][2:])):
            raise NumericalError("matrix to factor has non-finite entries")
        return real_fit(data, hyper)

    monkeypatch.setattr(gpr, "fit", failing_at_start_1)
    theta, lml = gpr._descend(data, starts[1], 10)
    assert lml == -np.inf and np.array_equal(theta, starts[1]) and len(calls) == 1
    best_theta, best_lml = max((gpr._descend(data, starts[k], 10) for k in (0, 2, 3)), key=lambda result: result[1])
    assert np.isfinite(best_lml)
    calls.clear()
    found = optimize_hyperparameters(data, init, 40)
    assert len(calls) == 31  # 10 for each of the three other starts
    best = gpr._hyper_from_log(best_theta)
    assert (found.signal_variance, found.noise_variance) == (best.signal_variance, best.noise_variance)
    assert np.array_equal(found.lengthscales, best.lengthscales)


def test_search_skips_a_candidate_clipped_onto_its_own_point(monkeypatch):
    # a lengthscale of exactly 1e8 sits at the search's bound: the step up
    # clips back onto the current point, which the descent skips without
    # fitting it again, so no candidate repeats the best point before it
    # and the search still spends its whole budget
    data = _dataset(25, seed=12)
    init = ArdSeHyper(0.4, np.array([1e8, 1.1]), 0.3)
    real_score, scores = gpr._score, []

    def recorded_score(data, theta):
        scores.append((theta, real_score(data, theta)))
        return scores[-1][1]

    monkeypatch.setattr(gpr, "_score", recorded_score)
    theta0 = _log_theta(init)
    assert theta0[2] == gpr._LOG_BOUND
    gpr._descend(data, theta0, 12, True)
    assert len(scores) == 12
    (current, best), at_bound = scores[0], 0
    for theta, score in scores[1:]:
        assert not np.array_equal(theta, current)
        at_bound += current[2] == gpr._LOG_BOUND and theta[2] < current[2]
        if score > best:
            current, best = theta, score
    assert at_bound  # the step down from the bound was tried, so the step up was skipped
    scores.clear()
    optimize_hyperparameters(data, init, 40)
    assert len(scores) == 40


def _large_search_case(monkeypatch):
    """Data with just enough rows for the search to fork its starts. The
    threshold comes down to 80 rows: this process's BLAS may run on every
    CPU, and at 400 rows two such pools made one of these tests take 12 s
    on two CPUs, against 0.3 s at 80 rows."""
    monkeypatch.setattr(gpr, "_FORK_ROWS", 80)
    data = _dataset(80, seed=21, dim=3)
    return data, ArdSeHyper(max(np.var(data.y), 1e-8), data.X.std(axis=0), 0.1 * np.var(data.y))


@pytest.mark.parametrize("budget", [1, 7, 60, 61])
def test_forked_search_matches_one_process(monkeypatch, budget):
    data, init = _large_search_case(monkeypatch)
    real_fit, calls = gpr.fit, []

    def counted_fit(*args):
        calls.append(args)
        return real_fit(*args)

    monkeypatch.setattr(gpr, "fit", counted_fit)
    found = {}
    for cpus in (2, 1):
        monkeypatch.setattr(gpr, "_usable_cpus", lambda cpus=cpus: cpus)
        calls.clear()
        found[cpus] = optimize_hyperparameters(data, init, budget)
        assert multiprocessing.active_children() == []
        # fits in forked processes are not counted here
        assert len(calls) == (budget if cpus == 1 or budget == 1 else (budget + 1) // 2)
    one, forked = found[1], found[2]
    assert forked.signal_variance == one.signal_variance
    assert forked.noise_variance == one.noise_variance
    assert np.array_equal(forked.lengthscales, one.lengthscales)


@pytest.mark.parametrize("failure, error, message", [
    (ValueError("no fit in a child"), ValueError, "no fit in a child"),
    (None, RuntimeError, "exited with code 3"),
])
def test_forked_search_reraises_child_failures_and_reaps(monkeypatch, failure, error, message):
    data, init = _large_search_case(monkeypatch)
    real_fit, caller = gpr.fit, os.getpid()

    def fit_in_caller_only(*args):
        if os.getpid() != caller:  # starts 1 and 3, forked
            if failure is None:
                os._exit(3)
            raise failure
        return real_fit(*args)

    monkeypatch.setattr(gpr, "fit", fit_in_caller_only)
    monkeypatch.setattr(gpr, "_usable_cpus", lambda: 2)
    with pytest.raises(error, match=message):
        optimize_hyperparameters(data, init, 60)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("openblas, omp, per_cpu", [
    (None, None, None),  # BLAS runs on every CPU: no room for a second process
    ("1", "4", 1),
    (None, "1", 1),
    ("2", None, 2),
    ("0", None, None),  # OpenBLAS reads 0 as unset
    ("two", None, None),
])
def test_usable_cpus_leave_each_blas_thread_a_cpu(monkeypatch, openblas, omp, per_cpu):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    expected = 1 if per_cpu is None else max(1, len(os.sched_getaffinity(0)) // per_cpu)
    assert gpr._usable_cpus() == expected


def test_search_raises_on_non_finite_initial_likelihood_before_forking(monkeypatch):
    # the init is start 0's first evaluation, made in the caller after the
    # fork: its failure raises before the caller fits again, and the forked
    # start is reaped
    data, init = _large_search_case(monkeypatch)
    calls = []

    def no_fit(*args):
        calls.append(args)
        raise NumericalError("matrix to factor has non-finite entries")

    monkeypatch.setattr(gpr, "fit", no_fit)
    monkeypatch.setattr(gpr, "_usable_cpus", lambda: 2)
    with pytest.raises(NumericalError, match="not finite at the initial hyperparameters"):
        optimize_hyperparameters(data, init, 60)
    assert len(calls) == 1  # fits in the forked process are not counted here
    assert multiprocessing.active_children() == []


def test_search_caller_factors_nothing_before_it_forks(monkeypatch):
    # a factorization before the fork would leave OpenBLAS's buffer pages
    # resident in the caller while its next one touches fresh pages
    data, init = _large_search_case(monkeypatch)
    caller, events = os.getpid(), []
    real_fork, real_dpftrf = os.fork, specfun.dpftrf

    def logged_fork():
        events.append("fork")
        return real_fork()

    def logged_dpftrf(*args, **kwargs):
        if os.getpid() == caller:
            events.append("dpftrf")
        return real_dpftrf(*args, **kwargs)

    monkeypatch.setattr(os, "fork", logged_fork)
    monkeypatch.setattr(specfun, "dpftrf", logged_dpftrf)
    monkeypatch.setattr(gpr, "_usable_cpus", lambda: 2)
    optimize_hyperparameters(data, init, 60)
    assert multiprocessing.active_children() == []
    assert events[0] == "fork" and events.count("fork") == 1
    assert events.count("dpftrf") >= 30  # start 0's and start 2's evaluations


def test_jittered_cholesky_clean_matrix_gets_no_jitter():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    L, jitter = jittered_cholesky(packed_builder(A))
    L = unpack_factor(L)
    assert jitter == 0.0
    assert np.abs(L @ L.T - A).max() <= 1e-14


def test_jittered_cholesky_escalates_then_reports():
    L, jitter = jittered_cholesky(packed_builder(np.ones((2, 2))))  # singular PSD
    L = unpack_factor(L)
    A = np.ones((2, 2)) + jitter * np.eye(2)
    assert jitter > 0.0
    assert np.abs(L @ L.T - A).max() <= 1e-12
    with pytest.raises(NumericalError):
        jittered_cholesky(packed_builder(-np.eye(3)))


def _noisy_kernel_matrix() -> np.ndarray:
    K = unpack_symmetric(kernel_matrix(_dataset(50, seed=20).X, HYP))
    K[np.diag_indices_from(K)] += HYP.noise_variance
    return K


def _path_gradient_covariance() -> np.ndarray:
    # the posterior covariance of the gradient field on a 257-node path, as
    # the field-matrix Monte Carlo oracle in tests/oracles.py forms it; its
    # factor needs a jitter retry
    model = fit(_dataset(40, seed=21), HYP)
    x, z = np.array([1.5, -1.0]), np.array([-1.0, 0.5])
    path = z + np.linspace(0.0, 1.0, 257)[:, None] * (x - z)
    W = model.solve(grad_i_cross(path, model.x_train, 0, HYP).T)
    cov = hess_ii_cross(path, path, 0, HYP) - W.T @ W
    return 0.5 * (cov + cov.T)


FACTOR_CASES = {
    "kernel-matrix": _noisy_kernel_matrix,
    "singular-ones": lambda: np.ones((2, 2)),
    "path-gradient-covariance": _path_gradient_covariance,
}


@pytest.mark.parametrize("case", FACTOR_CASES)
def test_jittered_cholesky_matches_the_copying_oracle_in_place(case):
    mat = FACTOR_CASES[case]()
    want, want_jitter = jittered_cholesky_copying(mat)  # leaves mat as it was
    built = []

    def build(jitter):
        built.append(packed_builder(mat)(jitter))
        return built[-1]

    got, jitter = jittered_cholesky(build)
    assert np.shares_memory(got, built[-1])  # factored where it was built
    assert jitter == want_jitter
    assert (jitter > 0.0) == (case != "kernel-matrix")
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", FACTOR_CASES)
def test_packed_factor_needs_the_dense_jitter(case):
    # dpftrf on the RFP layout retries exactly when dpotrf on the dense
    # matrix does. The path covariance is near singular, so the two factors
    # differ far above round-off; each reproduces mat + jitter * I to it.
    mat = FACTOR_CASES[case]()
    _, want_jitter = jittered_cholesky_copying(mat, dense=True)
    got, jitter = jittered_cholesky(packed_builder(mat))
    assert jitter == want_jitter
    L = unpack_factor(got)
    A = mat + jitter * np.eye(len(mat))
    assert np.max(np.abs(L @ L.T - A)) <= 1e-14 * np.max(np.abs(A))


def test_fit_that_needs_jitter_reports_the_dense_jitter():
    data = _duplicated_rows()
    hyper = ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.0)
    K = unpack_symmetric(kernel_matrix(data.X, hyper))
    _, want = jittered_cholesky_copying(K, dense=True)
    assert want > 0.0
    assert fit(data, hyper).jitter == want


@pytest.mark.parametrize("n", [99, 100])
def test_packed_factor_and_solve_match_dense_scipy(n, rng):
    data = _dataset(n, seed=25)
    model = fit(data, HYP)
    K = unpack_symmetric(kernel_matrix(data.X, HYP)) + HYP.noise_variance * np.eye(n)
    dense = scipy.linalg.cholesky(K, lower=True)
    assert np.max(np.abs(unpack_factor(model.chol) - dense)) <= 1e-13 * np.max(np.abs(dense))
    B = rng.standard_normal((n, 5))
    want = scipy.linalg.solve_triangular(dense, B, lower=True)
    assert np.max(np.abs(model.solve(B) - want)) <= 1e-13 * np.max(np.abs(want))


def test_jittered_cholesky_rejects_non_finite_entries():
    for bad in (np.inf, np.nan):
        with pytest.raises(NumericalError, match="non-finite"):
            jittered_cholesky(packed_builder(np.array([[1.0, 0.0], [0.0, bad]])))


def test_fit_rejects_weights_that_overflow():
    # K is the rank-one 1e-300 * ones: the jittered factor is ~1e-155 in
    # its last column, and the weights overflow to inf
    hyper = ArdSeHyper(1e-300, np.array([1e300, 1e300]), 0.0)
    with pytest.raises(NumericalError, match="weights"):
        fit(simulate(20, 0.5, seed=1), hyper)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _load_refactored(path: Path) -> GprModel:
    """load_model on a copy of the model file without its factor sidecar,
    so the model's factor is made again."""
    bare = path.with_name("refactored.json")
    shutil.copyfile(path, bare)
    return load_model(str(bare))


def test_fit_and_load_model_hold_half_an_n_by_n_array(tmp_path):
    # K + noise*I is assembled in RFP layout, n(n+1)/2 values, and factored
    # in place there, so the peak stays near half an n x n float64 array
    # (one dense n x n array would already exceed the limit); a load reads
    # the factor from the sidecar, or without one refactors as fit does
    n = 1500
    data = _dataset(n, seed=22)
    path = tmp_path / "model.json"
    save_model(fit(data, HYP), str(path))
    limit = 0.7 * 8 * n * n
    assert _traced_peak(lambda: fit(data, HYP)) < limit
    assert _traced_peak(lambda: load_model(str(path))) < limit
    assert _traced_peak(lambda: _load_refactored(path)) < limit


def test_model_round_trip(tmp_path, rng):
    data = _dataset(20, seed=14)
    model = fit(data, HYP)
    path = tmp_path / "model.json"
    save_model(model, str(path), metadata={"feature_names": list(data.feature_names)})
    loaded = load_model(str(path))
    for _ in range(5):
        xs = rng.uniform(-2.0, 2.0, size=2)
        assert predict(loaded, xs) == pytest.approx(predict(model, xs), abs=1e-12)
    payload = _read_model(str(path))[1]
    assert payload["feature_names"] == ["f0", "f1"]
    assert payload["version"] == 2
    # the file stores what fixes the posterior; the weights and the offset
    # are derived again at load, to the bit
    assert not {"alpha", "y_mean_offset"} & set(payload)
    assert np.array_equal(loaded.y_train, data.y)
    assert np.array_equal(loaded.alpha, model.alpha)
    assert loaded.y_mean_offset == model.y_mean_offset


def test_model_metadata_key_collision(tmp_path):
    data = _dataset(5, seed=15)
    model = fit(data, HYP)
    with pytest.raises(ValueError):
        save_model(model, str(tmp_path / "m.json"), metadata={"y_train": [1.0]})


def test_model_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_model(str(path))
    good = json.loads(json.dumps({"format": "gpattr-model", "version": 99}))
    path.write_text(json.dumps(good))
    with pytest.raises(ValueError):
        load_model(str(path))


def test_fit_dimension_mismatch():
    data = _dataset(10, seed=16, dim=3)
    with pytest.raises(ValueError):
        fit(data, HYP)


def _rebuilt(model, **fields):
    parts = dict(hyper=model.hyper, x_train=model.x_train, y_train=model.y_train, chol=model.chol)
    parts.update(fields)
    return GprModel(**parts)


def test_model_rejects_non_finite_factor():
    model = fit(_dataset(12, seed=21), HYP)
    chol = np.array(model.chol)
    chol[17] = np.nan
    with pytest.raises(ValueError, match="chol"):
        _rebuilt(model, chol=chol)
    x_train = np.array(model.x_train)
    x_train[0, 1] = np.inf
    with pytest.raises(ValueError, match="x_train"):
        _rebuilt(model, x_train=x_train)
    with pytest.raises(ValueError, match="y_train"):
        _rebuilt(model, y_train=np.full(model.n_train, np.nan))


def test_model_derives_the_weights_and_rejects_overflowing_ones():
    model = fit(_dataset(12, seed=21), HYP)
    assert np.array_equal(_rebuilt(model).alpha, model.alpha)
    # finite targets whose mean overflows, and targets whose weights do
    with pytest.raises(NumericalError, match="weights"):
        _rebuilt(model, y_train=np.full(model.n_train, 1e308))
    with pytest.raises(NumericalError, match="weights"):
        _rebuilt(model, y_train=np.resize([1e308, -1e308], model.n_train))


def test_model_rejects_inconsistent_shapes():
    model = fit(_dataset(12, seed=22), HYP)
    with pytest.raises(ValueError, match="y_train"):
        _rebuilt(model, y_train=model.y_train[:-1])
    with pytest.raises(ValueError, match="chol"):
        _rebuilt(model, chol=model.chol[:-1])
    with pytest.raises(ValueError, match="x_train"):
        _rebuilt(model, x_train=np.hstack((model.x_train, model.x_train)))


def test_model_arrays_are_read_only():
    model = fit(_dataset(12, seed=23), HYP)
    with pytest.raises(ValueError):
        model.chol[0] = 1.0
    with pytest.raises(ValueError):
        model.alpha[0] = 1.0
    with pytest.raises(ValueError):
        model.y_train[0] = 1.0
    with pytest.raises(ValueError):
        model.x_train[0, 0] = 1.0


def test_load_model_rejects_truncated_y_train(tmp_path):
    model = fit(_dataset(12, seed=24), HYP)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    payload = json.loads(path.read_text())
    payload["y_train"] = payload["y_train"][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="y_train"):
        load_model(str(path))


def _duplicated_rows() -> Dataset:
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 2.0, size=(10, 2))
    X = np.vstack([X, X[:4]])
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(len(X))
    return Dataset(X, y, ("f0", "f1"))


def _jittered_model_file(tmp_path):
    """A fit that needs jitter (duplicate rows, zero noise), saved."""
    model = fit(_duplicated_rows(), ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.0))
    assert model.jitter > 0.0
    path = tmp_path / "model.json"
    save_model(model, str(path))
    return model, path


def test_load_model_factors_with_the_stored_jitter(tmp_path):
    model, path = _jittered_model_file(tmp_path)
    loaded = load_model(str(path))
    assert loaded.jitter == model.jitter
    assert np.max(np.abs(loaded.chol - model.chol)) <= 1e-14 * np.max(np.abs(model.chol))
    # no retry ladder: a stored jitter too small for the matrix is an error
    payload = json.loads(path.read_text())
    payload["jitter"] = 0.0
    path.write_text(json.dumps(payload))
    with pytest.raises(NumericalError, match="jitter") as info:
        load_model(str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("bad", ["missing", -1e-10, float("nan"), float("inf"), "1e-10", None])
def test_load_model_rejects_corrupted_jitter(tmp_path, bad):
    _, path = _jittered_model_file(tmp_path)
    payload = json.loads(path.read_text())
    if bad == "missing":
        del payload["jitter"]
    else:
        payload["jitter"] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="jitter"):
        load_model(str(path))


def _saved_model(tmp_path, seed=30, n=25):
    model = fit(_dataset(n, seed=seed), HYP)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    return model, path


def _count_factorizations(monkeypatch) -> list:
    calls = []

    def counting(mat):
        calls.append(mat.size)
        return cholesky(mat)

    cholesky = gpr.cholesky
    monkeypatch.setattr(gpr, "cholesky", counting)
    return calls


def test_load_model_reads_the_factor_sidecar(tmp_path, monkeypatch):
    model, path = _saved_model(tmp_path)
    refactored = _load_refactored(path)

    def fail(mat):
        raise AssertionError("load_model refactored despite a matching sidecar")

    monkeypatch.setattr(gpr, "cholesky", fail)
    loaded = load_model(str(path))
    assert np.array_equal(loaded.chol, refactored.chol) and np.array_equal(loaded.chol, model.chol)
    assert np.array_equal(loaded.alpha, refactored.alpha)
    assert loaded.y_mean_offset == refactored.y_mean_offset
    assert not loaded.chol.flags.writeable
    # the targets are not in the key: an edited y_train keeps the factor and
    # changes the weights
    payload = json.loads(path.read_text())
    payload["y_train"] = [2.0 * v for v in payload["y_train"]]
    path.write_text(json.dumps(payload))
    edited = load_model(str(path))
    assert np.array_equal(edited.chol, model.chol)
    assert np.array_equal(edited.alpha, 2.0 * model.alpha)


def _edit_x_train(payload):
    payload["x_train"][3][1] += 0.25


def _edit_lengthscale(payload):
    payload["hyper"]["lengthscales"][0] *= 1.5


def _edit_jitter(payload):
    payload["jitter"] = 1e-6


@pytest.mark.parametrize("edit", [_edit_x_train, _edit_lengthscale, _edit_jitter])
def test_load_model_refactors_when_a_keyed_field_changes(tmp_path, monkeypatch, edit):
    model, path = _saved_model(tmp_path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    # a fresh fit of the edited values; an edited jitter is added as fit's retries add theirs
    hyper = ArdSeHyper(payload["hyper"]["signal_variance"], np.array(payload["hyper"]["lengthscales"]),
                       payload["hyper"]["noise_variance"])
    X, y, jitter = np.array(payload["x_train"]), np.array(payload["y_train"]), payload["jitter"]
    fresh = fit(Dataset(X, y, ("f0", "f1")), hyper) if jitter == 0.0 else GprModel(
        hyper, X, y, gpr.cholesky(gpr._noisy_kernel_matrix(X, hyper, jitter)), jitter)
    calls = _count_factorizations(monkeypatch)
    loaded = load_model(str(path))
    assert len(calls) == 1
    assert not np.array_equal(loaded.chol, model.chol)
    assert np.array_equal(loaded.chol, fresh.chol)
    assert np.array_equal(loaded.alpha, fresh.alpha)


def _sidecar_bytes(model: GprModel, factor) -> bytes:
    """A sidecar with model's key in front of factor."""
    buf = io.BytesIO()
    np.save(buf, gpr._factor_key(model.hyper, model.x_train, model.jitter))
    np.save(buf, factor)
    return buf.getvalue()


def _npy_header_bytes(shape, descr) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue()


def _key_bytes(model: GprModel) -> int:
    """The length of the key array that starts model's sidecar."""
    size = gpr._factor_key(model.hyper, model.x_train, model.jitter).size
    return len(_npy_header_bytes((size,), "|u1")) + size


def _parent_format_sidecar(model: GprModel) -> bytes:
    """model's sidecar as gpattr wrote it when its key was the sha256, 32
    uint8 values, of the bytes that are the key now."""
    buf = io.BytesIO()
    key = gpr._factor_key(model.hyper, model.x_train, model.jitter)
    np.save(buf, np.frombuffer(hashlib.sha256(key.tobytes()).digest(), dtype=np.uint8))
    np.save(buf, model.chol)
    return buf.getvalue()


def _other_models_sidecar(tmp_path) -> bytes:
    """The sidecar of a model with the same n and d fit on other inputs."""
    (tmp_path / "other").mkdir()
    _saved_model(tmp_path / "other", seed=31)
    return (tmp_path / "other" / "model.json.factor.npy").read_bytes()


def _nan_at(factor, k):
    bad = factor.copy()
    bad[k] = np.nan
    return bad


# each case maps (model, sidecar bytes, tmp_path) to the bytes written in their place
BAD_SIDECARS = {
    "truncated": lambda model, blob, tmp_path: blob[: len(blob) // 2],
    "truncated-key": lambda model, blob, tmp_path: blob[:100],
    "empty": lambda model, blob, tmp_path: b"",
    "float32": lambda model, blob, tmp_path: _sidecar_bytes(model, model.chol.astype(np.float32)),
    "big-endian": lambda model, blob, tmp_path: _sidecar_bytes(model, model.chol.astype(">f8")),
    "wrong-length": lambda model, blob, tmp_path: _sidecar_bytes(model, model.chol[:-1]),
    "nan-entry": lambda model, blob, tmp_path: _sidecar_bytes(model, _nan_at(model.chol, 7)),
    "pickled": lambda model, blob, tmp_path: _sidecar_bytes(model, np.array([None, 1.0], dtype=object)),
    "another-model": lambda model, blob, tmp_path: _other_models_sidecar(tmp_path),
    "garbage": lambda model, blob, tmp_path: np.random.default_rng(5).bytes(len(blob)),
    "zip-magic": lambda model, blob, tmp_path: b"PK\x03\x04" + blob[4:],
    "huge-key-header": lambda model, blob, tmp_path: _npy_header_bytes((10**13,), "|u1") + blob,
    "huge-factor-header": lambda model, blob, tmp_path: blob[:_key_bytes(model)] + _npy_header_bytes((10**13,), "<f8"),
    "sha256-key": lambda model, blob, tmp_path: _parent_format_sidecar(model),
    # the key's header as np.save writes it, but marked .npy version 1.1, which no numpy reads
    "npy-version-1.1": lambda model, blob, tmp_path: blob[:7] + b"\x01" + blob[8:],
    "missing": None,
}


@pytest.mark.parametrize("case", BAD_SIDECARS)
def test_load_model_ignores_a_sidecar_that_does_not_match(tmp_path, monkeypatch, case):
    model, path = _saved_model(tmp_path)
    sidecar = tmp_path / "model.json.factor.npy"
    if BAD_SIDECARS[case] is None:
        sidecar.unlink()
    else:
        sidecar.write_bytes(BAD_SIDECARS[case](model, sidecar.read_bytes(), tmp_path))
    refactored = _load_refactored(path)
    calls = _count_factorizations(monkeypatch)
    loaded = load_model(str(path))
    assert len(calls) == 1
    assert np.array_equal(loaded.chol, refactored.chol) and np.array_equal(loaded.chol, model.chol)
    assert np.array_equal(loaded.alpha, refactored.alpha)


def test_load_model_ignores_an_unreadable_sidecar(tmp_path, monkeypatch):
    model, path = _saved_model(tmp_path)
    sidecar = tmp_path / "model.json.factor.npy"
    sidecar.unlink()
    sidecar.mkdir()  # opening a directory raises an OSError
    calls = _count_factorizations(monkeypatch)
    assert np.array_equal(load_model(str(path)).chol, model.chol)
    assert len(calls) == 1


def test_save_model_rewrites_identical_sidecar_bytes(tmp_path):
    model, path = _saved_model(tmp_path)
    n = model.n_train
    first = (tmp_path / "model.json.factor.npy").read_bytes()
    save_model(model, str(path))
    save_model(model, str(tmp_path / "again.json"))
    save_model(load_model(str(path)), str(tmp_path / "loaded.json"))
    for name in ("model.json", "again.json", "loaded.json"):
        assert (tmp_path / f"{name}.factor.npy").read_bytes() == first
        assert (tmp_path / name).read_bytes() == path.read_bytes()
    # the key, then the factor's n(n+1)/2 float64 values
    with open(tmp_path / "model.json.factor.npy", "rb") as fh:
        key, factor = np.load(fh), np.load(fh)
        assert fh.read() == b""
    # the key is the verbatim little-endian bytes of what fixes the factor
    hyper = model.hyper
    inputs = (gpr.FACTOR_TAG, np.array([n, hyper.dim], dtype="<i8").tobytes(),
              np.array([hyper.signal_variance, hyper.noise_variance, *hyper.lengthscales, model.jitter],
                       dtype="<f8").tobytes(), model.x_train.astype("<f8").tobytes())
    assert key.dtype == np.uint8 and key.shape == (len(b"".join(inputs)),)
    assert key.tobytes() == b"".join(inputs)
    assert factor.dtype == np.float64 and factor.shape == (n * (n + 1) // 2,)
    assert np.array_equal(factor, model.chol)
