"""Regression-layer tests: Cholesky fit, prediction, likelihood, search,
serialization. Dense linear algebra (explicit inverse, slogdet) serves as
the oracle for the factored solves.
"""

import json

import numpy as np
import pytest

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
from gpattr.gpr import jittered_cholesky, load_model_payload

HYP = ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.1)


def _dataset(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    y = np.sin(X[:, 0]) + 0.5 * rng.standard_normal(n)
    return Dataset(X, y, tuple(f"f{j}" for j in range(dim)))


def test_single_point_weights_by_hand():
    # K + noise I = [[2.0]] so the single weight is y / 2
    data = Dataset(np.array([[0.0, 0.0]]), np.array([2.0]), ("a", "b"))
    hyper = ArdSeHyper(1.0, np.array([1.0, 1.0]), 1.0)
    model = fit(data, hyper, center=False)
    assert model.alpha == pytest.approx([1.0], rel=1e-15)
    mean, var = predict(model, [0.0, 0.0])
    assert mean == pytest.approx(1.0, rel=1e-15)
    assert var == pytest.approx(1.0 - 0.5, rel=1e-14)


def test_weights_match_dense_solve():
    data = _dataset(40, seed=2)
    model = fit(data, HYP)
    K = kernel_matrix(data.X, HYP) + HYP.noise_variance * np.eye(data.n)
    want = np.linalg.solve(K, data.y - data.y.mean())
    assert np.abs(model.alpha - want).max() <= 1e-8


def test_prediction_matches_dense_formulas(rng):
    data = _dataset(35, seed=3)
    model = fit(data, HYP)
    K = kernel_matrix(data.X, HYP) + HYP.noise_variance * np.eye(data.n)
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
    model = fit(data, ArdSeHyper(0.5, np.array([1.0]), 0.5), center=False)
    want = -0.5 * np.log(2.0 * np.pi)
    assert log_marginal_likelihood(model, data.y) == pytest.approx(want, rel=1e-14)


def test_loglik_matches_dense_evaluation():
    data = _dataset(30, seed=8)
    model = fit(data, HYP)
    K = kernel_matrix(data.X, HYP) + HYP.noise_variance * np.eye(data.n)
    yc = data.y - data.y.mean()
    _, logdet = np.linalg.slogdet(K)
    want = -0.5 * yc @ np.linalg.solve(K, yc) - 0.5 * logdet - 0.5 * data.n * np.log(2 * np.pi)
    assert log_marginal_likelihood(model, data.y) == pytest.approx(want, rel=1e-10)


def test_loglik_rejects_wrong_length():
    data = _dataset(10, seed=9)
    model = fit(data, HYP)
    with pytest.raises(ValueError):
        log_marginal_likelihood(model, np.zeros(11))


def test_centering_offset():
    data = _dataset(15, seed=10)
    assert fit(data, HYP).y_mean_offset == pytest.approx(data.y.mean())
    assert fit(data, HYP, center=False).y_mean_offset == 0.0


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
        scores.append(log_marginal_likelihood(fit(data, best), data.y))
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 1e-12
    assert scores[-1] > scores[0]  # the search actually moved


def test_search_never_worse_than_init():
    data = _dataset(25, seed=12)
    init = ArdSeHyper(0.4, np.array([0.9, 1.1]), 0.3)
    base = log_marginal_likelihood(fit(data, init), data.y)
    best = optimize_hyperparameters(data, init, 30)
    assert log_marginal_likelihood(fit(data, best), data.y) >= base - 1e-12


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


def test_jittered_cholesky_clean_matrix_gets_no_jitter():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    L, jitter = jittered_cholesky(A)
    assert jitter == 0.0
    assert np.abs(L @ L.T - A).max() <= 1e-14


def test_jittered_cholesky_escalates_then_reports():
    L, jitter = jittered_cholesky(np.ones((2, 2)))  # singular PSD
    A = np.ones((2, 2)) + jitter * np.eye(2)
    assert jitter > 0.0
    assert np.abs(L @ L.T - A).max() <= 1e-12
    with pytest.raises(NumericalError):
        jittered_cholesky(-np.eye(3))


def test_model_round_trip(tmp_path, rng):
    data = _dataset(20, seed=14)
    model = fit(data, HYP)
    path = tmp_path / "model.json"
    save_model(model, str(path), metadata={"feature_names": list(data.feature_names)})
    loaded = load_model(str(path))
    for _ in range(5):
        xs = rng.uniform(-2.0, 2.0, size=2)
        assert predict(loaded, xs) == pytest.approx(predict(model, xs), abs=1e-12)
    payload = load_model_payload(str(path))
    assert payload["feature_names"] == ["f0", "f1"]
    assert payload["version"] == 1


def test_model_metadata_key_collision(tmp_path):
    data = _dataset(5, seed=15)
    model = fit(data, HYP)
    with pytest.raises(ValueError):
        save_model(model, str(tmp_path / "m.json"), metadata={"alpha": [1.0]})


def test_model_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_model_payload(str(path))
    good = json.loads(json.dumps({"format": "gpattr-model", "version": 99}))
    path.write_text(json.dumps(good))
    with pytest.raises(ValueError):
        load_model_payload(str(path))


def test_fit_dimension_mismatch():
    data = _dataset(10, seed=16, dim=3)
    with pytest.raises(ValueError):
        fit(data, HYP)


def _rebuilt(model, **fields):
    parts = dict(hyper=model.hyper, x_train=model.x_train, chol=model.chol,
                 alpha=model.alpha, y_mean_offset=model.y_mean_offset)
    parts.update(fields)
    return GprModel(**parts)


def test_model_rejects_non_finite_factor():
    model = fit(_dataset(12, seed=21), HYP)
    chol = np.array(model.chol)
    chol[5, 2] = np.nan
    with pytest.raises(ValueError, match="chol"):
        _rebuilt(model, chol=chol)
    x_train = np.array(model.x_train)
    x_train[0, 1] = np.inf
    with pytest.raises(ValueError, match="x_train"):
        _rebuilt(model, x_train=x_train)
    with pytest.raises(ValueError, match="y_mean_offset"):
        _rebuilt(model, y_mean_offset=float("nan"))


def test_model_rejects_inconsistent_shapes():
    model = fit(_dataset(12, seed=22), HYP)
    with pytest.raises(ValueError, match="alpha"):
        _rebuilt(model, alpha=model.alpha[:-1])
    with pytest.raises(ValueError, match="chol"):
        _rebuilt(model, chol=model.chol[:-1, :-1])
    with pytest.raises(ValueError, match="x_train"):
        _rebuilt(model, x_train=np.hstack((model.x_train, model.x_train)))


def test_model_arrays_are_read_only():
    model = fit(_dataset(12, seed=23), HYP)
    with pytest.raises(ValueError):
        model.chol[0, 0] = 1.0
    with pytest.raises(ValueError):
        model.alpha[0] = 1.0
    with pytest.raises(ValueError):
        model.x_train[0, 0] = 1.0


def test_load_model_rejects_truncated_alpha(tmp_path):
    model = fit(_dataset(12, seed=24), HYP)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    payload = json.loads(path.read_text())
    payload["alpha"] = payload["alpha"][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="alpha"):
        load_model(str(path))


def _jittered_model_file(tmp_path):
    """A fit that needs jitter (duplicate rows, zero noise), saved."""
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 2.0, size=(10, 2))
    X = np.vstack([X, X[:4]])
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(len(X))
    model = fit(Dataset(X, y, ("f0", "f1")), ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.0))
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
