"""Exact Gaussian process regression with the ARD squared-exponential kernel.

The prior mean is zero; targets are centered by their sample mean before
fitting and the offset is stored on the model, so predictions and the
marginal likelihood are expressed in the original target units. All solves
go through one Cholesky factor of K + noise*I, retried with escalating
diagonal jitter when the factorization fails.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .data_io import Dataset
from .kernels import ArdSeHyper, kernel_cross, kernel_matrix
from .specfun import NumericalError

__all__ = [
    "GprModel",
    "jittered_cholesky",
    "fit",
    "predict",
    "log_marginal_likelihood",
    "optimize_hyperparameters",
    "save_model",
    "load_model",
    "load_model_payload",
]

MODEL_FORMAT = "gpattr-model"
MODEL_VERSION = 1
# starting jitter of jittered_cholesky, relative to the mean diagonal
SOLVER_JITTER = 1e-10


@dataclass(frozen=True)
class GprModel:
    """Fitted state: hyperparameters, training inputs, Cholesky factor of
    K + noise*I (lower), representer weights, target offset, and the jitter
    that had to be added (0.0 when none).

    Construction checks that the arrays agree in shape with each other and
    with the hyperparameters and that they are finite, then freezes them
    read-only, so solves can skip rescanning the factor.
    """

    hyper: ArdSeHyper
    x_train: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    y_mean_offset: float
    jitter: float = 0.0

    def __post_init__(self) -> None:
        dim = self.hyper.dim
        x_shape = np.shape(self.x_train)
        if len(x_shape) != 2 or x_shape[1] != dim:
            raise ValueError(f"model x_train has shape {x_shape}, expected (n, {dim})")
        n = x_shape[0]
        for name, shape in (("x_train", x_shape), ("chol", (n, n)), ("alpha", (n,))):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"model {name} has shape {arr.shape}, expected {shape} for {n} training rows")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"model {name} holds non-finite values")
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not math.isfinite(self.y_mean_offset):
            raise ValueError(f"model y_mean_offset must be finite, got {self.y_mean_offset!r}")

    @property
    def n_train(self) -> int:
        return self.x_train.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One triangular solve with the lower factor: v = L^{-1} b, where
        L L^T = K + noise*I. Every posterior quadratic form is a product of
        two such solves, b^T (K + noise*I)^{-1} c = solve(b)^T solve(c), so
        it reads the factor once rather than twice. The factor was checked
        at construction; only b is scanned for non-finite values."""
        b = np.asarray_chkfinite(b, dtype=float)
        return solve_triangular(self.chol, b, lower=True, check_finite=False)


def _clamp_variance(var, what: str, scale: float):
    """Round-off negatives (>= -1e-10 * scale, with scale the variance scale
    of the model, its signal variance for a GP) become zero; anything more
    negative raises. Works on a float or elementwise on an array."""
    worst = float(np.min(var))
    if worst < -1e-10 * scale:
        raise NumericalError(
            f"{what} variance {worst:.6e} is negative beyond round-off tolerance at scale {scale:.3e}"
        )
    out = np.where(var >= 0.0, var, 0.0)
    return float(out) if out.ndim == 0 else out


def jittered_cholesky(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric matrix, retrying with diagonal jitter.

    Jitter starts at SOLVER_JITTER * mean(diag) and grows tenfold up to
    six times. Returns (factor, jitter_added). Raises NumericalError when
    the matrix stays non-positive-definite through the last retry.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        return cholesky(mat, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    base = SOLVER_JITTER * float(np.mean(np.diag(mat)))
    if base <= 0.0:
        base = SOLVER_JITTER
    jitter = base
    eye = np.eye(mat.shape[0])
    for _ in range(6):
        try:
            return cholesky(mat + jitter * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"matrix not positive definite after jitter up to {jitter / 10.0:.3e} "
        f"(diag mean {np.mean(np.diag(mat)):.3e})"
    )


def fit(data: Dataset, hyper: ArdSeHyper, center: bool = True) -> GprModel:
    """Fit the GP: factor K + noise*I and solve for the representer weights.

    center=False skips target centering (offset 0), for callers that have
    already removed the mean or want the raw zero-mean-prior fit.
    """
    if data.dim != hyper.dim:
        raise ValueError(f"data has {data.dim} features, hyperparameters expect {hyper.dim}")
    K = kernel_matrix(data.X, hyper)
    K[np.diag_indices_from(K)] += hyper.noise_variance
    chol, jitter = jittered_cholesky(K)
    offset = float(data.y.mean()) if center else 0.0
    alpha = cho_solve((chol, True), data.y - offset, check_finite=False)
    return GprModel(
        hyper=hyper,
        x_train=np.array(data.X, dtype=float, copy=True),
        chol=chol,
        alpha=alpha,
        y_mean_offset=offset,
        jitter=jitter,
    )


def predict(model: GprModel, x_star) -> tuple[float, float]:
    """Posterior mean and variance at one point.

    mean = offset + k_*^T alpha
    var  = k(x_*, x_*) - |L^{-1} k_*|^2
    Tiny negative variances from round-off (>= -1e-10 * signal_variance)
    clamp to zero; anything more negative raises NumericalError.
    """
    x_star = np.asarray_chkfinite(x_star, dtype=float).reshape(-1)
    k_star = kernel_cross(model.x_train, x_star[None, :], model.hyper)[:, 0]
    mean = model.y_mean_offset + float(k_star @ model.alpha)
    w = model.solve(k_star)
    sv = model.hyper.signal_variance
    return mean, _clamp_variance(float(sv - w @ w), "posterior", sv)


def log_marginal_likelihood(model: GprModel, y) -> float:
    """Log marginal likelihood of targets y under the fitted model.

    y is centered with the model's stored offset so the quadratic form is
    consistent with the stored weights.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != model.n_train:
        raise ValueError(f"y has {y.size} entries, model was fit on {model.n_train}")
    yc = y - model.y_mean_offset
    n = y.size
    return float(
        -0.5 * yc @ model.alpha
        - np.sum(np.log(np.diag(model.chol)))
        - 0.5 * n * np.log(2.0 * np.pi)
    )


def _hyper_from_log(theta: np.ndarray) -> ArdSeHyper:
    return ArdSeHyper(
        signal_variance=float(np.exp(theta[0])),
        lengthscales=np.exp(theta[2:]),
        noise_variance=float(np.exp(theta[1])),
    )


def optimize_hyperparameters(data: Dataset, init: ArdSeHyper, budget: int) -> ArdSeHyper:
    """Best-found hyperparameters from a deterministic budgeted search.

    Runs a log-space coordinate descent from several starts: the given init
    and copies with every lengthscale scaled by 1/4, 1/16, and 4. The
    likelihood is multimodal in the lengthscales, and a too-long start tends
    to collapse into an all-noise basin (signal variance walks to zero)
    that greedy moves cannot leave, so the restarts spread over that axis.
    Each descent tries a multiplicative step up and down per coordinate and
    keeps improvements; the step shrinks after a pass with no accepted move.
    budget counts marginal-likelihood evaluations across all starts,
    allotted round-robin, so budget=1 evaluates init alone and returns it.
    The returned value never scores worse than init.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if data.dim != init.dim:
        raise ValueError(f"data has {data.dim} features, init expects {init.dim}")

    evals = 0

    def score(theta: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        try:
            model = fit(data, _hyper_from_log(theta))
        except NumericalError:
            return -np.inf
        return log_marginal_likelihood(model, data.y)

    log_bound = np.log(1e8)

    def descend(theta: np.ndarray, current: float, limit: int) -> tuple[np.ndarray, float]:
        step = np.log(4.0)
        while evals < limit and step > 1e-3:
            moved = False
            for j in range(theta.size):
                for direction in (1.0, -1.0):
                    if evals >= limit:
                        break
                    cand = theta.copy()
                    cand[j] = np.clip(cand[j] + direction * step, -log_bound, log_bound)
                    if cand[j] == theta[j]:
                        continue
                    val = score(cand)
                    if val > current:
                        current = val
                        theta = cand
                        moved = True
                        break
            if not moved:
                step *= 0.5
        return theta, current

    theta0 = np.concatenate(
        (
            [np.log(init.signal_variance), np.log(max(init.noise_variance, 1e-12))],
            np.log(init.lengthscales),
        )
    )
    scales = (1.0, 0.25, 0.0625, 4.0)
    shares = [(budget + len(scales) - 1 - k) // len(scales) for k in range(len(scales))]
    best_theta = theta0
    best_val = -np.inf
    for k, (factor, share) in enumerate(zip(scales, shares)):
        if share < 1:
            continue
        start = theta0.copy()
        if factor != 1.0:
            start[2:] = np.clip(start[2:] + np.log(factor), -log_bound, log_bound)
        first = score(start)
        if not np.isfinite(first):
            if k == 0:
                raise NumericalError(
                    "marginal likelihood is not finite at the initial hyperparameters"
                )
            continue
        theta, val = descend(start, first, evals + share - 1)
        if val > best_val:
            best_val = val
            best_theta = theta
    return _hyper_from_log(best_theta)


def save_model(model: GprModel, path: str, metadata: dict | None = None) -> None:
    """Write the model as versioned JSON. The Cholesky factor is not stored:
    load_model rebuilds it from the stored hyperparameters, inputs and jitter.

    metadata entries (feature names, normalization stats, training targets,
    a held-out query) ride along under their own keys for tooling; they are
    ignored by load_model.
    """
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "hyper": {
            "signal_variance": model.hyper.signal_variance,
            "lengthscales": model.hyper.lengthscales.tolist(),
            "noise_variance": model.hyper.noise_variance,
        },
        "x_train": model.x_train.tolist(),
        "alpha": model.alpha.tolist(),
        "y_mean_offset": model.y_mean_offset,
        "jitter": model.jitter,
    }
    for key, value in (metadata or {}).items():
        if key in payload:
            raise ValueError(f"metadata key {key!r} collides with a model field")
        payload[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model_payload(path: str) -> dict:
    """Read and format-check a model file, returning the raw payload
    (model fields plus any metadata save_model attached)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {payload.get('version')!r}")
    return payload


def load_model(source: str | dict) -> GprModel:
    """Load a model written by save_model, from its file path or from the
    payload load_model_payload read from it, factoring K + noise*I once with
    the stored jitter (no retries), so the factor is the one alpha was solved
    with. Malformed fields (shapes, non-finite values, a missing or negative
    jitter) raise ValueError naming the field; NumericalError if the factor
    fails. Errors from a path name the file."""
    if isinstance(source, dict):
        return _model_from_payload(source)
    payload = load_model_payload(source)
    try:
        return _model_from_payload(payload)
    except NumericalError as exc:
        raise NumericalError(f"{source}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _model_from_payload(payload: dict) -> GprModel:
    hyper = ArdSeHyper(
        signal_variance=float(payload["hyper"]["signal_variance"]),
        lengthscales=np.array(payload["hyper"]["lengthscales"], dtype=float),
        noise_variance=float(payload["hyper"]["noise_variance"]),
    )
    jitter = payload.get("jitter")
    if type(jitter) not in (int, float) or not 0.0 <= jitter < math.inf:
        raise ValueError(f"model jitter must be a finite number >= 0, got {jitter!r}")
    x_train = np.array(payload["x_train"], dtype=float)
    K = kernel_matrix(x_train, hyper)
    K[np.diag_indices_from(K)] += hyper.noise_variance
    K[np.diag_indices_from(K)] += jitter  # added after the noise, as in fit
    try:
        chol = cholesky(K, lower=True)
    except np.linalg.LinAlgError:
        raise NumericalError(f"not positive definite with the stored jitter {jitter!r}") from None
    return GprModel(
        hyper=hyper,
        x_train=x_train,
        chol=chol,
        alpha=np.array(payload["alpha"], dtype=float),
        y_mean_offset=float(payload["y_mean_offset"]),
        jitter=float(jitter),
    )
