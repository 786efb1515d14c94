"""Random trigonometric feature approximation of the ARD-SE GP.

Frequencies are drawn from the kernel's spectral density (Gaussian with
per-feature std 1/lengthscale). Each frequency contributes a sin and a
cos feature, interleaved sin-first, so the map has 2M entries and
(signal_variance / M) * feature_map(x) . feature_map(x') estimates the
kernel. Fitting is Bayesian linear regression in that feature space.

Attributions stay exact within the feature class: the path integral of
each trig feature's gradient has an elementary antiderivative, giving a
per-feature integrated-gradient vector. Averaging attributions over an
ensemble of frequency draws marginalizes the approximation noise into an
equal-weight Gaussian mixture.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .attrib_exact import AttributionGaussian, _baseline_values, _laws
from .data_io import Dataset
from .kernels import ArdSeHyper
from .specfun import NumericalError

__all__ = [
    "RfgpModel",
    "sample_frequencies",
    "feature_map",
    "design_matrix",
    "rfgp_fit",
    "rfgp_predict",
    "feature_gradient_integral",
    "rfgp_attribution",
    "AttributionMixture",
    "marginalized_attribution",
]


@dataclass(frozen=True)
class RfgpModel:
    """Fitted random-feature regressor.

    frequencies: (M, D) spectral draws.
    weights: (2M,) posterior mean weights.
    a_factor: lower Cholesky factor of A = Phi Phi^T + (M noise/signal) I.
    """

    frequencies: np.ndarray
    weights: np.ndarray
    a_factor: np.ndarray
    hyper: ArdSeHyper
    seed: int
    y_mean_offset: float

    @property
    def m_features(self) -> int:
        return self.frequencies.shape[0]


def sample_frequencies(m_features: int, hyper: ArdSeHyper, seed: int) -> np.ndarray:
    """Draw M spectral frequencies, one row per feature pair; column j has
    std 1/lengthscale_j. The same seed yields the same draws, and scaling
    a lengthscale rescales that column of the same underlying draws."""
    if m_features < 1:
        raise ValueError(f"m_features must be >= 1, got {m_features}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size=(m_features, hyper.dim)) / hyper.lengthscales


def feature_map(x, frequencies: np.ndarray) -> np.ndarray:
    """Interleaved [sin(x.v_1), cos(x.v_1), sin(x.v_2), ...], length 2M."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != frequencies.shape[1]:
        raise ValueError(f"x has {x.size} features, frequencies expect {frequencies.shape[1]}")
    proj = frequencies @ x
    out = np.empty(2 * frequencies.shape[0])
    out[0::2] = np.sin(proj)
    out[1::2] = np.cos(proj)
    return out


def design_matrix(X, frequencies: np.ndarray) -> np.ndarray:
    """Column n is feature_map(X[n]); shape (2M, N)."""
    X = np.asarray(X, dtype=float)
    proj = X @ frequencies.T  # (N, M)
    out = np.empty((2 * frequencies.shape[0], X.shape[0]))
    out[0::2] = np.sin(proj).T
    out[1::2] = np.cos(proj).T
    return out


def rfgp_fit(data: Dataset, hyper: ArdSeHyper, m_features: int, seed: int) -> RfgpModel:
    """Fit the random-feature regressor.

    A = Phi Phi^T + (M * noise_variance / signal_variance) I is factored
    once; the weights solve A w = Phi y_centered. Zero noise makes A rank
    deficient whenever 2M > N, which raises NumericalError.
    """
    V = sample_frequencies(m_features, hyper, seed)
    if data.dim != hyper.dim:
        raise ValueError(f"data has {data.dim} features, hyperparameters expect {hyper.dim}")
    Phi = design_matrix(data.X, V)
    A = Phi @ Phi.T
    ridge = m_features * hyper.noise_variance / hyper.signal_variance
    A[np.diag_indices_from(A)] += ridge
    try:
        factor = cholesky(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"random-feature normal matrix is singular (ridge {ridge:.3e}); "
            "noise_variance = 0 makes it rank deficient"
        ) from exc
    offset = float(data.y.mean())
    weights = cho_solve((factor, True), Phi @ (data.y - offset))
    return RfgpModel(
        frequencies=V,
        weights=weights,
        a_factor=factor,
        hyper=hyper,
        seed=seed,
        y_mean_offset=offset,
    )


def rfgp_predict(model: RfgpModel, x) -> tuple[float, float]:
    """Posterior mean and variance of the random-feature regressor at x.

    mean = offset + feature_map(x) . weights
    var  = noise_variance * feature_map(x)^T A^{-1} feature_map(x)
    """
    phi = feature_map(x, model.frequencies)
    mean = model.y_mean_offset + float(phi @ model.weights)
    half = solve_triangular(model.a_factor, phi, lower=True)
    var = model.hyper.noise_variance * float(half @ half)
    return mean, var


def feature_gradient_integral(
    x, baseline, frequencies: np.ndarray, rel_tol: float = 1e-10
) -> np.ndarray:
    """Path integral of each trig feature's partial derivatives, averaged
    over the straight path from baseline to x: a (2M, d) matrix whose
    column i holds the d/dx_i integrals.

    With u_m = v_m . (x - baseline) and c_m = v_m . baseline:
        sin row: v_mi * (sin(c_m + u_m) - sin(c_m)) / u_m
        cos row: v_mi * (cos(c_m + u_m) - cos(c_m)) / u_m
    The quotients do not depend on i, so column i is V[:, i] times them.
    When |u_m| <= rel_tol * |v_m| * |x - baseline| the quotient switches
    to its limit, cos(c_m) and -sin(c_m).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = _baseline_values(baseline)
    V = np.asarray(frequencies, dtype=float)
    if not (x.size == z.size == V.shape[1]):
        raise ValueError(
            f"dimension mismatch: x {x.size}, baseline {z.size}, frequencies {V.shape}"
        )
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    delta = x - z
    u = V @ delta
    c = V @ z
    thresholds = rel_tol * np.linalg.norm(V, axis=1) * np.linalg.norm(delta)
    degenerate = np.abs(u) <= thresholds

    sin_rows = np.empty(V.shape[0])
    cos_rows = np.empty(V.shape[0])
    safe = ~degenerate
    if np.any(safe):
        us, cs = u[safe], c[safe]
        sin_rows[safe] = (np.sin(cs + us) - np.sin(cs)) / us
        cos_rows[safe] = (np.cos(cs + us) - np.cos(cs)) / us
    if np.any(degenerate):
        cd = c[degenerate]
        sin_rows[degenerate] = np.cos(cd)
        cos_rows[degenerate] = -np.sin(cd)

    out = np.empty((2 * V.shape[0], V.shape[1]))
    out[0::2] = V * sin_rows[:, None]
    out[1::2] = V * cos_rows[:, None]
    return out


def rfgp_attribution(model: RfgpModel, x, baseline) -> tuple[AttributionGaussian, ...]:
    """Attribution law of every feature under the random-feature posterior.

    mean_i = (x_i - z_i) * zeta_i . weights
    var_i  = (x_i - z_i)^2 * noise_variance * zeta_i^T A^{-1} zeta_i
    with zeta_i column i of the integral matrix, so one triangular solve
    with d right-hand sides gives every variance.

    Completeness holds exactly within the feature class because the
    integral vectors telescope to feature_map(x) - feature_map(baseline).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = _baseline_values(baseline)
    zeta = feature_gradient_integral(x, z, model.frequencies)
    gap = x - z
    means = gap * (model.weights @ zeta)
    half = solve_triangular(model.a_factor, zeta, lower=True)
    return _laws(means, gap**2 * model.hyper.noise_variance * np.sum(half * half, axis=0))


@dataclass(frozen=True)
class AttributionMixture:
    """Equal-weight Gaussian mixture over frequency draws for one feature."""

    feature_index: int
    components: tuple[AttributionGaussian, ...]
    mixture_mean: float
    total_variance: float

    def to_json_dict(self) -> dict:
        return {
            "format": "gpattr-attribution-mixture",
            "version": 1,
            "feature_index": self.feature_index,
            "mixture_mean": self.mixture_mean,
            "total_variance": self.total_variance,
            "components": [
                {"mean": c.mean, "variance": c.variance} for c in self.components
            ],
        }


def marginalized_attribution(
    data: Dataset,
    hyper: ArdSeHyper,
    m_features: int,
    x,
    baseline,
    ensemble_size: int,
    seed: int = 0,
) -> tuple[AttributionMixture, ...]:
    """Average the attribution law of every feature over an ensemble of
    frequency draws.

    Fits ensemble_size models with consecutive seeds, each attributing all
    features. Per feature, the mixture mean is the average component mean;
    the total variance adds the spread of the component means to the
    average component variance (law of total variance for an equal-weight
    mixture).
    """
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    draws = [
        rfgp_attribution(rfgp_fit(data, hyper, m_features, seed + r), x, baseline)
        for r in range(ensemble_size)
    ]
    mixtures = []
    for i, components in enumerate(zip(*draws)):
        means = np.array([c.mean for c in components])
        variances = np.array([c.variance for c in components])
        total_variance = float(np.mean(variances) + np.var(means))
        mixtures.append(AttributionMixture(i, components, float(np.mean(means)), total_variance))
    return tuple(mixtures)
