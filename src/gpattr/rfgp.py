"""Random trigonometric feature approximation of the ARD-SE GP.

Frequencies are drawn from the kernel's spectral density (Gaussian with
per-feature std 1/lengthscale). Each frequency contributes a sin and a
cos feature, interleaved sin-first, so the map phi has 2M entries and
(signal_variance / M) * phi(x) . phi(x') estimates the kernel. Fitting
is Bayesian linear regression in that feature space.

Attributions stay exact within the feature class: the path integral of
each trig feature's gradient has an elementary antiderivative, giving a
per-feature integrated-gradient vector. Averaging attributions over an
ensemble of frequency draws marginalizes the approximation noise into an
equal-weight Gaussian mixture.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, qr, solve_triangular

from .attrib_exact import AttributionGaussian, _baseline_values, _laws, _query_pair
from .data_io import Dataset
from .kernels import ArdSeHyper
from .specfun import NumericalError

__all__ = [
    "RfgpModel",
    "sample_frequencies",
    "design_matrix",
    "rfgp_fit",
    "feature_gradient_integral",
    "rfgp_attribution",
    "AttributionMixture",
    "marginalized_attribution",
]

# a frequency whose phase moves by at most this fraction of |v_m| |x - z|
# along the path takes the limit of its gradient-integral quotient
_PHASE_REL_TOL = 1e-10


@dataclass(frozen=True)
class RfgpModel:
    """Fitted random-feature regressor.

    frequencies: (M, D) spectral draws.
    weights: (2M,) posterior mean weights.
    basis: (2M, k) orthonormal Q of the thin QR Phi = Q R of the (2M, N)
        design matrix, k = min(2M, N).
    core_factor: (k, k) lower Cholesky factor C of R R^T + ridge I, with
        ridge = M noise_variance / signal_variance.
    The normal matrix A = Phi Phi^T + ridge I is never formed: it equals
    Q C C^T Q^T + ridge (I - Q Q^T).
    """

    frequencies: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    core_factor: np.ndarray
    hyper: ArdSeHyper
    seed: int
    y_mean_offset: float

    @property
    def m_features(self) -> int:
        return self.frequencies.shape[0]


def _ridge(m_features: int, hyper: ArdSeHyper) -> float:
    return m_features * hyper.noise_variance / hyper.signal_variance


def sample_frequencies(m_features: int, hyper: ArdSeHyper, seed: int) -> np.ndarray:
    """Draw M spectral frequencies, one row per feature pair; column j has
    std 1/lengthscale_j. The same seed yields the same draws, and scaling
    a lengthscale rescales that column of the same underlying draws."""
    if m_features < 1:
        raise ValueError(f"m_features must be >= 1, got {m_features}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size=(m_features, hyper.dim)) / hyper.lengthscales


def design_matrix(X, frequencies: np.ndarray) -> np.ndarray:
    """Column n is the feature map of X[n], interleaved
    [sin(x.v_1), cos(x.v_1), sin(x.v_2), ...]; shape (2M, N), Fortran
    ordered so LAPACK can factor it where it is. The projection X V^T
    lands in the sin slots, which then give the cos and then their own
    sin in place: one (2M, N) buffer and no temporary."""
    X = np.asarray(X, dtype=float)
    out = np.empty((2 * frequencies.shape[0], X.shape[0]), order="F")
    sin_rows = out[0::2]
    np.matmul(X, frequencies.T, out=sin_rows.T)
    np.cos(sin_rows, out=out[1::2])
    np.sin(sin_rows, out=sin_rows)
    return out


def rfgp_fit(data: Dataset, hyper: ArdSeHyper, m_features: int, seed: int) -> RfgpModel:
    """Fit the random-feature regressor.

    The weights solve A w = Phi y_centered with A = Phi Phi^T + ridge I and
    ridge = M * noise_variance / signal_variance. With the thin QR Phi = Q R
    and C C^T = R R^T + ridge I (k x k, k = min(2M, N)) they are
    w = Q C^{-T} C^{-1} R y_centered: O(M N k) time and O(M N) memory, no
    2M x 2M matrix. The QR factors the design matrix in its own buffer,
    which then holds Q. Zero noise makes A rank deficient whenever 2M > N,
    which raises NumericalError.
    """
    V = sample_frequencies(m_features, hyper, seed)
    if data.dim != hyper.dim:
        raise ValueError(f"data has {data.dim} features, hyperparameters expect {hyper.dim}")
    Q, R = qr(design_matrix(data.X, V), mode="economic", overwrite_a=True)
    ridge = _ridge(m_features, hyper)
    core = R @ R.T
    core[np.diag_indices_from(core)] += ridge
    try:
        if ridge == 0.0 and Q.shape[1] < Q.shape[0]:
            raise np.linalg.LinAlgError("k < 2M: the ridge must cover the space Q misses")
        factor = cholesky(core, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"random-feature normal matrix is singular (ridge {ridge:.3e}); "
            "noise_variance = 0 makes it rank deficient"
        ) from exc
    offset = float(data.y.mean())
    weights = Q @ cho_solve((factor, True), R @ (data.y - offset))
    return RfgpModel(
        frequencies=V,
        weights=weights,
        basis=Q,
        core_factor=factor,
        hyper=hyper,
        seed=seed,
        y_mean_offset=offset,
    )


def feature_gradient_integral(x, baseline, frequencies: np.ndarray) -> np.ndarray:
    """Path integral of each trig feature's partial derivatives, averaged
    over the straight path from baseline to x: a (2M, d) matrix whose
    column i holds the d/dx_i integrals.

    With u_m = v_m . (x - baseline) and c_m = v_m . baseline:
        sin row: v_mi * (sin(c_m + u_m) - sin(c_m)) / u_m
        cos row: v_mi * (cos(c_m + u_m) - cos(c_m)) / u_m
    The quotients do not depend on i, so column i is V[:, i] times them.
    When |u_m| <= _PHASE_REL_TOL * |v_m| * |x - baseline| the quotient switches
    to its limit, cos(c_m) and -sin(c_m).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = _baseline_values(baseline)
    V = np.asarray(frequencies, dtype=float)
    if not (x.size == z.size == V.shape[1]):
        raise ValueError(
            f"dimension mismatch: x {x.size}, baseline {z.size}, frequencies {V.shape}"
        )
    delta = x - z
    u = V @ delta
    c = V @ z
    thresholds = _PHASE_REL_TOL * np.linalg.norm(V, axis=1) * np.linalg.norm(delta)
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
    with zeta_i column i of the integral matrix, so one projection onto the
    fit's basis and one k x k triangular solve with d right-hand sides give
    every variance. With Q the basis and C the core factor,

        zeta^T A^{-1} zeta = |C^{-1} Q^T zeta|^2 + |zeta - Q Q^T zeta|^2 / ridge,

    the second term only when k < 2M, where Q misses part of the space. It
    is the squared norm of the projected residual, so it does not cancel as
    the ridge shrinks.

    Completeness holds exactly within the feature class because the
    integral vectors telescope to phi(x) - phi(baseline).
    """
    x, z = _query_pair(x, baseline, model.hyper)
    zeta = feature_gradient_integral(x, z, model.frequencies)
    gap = x - z
    means = gap * (model.weights @ zeta)
    proj = model.basis.T @ zeta
    half = solve_triangular(model.core_factor, proj, lower=True)
    form = np.sum(half * half, axis=0)
    if model.basis.shape[1] < model.basis.shape[0]:
        resid = zeta - model.basis @ proj
        form += np.sum(resid * resid, axis=0) / _ridge(model.m_features, model.hyper)
    return _laws(means, gap**2 * model.hyper.noise_variance * form)


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
