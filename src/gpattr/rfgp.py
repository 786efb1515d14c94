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

import math
from dataclasses import dataclass

import numpy as np

from .attrib_exact import _moments, _query_pair
from .data_io import Dataset
from .gpr import _all_finite
from .kernels import ArdSeHyper
from .specfun import NumericalError, dgeqrf, dormqr, dpotrf, dpotrs, dtrtrs

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


@dataclass(frozen=True)
class RfgpModel:
    """Fitted random-feature regressor.

    frequencies: (M, D) spectral draws.
    weights: (2M,) posterior mean weights.
    reflectors, tau: the QR Phi = Q [R; 0] of the (2M, N) design matrix as
        dgeqrf leaves it: k = min(2M, N) Householder vectors below the
        diagonal of the (2M, k) reflectors, their scalars in tau, which
        dormqr applies as the (2M, 2M) orthogonal Q. reflectors is the buffer
        Phi was built in when k = N, a (2M, 2M) array of its own when 2M < N.
    core_factor: (k, k) lower Cholesky factor C of R R^T + ridge I, with
        ridge = M noise_variance / signal_variance.
    The normal matrix A = Phi Phi^T + ridge I = Q diag(C C^T, ridge I) Q^T is never formed.
    """

    frequencies: np.ndarray
    weights: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    core_factor: np.ndarray
    hyper: ArdSeHyper
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


def _lapack(routine, *args, **overwrite: bool):
    """routine(*args, **overwrite) with the workspace its query asks for, as scipy sizes it (a smaller one moves the
    last digits); the query writes nothing, so it sets the routine's own flag (overwrite_a, overwrite_c): no copy."""
    lwork = int(routine(*args, lwork=-1, **dict.fromkeys(overwrite, True))[-2][0])
    return routine(*args, lwork=lwork, **overwrite)[:-2]  # without the workspace and info


@np.errstate(over="ignore", invalid="ignore")  # inputs near the float range: checked below
def rfgp_fit(data: Dataset, hyper: ArdSeHyper, m_features: int, seed: int) -> RfgpModel:
    """Fit the random-feature regressor.

    The weights solve A w = Phi y_centered with A = Phi Phi^T + ridge I and
    ridge = M * noise_variance / signal_variance. dgeqrf factors the design
    matrix in its own buffer, Phi = Q [R; 0] with k = min(2M, N), and with
    C C^T = R R^T + ridge I (k x k), A = Q diag(C C^T, ridge I) Q^T, so
    w = Q [C^{-T} C^{-1} R y_centered; 0], one dormqr on the padded core
    solve: O(M N k) time and O(M N) memory, no 2M x 2M matrix. Zero noise
    makes A rank deficient whenever 2M > N, which raises NumericalError, as
    does a design matrix (so R), ridge or weights that overflow.
    """
    V = sample_frequencies(m_features, hyper, seed)
    if data.dim != hyper.dim:
        raise ValueError(f"data has {data.dim} features, hyperparameters expect {hyper.dim}")
    qr, tau = _lapack(dgeqrf, design_matrix(data.X, V), overwrite_a=True)
    k = tau.size
    R = np.triu(qr[:k])
    reflectors = qr if k == data.n else qr[:, :k].copy(order="F")
    ridge = _ridge(m_features, hyper)
    if not (_all_finite(R) and math.isfinite(ridge)):
        raise NumericalError(f"random-feature design matrix or ridge ({ridge:.3e}) is not finite: inputs too large")
    core = R @ R.T
    core[np.diag_indices_from(core)] += ridge
    factor, info = dpotrf(core, lower=True)
    if info or (ridge == 0.0 and k < 2 * m_features):  # with k < 2M the ridge block must be invertible
        raise NumericalError(f"random-feature normal matrix is singular (ridge {ridge:.3e}); "
                             "noise_variance = 0 makes it rank deficient")
    offset = float(data.y.mean())
    padded = np.zeros(2 * m_features)
    padded[:k] = dpotrs(factor, R @ (data.y - offset), lower=True)[0]
    (weights,) = _lapack(dormqr, "L", "N", reflectors, tau, padded, overwrite_c=True)
    if not _all_finite(weights):
        raise NumericalError("random-feature weights are not finite: targets too large")
    return RfgpModel(V, weights, reflectors, tau, factor, hyper, offset)


def feature_gradient_integral(x, baseline, frequencies: np.ndarray) -> np.ndarray:
    """Path integral of each trig feature's partial derivatives, averaged
    over the straight path from baseline to x: a (2M, d) matrix whose
    column i holds the d/dx_i integrals.

    With u_m = v_m . (x - baseline) and c_m = v_m . baseline:
        sin row: v_mi * (sin(c_m + u_m) - sin(c_m)) / u_m =  v_mi * cos(m_m) * q_m
        cos row: v_mi * (cos(c_m + u_m) - cos(c_m)) / u_m = -v_mi * sin(m_m) * q_m
    with the midpoint phase m_m = v_m . (x + baseline) / 2 and
    q_m = sin(u_m / 2) / (u_m / 2) = np.sinc(u_m / (2 pi)), which is 1 at
    u_m = 0: no difference is taken, so no phase needs a limit branch. The
    quotients do not depend on i, so column i is V[:, i] times them.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    V = np.asarray(frequencies, dtype=float)
    if not (x.size == z.size == V.shape[1]):
        raise ValueError(
            f"dimension mismatch: x {x.size}, baseline {z.size}, frequencies {V.shape}"
        )
    m = V @ (0.5 * (x + z))
    q = np.sinc((V @ (x - z)) / (2.0 * np.pi))
    out = np.empty((2 * V.shape[0], V.shape[1]))
    out[0::2] = V * (np.cos(m) * q)[:, None]
    out[1::2] = V * (-np.sin(m) * q)[:, None]
    return out


@np.errstate(over="ignore", invalid="ignore")  # a law that overflows raises in _moments
def rfgp_attribution(model: RfgpModel, x, baseline) -> tuple[np.ndarray, np.ndarray]:
    """Attribution law of every feature under the random-feature posterior,
    as read-only (d,) means and variances.

    mean_i = (x_i - z_i) * zeta_i . weights
    var_i  = (x_i - z_i)^2 * noise_variance * zeta_i^T A^{-1} zeta_i
    with zeta_i column i of the integral matrix. As A = Q diag(C C^T, ridge I) Q^T
    (see RfgpModel), one dormqr gives (h; t) = Q^T zeta, h its first k rows, and

        zeta^T A^{-1} zeta = |C^{-1} h|^2 + |t|^2 / ridge,

    one k x k triangular solve with d right-hand sides for every variance.
    t has no rows when 2M <= N, where the ridge may be 0, so t is divided
    before the sum. Its norm is a sum of squares: it does not cancel as the
    ridge shrinks.

    Completeness holds exactly within the feature class because the
    integral vectors telescope to phi(x) - phi(baseline).
    """
    x, z = _query_pair(x, baseline, model.hyper)
    zeta = feature_gradient_integral(x, z, model.frequencies)
    gap = x - z
    means = gap * (model.weights @ zeta)
    (proj,) = _lapack(dormqr, "L", "T", model.reflectors, model.tau, zeta, overwrite_c=True)
    half, tail = dtrtrs(model.core_factor, proj[:model.tau.size], lower=True)[0], proj[model.tau.size:]
    form = np.sum(half * half, axis=0) + np.sum(tail * tail / _ridge(model.m_features, model.hyper), axis=0)
    return _moments(means, gap**2 * model.hyper.noise_variance * form, model.hyper.dim)


@dataclass(frozen=True)
class AttributionMixture:
    """Equal-weight Gaussian mixtures over R frequency draws: row i of the
    C-contiguous (d, R) means and variances holds feature i's components in
    seed order, entry i of mixture_mean and total_variance its mixture's,
    the average component mean and (law of total variance) the average
    component variance plus the spread of the component means."""

    means: np.ndarray
    variances: np.ndarray
    mixture_mean: np.ndarray
    total_variance: np.ndarray

    @classmethod
    def of(cls, means, variances) -> "AttributionMixture":
        """The mixtures of (d, R) components, R >= 1; NumericalError when one is not finite."""
        # C-contiguous rows, which numpy reduces as it does 1-D arrays
        means, variances = np.ascontiguousarray(means), np.ascontiguousarray(variances)
        if means.ndim != 2 or means.shape != variances.shape:
            raise ValueError(f"means {means.shape} and variances {variances.shape} must be (d, R) arrays of one shape")
        if means.shape[1] < 1:
            raise ValueError("an attribution mixture needs at least one component")
        if np.any(variances < 0.0):
            raise ValueError("component variances must be nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):  # components near the float range: checked below
            mixture_mean, total_variance = means.mean(axis=1), variances.mean(axis=1) + means.var(axis=1)
        if not (_all_finite(mixture_mean) and _all_finite(total_variance)):
            raise NumericalError("attribution mixture is not finite: its components are too spread")
        return cls(means, variances, mixture_mean, total_variance)

    def first(self, k: int) -> "AttributionMixture":
        """The mixtures of each feature's first k >= 1 components; self when k covers them all."""
        if k < 1:
            raise ValueError(f"a mixture of the first k components needs k >= 1, got {k}")
        return self if k >= self.means.shape[1] else self.of(self.means[:, :k], self.variances[:, :k])


def marginalized_attribution(
    data: Dataset,
    hyper: ArdSeHyper,
    m_features: int,
    x,
    baseline,
    ensemble_size: int,
    seed: int = 0,
) -> AttributionMixture:
    """The mixtures of every feature's attribution law over ensemble_size
    frequency draws, fitted with seeds seed, seed + 1, ... . A draw does not
    depend on the ensemble size, so .first(k) of the result is the ensemble of k."""
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    draws = [
        rfgp_attribution(rfgp_fit(data, hyper, m_features, seed + r), x, baseline)
        for r in range(ensemble_size)
    ]
    return AttributionMixture.of(*np.array(draws).transpose(1, 2, 0))  # (R, 2, d) -> (d, R) means, variances
