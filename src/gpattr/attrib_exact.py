"""Exact path-integral feature attributions for GP posteriors.

For a straight path from a baseline z to the query x, the attribution of
feature i applied to any function F is

    attr_i(x | F) = (x_i - z_i) * integral_0^1 dF(z + t(x - z))/dx_i dt.

Applied to a GP posterior the attribution is itself Gaussian. Its mean is
the attribution of the posterior mean; its variance combines a prior
double-integral term with a data correction through the training solve.
Both pieces reduce to closed forms for the ARD squared-exponential kernel
because every integrand is a Gaussian in t times a low-degree polynomial:

    slice integrand  (q1*t + q0) * exp(-(p2*t^2 + p1*t + p0) / 2)
    variance kernel  (r0 + r2*(s-t)^2) * exp(-p2*(s-t)^2 / 2)

The closed forms are evaluated in a rearrangement whose exponents are all
non-positive (guaranteed by Cauchy-Schwarz), so nothing overflows. When
the path is degenerate (p2 ~ 0, query at the baseline) the formulas
divide by ~0 and evaluation falls back to composite-Simpson quadrature.

Every feature shares the path and every training point shares the
feature-free part of its integrand, so a report for all d features costs
one erf sweep over 2n points and one triangular solve with the lower
Cholesky factor on d + 2 right-hand sides: every data correction is a
squared norm of a column of that solve.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .data_io import Baseline
from .gpr import GprModel, _clamp_variance
from .kernels import ArdSeHyper, _check_index, kernel_cross
from .specfun import erf

__all__ = [
    "Baseline",
    "AttributionGaussian",
    "AttributionReport",
    "prior_attribution_variance",
    "gpr_attribution",
    "attribution_report",
    "report_from_rows",
    "write_report_json_dict",
    "write_report_csv",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_FALLBACK_PARTITIONS = 256
# a path with p2 = sum((x - z)^2 / ls^2) at or below this is degenerate
SINGULAR_THRESHOLD = 1e-12


@dataclass(frozen=True)
class AttributionGaussian:
    """Gaussian law of one feature's attribution: index, mean, variance."""

    feature_index: int
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("attribution mean and variance must be finite")
        if self.variance < 0.0:
            raise ValueError(f"attribution variance must be >= 0, got {self.variance!r}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def _baseline_values(baseline) -> np.ndarray:
    if isinstance(baseline, Baseline):
        return baseline.values
    return np.asarray(baseline, dtype=float).reshape(-1)


def _query_pair(x, baseline, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Query and baseline as flat float vectors, checked against dim."""
    x = np.asarray(x, dtype=float).reshape(-1)
    z = _baseline_values(baseline)
    if not (x.size == z.size == dim):
        raise ValueError(f"dimension mismatch: x {x.size}, baseline {z.size}, model {dim}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("query and baseline must be finite")
    return x, z


def _fallback_nodes() -> tuple[np.ndarray, np.ndarray]:
    # Local import: the quadrature module sits above this one in the
    # dependency order, and only this degenerate-path branch needs it.
    from .attrib_quad import QuadratureSpec, nodes_weights

    return nodes_weights(QuadratureSpec(rule="simpson", partitions=_FALLBACK_PARTITIONS))


def _path_quadrature(
    x: np.ndarray, z: np.ndarray, centers: np.ndarray, hyper: ArdSeHyper, t: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slice attributions (n, d) and prior variances (d,) of every feature
    by the quadrature rule with uniformly spaced nodes t and weights w.

    One kernel block serves every feature. With r + t*delta the offset of
    the node from a center, d k(path_t, c)/d x_i = -k * (r_i + t*delta_i) / ls_i^2,
    so the slice matrix needs the weighted sums of K(path, centers) and
    t * K(path, centers). Between nodes s and t the mixed derivative of
    feature i is k * (1/ls_i^2 - (s - t)^2 delta_i^2 / ls_i^4), so the prior
    needs w.K.w and the lagged w.(K o (s - t)^2).w of K(path, path). On
    uniform nodes k(path_s, path_t) = sv exp(-p2 (s - t)^2 / 2) depends on
    the lag u = s - t alone, so both are sums over the J lags u_k = t_k - t_0
    with the weight autocorrelation c_k = sum_j w_j w_{j+k}, counted twice
    for k > 0: no J x J block is formed.
    """
    ls2 = hyper.lengthscales**2
    delta = x - z
    path = z[None, :] + t[:, None] * delta[None, :]
    K = kernel_cross(path, centers, hyper)
    A = -(delta / ls2) * ((w @ K)[:, None] * (z[None, :] - centers) + ((w * t) @ K)[:, None] * delta)
    J = t.size
    c = np.correlate(w, w, "full")[J - 1 :]
    c[1:] *= 2.0
    u2 = (t - t[0]) ** 2
    c *= hyper.signal_variance * np.exp(-0.5 * float(np.sum(delta**2 / ls2)) * u2)
    flat = float(np.sum(c))
    lagged = float(c @ u2)
    return A, delta**2 * (flat / ls2 - delta**2 * lagged / ls2**2)


def _slice_matrix(x: np.ndarray, z: np.ndarray, centers: np.ndarray, hyper: ArdSeHyper) -> np.ndarray:
    """Attribution of every feature i applied to every kernel slice
    k(., center_n), as an (n, d) matrix, for a non-degenerate path.

    Along the path the integrand is (q1*t + q0) * exp(-(p2 t^2 + p1 t + p0)/2)
    with p2 shared by all points and features, p1 and p0 per point, q1 per
    feature and q0 per (point, feature). Completing the square splits the
    integral into an exponential difference and an erf difference; the erf
    arguments t0, t1 depend on the point only, so one erf sweep over the 2n
    values serves every feature. Every exponent here is <= 0: the erf-term
    exponent by Cauchy-Schwarz (p1^2 <= 4 p2 p0), the others because each
    polynomial value is a squared scaled distance.
    """
    ls2 = hyper.lengthscales**2
    sv = hyper.signal_variance
    delta = x - z
    r = z[None, :] - centers
    p2 = float(np.sum(delta**2 / ls2))
    p1 = 2.0 * (r / ls2) @ delta
    p0 = np.sum(r**2 / ls2, axis=1)
    q1 = -sv * delta**2 / ls2
    q0 = -sv * delta * r / ls2
    root = math.sqrt(2.0 * p2)
    # endpoint-exponential difference e^{-(p0+p1+p2)/2} - e^{-p0/2}, factored
    # by the sign of p2 + p1 so the expm1 argument is never positive: the
    # single-sided form overflows when the baseline sits far from a training
    # point while the query is close (p1 << -p2), yielding inf * 0.
    half = 0.5 * (p2 + p1)
    down = np.expm1(-np.maximum(half, 0.0))
    up = np.expm1(np.minimum(half, 0.0))
    diff = np.where(
        half >= 0.0,
        np.exp(-0.5 * p0) * down,
        -np.exp(-0.5 * (p0 + p1 + p2)) * up,
    )
    exp_part = -(q1 / p2) * diff[:, None]
    ends = erf(np.concatenate((p1 / (2.0 * root), (2.0 * p2 + p1) / (2.0 * root))))
    n = p1.size
    log_pref = np.minimum(p1**2 / (8.0 * p2) - 0.5 * p0, 0.0)
    erf_part = (
        _SQRT_2PI
        * (p1[:, None] * q1 - 2.0 * p2 * q0)
        / (4.0 * p2**1.5)
        * np.exp(log_pref)[:, None]
        * (ends[:n] - ends[n:])[:, None]
    )
    return exp_part + erf_part


def _slices_and_priors(
    x: np.ndarray, z: np.ndarray, centers: np.ndarray, hyper: ArdSeHyper
) -> tuple[np.ndarray, np.ndarray]:
    """Slice matrix (n, d) and prior variances (d,) of every feature.

    The prior variance is the double path integral of the mixed kernel
    derivative, scaled by (x_i - z_i)^2. Closed form via the lag
    substitution u = s - t:
        (x_i - z_i)^2 * [ sqrt(2 pi) erf(sqrt(p2/2)) (p2 r0 + r2) / p2^{3/2}
                          - 2 (1 - exp(-p2/2)) (p2 r0 + 2 r2) / p2^2 ]
    with r0 = sv / ls_i^2 and r2 = -sv (x_i - z_i)^2 / ls_i^4, so one scalar
    erf serves every feature. On a degenerate path (p2 ~ 0), where the
    closed forms divide by ~0, both come from composite Simpson.
    """
    ls2 = hyper.lengthscales**2
    delta = x - z
    p2 = float(np.sum(delta**2 / ls2))
    if p2 <= SINGULAR_THRESHOLD:
        A, prior = _path_quadrature(x, z, centers, hyper, *_fallback_nodes())
    else:
        sv = hyper.signal_variance
        r2 = -sv * delta**2 / ls2**2
        r0 = sv / ls2
        one_minus_exp = -math.expm1(-0.5 * p2)
        bracket = (
            _SQRT_2PI * erf(math.sqrt(0.5 * p2)) * (p2 * r0 + r2) / p2**1.5
            - 2.0 * one_minus_exp * (p2 * r0 + 2.0 * r2) / p2**2
        )
        A, prior = _slice_matrix(x, z, centers, hyper), delta**2 * bracket
    return A, _clamp_variance(prior, "prior attribution", hyper.signal_variance)


def _laws(means: np.ndarray, variances: np.ndarray) -> tuple[AttributionGaussian, ...]:
    """One AttributionGaussian per feature, in feature order."""
    pairs = zip(means, variances)
    return tuple(AttributionGaussian(i, float(m), float(v)) for i, (m, v) in enumerate(pairs))


def _exact_laws(model: GprModel, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attribution means and variances of every feature, plus the (2, n)
    kernel rows at x and z, from one triangular solve W = L^{-1} [A, k_x, k_z]
    with d + 2 right-hand sides.

    mean = slice attributions A dotted with the representer weights
    var  = prior double-integral term - colsum(W[:, :d]^2)
    since diag(A^T (K + noise*I)^{-1} A) is the squared column norm of
    L^{-1} A. The kernel rows ride along in the solve to give the posterior
    variances sv - colsum(W[:, d:]^2) at x and z, which keep predict's
    round-off guard.
    """
    hyper = model.hyper
    d = hyper.dim
    sv = hyper.signal_variance
    A, prior = _slices_and_priors(x, z, model.x_train, hyper)
    k_xz = kernel_cross(np.stack((x, z)), model.x_train, hyper)
    W = model.solve(np.hstack((A, k_xz.T)))
    squares = np.sum(W * W, axis=0)
    _clamp_variance(sv - squares[d:], "query or baseline posterior", sv)
    variances = _clamp_variance(prior - squares[:d], "attribution", sv)
    return model.alpha @ A, variances, k_xz


def prior_attribution_variance(x, baseline, i: int, hyper: ArdSeHyper) -> float:
    """Prior variance of feature i's attribution, read from the d prior
    variances of _slices_and_priors (which needs no training centers)."""
    x, z = _query_pair(x, baseline, hyper.dim)
    _check_index(i, hyper.dim)
    no_centers = np.empty((0, hyper.dim))
    return float(_slices_and_priors(x, z, no_centers, hyper)[1][i])


def gpr_attribution(model: GprModel, x, baseline, i: int) -> AttributionGaussian:
    """Gaussian law of feature i's attribution under the GP posterior: row i
    of attribution_report, which computes every feature in one pass."""
    _check_index(i, model.hyper.dim)
    return attribution_report(model, x, baseline).attributions[i]


@dataclass(frozen=True)
class AttributionReport:
    """Per-feature attribution laws plus the completeness diagnostic."""

    attributions: tuple[AttributionGaussian, ...]
    completeness_residual: float
    prediction_mean: float
    baseline_prediction_mean: float

    @property
    def total_mean(self) -> float:
        return sum(a.mean for a in self.attributions)


def _assemble(model: GprModel, rows, k_xz: np.ndarray) -> AttributionReport:
    # mu(x) - mu(z) = (k_x - k_z) . alpha: the target offset cancels exactly
    rows = tuple(rows)
    gap = float((k_xz[0] - k_xz[1]) @ model.alpha)
    return AttributionReport(
        attributions=rows,
        completeness_residual=float(abs(sum(r.mean for r in rows) - gap)),
        prediction_mean=model.y_mean_offset + float(k_xz[0] @ model.alpha),
        baseline_prediction_mean=model.y_mean_offset + float(k_xz[1] @ model.alpha),
    )


def attribution_report(model: GprModel, x, baseline) -> AttributionReport:
    """Attribute every feature and report the completeness residual

        | sum_i mean_i - (mu(x) - mu(z)) |

    which is zero in exact arithmetic for the straight-path construction.
    The whole report costs one triangular solve with the lower Cholesky
    factor on d + 2 right-hand sides and one erf sweep over 2n points.
    """
    x, z = _query_pair(x, baseline, model.hyper.dim)
    means, variances, k_xz = _exact_laws(model, x, z)
    return _assemble(model, _laws(means, variances), k_xz)


def report_from_rows(model: GprModel, x, baseline, rows) -> AttributionReport:
    """Report for engines that produce rows directly. The completeness
    residual is measured against the exact posterior means, so approximate
    engines show their true gap rather than zero."""
    x, z = _query_pair(x, baseline, model.hyper.dim)
    return _assemble(model, rows, kernel_cross(np.stack((x, z)), model.x_train, model.hyper))


def write_report_json_dict(report: AttributionReport, feature_names=None) -> dict:
    """Report as a JSON-ready dict. feature_names defaults to x0, x1, ..."""
    names = _names(feature_names, len(report.attributions))
    return {
        "format": "gpattr-attribution-report",
        "version": 1,
        "prediction_mean": report.prediction_mean,
        "baseline_prediction_mean": report.baseline_prediction_mean,
        "completeness_residual": report.completeness_residual,
        "attributions": [
            {
                "feature": names[a.feature_index],
                "feature_index": a.feature_index,
                "mean": a.mean,
                "variance": a.variance,
                "std": a.std,
            }
            for a in report.attributions
        ],
    }


def write_report_csv(report: AttributionReport, path: str, feature_names=None) -> None:
    """Write rows (feature, mean, std, completeness_residual)."""
    names = _names(feature_names, len(report.attributions))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean", "std", "completeness_residual"])
        for a in report.attributions:
            writer.writerow(
                [names[a.feature_index], repr(a.mean), repr(a.std), repr(report.completeness_residual)]
            )


def _names(feature_names, n: int) -> list[str]:
    if feature_names is None:
        return [f"x{j}" for j in range(n)]
    names = list(feature_names)
    if len(names) != n:
        raise ValueError(f"got {len(names)} feature names for {n} attributions")
    return names

