"""Exact path-integral feature attributions for GP posteriors.

For a straight path from a baseline z to the query x, the attribution of
feature i applied to any function F is

    attr_i(x | F) = (x_i - z_i) * integral_0^1 dF(z + t(x - z))/dx_i dt.

Applied to a GP posterior the attribution is itself Gaussian. Its mean is
the attribution of the posterior mean; its variance combines a prior
double-integral term with a data correction through the training solve.
Both pieces reduce to closed forms for the ARD squared-exponential kernel
because every integrand is a Gaussian in t times a low-degree polynomial:

    slice integrand  (o_i + (t-t0)*delta_i) * exp(-(|o|^2 + p2*(t-t0)^2) / 2)
    variance kernel  (r0 + r2*(s-t)^2) * exp(-p2*(s-t)^2 / 2)

The slice integrand is written around the training point's closest
approach t0 to the path, where o is its perpendicular offset, so every
exponent is -1/2 of a squared distance and none is positive. When the
path is degenerate (p2 ~ 0, query at the baseline) the formulas divide by
~0, and evaluation takes their p2 -> 0 limit instead: the integrands at
the path's midpoint.

Every feature shares the path and every training point shares the
feature-free part of its integrand, so a report for all d features costs
one erf sweep over 2n points and one triangular solve with the lower
Cholesky factor on d + 2 right-hand sides: every data correction is a
squared norm of a column of that solve. The sweep runs over row blocks of
the training points, so a report's working set is its (n, d + 2)
right-hand side plus 64 KiB blocks.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .gpr import GprModel, _clamp_variance
from .kernels import ArdSeHyper, _check_index, kernel_cross
from .specfun import NumericalError

__all__ = [
    "AttributionGaussian",
    "AttributionReport",
    "prior_attribution_variance",
    "gpr_attribution",
    "attribution_report",
    "report_from_rows",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# a path with p2 = sum((x - z)^2 / ls^2) at or below this is degenerate
SINGULAR_THRESHOLD = 1e-12
# Values per row block of _slice_matrix: 8,192 float64s are 64 KiB, under
# glibc's default 128 KiB mmap threshold, so a block's (rows, d) temporaries
# reuse the heap from report to report instead of mapping fresh pages. A
# final block shorter than _MIN_TAIL_ROWS joins the one before it: a short
# block can take another BLAS path (a 1-row one a dot product) and move the
# last digits of its rows.
_BLOCK_VALUES = 8192
_MIN_TAIL_ROWS = 64


class AttributionGaussian(NamedTuple):
    """Law of one feature's attribution: index, mean, variance. In the
    package only AttributionReport.attributions builds it."""

    feature_index: int
    mean: float
    variance: float


def _query_pair(x, baseline, hyper: ArdSeHyper) -> tuple[np.ndarray, np.ndarray]:
    """Query and baseline as flat float vectors, checked against the model.

    A wrong length or a non-finite value raises ValueError. A path that
    overflows raises NumericalError: x - z, its scaled squared length
    p2 = sum((x - z)^2 / ls^2) that every engine forms, or p2^2, which the
    closed forms divide by, is not finite (an infinite x - z makes both
    infinite too). Past that point the closed forms, the quadrature rules
    and the random features would all fail or return a meaningless number.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    if not (x.size == z.size == hyper.dim):
        raise ValueError(f"dimension mismatch: x {x.size}, baseline {z.size}, model {hyper.dim}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("query and baseline must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        p2 = float(np.sum((x - z) ** 2 / hyper.lengthscales**2))
    if not math.isfinite(p2 * p2):  # a Python float product: inf, no warning
        raise NumericalError(
            "the path from the baseline to the query overflows: x - z, "
            "p2 = sum((x - z)^2 / ls^2) or p2^2 is not finite"
        )
    return x, z


@np.errstate(over="ignore", invalid="ignore")
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


def _others(a: np.ndarray) -> np.ndarray:
    """sum_{j != i} a[..., j] for every i. The j = i term enters as an exact
    zero, so nothing cancels when a[..., i] is nearly the whole sum."""
    return a @ (1.0 - np.eye(a.shape[-1]))


def _slice_matrix(x: np.ndarray, z: np.ndarray, centers: np.ndarray, hyper: ArdSeHyper) -> np.ndarray:
    """Attribution of every feature i applied to every kernel slice k(., c),
    as an (n, d) matrix, for a non-degenerate path.

    With norms and dot products scaled by 1/ls^2 and delta = x - z, the
    offset of the path from c is o + (t - t0) delta: t0 = -(z - c).delta/p2
    is the closest approach and o, perpendicular to delta, the offset there.
    With t1 = t0 - 1 = -(x - c).delta/p2 and s = sqrt(p2/2),

        A[c, i] = -sv delta_i / ls_i^2 * [ delta_i/p2 (e^{-|z-c|^2/2} - e^{-|x-c|^2/2})
                  + o_i e^{-|o|^2/2} sqrt(pi/(2 p2)) (erf(s t0) - erf(s t1)) ].

    Each exponent is -1/2 of a squared distance formed directly, never
    positive; a distance past the float range gives -inf, whose exp is 0.
    o is projected from the nearer endpoint's offset r as
    o_i = r_i sum_{j != i} a_j / p2 - delta_i sum_{j != i} r_j delta_j / ls_j^2 / p2,
    a_j = delta_j^2 / ls_j^2, leaving out the j = i terms, which cancel
    exactly: r + t0 delta would keep an along-path residual of eps |r|.
    Near either end the slices are exact to round-off at any path length; a
    center whose closest approach lies D lengthscales from both ends loses
    about eps * D, as forming its offset from z does. The centers go in
    row blocks of about _BLOCK_VALUES values, written into one (n, d)
    result, so no temporary grows with n; the path's own terms are formed
    once. The erf sweep over the 2n arguments runs block by block and
    serves every feature.
    """
    inv = hyper.lengthscales**-2.0
    delta = x - z
    w = delta * inv
    p2 = float(delta @ w)
    along = _others(delta * w) / p2
    root, width = math.sqrt(0.5 * p2), math.sqrt(0.5 * math.pi / p2)
    scale = -(hyper.signal_variance * w)
    n, d = centers.shape
    rows = max(1, _BLOCK_VALUES // d)
    bounds = [0, *range(rows, n - _MIN_TAIL_ROWS + 1, rows), n]
    A = np.empty((n, d))
    for i0, i1 in zip(bounds, bounds[1:]):
        rz, rx = z - centers[i0:i1], x - centers[i0:i1]
        t0, t1 = -(rz @ w) / p2, -(rx @ w) / p2
        r = np.where((t0 <= 0.5)[:, None], rz, rx)
        o = r * along - delta * (_others(r * w) / p2)
        e0, e1 = np.split(specfun.erf(root * np.concatenate((t0, t1))), 2)
        gauss = width * np.exp(-0.5 * ((o * o) @ inv)) * (e0 - e1)
        ez, ex = (np.exp(-0.5 * ((v * v) @ inv)) for v in (rz, rx))
        A[i0:i1] = scale * ((ez - ex)[:, None] * delta / p2 + o * gauss[:, None])
    return A


@np.errstate(over="ignore", invalid="ignore")
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
    erf serves every feature. With a_j = (x_j - z_j)^2 / ls_j^2 (so
    p2 = sum_j a_j and r2 = -r0 a_i) the two polynomials are
    r0 * sum_{j != i} a_j and r0 * (sum_{j != i} a_j - a_i), and every sum
    over j != i is _others(a), a product with a zero-diagonal matrix, so the
    j = i term enters as an exact zero: forming p2 r0 + r2 directly cancels
    to nothing when feature i carries nearly all of p2. On a
    degenerate path (p2 ~ 0), where the closed forms divide by ~0, both
    come from their p2 -> 0 limit: one quadrature node at t = 1/2 with
    weight 1, whose error is O(p2) relative. Overflow is silent here and in
    _path_quadrature (a lengthscale past the float range gives 1/ls^2 = 0,
    the right limit); _gaussian_report checks what it leaves.
    """
    ls2 = hyper.lengthscales**2
    delta = x - z
    p2 = float(np.sum(delta**2 / ls2))
    if p2 <= SINGULAR_THRESHOLD:
        A, prior = _path_quadrature(x, z, centers, hyper, np.array([0.5]), np.array([1.0]))
    else:
        r0 = hyper.signal_variance / ls2
        a = delta**2 / ls2
        others = _others(a)
        one_minus_exp = -math.expm1(-0.5 * p2)
        bracket = r0 * (
            _SQRT_2PI * specfun.erf(math.sqrt(0.5 * p2)) * others / p2**1.5
            - 2.0 * one_minus_exp * (others - a) / p2**2
        )
        A, prior = _slice_matrix(x, z, centers, hyper), delta**2 * bracket
    return A, _clamp_variance(prior, "prior attribution", hyper.signal_variance)


def prior_attribution_variance(x, baseline, i: int, hyper: ArdSeHyper) -> float:
    """Prior variance of feature i's attribution, read from the d prior
    variances of _slices_and_priors (which needs no training centers)."""
    x, z = _query_pair(x, baseline, hyper)
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
    """Attribution law of every feature as read-only (d,) means and
    variances, plus the completeness diagnostic."""

    means: np.ndarray
    variances: np.ndarray
    completeness_residual: float
    prediction_mean: float
    baseline_prediction_mean: float

    @property
    def attributions(self) -> tuple[AttributionGaussian, ...]:
        # one law per feature, built on demand: kept for gpr_attribution and
        # perfbench/explain_child.py, which the benchmark's tracer times
        pairs = zip(self.means.tolist(), self.variances.tolist())
        return tuple(AttributionGaussian(i, m, v) for i, (m, v) in enumerate(pairs))


def _moments(means, variances, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(dim,) means and variances of the attribution laws as read-only float
    copies. A wrong shape or a negative variance raises ValueError, a law
    that is not finite NumericalError naming the first such feature."""
    means, variances = np.array(means, dtype=float), np.array(variances, dtype=float)
    if not (means.shape == variances.shape == (dim,)):
        raise ValueError(f"expected ({dim},) means and variances, got {means.shape} and {variances.shape}")
    finite = np.isfinite(means) & np.isfinite(variances)
    if not finite.all():
        raise NumericalError(f"attribution law of feature {int(np.argmin(finite))} is not finite: it overflowed")
    if np.any(variances < 0.0):
        raise ValueError(f"attribution variance must be >= 0, got {float(variances.min())!r}")
    means.flags.writeable = variances.flags.writeable = False
    return means, variances


def _assemble(model: GprModel, means, variances, k_xz: np.ndarray) -> AttributionReport:
    # mu(x) - mu(z) = (k_x - k_z) . alpha: the target offset cancels exactly.
    # sum() adds the means left to right; np.sum pairs them from d = 8 on,
    # which would move the residual's last digits
    means, variances = _moments(means, variances, model.hyper.dim)
    gap = float((k_xz[0] - k_xz[1]) @ model.alpha)
    return AttributionReport(
        means=means,
        variances=variances,
        completeness_residual=float(abs(sum(means.tolist()) - gap)),
        prediction_mean=model.y_mean_offset + float(k_xz[0] @ model.alpha),
        baseline_prediction_mean=model.y_mean_offset + float(k_xz[1] @ model.alpha),
    )


@np.errstate(over="ignore", invalid="ignore")
def _gaussian_report(
    model: GprModel, x: np.ndarray, z: np.ndarray, A: np.ndarray, prior: np.ndarray
) -> AttributionReport:
    """Report of every feature's posterior attribution law from an engine's
    (n, d) slice matrix A and d prior variances, by one triangular solve
    W = L^{-1} [A, k_x, k_z]: mean = alpha . A, var = prior - colsum(W[:, :d]^2).
    The kernel rows at x and z ride along to give the posterior variances
    sv - colsum(W[:, d:]^2) there, which keep predict's round-off guard, and
    the predictions whose gap the completeness residual is measured against.
    A value that overflowed raises NumericalError here, in the solve, the
    clamp or the moments, for the exact and quadrature engines alike.
    """
    d = model.hyper.dim
    sv = model.hyper.signal_variance
    k_xz = kernel_cross(np.stack((x, z)), model.x_train, model.hyper)
    W = model.solve(np.hstack((A, k_xz.T)))
    squares = np.sum(W * W, axis=0)
    _clamp_variance(sv - squares[d:], "query or baseline posterior", sv)
    variances = _clamp_variance(prior - squares[:d], "attribution", sv)
    return _assemble(model, model.alpha @ A, variances, k_xz)


def attribution_report(model: GprModel, x, baseline) -> AttributionReport:
    """Attribute every feature and report the completeness residual

        | sum_i mean_i - (mu(x) - mu(z)) |

    which is zero in exact arithmetic for the straight-path construction.
    The whole report costs one triangular solve with the lower Cholesky
    factor on d + 2 right-hand sides and one erf sweep over 2n points.
    """
    x, z = _query_pair(x, baseline, model.hyper)
    return _gaussian_report(model, x, z, *_slices_and_priors(x, z, model.x_train, model.hyper))


def report_from_rows(model: GprModel, x, baseline, means, variances) -> AttributionReport:
    """Report around the (d,) moments of an engine with its own posterior,
    the random features. The completeness residual is measured against the
    exact posterior means, so the laws show their true gap rather than zero.
    Moments of another shape than (d,) raise ValueError."""
    x, z = _query_pair(x, baseline, model.hyper)
    return _assemble(model, means, variances, kernel_cross(np.stack((x, z)), model.x_train, model.hyper))
