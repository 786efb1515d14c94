"""Per-feature attribution algebra, kept as a test oracle, and test-only helpers.

This is the one-feature-at-a-time form of every engine: the closed forms in
gpattr.attrib_exact (scalar integrand coefficients, one slice-attribution
vector, one prior variance and one training solve per feature), the
quadrature engine (one gradient block, one Hessian block and one solve per
feature, and every prior from the J x J kernel block between the path
nodes) and the random-feature engine (the dense 2M x 2M primal fit, one
gradient-integral vector and one triangular solve per feature). The
random-feature fit is also kept in its copying form, a QR of a C-ordered
design matrix that scipy copies before factoring, and with its attribution
by scipy's solve_triangular it is the scipy.linalg reference for the
package's direct LAPACK calls. The Monte Carlo oracle is
kept in its (samples, grid) field-matrix form, and in its direct-law form
through the dense J x J field covariance. The package
computes all features in one pass and uses each engine's structure; tests
check it against these functions, and these functions against quadrature
and kernel derivatives. The GP variance corrections here
are full Cholesky solves q^T (K + noise*I)^{-1} q, independent of the
package's one triangular pass |L^{-1} q|^2.

The jittered Cholesky factor is kept in its copying form: every attempt
packs a fresh copy of the dense matrix, plus the jitter, and factors it by
LAPACK's dpftrf or, for the dense reference, scipy's cholesky. The package
builds and factors its packed matrices in place. pack, unpack_symmetric and
unpack_factor convert between dense matrices and the package's RFP layout,
and packed_builder turns a dense matrix into jittered_cholesky's builder.

It also keeps the kernel block built from an explicit (n, m, d) tensor of
scaled differences, the reference for the weighted-distance kernel_cross,
and the scalar kernel value and derivatives that mirror the formulas
one-to-one, the reference for the kernel blocks.

Last come helpers only the tests call: the Bayesian linear model, whose
attribution is exact by construction and serves as an end-to-end sanity
case; the random-feature map of one point and the random-feature posterior
mean at one point; the inverse of the z-score normalization; and the
symmetric KL divergence of one pair of laws, the per-draw form of
rfgp-compare's divergence pass.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, lapack, qr, solve_triangular

from gpattr.attrib_exact import SINGULAR_THRESHOLD, AttributionGaussian
from gpattr.attrib_quad import QuadratureSpec, nodes_weights
from gpattr.data_io import DataError, Dataset
from gpattr.gpr import SOLVER_JITTER, GprModel, _clamp_variance
from gpattr.kernels import ArdSeHyper, _as_points, _check_index, grad_i_cross, hess_ii_cross, kernel_cross
from gpattr.rfgp import RfgpModel, _ridge, design_matrix, feature_gradient_integral, sample_frequencies
from gpattr.specfun import NumericalError, erf

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_FALLBACK_PARTITIONS = 256
# step of the finite-difference checks
FD_STEP = 1e-5


@dataclass(frozen=True)
class AttrCoefficients:
    """Coefficients of the path-restricted integrands for one (x, baseline,
    training point, feature) tuple.

    p2, p1, p0: exponent polynomial p2*t^2 + p1*t + p0 (p2 >= 0).
    q1, q0: slice prefactor line q1*t + q0 (both zero when x_i = z_i).
    r2, r0: variance kernel polynomial r0 + r2*u^2 at lag u = s - t.
    """

    p2: float
    p1: float
    p0: float
    q1: float
    q0: float
    r2: float
    r0: float


def kernel_cross_direct(X, Z, hyper: ArdSeHyper) -> np.ndarray:
    """k(X[n], Z[m]) from the (n, m, d) tensor of scaled differences."""
    X = _as_points(X, hyper, "X")
    Z = _as_points(Z, hyper, "Z")
    diff = (X[:, None, :] - Z[None, :, :]) / hyper.lengthscales
    sq = np.einsum("nmd,nmd->nm", diff, diff)
    return hyper.signal_variance * np.exp(-0.5 * sq)


def _check_pair(x: np.ndarray, x2: np.ndarray, hyper: ArdSeHyper) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).reshape(-1)
    x2 = np.asarray(x2, dtype=float).reshape(-1)
    if x.shape != x2.shape or x.size != hyper.dim:
        raise ValueError(
            f"input dimension mismatch: x {x.shape}, x2 {x2.shape}, lengthscales ({hyper.dim},)"
        )
    return x, x2


def ardse_eval(x, x2, hyper: ArdSeHyper) -> float:
    """Kernel value k(x, x2)."""
    x, x2 = _check_pair(x, x2, hyper)
    d = (x - x2) / hyper.lengthscales
    return float(hyper.signal_variance * np.exp(-0.5 * np.dot(d, d)))


def ardse_grad_i(x, x2, i: int, hyper: ArdSeHyper) -> float:
    """Partial derivative of k with respect to the first argument, feature i.

    d k / d x_i = -k(x, x2) * (x_i - x2_i) / ls_i^2
    """
    x, x2 = _check_pair(x, x2, hyper)
    _check_index(i, hyper.dim)
    k = ardse_eval(x, x2, hyper)
    return float(-k * (x[i] - x2[i]) / hyper.lengthscales[i] ** 2)


def ardse_hess_ii(x, x2, i: int, hyper: ArdSeHyper) -> float:
    """Mixed second derivative d^2 k / (d x_i d x2_i), same feature i on both sides.

    d^2 k / (d x_i d x2_i) = k(x, x2) * (1/ls_i^2 - (x_i - x2_i)^2 / ls_i^4)
    """
    x, x2 = _check_pair(x, x2, hyper)
    _check_index(i, hyper.dim)
    k = ardse_eval(x, x2, hyper)
    li2 = hyper.lengthscales[i] ** 2
    return float(k * (1.0 / li2 - (x[i] - x2[i]) ** 2 / li2**2))


def pack(mat: np.ndarray) -> np.ndarray:
    """Lower triangle of a dense matrix in the RFP layout the package uses."""
    return lapack.dtrttf(np.asarray(mat, dtype=float), transr="N", uplo="L")[0]


def packed_builder(mat: np.ndarray):
    """build(jitter) for gpattr.gpr.jittered_cholesky: mat + jitter * I,
    packed anew on every call."""
    eye = np.eye(len(mat))
    return lambda jitter: pack(mat + jitter * eye)


def unpack_factor(packed: np.ndarray) -> np.ndarray:
    """Dense lower-triangular matrix of a packed factor (model.chol)."""
    n = (math.isqrt(8 * packed.size + 1) - 1) // 2
    return np.tril(lapack.dtfttr(n, packed, transr="N", uplo="L")[0])


def unpack_symmetric(packed: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of a packed one (kernel_matrix)."""
    lower = unpack_factor(packed)
    return lower + np.tril(lower, -1).T


def _full_solve_form(model: GprModel, q: np.ndarray) -> float:
    """q^T (K + noise*I)^{-1} q by a full Cholesky solve on the stored factor."""
    return float(q @ cho_solve((unpack_factor(model.chol), True), q))


def _check(x, z, i: int, hyper: ArdSeHyper, *others) -> None:
    if not all(v.size == hyper.dim for v in (x, z, *others)):
        raise ValueError(
            f"dimension mismatch: x {x.size}, baseline {z.size}, "
            f"others {[v.size for v in others]}, hyperparameters {hyper.dim}"
        )
    if not 0 <= i < hyper.dim:
        raise IndexError(f"feature index {i} out of range for dimension {hyper.dim}")


def attr_coefficients(x, baseline, x_center, i: int, hyper: ArdSeHyper) -> AttrCoefficients:
    """Integrand coefficients for the kernel slice k(., x_center) and the
    variance kernel, along the path from baseline to x, feature i."""
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    c = np.asarray(x_center, dtype=float).reshape(-1)
    _check(x, z, i, hyper, c)
    ls2 = hyper.lengthscales**2
    delta = x - z
    r = z - c
    sv = hyper.signal_variance
    li2 = ls2[i]
    return AttrCoefficients(
        p2=float(np.sum(delta**2 / ls2)),
        p1=float(2.0 * np.sum(delta * r / ls2)),
        p0=float(np.sum(r**2 / ls2)),
        q1=float(-sv * delta[i] ** 2 / li2),
        q0=float(-sv * delta[i] * r[i] / li2),
        r2=float(-sv * delta[i] ** 2 / li2**2),
        r0=float(sv / li2),
    )


def _fallback_nodes() -> tuple[np.ndarray, np.ndarray]:
    return nodes_weights(QuadratureSpec(rule="simpson", partitions=_FALLBACK_PARTITIONS))


def slice_attribution_vector(
    x: np.ndarray, z: np.ndarray, centers: np.ndarray, i: int, hyper: ArdSeHyper
) -> np.ndarray:
    """Attribution of feature i applied to every kernel slice k(., c).

    The closed form is written around each center's closest approach to the
    path. With scaled dot products, delta = x - z and t0 = -(z - c).delta/p2
    the closest approach, the offset from c along the path is
    o + (t - t0) delta with o perpendicular to delta, so the integrand
    -sv delta_i (o_i + (t - t0) delta_i) / ls_i^2 exp(-(|o|^2 + p2 (t - t0)^2)/2)
    integrates to an exponential difference between the endpoints plus an
    erf difference. t1 = t0 - 1 is formed from x - c, and o = r + t0 delta
    from the nearer endpoint's offset r. A degenerate path takes fine
    Simpson quadrature of the kernel gradient instead."""
    ls2 = hyper.lengthscales**2
    delta = x - z
    p2 = float(np.sum(delta**2 / ls2))
    if p2 <= SINGULAR_THRESHOLD:
        t, w = _fallback_nodes()
        path = z[None, :] + t[:, None] * delta[None, :]
        grads = grad_i_cross(path, centers, i, hyper)
        return delta[i] * (grads.T @ w)
    rz = z[None, :] - centers
    rx = x[None, :] - centers
    t0 = -(rz / ls2) @ delta / p2
    t1 = -(rx / ls2) @ delta / p2
    o = np.where((t0 <= 0.5)[:, None], rz + t0[:, None] * delta, rx + t1[:, None] * delta)
    root = math.sqrt(0.5 * p2)
    gauss = math.sqrt(0.5 * math.pi / p2) * np.exp(-0.5 * np.sum(o**2 / ls2, axis=1))
    gauss *= erf(root * t0) - erf(root * t1)
    ends = np.exp(-0.5 * np.sum(rz**2 / ls2, axis=1)) - np.exp(-0.5 * np.sum(rx**2 / ls2, axis=1))
    return -hyper.signal_variance * delta[i] / ls2[i] * (delta[i] / p2 * ends + o[:, i] * gauss)


def kernel_slice_attribution(x, baseline, x_center, i: int, hyper: ArdSeHyper) -> float:
    """Attribution of feature i applied to the function k(., x_center).

    In one dimension this telescopes to k(x, x_center) - k(z, x_center).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    center = np.asarray(x_center, dtype=float).reshape(-1)
    _check(x, z, i, hyper, center)
    return float(slice_attribution_vector(x, z, center[None, :], i, hyper)[0])


def prior_variance_per_feature(x, baseline, i: int, hyper: ArdSeHyper) -> float:
    """Prior variance of feature i's attribution, one feature at a time."""
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    _check(x, z, i, hyper)
    ls2 = hyper.lengthscales**2
    delta = x - z
    p2 = float(np.sum(delta**2 / ls2))
    sv = hyper.signal_variance
    if p2 <= SINGULAR_THRESHOLD:
        t, w = _fallback_nodes()
        path = z[None, :] + t[:, None] * delta[None, :]
        H = hess_ii_cross(path, path, i, hyper)
        return _clamp_variance(float(delta[i] ** 2 * (w @ H @ w)), "prior attribution", sv)
    r2 = -sv * delta[i] ** 2 / ls2[i] ** 2
    r0 = sv / ls2[i]
    one_minus_exp = -math.expm1(-0.5 * p2)
    bracket = (
        _SQRT_2PI * erf(math.sqrt(0.5 * p2)) * (p2 * r0 + r2) / p2**1.5
        - 2.0 * one_minus_exp * (p2 * r0 + 2.0 * r2) / p2**2
    )
    return _clamp_variance(float(delta[i] ** 2 * bracket), "prior attribution", sv)


def gpr_attribution_per_feature(model: GprModel, x, baseline, i: int) -> AttributionGaussian:
    """Gaussian law of feature i's attribution with its own training solve.

    mean = slice attributions dotted with the representer weights
    var  = prior double-integral term
           - (slice attributions)^T (K + noise*I)^{-1} (slice attributions)
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    _check(x, z, i, model.hyper)
    a_vec = slice_attribution_vector(x, z, model.x_train, i, model.hyper)
    mean = float(a_vec @ model.alpha)
    prior = prior_variance_per_feature(x, z, i, model.hyper)
    correction = _full_solve_form(model, a_vec)
    var = _clamp_variance(prior - correction, "attribution", model.hyper.signal_variance)
    return AttributionGaussian(feature_index=i, mean=mean, variance=var)


def posterior_mean_gradient(model: GprModel, x, i: int) -> float:
    """d mu / d x_i at x: kernel gradients dotted with representer weights."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != model.hyper.dim:
        raise ValueError(f"x has {x.size} features, model expects {model.hyper.dim}")
    g = grad_i_cross(x[None, :], model.x_train, i, model.hyper)[0]
    return float(g @ model.alpha)


def quad_attribution_per_feature(
    model: GprModel, x, baseline, i: int, spec: QuadratureSpec
) -> AttributionGaussian:
    """Quadrature approximation of the attribution law for feature i.

    mean: (x_i - z_i) * sum_l w_l dmu/dx_i(path_l)
    var:  (x_i - z_i)^2 * w^T H w - q^T (K + noise*I)^{-1} q
    with H the matrix of mixed kernel derivatives between path nodes and
    q_n = (x_i - z_i) * sum_l w_l dk(path_l, x_n)/dx_i.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    _check(x, z, i, model.hyper)
    gap = float(x[i] - z[i])
    t, w = nodes_weights(spec)
    path = z[None, :] + t[:, None] * (x - z)[None, :]

    G = grad_i_cross(path, model.x_train, i, model.hyper)
    mean = gap * float(w @ (G @ model.alpha))

    H = hess_ii_cross(path, path, i, model.hyper)
    prior = gap**2 * float(w @ H @ w)
    q = gap * (G.T @ w)
    correction = _full_solve_form(model, q)
    var = _clamp_variance(prior - correction, "quadrature attribution", model.hyper.signal_variance)
    return AttributionGaussian(feature_index=i, mean=mean, variance=var)


def path_priors_dense(x: np.ndarray, z: np.ndarray, hyper: ArdSeHyper, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Prior variances (d,) of every feature by the rule with nodes t and
    weights w, from the J x J kernel block between the path nodes:
    delta^2 (w.K.w / ls^2 - delta^2 w.(K o (s - t)^2).w / ls^4)."""
    ls2 = hyper.lengthscales**2
    delta = x - z
    path = z[None, :] + t[:, None] * delta[None, :]
    K = kernel_cross(path, path, hyper)
    flat = w @ K @ w
    lagged = w @ (K * (t[:, None] - t[None, :]) ** 2) @ w
    return delta**2 * (flat / ls2 - delta**2 * lagged / ls2**2)


def _packed_cholesky(mat: np.ndarray) -> np.ndarray:
    factor, info = lapack.dpftrf(mat.shape[0], pack(mat), transr="N", uplo="L")
    if info != 0:
        raise np.linalg.LinAlgError(f"leading minor of order {info} is not positive definite")
    return factor


def jittered_cholesky_copying(mat: np.ndarray, dense: bool = False) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a dense symmetric matrix and the jitter
    added, by the same jitter sequence as gpattr.gpr.jittered_cholesky,
    leaving mat untouched: every attempt factors a copy, and every retry
    forms mat + jitter * I anew. The factor is packed and computed by
    dpftrf, as the package computes it, or dense by scipy's cholesky (the
    LAPACK dpotrf path) when dense is set."""
    mat = np.asarray(mat, dtype=float)
    factor = (lambda a: cholesky(a, lower=True)) if dense else _packed_cholesky
    try:
        return factor(mat), 0.0
    except np.linalg.LinAlgError:
        pass
    base = SOLVER_JITTER * float(np.mean(np.diag(mat)))
    if base <= 0.0:
        base = SOLVER_JITTER
    jitter = base
    eye = np.eye(mat.shape[0])
    for _ in range(6):
        try:
            return factor(mat + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"matrix not positive definite after jitter up to {jitter / 10.0:.3e} "
        f"(diag mean {np.mean(np.diag(mat)):.3e})"
    )


@dataclass(frozen=True)
class McStats:
    """Monte Carlo statistics of one feature's attribution draws."""

    empirical_mean: float
    empirical_var: float
    std_error: float
    samples: int


def mc_attribution_oracle_dense(
    model: GprModel, x, baseline, i: int, grid_points: int, samples: int, seed: int
) -> McStats:
    """Monte Carlo attribution draws through the (samples, grid) matrix of
    sampled gradient fields, each integrated with trapezoid weights."""
    hyper = model.hyper
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    gap = float(x[i] - z[i])
    if gap == 0.0:
        return McStats(0.0, 0.0, 0.0, samples)
    t = np.linspace(0.0, 1.0, grid_points)
    path = z[None, :] + t[:, None] * (x - z)[None, :]
    G = grad_i_cross(path, model.x_train, i, hyper)
    mean_field = G @ model.alpha
    H = hess_ii_cross(path, path, i, hyper)
    W = model.solve(G.T)
    cov = H - W.T @ W
    cov = 0.5 * (cov + cov.T)
    factor = unpack_factor(jittered_cholesky_copying(cov)[0])
    w = np.full(grid_points, 1.0 / (grid_points - 1))
    w[0] = w[-1] = 0.5 / (grid_points - 1)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(size=(samples, grid_points))
    fields = mean_field[None, :] + draws @ factor.T
    attr = gap * (fields @ w)
    emp_mean = float(np.mean(attr))
    emp_var = float(np.var(attr, ddof=1))
    sem = float(np.std(attr, ddof=1) / np.sqrt(samples))
    return McStats(emp_mean, emp_var, sem, samples)


def mc_attribution_oracle_direct(
    model: GprModel, x, baseline, i: int, grid_points: int, samples: int, seed: int
) -> McStats:
    """Monte Carlo attribution draws from the law of the trapezoid integral
    of the gradient field, with variance w^T cov w from the dense J x J
    field covariance cov = H - G (K + noise*I)^{-1} G^T, each draw
    (x_i - z_i) (w.mean_field + sqrt(w^T cov w) xi) from one standard normal."""
    hyper = model.hyper
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    gap = float(x[i] - z[i])
    if gap == 0.0:
        return McStats(0.0, 0.0, 0.0, samples)
    t = np.linspace(0.0, 1.0, grid_points)
    path = z[None, :] + t[:, None] * (x - z)[None, :]
    G = grad_i_cross(path, model.x_train, i, hyper)
    H = hess_ii_cross(path, path, i, hyper)
    cov = H - G @ cho_solve((unpack_factor(model.chol), True), G.T)
    w = np.full(grid_points, 1.0 / (grid_points - 1))
    w[0] = w[-1] = 0.5 / (grid_points - 1)
    var = _clamp_variance(float(w @ cov @ w), "Monte Carlo attribution", float(w @ H @ w))
    xi = np.random.default_rng(seed).standard_normal(samples)
    attr = gap * (w @ (G @ model.alpha) + np.sqrt(var) * xi)
    emp_mean = float(np.mean(attr))
    emp_var = float(np.var(attr, ddof=1))
    sem = float(np.std(attr, ddof=1) / np.sqrt(samples))
    return McStats(emp_mean, emp_var, sem, samples)


def _apply_q(trans: str, reflectors: np.ndarray, tau: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Q c (trans "N") or Q^T c (trans "T"), Q the full orthogonal factor of
    a raw QR, by scipy.linalg.lapack.dormqr with the workspace its query
    asks for."""
    lwork = int(lapack.dormqr("L", trans, reflectors, tau, c, -1)[1][0])
    cq, _, info = lapack.dormqr("L", trans, reflectors, tau, c, lwork)
    assert info == 0
    return cq


def rfgp_orthogonal_factor(model: RfgpModel) -> np.ndarray:
    """The (2M, 2M) orthogonal Q that a fitted model's reflectors stand for."""
    return _apply_q("N", model.reflectors, model.tau, np.eye(model.reflectors.shape[0]))


def rfgp_fit_copying(data: Dataset, hyper: ArdSeHyper, m_features: int, seed: int) -> RfgpModel:
    """The random-feature fit with a C-ordered design matrix, filled from
    a separate (N, M) projection, that scipy's qr (mode "raw") copies to
    Fortran order before factoring; the rest as gpattr.rfgp.rfgp_fit."""
    V = sample_frequencies(m_features, hyper, seed)
    proj = data.X @ V.T
    Phi = np.empty((2 * m_features, data.X.shape[0]))
    Phi[0::2] = np.sin(proj).T
    Phi[1::2] = np.cos(proj).T
    (raw, tau), R = qr(Phi, mode="raw")
    reflectors = raw[:, :tau.size]
    core = R @ R.T
    core[np.diag_indices_from(core)] += _ridge(m_features, hyper)
    factor = cholesky(core, lower=True)
    offset = float(data.y.mean())
    padded = np.zeros(2 * m_features)
    padded[:tau.size] = cho_solve((factor, True), R @ (data.y - offset))
    weights = _apply_q("N", reflectors, tau, padded)
    return RfgpModel(V, weights, reflectors, tau, factor, hyper, offset)


def rfgp_attribution_scipy(model: RfgpModel, x, baseline) -> tuple[np.ndarray, np.ndarray]:
    """(d,) attribution means and variances of every feature as
    gpattr.rfgp.rfgp_attribution computes them, with scipy.linalg's
    solve_triangular for the core solve."""
    x = np.asarray(x, dtype=float)
    gap = x - baseline
    zeta = feature_gradient_integral(x, baseline, model.frequencies)
    proj = _apply_q("T", model.reflectors, model.tau, zeta)
    half = solve_triangular(model.core_factor, proj[:model.tau.size], lower=True)
    tail = proj[model.tau.size:]
    form = np.sum(half * half, axis=0) + np.sum(tail * tail / _ridge(model.m_features, model.hyper), axis=0)
    return gap * (model.weights @ zeta), gap**2 * model.hyper.noise_variance * form


def feature_gradient_integral_per_feature(x, baseline, i: int, frequencies: np.ndarray) -> np.ndarray:
    """Path integral of each trig feature's partial derivative d/dx_i,
    averaged over the straight path from baseline to x. Length 2M.

    With u_m = v_m . (x - baseline) and the midpoint phase
    m_m = v_m . (x + baseline) / 2, the sum-to-product identities give
        sin row: v_mi * (sin(c_m + u_m) - sin(c_m)) / u_m =  v_mi * cos(m_m) * sinc
        cos row: v_mi * (cos(c_m + u_m) - cos(c_m)) / u_m = -v_mi * sin(m_m) * sinc
    with c_m = v_m . baseline and sinc = sin(u_m / 2) / (u_m / 2).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    V = np.asarray(frequencies, dtype=float)
    if not (x.size == z.size == V.shape[1]):
        raise ValueError(f"dimension mismatch: x {x.size}, baseline {z.size}, frequencies {V.shape}")
    if not 0 <= i < V.shape[1]:
        raise IndexError(f"feature index {i} out of range for dimension {V.shape[1]}")
    m = V @ (0.5 * (x + z))
    q = np.sinc((V @ (x - z)) / (2.0 * np.pi))
    vi = V[:, i]
    out = np.empty(2 * V.shape[0])
    out[0::2] = vi * (np.cos(m) * q)
    out[1::2] = vi * (-np.sin(m) * q)
    return out


@dataclass(frozen=True)
class RfgpDense:
    """Random-feature fit by the dense primal solve: frequencies, weights and
    the 2M x 2M lower Cholesky factor of A = Phi Phi^T + ridge I."""

    frequencies: np.ndarray
    weights: np.ndarray
    a_factor: np.ndarray
    hyper: ArdSeHyper
    y_mean_offset: float


def rfgp_fit_dense(data: Dataset, hyper: ArdSeHyper, m_features: int, seed: int) -> RfgpDense:
    """The random-feature fit on the same frequencies as rfgp_fit, by
    factoring the 2M x 2M normal matrix A = Phi Phi^T + ridge I and solving
    A w = Phi y_centered."""
    V = sample_frequencies(m_features, hyper, seed)
    Phi = design_matrix(data.X, V)
    A = Phi @ Phi.T
    A[np.diag_indices_from(A)] += m_features * hyper.noise_variance / hyper.signal_variance
    factor = cholesky(A, lower=True)
    offset = float(data.y.mean())
    weights = cho_solve((factor, True), Phi @ (data.y - offset))
    return RfgpDense(V, weights, factor, hyper, offset)


def rfgp_attribution_per_feature(model: RfgpDense, x, baseline, i: int) -> AttributionGaussian:
    """Attribution law of feature i under the dense random-feature posterior.

    mean = (x_i - z_i) * integral_vector . weights
    var  = (x_i - z_i)^2 * noise_variance * integral_vector^T A^{-1} integral_vector
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    zeta = feature_gradient_integral_per_feature(x, z, i, model.frequencies)
    gap = float(x[i] - z[i])
    mean = gap * float(zeta @ model.weights)
    half = solve_triangular(model.a_factor, zeta, lower=True)
    var = gap**2 * model.hyper.noise_variance * float(half @ half)
    return AttributionGaussian(feature_index=i, mean=mean, variance=var)


def bayes_linear_posterior(
    X, y, prior_mean, prior_cov, noise_variance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over linear weights with Gaussian prior and noise.

        cov  = (prior_cov^{-1} + X^T X / noise)^{-1}
        mean = cov (prior_cov^{-1} prior_mean + X^T y / noise)

    X may have zero rows, in which case the prior is returned.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    y = np.asarray(y, dtype=float).reshape(-1)
    mu = np.asarray(prior_mean, dtype=float).reshape(-1)
    S = np.asarray(prior_cov, dtype=float)
    d = mu.size
    if S.shape != (d, d) or X.shape[1] != d:
        raise ValueError(f"inconsistent shapes: X {X.shape}, prior_mean ({d},), prior_cov {S.shape}")
    if X.shape[0] != y.size:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size}")
    if not (np.isfinite(noise_variance) and noise_variance > 0.0):
        raise ValueError(f"noise_variance must be finite and > 0, got {noise_variance!r}")
    try:
        Sc = cholesky(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("prior covariance is not positive definite") from exc
    S_inv = cho_solve((Sc, True), np.eye(d))
    precision = S_inv + X.T @ X / noise_variance
    try:
        Pc = cholesky(precision, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("posterior precision is not positive definite") from exc
    cov = cho_solve((Pc, True), np.eye(d))
    cov = 0.5 * (cov + cov.T)
    mean = cho_solve((Pc, True), S_inv @ mu + X.T @ y / noise_variance)
    return mean, cov


def bayes_linear_attribution(post_mean, post_cov, x, baseline, i: int) -> AttributionGaussian:
    """Attribution of feature i under a linear model with Gaussian weights.

    The path integral of a constant gradient is exact:
        mean = post_mean_i * (x_i - z_i),  var = post_cov_ii * (x_i - z_i)^2
    """
    post_mean = np.asarray(post_mean, dtype=float).reshape(-1)
    post_cov = np.asarray(post_cov, dtype=float)
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(baseline, dtype=float).reshape(-1)
    d = post_mean.size
    if post_cov.shape != (d, d) or x.size != d or z.size != d:
        raise ValueError(
            f"inconsistent shapes: mean ({d},), cov {post_cov.shape}, x ({x.size},), baseline ({z.size},)"
        )
    _check_index(i, d)
    gap = float(x[i] - z[i])
    scale = float(np.max(np.abs(np.diag(post_cov)))) * gap**2
    var = _clamp_variance(float(post_cov[i, i]) * gap**2, "linear attribution", scale)
    return AttributionGaussian(feature_index=i, mean=float(post_mean[i]) * gap, variance=var)


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


def rfgp_mean(model, x) -> float:
    """Posterior mean offset + feature_map(x) . weights of a random-feature
    fit, dense or not."""
    return model.y_mean_offset + float(feature_map(x, model.frequencies) @ model.weights)


def denormalize(data: Dataset) -> Dataset:
    """Invert normalize(), restoring the original feature values."""
    if data.norm_stats is None:
        raise DataError("dataset carries no normalization stats")
    s = data.norm_stats
    return Dataset(data.X * s.std + s.mean, data.y, data.feature_names, norm_stats=None)


def sym_kl_scalar(mean_a: float, var_a: float, mean_b: float, var_b: float) -> float | None:
    """Symmetric KL divergence of two Gaussian laws in float64 scalars, None
    when either is degenerate."""
    if var_a <= 0.0 or var_b <= 0.0:
        return None

    def kl(m1, v1, m2, v2):
        return 0.5 * (np.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1.0)

    a, b = np.float64([mean_a, var_a]), np.float64([mean_b, var_b])
    return float(kl(*a, *b) + kl(*b, *a))
