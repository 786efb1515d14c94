"""Quadrature attribution of GP posteriors, plus a Monte Carlo validator.

These estimators discretize the same path integrals the closed forms in
attrib_exact evaluate analytically, so they serve two roles: a benchmark
of quadrature rules against the exact answer, and an independent check
that the closed forms are right.

All rules produce uniformly spaced nodes in [0, 1] with weights summing to
one (the prior sums of attrib_exact._path_quadrature rely on the spacing):

    right_hand   nodes l/L, l = 1..L, uniform weights (never touches t=0)
    trapezoid    composite trapezoid on L panels (L+1 nodes)
    simpson      composite Simpson on L panels (2L+1 nodes, midpoints)
"""

from dataclasses import dataclass

import numpy as np

from .attrib_exact import (
    AttributionGaussian,
    _laws,
    _path_quadrature,
    _query_pair,
    attribution_report,
)
from .gpr import GprModel, _clamp_variance
from .kernels import _check_index, grad_i_cross, hess_ii_cross

__all__ = [
    "QuadratureSpec",
    "nodes_weights",
    "function_evals",
    "quad_attribution",
    "SweepRow",
    "convergence_sweep",
    "McOracleResult",
    "mc_attribution_oracle",
]

_RULES = ("right_hand", "trapezoid", "simpson")


@dataclass(frozen=True)
class QuadratureSpec:
    """A rule name and its partition count L (panels on [0, 1])."""

    rule: str
    partitions: int

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise ValueError(f"unknown rule {self.rule!r}, expected one of {_RULES}")
        if self.partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {self.partitions}")


def nodes_weights(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for the given rule; weights sum to 1."""
    L = spec.partitions
    if spec.rule == "right_hand":
        t = np.arange(1, L + 1, dtype=float) / L
        w = np.full(L, 1.0 / L)
    elif spec.rule == "trapezoid":
        t = np.arange(0, L + 1, dtype=float) / L
        w = np.full(L + 1, 1.0 / L)
        w[0] = w[-1] = 0.5 / L
    else:  # simpson: panel weights (1, 4, 1)/6, adjacent panels share endpoints
        t = np.arange(0, 2 * L + 1, dtype=float) / (2 * L)
        w = np.empty(2 * L + 1)
        w[0::2] = 2.0 / (6.0 * L)
        w[1::2] = 4.0 / (6.0 * L)
        w[0] = w[-1] = 1.0 / (6.0 * L)
    return t, w


def function_evals(spec: QuadratureSpec) -> int:
    """Integrand evaluations the rule spends (Simpson pays for midpoints)."""
    return nodes_weights(spec)[0].size


def quad_attribution(
    model: GprModel, x, baseline, spec: QuadratureSpec
) -> tuple[AttributionGaussian, ...]:
    """Quadrature approximation of the attribution law of every feature.

    mean_i: (x_i - z_i) * sum_l w_l dmu/dx_i(path_l)
    var_i:  (x_i - z_i)^2 * w^T H_i w - q_i^T (K + noise*I)^{-1} q_i
    with H_i the matrix of mixed kernel derivatives between path nodes and
    q_i,n = (x_i - z_i) * sum_l w_l dk(path_l, x_n)/dx_i, so the variance is
    the exact posterior variance of the discretized functional. The q_i are
    the columns of one (n, d) matrix built from K(path, train), the priors
    are sums over the J node lags (no J x J block), and one triangular solve
    with the lower Cholesky factor on d right-hand sides gives every
    correction as the squared norm |L^{-1} q_i|^2. Cost O(J n d + J^2 + n^2 d)
    time and O(J n) memory for J nodes and n training rows.
    """
    x, z = _query_pair(x, baseline, model.hyper)
    A, prior = _path_quadrature(x, z, model.x_train, model.hyper, *nodes_weights(spec))
    means = model.alpha @ A
    W = model.solve(A)
    sv = model.hyper.signal_variance
    variances = _clamp_variance(prior - np.sum(W * W, axis=0), "quadrature attribution", sv)
    return _laws(means, variances)


@dataclass(frozen=True)
class SweepRow:
    """Median absolute errors of one (rule, L) cell against the closed form."""

    rule: str
    partitions: int
    function_evals: int
    mean_abs_err: float
    var_abs_err: float


def convergence_sweep(model: GprModel, queries, baseline, rules, l_values) -> list[SweepRow]:
    """Benchmark quadrature rules against the exact attribution.

    Errors are medians of |quad - exact| over all query points and
    features, separately for means and variances.
    """
    queries = np.asarray(queries, dtype=float)
    if queries.ndim == 1:
        queries = queries[None, :]
    exact = [attribution_report(model, xq, baseline).attributions for xq in queries]
    rows: list[SweepRow] = []
    for rule in rules:
        for L in l_values:
            spec = QuadratureSpec(rule=rule, partitions=int(L))
            mean_errs = []
            var_errs = []
            for xq, laws in zip(queries, exact):
                for approx, law in zip(quad_attribution(model, xq, baseline, spec), laws):
                    mean_errs.append(abs(approx.mean - law.mean))
                    var_errs.append(abs(approx.variance - law.variance))
            rows.append(
                SweepRow(
                    rule=rule,
                    partitions=int(L),
                    function_evals=function_evals(spec),
                    mean_abs_err=float(np.median(mean_errs)),
                    var_abs_err=float(np.median(var_errs)),
                )
            )
    return rows


@dataclass(frozen=True)
class McOracleResult:
    """Sample statistics of Monte Carlo attribution draws."""

    empirical_mean: float
    empirical_var: float
    std_error: float
    samples: int


def mc_attribution_oracle(
    model: GprModel,
    x,
    baseline,
    i: int,
    grid_points: int = 257,
    samples: int = 10_000,
    seed: int = 0,
) -> McOracleResult:
    """Monte Carlo check of the attribution law, bypassing the closed forms.

    The posterior gradient field along the path is jointly Gaussian with
        mean_j = sum_n alpha_n dk(path_j, x_n)/dx_i
        cov_jk = d2k(path_j, path_k) - G_j^T (K + noise*I)^{-1} G_k,
    G_j the kernel gradients at path node j. Its integral with trapezoid
    weights w is Gaussian too, with mean g.alpha and variance
    w^T H w - |L^{-1} g|^2, where g = G^T w, H is the block of mixed kernel
    derivatives between the nodes and L the lower Cholesky factor of
    K + noise*I. Each draw is (x_i - z_i) (g.alpha + sigma xi) with xi
    standard normal: one solve with one right-hand side and one normal per
    sample, and no field covariance to factor. Returns the sample mean and
    variance with the standard error of the mean.
    """
    hyper = model.hyper
    x, z = _query_pair(x, baseline, hyper)
    _check_index(i, hyper.dim)
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    gap = float(x[i] - z[i])
    if gap == 0.0:
        return McOracleResult(0.0, 0.0, 0.0, samples)

    t = np.linspace(0.0, 1.0, grid_points)
    path = z[None, :] + t[:, None] * (x - z)[None, :]
    w = np.full(grid_points, 1.0 / (grid_points - 1))
    w[0] = w[-1] = 0.5 / (grid_points - 1)
    g = grad_i_cross(path, model.x_train, i, hyper).T @ w
    v = model.solve(g)
    prior = w @ hess_ii_cross(path, path, i, hyper) @ w
    sigma = np.sqrt(_clamp_variance(prior - v @ v, "Monte Carlo attribution", prior))

    attr = np.random.default_rng(seed).standard_normal(samples)
    attr *= sigma
    attr += g @ model.alpha
    attr *= gap
    emp_mean = float(np.mean(attr))
    emp_var = float(np.var(attr, ddof=1))
    sem = float(np.std(attr, ddof=1) / np.sqrt(samples))
    return McOracleResult(emp_mean, emp_var, sem, samples)
