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
    AttributionReport,
    _gaussian_report,
    _path_quadrature,
    _query_pair,
    attribution_report,
)
from .gpr import GprModel, _all_finite
from .specfun import NumericalError

__all__ = [
    "QuadratureSpec",
    "nodes_weights",
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


def quad_attribution(model: GprModel, x, baseline, spec: QuadratureSpec) -> AttributionReport:
    """Quadrature approximation of the attribution law of every feature.

    mean_i: (x_i - z_i) * sum_l w_l dmu/dx_i(path_l)
    var_i:  (x_i - z_i)^2 * w^T H_i w - q_i^T (K + noise*I)^{-1} q_i
    with H_i the matrix of mixed kernel derivatives between path nodes and
    q_i,n = (x_i - z_i) * sum_l w_l dk(path_l, x_n)/dx_i, so the variance is
    the exact posterior variance of the discretized functional. The q_i are
    the columns of one (n, d) matrix built from K(path, train), the priors
    are sums over the J node lags (no J x J block), and the rest is the
    closed form's report: one solve on d + 2 right-hand sides. Its
    completeness residual, against the exact gap mu(x) - mu(z), shows how
    well the rule resolves the path. Cost O(J n d + J^2 + n^2 d) time and
    O(J n) memory for J nodes and n training rows.
    """
    x, z = _query_pair(x, baseline, model.hyper)
    A, prior = _path_quadrature(x, z, model.x_train, model.hyper, *nodes_weights(spec))
    return _gaussian_report(model, x, z, A, prior)


@dataclass(frozen=True)
class SweepRow:
    """Median absolute errors of one (rule, L) cell against the closed form."""

    rule: str
    partitions: int
    function_evals: int
    mean_abs_err: float
    var_abs_err: float


def _median(values) -> np.ndarray:
    """np.median over the last axis, bit for bit (the middle value, or the mean of the two middle
    values), by a sort: np.median's masked-array check imports numpy.ma."""
    values = np.sort(values, axis=-1)
    half = values.shape[-1] // 2
    return values[..., half] if values.shape[-1] % 2 else (values[..., half - 1] + values[..., half]) / 2.0


def convergence_sweep(model: GprModel, queries, baseline, rules, l_values) -> list[SweepRow]:
    """Benchmark quadrature rules against the exact attribution.

    Errors are medians of |quad - exact| over all query points and
    features, separately for means and variances.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))

    def moments(engine, *spec) -> np.ndarray:  # (Q, 2, d) means and variances
        reports = (engine(model, xq, baseline, *spec) for xq in queries)
        return np.array([(r.means, r.variances) for r in reports])

    exact = moments(attribution_report)
    rows: list[SweepRow] = []
    for rule in rules:
        for L in l_values:
            spec = QuadratureSpec(rule=rule, partitions=int(L))
            err = np.abs(moments(quad_attribution, spec) - exact).transpose(1, 0, 2).reshape(2, -1)
            mean_err, var_err = _median(err)
            rows.append(SweepRow(rule, int(L), nodes_weights(spec)[0].size, float(mean_err), float(var_err)))
    return rows


@dataclass(frozen=True)
class McOracleResult:
    """Sample statistics of every feature's Monte Carlo draws, as (d,) arrays."""

    empirical_mean: np.ndarray
    empirical_var: np.ndarray
    std_error: np.ndarray


def mc_attribution_oracle(
    model: GprModel,
    x,
    baseline,
    grid_points: int = 257,
    samples: int = 10_000,
    seed: int = 0,
) -> McOracleResult:
    """Monte Carlo check of every feature's attribution law.

    The posterior gradient field along the path is jointly Gaussian, so its
    integral with trapezoid weights on grid_points nodes is Gaussian too:
    its law is quad_attribution's with the trapezoid rule on grid_points - 1
    panels: one (G, n) kernel block, the (2, n) rows at x and z and one
    solve on d + 2 columns for all d features, and no field covariance to
    factor. It is not independent of the closed form: both go through
    _gaussian_report's solve, clamp and report, so the draws check only the
    slices and priors (an independent check is ROADMAP.md item 4). Row i
    of one (d, samples) array holds default_rng(seed + i)'s normals xi,
    taken to mean_i + sign(x_i - z_i) std_i xi, the same draws as
    (x_i - z_i) (field integral); a feature at its baseline has a zero law,
    so exact zeros. Returns the rows' sample means and variances with the
    standard errors of the means. Cost O(G n d + n^2 d + d samples) time and
    O(G n + d samples) memory for G grid points and n training rows.
    """
    x, z = _query_pair(x, baseline, model.hyper)
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    law = quad_attribution(model, x, z, QuadratureSpec("trapezoid", grid_points - 1))
    attr = np.stack([np.random.default_rng(seed + i).standard_normal(samples) for i in range(x.size)])
    with np.errstate(over="ignore", invalid="ignore"):  # laws near the float range: checked below
        attr *= np.copysign(np.sqrt(law.variances), x - z)[:, None]
        attr += law.means[:, None]
        emp_mean, emp_var = np.mean(attr, axis=1), np.var(attr, axis=1, ddof=1)
    if not (_all_finite(emp_mean) and _all_finite(emp_var)):
        raise NumericalError("Monte Carlo sample moments overflow: the attribution laws are too wide")
    return McOracleResult(emp_mean, emp_var, np.sqrt(emp_var) / np.sqrt(samples))
