"""Squared-exponential kernel with per-feature lengthscales (ARD).

k(x, x') = sv * exp(-0.5 * sum_j ((x_j - x'_j) / ls_j)^2)

A single lengthscale shared across features is the special case of equal
ls_j, so one code path serves both. Every operation is a block over two
point sets, the form the regression and attribution layers run on; the
scalar value and derivative formulas are kept as test oracles.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "ArdSeHyper",
    "kernel_matrix",
    "kernel_cross",
    "grad_i_cross",
    "hess_ii_cross",
]

# An exponent below 2 ln(eps) gives a kernel value under sv * eps^2 (about
# sv * 4.9e-32), far below the round-off of any sum with the diagonal. Such
# values become exact zeros: the subnormal numbers they would underflow to
# make exp, and every Cholesky pass over them, many times slower.
_LOG_CUTOFF = 2.0 * math.log(np.finfo(float).eps)


@dataclass(frozen=True)
class ArdSeHyper:
    """Kernel hyperparameters: signal variance, lengthscales, noise variance.

    signal_variance > 0, every lengthscale > 0, noise_variance >= 0.
    """

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self) -> None:
        ls = np.asarray(self.lengthscales, dtype=float).reshape(-1)
        object.__setattr__(self, "lengthscales", ls)
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0.0):
            raise ValueError(f"signal_variance must be finite and > 0, got {self.signal_variance!r}")
        if ls.size == 0 or not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError("lengthscales must be a non-empty vector of finite positives")
        if not (np.isfinite(self.noise_variance) and self.noise_variance >= 0.0):
            raise ValueError(f"noise_variance must be finite and >= 0, got {self.noise_variance!r}")

    @property
    def dim(self) -> int:
        return self.lengthscales.size


def _check_index(i: int, dim: int) -> None:
    if not 0 <= i < dim:
        raise IndexError(f"feature index {i} out of range for dimension {dim}")


def _as_points(X, hyper: ArdSeHyper, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != hyper.dim:
        raise ValueError(f"{name} must have shape (n, {hyper.dim}), got {X.shape}")
    return X


def kernel_cross(X, Z, hyper: ArdSeHyper) -> np.ndarray:
    """Kernel matrix k(X[n], Z[m]) with shape (len(X), len(Z)).

    One weighted squared-distance pass sums direct differences (x_j - z_j)^2
    weighted by 1/ls_j^2, not the norm expansion: exact symmetry and no
    cancellation for nearby points, with one n x m block as the only memory.
    Values below sv * eps^2 are returned as exact zeros, never subnormal.
    """
    X = _as_points(X, hyper, "X")
    Z = _as_points(Z, hyper, "Z")
    sq = cdist(X, Z, "sqeuclidean", w=hyper.lengthscales**-2.0)
    sq *= -0.5
    sq[sq < _LOG_CUTOFF] = -np.inf
    np.exp(sq, out=sq)
    sq *= hyper.signal_variance
    return sq


def kernel_matrix(X, hyper: ArdSeHyper) -> np.ndarray:
    """Symmetric kernel matrix over one point set (noise not included)."""
    return kernel_cross(X, X, hyper)


def grad_i_cross(Z, X, i: int, hyper: ArdSeHyper) -> np.ndarray:
    """Rows: d k(z, x_n) / d z_i for z in Z, x_n in X. Shape (len(Z), len(X))."""
    _check_index(i, hyper.dim)
    Z = _as_points(Z, hyper, "Z")
    X = _as_points(X, hyper, "X")
    K = kernel_cross(Z, X, hyper)
    diff = Z[:, i][:, None] - X[:, i][None, :]
    return -K * diff / hyper.lengthscales[i] ** 2


def hess_ii_cross(Z, Z2, i: int, hyper: ArdSeHyper) -> np.ndarray:
    """Mixed second derivatives d^2 k(z, z') / (d z_i d z'_i) as a matrix."""
    _check_index(i, hyper.dim)
    Z = _as_points(Z, hyper, "Z")
    Z2 = _as_points(Z2, hyper, "Z2")
    K = kernel_cross(Z, Z2, hyper)
    li2 = hyper.lengthscales[i] ** 2
    diff = Z[:, i][:, None] - Z2[:, i][None, :]
    return K * (1.0 / li2 - diff**2 / li2**2)
