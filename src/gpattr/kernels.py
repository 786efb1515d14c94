"""Squared-exponential kernel with per-feature lengthscales (ARD).

k(x, x') = sv * exp(-0.5 * sum_j ((x_j - x'_j) / ls_j)^2)

A single lengthscale shared across features is the special case of equal
ls_j, so one code path serves both. Every operation is a block over two
point sets, the form the regression and attribution layers run on; the
scalar value and derivative formulas are kept as test oracles. The
symmetric kernel matrix of one point set is assembled straight into
LAPACK's rectangular full packed (RFP) layout, n(n+1)/2 values, which the
regression layer factors and solves with in place. Every block takes its
distances from one compiled pass, the one cdist(X, Z, "sqeuclidean", w=w)
calls (specfun.cdist_sqeuclidean), so the two give the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import NumericalError, cdist_sqeuclidean

__all__ = [
    "ArdSeHyper",
    "kernel_matrix",
    "kernel_cross",
    "grad_i_cross",
    "hess_ii_cross",
]

# An exponent below 2 ln(eps) gives a kernel value under sv * eps^2 (about
# sv * 4.9e-32), far below the round-off of any sum with the diagonal. Such
# values become exact zeros, never the subnormal numbers exp would underflow
# to, which make exp many times slower. The cutoff keeps subnormals out
# of K, not out of its Cholesky factor: the 60-evaluation search on n = 799,
# d = 8 still leaves 10,511 subnormal entries in 11 of its factors (ROADMAP
# item 9).
_LOG_CUTOFF = 2.0 * math.log(np.finfo(float).eps)
# Rows of the packed layout kernel_matrix fills per pair of kernel blocks.
# The packed matrix is 0.5 * 8n^2 bytes; with 64-row blocks the tracemalloc
# peak of kernel_matrix at n = 1000, d = 8 was 0.57 * 8n^2, with 256-row
# blocks 0.79 * 8n^2.
_BLOCK_ROWS = 64


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

    def to_json_dict(self) -> dict:
        return {"signal_variance": self.signal_variance, "lengthscales": self.lengthscales.tolist(),
                "noise_variance": self.noise_variance}


def _check_index(i: int, dim: int) -> None:
    if not 0 <= i < dim:
        raise IndexError(f"feature index {i} out of range for dimension {dim}")


def _as_points(X, hyper: ArdSeHyper, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != hyper.dim:
        raise ValueError(f"{name} must have shape (n, {hyper.dim}), got {X.shape}")
    return X


def _weights(hyper: ArdSeHyper) -> np.ndarray:
    """1 / ls^2 per feature; NumericalError when it overflows."""
    with np.errstate(over="ignore"):
        w = hyper.lengthscales**-2.0
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"lengthscale {hyper.lengthscales.min():.3e} is too short: 1 / ls^2 overflows")
    return w


def _kernel_block(sq: np.ndarray, hyper: ArdSeHyper) -> np.ndarray:
    """sv * exp(-sq / 2) in place over weighted squared distances, with
    exact zeros below the cutoff. Exponents are raised to the cutoff before
    exp and the entries cut are zeroed after it, so exp never takes its slow
    path for -inf or a subnormal result; a masked exp (where=) was slower
    whenever most entries are kept."""
    sq *= -0.5
    cut = sq < _LOG_CUTOFF
    np.maximum(sq, _LOG_CUTOFF, out=sq)
    np.exp(sq, out=sq)
    np.copyto(sq, 0.0, where=cut)
    sq *= hyper.signal_variance
    return sq


def kernel_cross(X, Z, hyper: ArdSeHyper) -> np.ndarray:
    """Kernel matrix k(X[n], Z[m]) with shape (len(X), len(Z)).

    One weighted squared-distance pass sums direct differences (x_j - z_j)^2
    weighted by 1/ls_j^2, not the norm expansion: exact symmetry and no
    cancellation for nearby points, with one n x m block as the only memory.
    Values below sv * eps^2 are returned as exact zeros, never subnormal.
    NumericalError when a lengthscale is so short that 1/ls^2 overflows.
    """
    X = _as_points(X, hyper, "X")
    Z = _as_points(Z, hyper, "Z")
    w = _weights(hyper)
    return _kernel_block(cdist_sqeuclidean(X, Z, w=w), hyper)


def _rfp_layout(n: int) -> tuple[int, int, int]:
    """(k1, ld, s) of the RFP layout (transr "N", uplo "L") of an n x n
    matrix A: the n(n+1)/2 values, read as a (k1, ld) C-ordered array R with
    k1 = ceil(n/2) and ld = n + s, s = 1 for even n and 0 for odd n, hold
    the lower triangle as
        R[j, s + j : s + n] = A[j:n, j]
        R[j, 0 : j + s]     = A[k1 - 1 + s + j, k1 : k1 + j + s]
    for j < k1: row j of R is column j of LAPACK's Fortran-ordered array."""
    s = 1 - n % 2
    return (n + 1) // 2, n + s, s


def _packed_order(size: int) -> int:
    """n of a packed symmetric matrix of n(n+1)/2 values."""
    n = (math.isqrt(8 * size + 1) - 1) // 2
    if n * (n + 1) // 2 != size:
        raise ValueError(f"{size} values are not a packed symmetric matrix")
    return n


def _packed_diagonal(n: int) -> np.ndarray:
    """Positions of A[0, 0], ..., A[n-1, n-1] in the RFP layout, in order:
    R[i, s + i] for i < k1, then R[j, j - 1 + s] for i = k1 - 1 + s + j."""
    k1, ld, s = _rfp_layout(n)
    pos = np.arange(n) * (ld + 1) + s
    pos[k1:] -= (k1 - 1 + s) * (ld + 1) + 1
    return pos


def kernel_matrix(X, hyper: ArdSeHyper) -> np.ndarray:
    """Symmetric kernel matrix over one point set (noise not included), as
    its n(n+1)/2 values in LAPACK's RFP layout (transr "N", uplo "L").

    The layout is filled _BLOCK_ROWS rows at a time, each block from two
    distance blocks: the block's columns of A below the diagonal, and the
    transposed rows of the trailing triangle above them. Entries equal
    those of kernel_cross(X, X) bit for bit, and no n x n array is formed.
    """
    X = _as_points(X, hyper, "X")
    w = _weights(hyper)
    n = len(X)
    k1, ld, s = _rfp_layout(n)
    packed = np.empty(n * (n + 1) // 2)
    R = packed.reshape(k1, ld)
    for j0 in range(0, k1, _BLOCK_ROWS):
        j1 = min(j0 + _BLOCK_ROWS, k1)
        # row j gets A[j, j:n]; A[j, j0:j] lands left of that, on cells the
        # trailing rows below overwrite
        R[j0:j1, s + j0 : s + n] = _kernel_block(cdist_sqeuclidean(X[j0:j1], X[j0:], w=w), hyper)
        trailing = X[k1 - 1 + s + j0 : k1 - 1 + s + j1]
        top = _kernel_block(cdist_sqeuclidean(trailing, X[k1 : k1 + j1 - 1 + s], w=w), hyper)
        R[j0:j1, :j0] = top[:, :j0]
        rows = np.arange(j1 - j0)[:, None] + s
        np.copyto(R[j0:j1, j0 : j1 - 1 + s], top[:, j0:], where=rows > np.arange(j1 - j0 - 1 + s))
    return packed


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
