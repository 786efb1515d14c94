"""Kernel value and derivative tests.

Derivatives are checked against central finite differences of the plain
kernel evaluation, which only assumes the value formula is right; that
formula itself is pinned by hand-computed cases. The kernel block is checked
against the explicit scaled-difference form kept in tests/oracles.py, and the
packed kernel matrix against LAPACK's packing of the dense block.
"""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from gpattr import (
    ArdSeHyper,
    grad_i_cross,
    hess_ii_cross,
    kernel_cross,
    kernel_matrix,
)
from gpattr.gpr import _noisy_kernel_matrix, jittered_cholesky
from gpattr.kernels import _LOG_CUTOFF, _kernel_block, _packed_diagonal, _packed_order
from oracles import (
    FD_STEP,
    ardse_eval,
    ardse_grad_i,
    ardse_hess_ii,
    kernel_cross_direct,
    pack,
    unpack_symmetric,
)

H2 = ArdSeHyper(2.0, np.array([1.0, 2.0]), 0.0)


def test_value_hand_case():
    # scaled squared distance: (1/1)^2 + (2/2)^2 = 2  ->  k = 2 exp(-1)
    k = ardse_eval([0.0, 0.0], [1.0, 2.0], H2)
    assert k == pytest.approx(2.0 * np.exp(-1.0), rel=1e-15)


def test_value_at_identical_points_is_signal_variance():
    assert ardse_eval([3.0, -1.0], [3.0, -1.0], H2) == 2.0


def test_gradient_hand_case():
    # d k / d x_0 = -k (x_0 - z_0) / ls_0^2 with x_0 - z_0 = -1
    g = ardse_grad_i([0.0, 0.0], [1.0, 2.0], 0, H2)
    assert g == pytest.approx(2.0 * np.exp(-1.0), rel=1e-14)


def test_hessian_hand_case():
    # d^2 k / (d x_1 d z_1) = k (1/ls_1^2 - diff^2/ls_1^4), diff = -2, ls_1 = 2
    want = 2.0 * np.exp(-1.0) * (0.25 - 4.0 / 16.0)
    assert ardse_hess_ii([0.0, 0.0], [1.0, 2.0], 1, H2) == pytest.approx(want, abs=1e-15)


def _random_cases(n, dim, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sv = float(rng.uniform(0.2, 3.0))
        ls = rng.uniform(0.3, 2.5, size=dim)
        x = rng.uniform(-2.0, 2.0, size=dim)
        z = rng.uniform(-2.0, 2.0, size=dim)
        yield ArdSeHyper(sv, ls, 0.0), x, z


def test_gradient_matches_finite_differences():
    h = FD_STEP
    for hyper, x, z in _random_cases(100, 4, seed=5):
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (ardse_eval(xp, z, hyper) - ardse_eval(xm, z, hyper)) / (2.0 * h)
            got = ardse_grad_i(x, z, i, hyper)
            scale = hyper.signal_variance / hyper.lengthscales[i]
            assert abs(got - fd) <= 1e-6 * max(abs(got), scale)


def test_hessian_matches_finite_differences():
    # mixed second derivative via the four-point stencil on k(x, z)
    h = FD_STEP
    for hyper, x, z in _random_cases(100, 3, seed=6):
        for i in range(3):
            fd = 0.0
            for sx, sz in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                xp = x.copy()
                zp = z.copy()
                xp[i] += sx * h
                zp[i] += sz * h
                fd += sx * sz * ardse_eval(xp, zp, hyper)
            fd /= 4.0 * h * h
            got = ardse_hess_ii(x, z, i, hyper)
            scale = hyper.signal_variance / hyper.lengthscales[i] ** 2
            assert abs(got - fd) <= 1e-5 * max(abs(got), scale)


def test_cross_matrix_matches_scalar_loop(rng):
    X = rng.uniform(-2.0, 2.0, size=(7, 2))
    Z = rng.uniform(-2.0, 2.0, size=(5, 2))
    K = kernel_cross(X, Z, H2)
    assert K.shape == (7, 5)
    for n in range(7):
        for m in range(5):
            assert K[n, m] == pytest.approx(ardse_eval(X[n], Z[m], H2), rel=1e-15)


def test_grad_cross_matches_scalar_loop(rng):
    Z = rng.uniform(-2.0, 2.0, size=(4, 2))
    X = rng.uniform(-2.0, 2.0, size=(6, 2))
    for i in range(2):
        G = grad_i_cross(Z, X, i, H2)
        for a in range(4):
            for b in range(6):
                assert G[a, b] == pytest.approx(ardse_grad_i(Z[a], X[b], i, H2), rel=1e-14)


def test_hess_cross_matches_scalar_loop(rng):
    Z = rng.uniform(-2.0, 2.0, size=(4, 2))
    W = rng.uniform(-2.0, 2.0, size=(3, 2))
    for i in range(2):
        Hm = hess_ii_cross(Z, W, i, H2)
        for a in range(4):
            for b in range(3):
                assert Hm[a, b] == pytest.approx(ardse_hess_ii(Z[a], W[b], i, H2), abs=1e-14)


def test_kernel_matrix_symmetric_with_exact_diagonal(rng):
    X = rng.uniform(-3.0, 3.0, size=(20, 2))
    K = kernel_cross(X, X, H2)
    assert np.array_equal(K, K.T)
    assert np.array_equal(unpack_symmetric(kernel_matrix(X, H2)), K)
    assert np.all(np.diag(K) == H2.signal_variance)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 63, 64, 65, 200, 513])
def test_kernel_matrix_is_the_packed_dense_block_bit_for_bit(n):
    # odd and even RFP layouts, and blocks that end on, before and after
    # the 64-row block edge
    rng = np.random.default_rng(n)
    X = rng.uniform(-3.0, 3.0, size=(n, 3))
    hyper = ArdSeHyper(1.3, np.array([0.6, 1.1, 2.5]), 0.0)
    K = kernel_matrix(X, hyper)
    assert K.shape == (n * (n + 1) // 2,)
    assert np.array_equal(K, pack(kernel_cross(X, X, hyper)))
    # the diagonal positions fit, load_model and the likelihood use, in order
    ramp = np.arange(1.0, n + 1)
    assert np.array_equal(pack(np.diag(ramp))[_packed_diagonal(n)], ramp)


def test_packed_order_rejects_a_size_no_packed_matrix_has():
    assert [_packed_order(n * (n + 1) // 2) for n in (0, 1, 2, 3, 64)] == [0, 1, 2, 3, 64]
    # 5 lies between 3 (n = 2) and 6 (n = 3)
    with pytest.raises(ValueError, match="5 values are not a packed symmetric matrix"):
        _packed_order(5)


def _hostile_blocks(seed):
    """Seeded (X, Z, hyper) draws over d in {1, 2, 3, 8}, input offsets 0,
    1e3 and 1e6 (lengthscales near 1e-3 at 1e6), and sv from 1e-6 to 1e8;
    points spread over a few lengthscales so the block is far from zero."""
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3, 8):
        for offset, log_ls in ((0.0, (-3.5, 3.5)), (1e3, (-2.0, 2.0)), (1e6, (-3.5, -2.5))):
            for _ in range(8):
                ls = 10.0 ** rng.uniform(*log_ls, size=dim)
                sv = float(10.0 ** rng.uniform(-6.0, 8.0))
                spread = ls * np.sqrt(dim) * 0.7
                X = offset + spread * rng.standard_normal((9, dim))
                Z = offset + spread * rng.standard_normal((7, dim))
                yield X, Z, ArdSeHyper(sv, ls, 0.0)


def test_cross_matches_direct_differences_on_hostile_inputs():
    prescaled_gap = 0.0
    for X, Z, hyper in _hostile_blocks(seed=41):
        sv = hyper.signal_variance
        K = kernel_cross(X, Z, hyper)
        assert np.max(np.abs(K - kernel_cross_direct(X, Z, hyper))) <= 2e-15 * sv
        assert np.max(np.abs(K.T - kernel_cross(Z, X, hyper))) == 0.0
        ls = hyper.lengthscales
        unit = ArdSeHyper(sv, np.ones_like(ls), 0.0)
        prescaled = kernel_cross_direct(X / ls, Z / ls, unit)
        prescaled_gap = max(prescaled_gap, np.max(np.abs(K - prescaled)) / sv)
    # the draws are hostile enough that scaling before differencing misses the bound
    assert prescaled_gap > 2e-15


def test_cross_equals_cdist_bit_for_bit():
    # every block takes its distances from the compiled pass cdist calls: on
    # the hostile draws, single rows and columns, blocks up to 9000 wide, and
    # square d = 8 blocks just under (362^2 * 8) and over (363^2 * 8) 2^20 terms
    blocks = list(_hostile_blocks(seed=43))
    rng = np.random.default_rng(44)
    for dim, m in ((1, 1), (2, 199), (3, 700), (8, 2999), (8, 9000)):
        hyper = ArdSeHyper(1.3, 10.0 ** rng.uniform(-1.5, 1.5, size=dim), 0.0)
        Z = 1e3 + hyper.lengthscales * rng.standard_normal((m, dim))
        for n in (1, 2, 17, 257):
            blocks.append((1e3 + hyper.lengthscales * rng.standard_normal((n, dim)), Z, hyper))
        blocks.append((Z[:1], Z, hyper))
        blocks.append((Z, Z[:1], hyper))
    for n in (362, 363):
        X = rng.uniform(0.0, 10.0, size=(n, 8))
        blocks.append((X, X, ArdSeHyper(1.7, 10.0 ** rng.uniform(-0.5, 1.0, size=8), 0.0)))
    for X, Z, hyper in blocks:
        got = kernel_cross(X, Z, hyper)
        want = _kernel_block(cdist(X, Z, "sqeuclidean", w=hyper.lengthscales**-2.0), hyper)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
            f"block {len(X)}x{len(Z)}x{hyper.dim}: kernel_cross differs from cdist of scipy {scipy.__version__}")


def test_kernel_matrix_d8_symmetric_with_exact_diagonal(rng):
    X = rng.uniform(-3.0, 3.0, size=(500, 8))
    hyper = ArdSeHyper(1.7, rng.uniform(0.5, 4.0, size=8), 0.0)
    K = kernel_cross(X, X, hyper)
    assert np.array_equal(K, K.T)
    assert np.array_equal(unpack_symmetric(kernel_matrix(X, hyper)), K)
    assert np.all(np.diag(K) == hyper.signal_variance)


def test_kernel_matrix_memory_is_one_block(rng):
    n = 1000
    X = rng.uniform(-3.0, 3.0, size=(n, 8))
    hyper = ArdSeHyper(1.0, np.full(8, 1.5), 0.0)
    tracemalloc.start()
    try:
        kernel_matrix(X, hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the packed matrix is 0.5 * 8n^2; each block adds about 64 x n values
    assert peak <= 0.7 * n * n * 8


def test_short_lengthscales_leave_no_subnormal_entries():
    # the hyperparameter search's 1/16-lengthscale start on n=800, d=8 rows
    # drawn uniformly from [0, 10]^8: entries below sv * eps^2 are exact
    # zeros, so neither the packed K + noise*I nor its packed Cholesky factor
    # holds a subnormal number
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 10.0, size=(800, 8))
    y = np.sin(X[:, 0]) * np.sin(2.0 * X[:, 1]) + 0.5 * rng.standard_normal(800)
    y_var = float(np.var(y))
    hyper = ArdSeHyper(y_var, X.std(axis=0) / 16.0, 0.1 * y_var)
    sq = cdist(X, X, "sqeuclidean", w=hyper.lengthscales**-2.0)
    assert np.any((sq > 1420.0) & (sq < 1480.0))  # exp(-sq/2) in the subnormal range
    cut = -0.5 * sq < _LOG_CUTOFF
    assert np.all(kernel_cross(X, X, hyper)[cut] == 0.0) and not np.all(cut)
    build = functools.partial(_noisy_kernel_matrix, X, hyper)
    K = build(0.0)
    chol, _ = jittered_cholesky(build)  # the factor is written over a fresh build
    tiny = np.finfo(float).tiny
    for block in (K, chol):
        assert np.all((block == 0.0) | (np.abs(block) >= tiny))


def test_kernel_matrix_near_psd(rng):
    # eigenvalues may round slightly negative, never materially
    X = rng.uniform(-3.0, 3.0, size=(60, 3))
    hyper = ArdSeHyper(1.5, np.array([0.7, 1.0, 1.3]), 0.0)
    eigmin = np.linalg.eigvalsh(unpack_symmetric(kernel_matrix(X, hyper))).min()
    assert eigmin >= -1e-10 * hyper.signal_variance * len(X)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        ardse_eval([0.0, 0.0, 0.0], [1.0, 2.0], H2)
    with pytest.raises(ValueError):
        kernel_cross(np.zeros((3, 1)), np.zeros((3, 2)), H2)


def test_bad_feature_index_raises():
    for i in (-1, 2, 7):
        with pytest.raises(IndexError):
            ardse_grad_i([0.0, 0.0], [1.0, 1.0], i, H2)
        with pytest.raises(IndexError):
            hess_ii_cross(np.zeros((2, 2)), np.zeros((2, 2)), i, H2)


def test_hyper_validation():
    with pytest.raises(ValueError):
        ArdSeHyper(-1.0, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        ArdSeHyper(1.0, np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        ArdSeHyper(1.0, np.array([1.0]), -0.1)


finite_coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(
    hnp.arrays(np.float64, (2,), elements=finite_coords),
    hnp.arrays(np.float64, (2,), elements=finite_coords),
)
@settings(max_examples=150)
def test_value_positive_and_bounded(x, z):
    k = ardse_eval(x, z, H2)
    assert 0.0 < k <= H2.signal_variance
    # swapping arguments cannot change the value
    assert ardse_eval(z, x, H2) == k


@given(
    hnp.arrays(np.float64, (2,), elements=finite_coords),
    hnp.arrays(np.float64, (2,), elements=finite_coords),
)
@settings(max_examples=100)
def test_gradient_antisymmetric_in_arguments(x, z):
    # moving x toward z mirrors moving z toward x
    for i in range(2):
        assert ardse_grad_i(x, z, i, H2) == pytest.approx(
            -ardse_grad_i(z, x, i, H2), rel=1e-13, abs=1e-300
        )
