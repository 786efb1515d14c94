"""Exact Gaussian process regression with the ARD squared-exponential kernel.

The prior mean is zero; targets are centered by their sample mean, which the
model keeps as its offset, so predictions and the marginal likelihood are
expressed in the original target units. All solves go through one Cholesky
factor of K + noise*I, retried with escalating diagonal jitter when the
factorization fails. K + noise*I is assembled straight into LAPACK's
rectangular full packed (RFP) layout, n(n+1)/2 values (see
kernels.kernel_matrix), and factored in place there, so fitting or loading
a model holds half an n x n array and never forms a whole one.

save_model writes the model as JSON and stores the factor beside it in a
sidecar keyed by the bytes of everything the factor depends on, so that
loading reads the factor back instead of refactoring; a sidecar that does
not match is ignored and the factor is rebuilt, with the same result. One
reader, _read_model, parses model files, for load_model and every command.
"""

import functools
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .data_io import DataError, Dataset
from .kernels import ArdSeHyper, _packed_diagonal, _packed_order, kernel_cross, kernel_matrix
from .specfun import NumericalError

__all__ = [
    "GprModel",
    "jittered_cholesky",
    "fit",
    "predict",
    "log_marginal_likelihood",
    "optimize_hyperparameters",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "gpattr-model"
MODEL_VERSION = 2
# first bytes of a factor sidecar's key: the layout of the values
FACTOR_TAG = b"gpattr-factor rfp-N-L float64 v1"
# starting jitter of jittered_cholesky, relative to the mean diagonal
SOLVER_JITTER = 1e-10


@dataclass(frozen=True)
class GprModel:
    """Fitted state: hyperparameters, training inputs and targets, lower
    Cholesky factor L of K + noise*I as n(n+1)/2 values in LAPACK's RFP
    layout (transr "N", uplo "L"), and the jitter that had to be added (0.0
    when none).

    Construction checks that the arrays agree in shape with each other and
    with the hyperparameters and that they are finite (DataError naming the
    field otherwise), then freezes them read-only, so solves can skip
    rescanning the factor. It derives the target offset y_mean_offset =
    mean(y_train) and the representer weights alpha = L^{-T} L^{-1}
    (y_train - offset), by one dpftrs; NumericalError if they overflow.
    """

    hyper: ArdSeHyper
    x_train: np.ndarray
    y_train: np.ndarray
    chol: np.ndarray
    jitter: float = 0.0
    alpha: np.ndarray = field(init=False)
    y_mean_offset: float = field(init=False)

    def __post_init__(self) -> None:
        n = len(_checked("x_train", self.x_train, (None, self.hyper.dim)))
        shapes = (("x_train", (n, self.hyper.dim)), ("y_train", (n,)), ("chol", (n * (n + 1) // 2,)))
        for name, shape in shapes:
            arr = _checked(name, getattr(self, name), shape).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        with np.errstate(over="ignore", invalid="ignore"):  # targets near the float range: checked below
            offset = float(self.y_train.mean())
            alpha = specfun.dpftrs(n, self.chol, (self.y_train - offset)[:, None], transr="N", uplo="L")[0][:, 0]
        if not _all_finite(alpha):
            raise NumericalError(f"representer weights are not finite (jitter {self.jitter:.3e})")
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "y_mean_offset", offset)

    @property
    def n_train(self) -> int:
        return self.x_train.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One triangular solve with the lower factor: v = L^{-1} b, where
        L L^T = K + noise*I. Every posterior quadratic form is a product of
        two such solves, b^T (K + noise*I)^{-1} c = solve(b)^T solve(c), so
        it reads the factor once rather than twice. b is an n-vector or an
        (n, m) matrix; LAPACK's dtfsm solves on a Fortran-ordered copy of it
        and reads the packed factor where it is. The factor was checked at
        construction; only b is scanned, and a non-finite entry, which only
        an overflow upstream can put there, raises NumericalError."""
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or len(b) != self.n_train:
            raise ValueError(f"right-hand side of shape {b.shape} for a model fit on {self.n_train} points")
        if not _all_finite(b):
            raise NumericalError("right-hand side of a posterior solve is not finite: an intermediate overflowed")
        v = specfun.dtfsm(1.0, self.chol, b.reshape(self.n_train, -1), transr="N", side="L", uplo="L")
        return v.reshape(b.shape)


def _clamp_variance(var, what: str, scale: float):
    """Round-off negatives (>= -1e-10 * scale, with scale the variance scale
    of the model, its signal variance for a GP) become zero; anything more
    negative, or NaN, raises. Works on a float or elementwise on an array."""
    worst = float(np.min(var))  # NaN if any entry is
    if not worst >= -1e-10 * scale:
        raise NumericalError(
            f"{what} variance {worst:.6e} is negative beyond round-off tolerance at scale {scale:.3e}"
        )
    out = np.where(var >= 0.0, var, 0.0)
    return float(out) if out.ndim == 0 else out


def _all_finite(arr) -> bool:
    """True when every entry is finite. min and max propagate NaN and +-inf,
    so two reductions check the array without an elementwise bool temporary."""
    return math.isfinite(np.min(arr)) and math.isfinite(np.max(arr))


def cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix given as its n(n+1)/2
    values in LAPACK's RFP layout (transr "N", uplo "L"), by dpftrf.

    A float64 mat is factored in its own buffer, with no copy, and the
    factor is returned in the same layout. On failure (LinAlgError) mat is
    partly overwritten. A non-finite entry raises NumericalError before
    LAPACK sees the matrix.
    """
    if not _all_finite(mat):
        raise NumericalError("matrix to factor has non-finite entries")
    factor, info = specfun.dpftrf(_packed_order(mat.size), mat, transr="N", uplo="L", overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"leading minor of order {info} is not positive definite")
    return factor


def jittered_cholesky(build) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric matrix, retrying with diagonal jitter.

    build(jitter) returns a fresh packed matrix (as cholesky takes it) with
    jitter added to its diagonal, and each attempt factors one such matrix
    in place, so a failed attempt is rebuilt rather than restored. The
    first attempt adds no jitter; then jitter starts at
    SOLVER_JITTER * mean(diag) and grows tenfold up to six times. Returns
    (factor, jitter_added). Raises NumericalError on a non-finite entry, or
    when the matrix stays non-positive-definite through the last retry.
    """
    mat = build(0.0)
    diag = mat[_packed_diagonal(_packed_order(mat.size))]
    try:
        return cholesky(mat), 0.0
    except np.linalg.LinAlgError:
        del mat  # freed before the next build, so two never coexist
    base = SOLVER_JITTER * float(np.mean(diag))
    if base <= 0.0:
        base = SOLVER_JITTER
    jitter = base
    for _ in range(6):
        try:
            return cholesky(build(jitter)), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"matrix not positive definite after jitter up to {jitter / 10.0:.3e} "
        f"(diag mean {np.mean(diag):.3e})"
    )


def _noisy_kernel_matrix(X, hyper: ArdSeHyper, jitter: float) -> np.ndarray:
    """K + noise*I + jitter*I, packed as kernel_matrix packs K; the jitter is
    added after the noise, in fit's retries and in load_model alike."""
    K = kernel_matrix(X, hyper)
    diag = _packed_diagonal(len(X))
    K[diag] += hyper.noise_variance
    K[diag] += jitter
    return K


def _check_ranges(X: np.ndarray, names, where: str = "") -> None:
    """DataError naming each column of X, by its entry in names, whose range
    squared overflows, so that squared distances to its extreme rows would too."""
    with np.errstate(over="ignore"):
        spans = np.ptp(X, axis=0) ** 2
    bad = [repr(names[j]) for j in np.flatnonzero(~np.isfinite(spans))]
    if bad:
        raise DataError(f"{where}the range of column(s) {', '.join(bad)} squared overflows: values too large in scale")


def fit(data: Dataset, hyper: ArdSeHyper) -> GprModel:
    """Fit the GP: factor K + noise*I, retrying with jitter, and build the
    model on copies of the data, which derives the weights. DataError naming
    the column when a feature's range squared overflows (_check_ranges);
    ValueError when the data's features do not match the hyperparameters
    (kernel_matrix checks); NumericalError when K is not finite, stays
    indefinite through the jitter retries, or gives weights that overflow."""
    _check_ranges(data.X, data.feature_names)
    chol, jitter = jittered_cholesky(functools.partial(_noisy_kernel_matrix, data.X, hyper))
    return GprModel(hyper, np.array(data.X, dtype=float), np.array(data.y, dtype=float), chol, jitter)


def predict(model: GprModel, x_star) -> tuple[float, float]:
    """Posterior mean and variance at one point.

    mean = offset + k_*^T alpha
    var  = k(x_*, x_*) - |L^{-1} k_*|^2
    Tiny negative variances from round-off (>= -1e-10 * signal_variance)
    clamp to zero; anything more negative raises NumericalError.
    """
    x_star = np.asarray_chkfinite(x_star, dtype=float).reshape(-1)
    k_star = kernel_cross(model.x_train, x_star[None, :], model.hyper)[:, 0]
    mean = model.y_mean_offset + float(k_star @ model.alpha)
    w = model.solve(k_star)
    sv = model.hyper.signal_variance
    return mean, _clamp_variance(float(sv - w @ w), "posterior", sv)


@np.errstate(over="ignore", invalid="ignore")  # checked below
def log_marginal_likelihood(model: GprModel) -> float:
    """Log marginal likelihood of the model's training targets;
    NumericalError when it is not finite, as when targets past about 1e154
    overflow the quadratic form y^T alpha."""
    yc = model.y_train - model.y_mean_offset
    n = model.n_train
    lml = float(
        -0.5 * yc @ model.alpha
        - np.sum(np.log(model.chol[_packed_diagonal(n)]))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    if not math.isfinite(lml):
        raise NumericalError("log marginal likelihood is not finite: the targets are too large")
    return lml


def _hyper_from_log(theta: np.ndarray) -> ArdSeHyper:
    return ArdSeHyper(
        signal_variance=float(np.exp(theta[0])),
        lengthscales=np.exp(theta[2:]),
        noise_variance=float(np.exp(theta[1])),
    )


# Training rows from which optimize_hyperparameters forks its starts. Median
# 60-evaluation search, d = 8, two vCPUs, BLAS on one thread, one process ->
# forked (two sets of 7, October 2026): n = 300 0.072 -> 0.058-0.079 s,
# n = 400 0.13 -> 0.09-0.13 s, n = 800 0.53 -> 0.29 s.
_FORK_ROWS = 400
_LOG_BOUND = np.log(1e8)


def _usable_cpus() -> int:
    """CPUs this process may run on over the threads OpenBLAS gives a call
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else all), so forked
    processes never oversubscribe them; 1 without fork or affinity."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "0"
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and blas.isdigit() and int(blas) > 0):
        return 1
    return max(1, len(os.sched_getaffinity(0)) // int(blas))


def _score(data: Dataset, theta: np.ndarray) -> float:
    try:
        return log_marginal_likelihood(fit(data, _hyper_from_log(theta)))
    except NumericalError:
        return -np.inf


def _descend(data: Dataset, theta: np.ndarray, share: int, is_init: bool = False) -> tuple[np.ndarray, float]:
    """One start: coordinate descent from theta in share evaluations, the first
    scoring theta. Returns the best point and its log marginal likelihood;
    when theta's is not finite, -inf, or NumericalError if is_init."""
    current = _score(data, theta)
    if not np.isfinite(current):
        if is_init:
            raise NumericalError("marginal likelihood is not finite at the initial hyperparameters")
        return theta, -np.inf
    evals = 1
    step = np.log(4.0)
    while evals < share and step > 1e-3:
        moved = False
        for j in range(theta.size):
            for direction in (1.0, -1.0):
                if evals >= share:
                    break
                cand = theta.copy()
                cand[j] = np.clip(cand[j] + direction * step, -_LOG_BOUND, _LOG_BOUND)
                if cand[j] == theta[j]:
                    continue
                evals += 1
                val = _score(data, cand)
                if val > current:
                    current = val
                    theta = cand
                    moved = True
                    break
        if not moved:
            step *= 0.5
    return theta, current


def _descend_and_send(conn, data: Dataset, starts: list) -> None:
    """A forked search process: sends its starts' results, or the exception that stopped them."""
    try:
        conn.send([_descend(data, *start) for start in starts])
    except Exception as exc:
        conn.send(exc)


def _run_starts(data: Dataset, starts: list) -> list:
    """(theta, lml) of each start (_descend's arguments after data), in order.
    From _FORK_ROWS rows, with P > 1 usable CPUs and no other thread (a lock
    it held at the fork would stay held in the child), start k runs in
    process k mod P, and no child outlives the call. Start 0 runs here after
    the forks, so an error it raises stops the call at once. Processes, not
    threads, as dpftrf holds the GIL: 20 fits at n = 800, d = 8 took 0.149 s
    on one thread and 0.152 s as two threads of 10."""
    cpus = min(len(starts), _usable_cpus()) if data.n >= _FORK_ROWS and threading.active_count() == 1 else 1
    procs, results = [], [None] * len(starts)
    try:
        for c in range(1, cpus):
            import multiprocessing  # here, so that no command pays for it at start-up
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.get_context("fork").Process(
                target=_descend_and_send, args=(send, data, starts[c::cpus]))
            proc.start()
            procs.append((proc, recv))
            send.close()
        results[::cpus] = [_descend(data, *start) for start in starts[::cpus]]
        for c, (proc, recv) in enumerate(procs, 1):
            try:
                got = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"search process exited with code {proc.exitcode}") from None
            if isinstance(got, Exception):
                raise got
            results[c::cpus] = got
    finally:
        for proc, recv in procs:
            proc.terminate()  # a no-op once the child has exited
            proc.join()
            recv.close()
    return results


def optimize_hyperparameters(data: Dataset, init: ArdSeHyper, budget: int) -> ArdSeHyper:
    """Best-found hyperparameters from a deterministic budgeted search.

    Runs a log-space coordinate descent from several starts: the given init
    and copies with every lengthscale scaled by 1/4, 1/16, and 4. The
    likelihood is multimodal in the lengthscales, and a too-long start tends
    to collapse into an all-noise basin (signal variance walks to zero)
    that greedy moves cannot leave, so the restarts spread over that axis.
    Each descent tries a multiplicative step up and down per coordinate and
    keeps improvements; the step shrinks after a pass with no accepted move.
    budget counts marginal-likelihood evaluations across all starts,
    allotted round-robin, so budget=1 evaluates init alone and returns it.
    The returned value never scores worse than init. On large problems the
    starts run concurrently in forked processes, with identical results;
    start 0 scores init after the forks, as a factorization before them
    would leave a second OpenBLAS buffer resident here. A non-finite init
    score raises NumericalError.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    theta0 = np.concatenate(
        (
            [np.log(init.signal_variance), np.log(max(init.noise_variance, 1e-12))],
            np.log(init.lengthscales),
        )
    )
    scales = (1.0, 0.25, 0.0625, 4.0)
    shares = [(budget + len(scales) - 1 - k) // len(scales) for k in range(len(scales))]
    starts = [(theta0, shares[0], True)]
    for factor, share in zip(scales[1:budget], shares[1:]):
        start = theta0.copy()
        start[2:] = np.clip(start[2:] + np.log(factor), -_LOG_BOUND, _LOG_BOUND)
        starts.append((start, share))
    best_theta, _ = max(_run_starts(data, starts), key=lambda result: result[1])
    return _hyper_from_log(best_theta)


def _write_json(payload: dict, path) -> None:
    """Indented JSON with sorted keys, the form of every file gpattr writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model: GprModel, path: str, metadata: dict | None = None) -> None:
    """Write the model as versioned JSON: the hyperparameters, training
    inputs and targets, and jitter, which fix the posterior. The weights and
    the offset are not stored: load_model derives them again, as fit did.
    The Cholesky factor goes to the sidecar path + ".factor.npy" as two .npy
    arrays, its key (the inputs' bytes, _factor_key) and then its n(n+1)/2
    values, so that load_model can skip refactoring; writing one model twice
    gives the same bytes.

    metadata entries (feature names, normalization stats, a held-out query)
    ride along under their own keys for tooling; they are ignored by
    load_model.
    """
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "hyper": model.hyper.to_json_dict(),
        "x_train": model.x_train.tolist(),
        "y_train": model.y_train.tolist(),
        "jitter": model.jitter,
    }
    for key, value in (metadata or {}).items():
        if key in payload:
            raise ValueError(f"metadata key {key!r} collides with a model field")
        payload[key] = value
    _write_json(payload, path)
    with open(_factor_path(path), "wb") as fh:
        np.save(fh, _factor_key(model.hyper, model.x_train, model.jitter))
        np.save(fh, model.chol)


def _factor_path(path) -> str:
    return f"{os.fspath(path)}.factor.npy"


def _factor_key(hyper: ArdSeHyper, x_train: np.ndarray, jitter: float) -> np.ndarray:
    """What fixes the factor, verbatim as uint8 values: FACTOR_TAG, n and d,
    the signal and noise variances, the lengthscales, the jitter and the
    training inputs, all little-endian. The targets do not enter."""
    values = np.array([hyper.signal_variance, hyper.noise_variance, *hyper.lengthscales, jitter], dtype="<f8")
    inputs = (FACTOR_TAG, np.array(x_train.shape, dtype="<i8"), values, np.ascontiguousarray(x_train, dtype="<f8"))
    return np.frombuffer(b"".join(inputs), dtype=np.uint8)


def _stored_factor(path, key: np.ndarray, n: int) -> np.ndarray | None:
    """The factor in the sidecar of the model file path when its key is key
    and it holds n(n+1)/2 finite float64 values; None otherwise, and when the
    sidecar is missing or cannot be read. Each array's header is checked
    before its data is read, so no sidecar makes it allocate more."""
    size = n * (n + 1) // 2
    try:
        with open(_factor_path(path), "rb") as fh:
            if _npy_header(fh) != ((key.size,), False, key.dtype) or fh.read(key.size) != key.tobytes():
                return None
            if _npy_header(fh) != ((size,), False, np.dtype(np.float64)):
                return None
            factor = np.fromfile(fh, dtype=np.float64, count=size)
    except (OSError, ValueError):
        return None
    return factor if factor.size == size and _all_finite(factor) else None


def _npy_header(fh) -> tuple:
    """(shape, fortran_order, dtype) of the version 1.0 .npy array at fh's
    position, as np.save writes it; ValueError on anything else."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 .npy array")
    return np.lib.format.read_array_header_1_0(fh)


def load_model(path: str) -> GprModel:
    """Load a model written by save_model from its file path, ignoring the
    metadata stored with it. The factor comes from the file's sidecar when
    that matches the file's fields (see save_model); otherwise K + noise*I is
    built and factored once in RFP layout with the stored jitter (no
    retries). Either way the factor, and the weights GprModel derives with
    it, are the ones fit made, and the loaded model holds n(n+1)/2 values,
    not n x n. A file that is not a JSON object of this format and version,
    or a missing or malformed field (wrong type or shape, non-finite or
    out-of-range values, an x_train column whose range squared overflows, as
    fit checks), raises DataError naming the file and the field;
    NumericalError naming the file if the factor or the weights fail."""
    return _read_model(path)[0]


def _read_model(path) -> tuple[GprModel, dict]:
    """load_model's model and the file's whole payload, model fields and
    metadata, from one JSON parse: the one reader of model files."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise DataError(f"not a JSON file: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise DataError(f"not a {MODEL_FORMAT} file")
        if payload.get("version") != MODEL_VERSION:
            raise DataError(f"unsupported model version {payload.get('version')!r}")
        field = functools.partial(_payload_field, payload)
        jitter = field("jitter", low=0.0)
        hyper = ArdSeHyper(
            signal_variance=field("hyper.signal_variance", low=0.0, strict=True),
            lengthscales=field("hyper.lengthscales", (None,), low=0.0, strict=True),
            noise_variance=field("hyper.noise_variance", low=0.0),
        )
        x_train = field("x_train", (None, hyper.dim))
        _check_ranges(x_train, range(hyper.dim), "model field 'x_train': ")
        y_train = field("y_train", (len(x_train),))
        chol = _stored_factor(path, _factor_key(hyper, x_train, jitter), len(x_train))
        if chol is None:
            try:
                chol = cholesky(_noisy_kernel_matrix(x_train, hyper, jitter))
            except np.linalg.LinAlgError:
                raise NumericalError(f"not positive definite with the stored jitter {jitter!r}") from None
        return GprModel(hyper, x_train, y_train, chol, jitter), payload
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _checked(name: str, value, shape: tuple = (), low: float = -math.inf, strict: bool = False):
    """The model field name as a float, or as a float array of the given
    shape, where None matches any nonzero length, with every entry finite and
    >= low (> low if strict). Anything else raises DataError naming it."""
    arr = np.asarray(value)
    if not (
        arr.dtype.kind in "iuf"
        and arr.ndim == len(shape)
        and all(want == got or (want is None and got > 0) for want, got in zip(shape, arr.shape))
        and _all_finite(arr)
        and (low == -math.inf or (np.min(arr) > low if strict else np.min(arr) >= low))
    ):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise DataError(f"model field {name!r}: expected finite numbers{bound} in shape {shape}, got {arr.shape}")
    arr = arr.astype(float, copy=False)
    return float(arr) if arr.ndim == 0 else arr


def _payload_field(payload: dict, name: str, shape: tuple = (), low: float = -math.inf, strict: bool = False):
    """The model-file field name (dots reach into nested objects), checked as
    _checked does; a missing field or ragged lists also raise DataError."""
    value = payload
    try:
        for key in name.split("."):
            value = value[key]
        value = np.asarray(value)
    except (KeyError, TypeError, ValueError) as exc:  # missing, a non-object indexed, ragged lists
        raise DataError(f"model field {name!r} is missing or malformed ({type(exc).__name__}: {exc})") from None
    return _checked(name, value, shape, low, strict)
