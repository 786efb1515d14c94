"""Tabular data loading, normalization, baselines, and a simulated generator.

CSV files are comma-separated UTF-8, with or without a byte-order mark,
and have a header row. Every non-target column becomes a feature, in header
order. Cells must parse as finite floats; offending rows are reported by
number (1-based, counting the header as line 1).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "NormStats",
    "load_csv",
    "normalize",
    "apply_norm",
    "target_filtered_baseline",
    "simulate",
]


class DataError(ValueError):
    """Input data or a model file is malformed or unusable. A ValueError, so
    callers that catch bad values catch it too."""


@dataclass(frozen=True)
class NormStats:
    """Per-feature shift and scale of a z-score normalization."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(-1))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float).reshape(-1))
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have matching length")
        if np.any(self.std <= 0.0) or not np.all(np.isfinite(self.std)):
            raise ValueError("std entries must be finite and > 0")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d), target vector (n,), feature names, optional norm stats."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    norm_stats: NormStats | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.size:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.size}")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match feature count")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("Dataset values must be finite")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def load_csv(path: str, target_column: str) -> Dataset:
    """Load a CSV into a Dataset, using target_column as y, parsing each row
    as it is read. A file that is not UTF-8 text, or whose CSV syntax fails
    (a cell past csv.field_size_limit(), say), raises DataError naming the
    file and, for the syntax, the line."""
    bad_rows: list[int] = []
    table: list[list[float]] = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            for r, row in enumerate(reader, start=2):  # header is line 1
                if not row:  # a blank line, which still counts as a line
                    continue
                try:
                    vals = [float(c) for c in row]
                except ValueError:
                    vals = []
                if len(vals) == len(header) and all(map(math.isfinite, vals)):
                    table.append(vals)
                else:
                    bad_rows.append(r)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} cannot be decoded") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None

    header = [h.strip() for h in header]
    if "" in header or len(set(header)) < len(header):
        raise DataError(f"{path}: column names must be non-empty and distinct, got header {header}")
    if target_column not in header:
        raise DataError(f"{path}: target column {target_column!r} not in header {header}")
    target_idx = header.index(target_column)
    feature_names = tuple(h for j, h in enumerate(header) if j != target_idx)
    if not feature_names:
        raise DataError(f"{path}: no feature columns besides the target")

    if bad_rows:
        shown = ", ".join(str(r) for r in bad_rows[:20])
        more = "" if len(bad_rows) <= 20 else f" (+{len(bad_rows) - 20} more)"
        raise DataError(f"{path}: missing or non-numeric cells in rows {shown}{more}")
    if not table:
        raise DataError(f"{path}: no data rows")

    values = np.array(table, dtype=float)
    return Dataset(np.delete(values, target_idx, axis=1), values[:, target_idx], feature_names)


def _column_variances(values: np.ndarray, names) -> np.ndarray:
    """Variance of each column of the (n, k) values, exactly 0 for a column
    whose entries are all equal (np.var can leave ulps, as the float mean is
    off by one). A column whose variance overflows raises DataError naming it."""
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.var(values, axis=0)
    bad = [repr(names[j]) for j in np.flatnonzero(~np.isfinite(var))]
    if bad:
        raise DataError(f"the variance of column(s) {', '.join(bad)} overflows: values too large in scale")
    var[values.max(axis=0) == values.min(axis=0)] = 0.0
    return var


def normalize(data: Dataset) -> Dataset:
    """Z-score the features; the stats are stored so apply_norm maps new points alike."""
    if data.norm_stats is not None:
        raise DataError("dataset is already normalized")
    std = np.sqrt(_column_variances(data.X, data.feature_names))
    mean = data.X.mean(axis=0)  # finite: the variances are
    zero = np.flatnonzero(std == 0.0)
    if zero.size:
        names = ", ".join(repr(data.feature_names[j]) for j in zero)
        raise DataError(f"zero-variance feature(s) cannot be normalized: {names}")
    stats = NormStats(mean=mean, std=std)
    return Dataset((data.X - mean) / std, data.y, data.feature_names, norm_stats=stats)


def apply_norm(stats: NormStats, x: np.ndarray) -> np.ndarray:
    """Map a raw feature vector into the normalized space of a dataset."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != stats.mean.size:
        raise ValueError(f"point has {x.size} features, stats expect {stats.mean.size}")
    return (x - stats.mean) / stats.std


def target_filtered_baseline(data: Dataset, y_min: float, y_max: float) -> np.ndarray:
    """Feature-wise mean over the rows whose target lies in [y_min, y_max]."""
    mask = (data.y >= y_min) & (data.y <= y_max)
    if not np.any(mask):
        raise DataError(f"no rows with target in [{y_min}, {y_max}]")
    return data.X[mask].mean(axis=0)


def simulate(n_samples: int, noise_scale: float = 0.5, seed: int = 0) -> Dataset:
    """Two uniform features on [0, 10]; y = sin(x1)*sin(2*x2) + noise_scale*N(0,1)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not (np.isfinite(noise_scale) and noise_scale >= 0.0):
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale!r}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n_samples, 2))
    y = np.sin(X[:, 0]) * np.sin(2.0 * X[:, 1]) + noise_scale * rng.standard_normal(n_samples)
    return Dataset(X, y, ("x1", "x2"))
