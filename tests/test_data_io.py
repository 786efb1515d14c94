"""CSV loading, normalization, baselines, and the simulated generator."""

import numpy as np
import pytest

from gpattr.data_io import (
    DataError,
    Dataset,
    NormStats,
    apply_norm,
    load_csv,
    normalize,
    simulate,
    target_filtered_baseline,
)
from oracles import denormalize


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
    data = load_csv(path, "y")
    assert data.feature_names == ("a", "b")
    assert np.array_equal(data.X, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(data.y, [3.0, 6.0])


def test_load_csv_target_in_middle(tmp_path):
    path = _write(tmp_path, "a,y,b\n1,9,2\n")
    data = load_csv(path, "y")
    assert data.feature_names == ("a", "b")
    assert np.array_equal(data.X, [[1.0, 2.0]])
    assert data.y[0] == 9.0


def test_load_csv_reports_bad_rows_with_line_numbers(tmp_path):
    path = _write(tmp_path, "a,y\n1,2\nfoo,3\n4,5\n6,nan\n7\n")
    with pytest.raises(DataError) as err:
        load_csv(path, "y")
    msg = str(err.value)
    # header is line 1, so the offenders are lines 3, 5, 6
    assert "3" in msg and "5" in msg and "6" in msg


@pytest.mark.parametrize("text", [
    "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n\n",  # a trailing blank line, as an editor may leave
    "x1,x2,y\n1,2,3\n\n4,5,6\r\n\r\n\n7,8,9\n",  # blank lines between rows, \n and \r\n
])
def test_load_csv_skips_blank_lines(tmp_path, text):
    # csv.reader yields [] for a blank line: it is no row, and no bad one
    data = load_csv(_write(tmp_path, text), "y")
    assert data.feature_names == ("x1", "x2")
    assert np.array_equal(data.X, [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]])
    assert np.array_equal(data.y, [3.0, 6.0, 9.0])


def test_load_csv_counts_blank_lines_in_line_numbers(tmp_path):
    # the blank lines 2 and 4 are skipped but counted, and whitespace cells
    # (lines 5 and 6) are still no numbers
    path = _write(tmp_path, "a,y\n\n1,2\n\n , \n \n3,4\n")
    with pytest.raises(DataError, match=r"missing or non-numeric cells in rows 5, 6$"):
        load_csv(path, "y")


def test_load_csv_with_blank_lines_only_has_no_rows(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        load_csv(_write(tmp_path, "x1,x2,y\n\n\n"), "y")


@pytest.mark.parametrize("header", ["y,a,b", "a,b,y"])
def test_load_csv_drops_a_byte_order_mark(tmp_path, header):
    # a spreadsheet's "CSV UTF-8" starts with a byte-order mark, which must
    # not become part of the first column's name, target or feature
    rows = {"y,a,b": "3,1,2\n6,4,5\n", "a,b,y": "1,2,3\n4,5,6\n"}[header]
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + header + "\n" + rows).encode("utf-8"))
    data = load_csv(str(path), "y")
    assert data.feature_names == ("a", "b")
    assert np.array_equal(data.X, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(data.y, [3.0, 6.0])


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv", "y")


def test_load_csv_unknown_target(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError) as err:
        load_csv(path, "y")
    assert "y" in str(err.value)


def test_load_csv_no_features_or_rows(tmp_path):
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "y\n1\n"), "y")
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "a,y\n", name="empty_rows.csv"), "y")
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "", name="empty.csv"), "y")


def test_normalize_round_trip(rng):
    X = rng.uniform(-5.0, 5.0, size=(30, 3))
    data = Dataset(X, rng.standard_normal(30), ("a", "b", "c"))
    normed = normalize(data)
    assert np.abs(normed.X.mean(axis=0)).max() <= 1e-12
    assert np.abs(normed.X.std(axis=0) - 1.0).max() <= 1e-12
    back = denormalize(normed)
    assert np.abs(back.X - data.X).max() <= 1e-12
    assert back.norm_stats is None


def test_normalize_rejects_constant_feature(rng):
    X = np.column_stack([rng.standard_normal(10), np.full(10, 7.0)])
    data = Dataset(X, np.zeros(10), ("good", "flat"))
    with pytest.raises(DataError) as err:
        normalize(data)
    assert "flat" in str(err.value)


def test_normalize_rejects_a_constant_feature_whose_float_variance_is_not_zero(rng):
    # the float mean of 20 copies of this value is one ulp off, so np.var
    # gives 7.9e-31 for a column that never varies
    flat = np.full(20, 2.0540891014965688)
    assert np.var(flat) > 0.0
    data = Dataset(np.column_stack([rng.standard_normal(20), flat]), np.zeros(20), ("good", "flat"))
    with pytest.raises(DataError, match="zero-variance feature.*'flat'"):
        normalize(data)


def test_normalize_twice_rejected(rng):
    data = Dataset(rng.standard_normal((10, 2)), np.zeros(10), ("a", "b"))
    with pytest.raises(DataError):
        normalize(normalize(data))
    with pytest.raises(DataError):
        denormalize(data)


def test_apply_norm_matches_dataset_transform(rng):
    X = rng.uniform(0.0, 4.0, size=(25, 2))
    data = Dataset(X, np.zeros(25), ("a", "b"))
    normed = normalize(data)
    for j in range(5):
        assert np.allclose(apply_norm(normed.norm_stats, X[j]), normed.X[j], atol=1e-14)
    with pytest.raises(ValueError):
        apply_norm(normed.norm_stats, np.zeros(3))


def test_target_filtered_baseline(rng):
    X = rng.uniform(-1.0, 1.0, size=(40, 2))
    y = rng.uniform(0.0, 10.0, size=40)
    data = Dataset(X, y, ("a", "b"))
    lo, hi = 2.0, 5.0
    mask = (y >= lo) & (y <= hi)
    want = X[mask].mean(axis=0)
    assert np.allclose(target_filtered_baseline(data, lo, hi), want, atol=1e-15)
    with pytest.raises(DataError):
        target_filtered_baseline(data, 100.0, 200.0)
    with pytest.raises(DataError):
        target_filtered_baseline(data, 5.0, 2.0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(3), ("a",))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]), np.zeros(1), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(3), ("a",))  # 1-D X


def test_norm_stats_validation():
    with pytest.raises(ValueError):
        NormStats(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        NormStats(np.zeros(2), np.ones(3))


def test_simulate_shapes_and_determinism():
    a = simulate(50, 0.5, seed=9)
    b = simulate(50, 0.5, seed=9)
    c = simulate(50, 0.5, seed=10)
    assert a.X.shape == (50, 2) and a.feature_names == ("x1", "x2")
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert a.X.min() >= 0.0 and a.X.max() <= 10.0


def test_simulate_noise_free_matches_formula():
    d = simulate(20, 0.0, seed=3)
    assert np.allclose(d.y, np.sin(d.X[:, 0]) * np.sin(2.0 * d.X[:, 1]), atol=1e-15)


def test_simulate_marginal_variance_matches_quadrature():
    # population variance of sin(x1)sin(2 x2) over the uniform box, computed
    # by a fine product Riemann sum, plus the independent noise variance
    grid = np.linspace(0.0, 10.0, 20001)
    e_s1 = np.trapezoid(np.sin(grid), grid) / 10.0
    e_s1sq = np.trapezoid(np.sin(grid) ** 2, grid) / 10.0
    e_s2 = np.trapezoid(np.sin(2 * grid), grid) / 10.0
    e_s2sq = np.trapezoid(np.sin(2 * grid) ** 2, grid) / 10.0
    signal_var = e_s1sq * e_s2sq - (e_s1 * e_s2) ** 2
    noise_scale = 0.5
    want = signal_var + noise_scale**2
    got = np.var(simulate(40000, noise_scale, seed=0).y)
    assert abs(got - want) <= 0.02 * want + 0.01


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate(0)
    with pytest.raises(ValueError):
        simulate(5, noise_scale=-0.1)
    with pytest.raises(ValueError):
        simulate(5, noise_scale=np.nan)
