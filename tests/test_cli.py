"""End-to-end command line tests, driving main() in-process."""

import csv
import importlib.metadata
import json
import math
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpattr
from gpattr.cli import build_parser, main
from gpattr.data_io import Dataset, simulate
from gpattr.gpr import load_model
from gpattr.rfgp import rfgp_attribution, rfgp_fit
from oracles import mc_attribution_oracle_direct, sym_kl_scalar

HYPER_FLAGS = [
    "--signal-variance", "0.6",
    "--lengthscales", "1.2,0.8",
    "--noise-variance", "0.1",
]


def _write_sim_csv(path, n=60, seed=3):
    data = simulate(n, 0.4, seed=seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "y"])
        for row, target in zip(data.X, data.y):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(target))])
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv_path = _write_sim_csv(root / "demo.csv")
    fit_dir = root / "fit"
    rc = main(
        ["fit", "--data", str(csv_path), "--target", "y", "--query-row", "last",
         *HYPER_FLAGS, "--out-dir", str(fit_dir)]
    )
    assert rc == 0
    huge = root / "huge.csv"  # finite values whose squares overflow float64
    huge.write_text("x1,x2,y\n" + "".join(f"{k}e200,-{k}e200,{k % 2 + 1}e200\n" for k in range(1, 5)))
    headers = {}  # CSVs whose header names a column twice or not at all
    for stem, header in (("dup", "a,a,y"), ("twin", "a,y,y"), ("blank", "a,,y")):
        headers[stem] = root / f"{stem}.csv"
        headers[stem].write_text(f"{header}\n1,2,3\n4,5,6\n")
    swapped = root / "swapped.csv"  # the demo data with its feature columns in x2, x1 order
    with open(csv_path, newline="") as src, open(swapped, "w", newline="") as dst:
        csv.writer(dst).writerows([b, a, y] for a, b, y in csv.reader(src))
    notutf8 = root / "notutf8.csv"  # a 0xff byte, which no UTF-8 text holds
    notutf8.write_bytes(b"x1,x2,y\n1,2,3\n4,\xff5,6\n")
    longcell = root / "longcell.csv"  # a cell past csv.field_size_limit()
    longcell.write_text("x1,x2,y\n1,2,3\n4," + "5" * (csv.field_size_limit() + 1) + ",6\n")
    three = root / "three.csv"  # three feature columns, where the demo model has two
    three.write_text("x1,x2,x3,y\n1,2,3,4\n5,6,7,8\n")
    const = root / "const.csv"  # column a never varies, yet np.var gives 7.9e-31 for it
    const.write_text("a,b,y\n" + "".join(f"2.0540891014965688,{k},{k % 3}\n" for k in range(20)))
    # one input and one target at 1e154: the fit is finite, and an rfgp
    # attribution at a far query overflows
    wide = _write_sim_csv(root / "wide.csv", n=30)
    rows = wide.read_text().splitlines()
    rows[16] = "1e154," + rows[16].split(",", 1)[1]
    rows[9] = rows[9].rsplit(",", 1)[0] + ",1e154"
    wide.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(wide), "--target", "y", "--out-dir", str(root / "wide")]) == 0
    tall = root / "tall.csv"  # one target at 1e200: finite weights, whose product with the targets overflows
    rows = csv_path.read_text().splitlines()
    rows[5] = rows[5].rsplit(",", 1)[0] + ",1e200"
    tall.write_text("\n".join(rows) + "\n")
    far = _write_sim_csv(root / "far.csv", n=20)  # one input at -1e308: distances to it overflow
    rows = far.read_text().splitlines()
    rows[5] = "-1e308," + rows[5].split(",", 1)[1]
    far.write_text("\n".join(rows) + "\n")
    return {"root": root, "csv": csv_path, "huge": huge, "far": far, "swapped": swapped, "three": three,
            "const": const, "tall": tall, "notutf8": notutf8, "longcell": longcell,
            **headers, "fit": fit_dir, "model": fit_dir / "model.json", "wide_model": root / "wide" / "model.json"}


def test_fit_outputs(workdir):
    for name in ("model.json", "model.json.factor.npy", "fit_report.json", "manifest.json"):
        assert (workdir["fit"] / name).is_file()
    report = json.loads((workdir["fit"] / "fit_report.json").read_text())
    assert report["format"] == "gpattr-fit-report"
    assert report["n_train"] == 59  # held-out row excluded
    assert np.isfinite(report["log_marginal_likelihood"])
    assert set(report["relevance"]) == {"x1", "x2"}
    assert report["hyper"]["signal_variance"] == 0.6
    model = json.loads(workdir["model"].read_text())
    assert model["format"] == "gpattr-model"
    assert model["holdout"]["row"] == 59
    assert model["target_column"] == "y"
    assert len(model["y_train"]) == 59


def test_fit_manifest_contents(workdir):
    doc = json.loads((workdir["fit"] / "manifest.json").read_text())
    assert doc["format"] == "gpattr-manifest" and doc["command"] == "fit"
    for key in ("package_version", "numpy_version", "scipy_version"):
        assert key in doc
    assert doc["scipy_version"] == importlib.metadata.version("scipy")  # read without importing scipy
    assert doc["options"]["target"] == "y"
    assert doc["seeds"] == {"data_seed": 0}


def test_manifest_options_are_the_parsed_arguments(workdir, tmp_path):
    model = ["--model", str(workdir["model"])]
    runs = [
        (["fit", "--simulate", "30", *HYPER_FLAGS], "data_seed"),
        (["attribute", *model, "--query", "7.0,2.5"], "seed"),
        (["quad-sweep", *model, "--l-values", "4", "--queries", "1"], "seed"),
        (["rfgp-compare", *model, "--data", str(workdir["csv"]), "--target", "y", "--query-row", "3",
          "--m-values", "10", "--seeds", "2", "--ensemble", "2", "--ensemble-m", "10"], "seed"),
        (["mc-validate", *model, "--samples", "50", "--grid-points", "9", "--queries", "0"], "seed"),
    ]
    for argv, seed_key in runs:
        out = tmp_path / argv[0]
        argv = [*argv, "--out-dir", str(out)]
        assert main(argv) == 0, argv
        parsed = vars(build_parser().parse_args(argv))
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == argv[0]
        assert doc["seeds"] == {seed_key: parsed[seed_key]}
        assert doc["options"] == {k: v for k, v in parsed.items() if k not in ("command", "func", seed_key)}
    # the file --query-row read from is on record with the row
    options = json.loads((tmp_path / "rfgp-compare" / "manifest.json").read_text())["options"]
    assert (options["data"], options["target"], options["query_row"]) == (str(workdir["csv"]), "y", "3")


def test_attribute_uses_stored_holdout(workdir, capsys):
    out = workdir["root"] / "attr_exact"
    rc = main(["attribute", "--model", str(workdir["model"]), "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "attributions.json").read_text())
    assert doc["format"] == "gpattr-attribution-report"
    assert doc["engine"] == "exact"
    assert [a["feature"] for a in doc["attributions"]] == ["x1", "x2"]
    assert doc["completeness_residual"] <= 1e-10
    # the stored holdout row is the query
    model = json.loads(workdir["model"].read_text())
    assert doc["query"] == model["holdout"]["x"]
    with open(out / "attributions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "mean", "std", "completeness_residual"]
    assert len(rows) == 3
    assert "completeness residual" in capsys.readouterr().out


def test_attribute_quad_engine_agrees_with_exact(workdir):
    base = ["--model", str(workdir["model"]), "--query", "7.0,2.5"]
    out_a = workdir["root"] / "agree_exact"
    out_b = workdir["root"] / "agree_quad"
    assert main(["attribute", *base, "--out-dir", str(out_a)]) == 0
    assert main(["attribute", *base, "--engine", "quad:simpson:1024", "--out-dir", str(out_b)]) == 0
    exact = json.loads((out_a / "attributions.json").read_text())["attributions"]
    quad = json.loads((out_b / "attributions.json").read_text())["attributions"]
    for e, q in zip(exact, quad):
        assert q["mean"] == pytest.approx(e["mean"], rel=1e-7, abs=1e-10)
        assert q["variance"] == pytest.approx(e["variance"], rel=1e-5, abs=1e-10)


def test_attribute_query_at_baseline_is_all_zero(workdir):
    out = workdir["root"] / "attr_zero"
    rc = main(
        ["attribute", "--model", str(workdir["model"]), "--query", "5.0,5.0",
         "--baseline", "values:5.0,5.0", "--out-dir", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "attributions.json").read_text())
    for a in doc["attributions"]:
        assert a["mean"] == 0.0 and a["variance"] == 0.0 and a["std"] == 0.0
    assert doc["completeness_residual"] == 0.0


def test_query_with_a_leading_minus_takes_the_equals_form(workdir, tmp_path, capsys):
    # argparse reads "-1.5,2" after a space as an option, not as a value
    attr = ["attribute", "--model", str(workdir["model"])]
    assert main([*attr, "--query=-1.5,2", "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "attributions.json").read_text())["query"] == [-1.5, 2.0]
    assert main([*attr, "--query", "-1.5,2", "--out-dir", str(tmp_path / "bare")]) == 2
    assert "--query: expected one argument" in capsys.readouterr().err


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # the hyperparameter search imports it only when it forks, so no command
    # pays for it at start-up
    src = str(Path(gpattr.__file__).resolve().parents[1])
    code = "import sys, gpattr.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# scipy's package and subpackages, and the numpy submodules their imports load
SCIPY_SUBPACKAGES = ("scipy", "scipy.linalg", "scipy.special", "scipy.spatial",
                     "numpy.f2py", "numpy.testing", "numpy.ma")


def test_no_command_imports_a_scipy_subpackage(tmp_path):
    # gpattr.specfun loads scipy's compiled routines and its version without
    # their packages, so fitting, searching, loading, every attribution
    # engine, the sweep, the rfgp comparison, the Monte Carlo check and a
    # library report leave scipy's package, every subpackage, and the numpy
    # modules their imports load, unimported
    model = str(tmp_path / "fit" / "model.json")
    runs = [
        ["fit", "--simulate", "60", *HYPER_FLAGS, "--query-row", "last", "--out-dir", str(tmp_path / "fit")],
        ["fit", "--simulate", "40", "--optimize", "8", "--out-dir", str(tmp_path / "search")],
        ["attribute", "--model", model, "--out-dir", str(tmp_path / "exact")],
        ["attribute", "--model", model, "--engine", "quad:simpson:1024", "--out-dir", str(tmp_path / "quad")],
        ["attribute", "--model", model, "--engine", "rfgp", "--rfgp-features", "10",
         "--out-dir", str(tmp_path / "rfgp")],
        ["quad-sweep", "--model", model, "--queries", "2", "--l-values", "4,64",
         "--out-dir", str(tmp_path / "sweep")],
        ["rfgp-compare", "--model", model, "--m-values", "5,40", "--seeds", "2", "--ensemble", "3",
         "--ensemble-m", "5", "--out-dir", str(tmp_path / "compare")],
        ["mc-validate", "--model", model, "--samples", "50", "--grid-points", "33", "--queries", "1",
         "--out-dir", str(tmp_path / "mc")],
    ]
    assert _fresh_process_loads(runs, model, SCIPY_SUBPACKAGES) == [[0] * len(runs), []]
    report = f"gpattr.attribution_report(gpattr.load_model({model!r}), [6.0, 1.5], [4.0, 5.0])"
    assert _fresh_process_loads([], model, SCIPY_SUBPACKAGES, report) == [[], []]


def _fresh_process_loads(runs: list, model: str, watched, setup: str = "") -> list:
    """In a fresh process, [the exit code of main on each argv of runs, the
    watched modules imported after setup (a statement run first), those runs
    and a load_model of the model file]."""
    code = f"""
import json, sys
import gpattr
from gpattr.cli import main
{setup}
codes = [main(argv) for argv in {runs!r}]
gpattr.load_model({model!r})
print("loaded:", json.dumps([codes, [m for m in {tuple(watched)!r} if m in sys.modules]]))
"""
    src = str(Path(gpattr.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    (line,) = [line for line in out.splitlines() if line.startswith("loaded:")]
    return json.loads(line[len("loaded:"):])


def test_no_model_command_loads_openssl(tmp_path):
    # the factor sidecar's key is the bytes of its inputs, not their digest,
    # so fitting from a CSV, the search, the exact and quadrature engines and
    # load_model never import hashlib, which loads OpenSSL's libcrypto; only
    # numpy.random (via secrets) does, so no run here draws random numbers
    csv_path, model = str(_write_sim_csv(tmp_path / "demo.csv")), str(tmp_path / "fit" / "model.json")
    runs = [
        ["fit", "--data", csv_path, "--target", "y", *HYPER_FLAGS, "--query-row", "last",
         "--out-dir", str(tmp_path / "fit")],
        ["fit", "--data", csv_path, "--target", "y", "--optimize", "8", "--out-dir", str(tmp_path / "search")],
        ["attribute", "--model", model, "--out-dir", str(tmp_path / "exact")],
        ["attribute", "--model", model, "--engine", "quad:simpson:1024", "--out-dir", str(tmp_path / "quad")],
    ]
    assert _fresh_process_loads(runs, model, ("hashlib", "_hashlib")) == [[0] * len(runs), []]


def test_erf_loads_only_where_an_engine_evaluates_it(tmp_path):
    # specfun binds erf on first use, so a fit and a search forked over two
    # processes (multiprocessing is imported only to fork) leave scipy.special's
    # ufunc module unmapped, and OpenSSL unloaded; the exact engine maps it
    csv_path, model = str(_write_sim_csv(tmp_path / "demo.csv")), str(tmp_path / "fit" / "model.json")
    watched = ("scipy.special._special_ufuncs", "hashlib", "_hashlib", "multiprocessing")
    fits = [
        ["fit", "--data", csv_path, "--target", "y", *HYPER_FLAGS, "--query-row", "last",
         "--out-dir", str(tmp_path / "fit")],
        ["fit", "--data", csv_path, "--target", "y", "--optimize", "8", "--out-dir", str(tmp_path / "search")],
    ]
    forked = "gpattr.gpr._FORK_ROWS, gpattr.gpr._usable_cpus = 2, lambda: 2"
    assert _fresh_process_loads(fits, model, watched, forked) == [[0, 0], ["multiprocessing"]]
    attribute = [["attribute", "--model", model, "--out-dir", str(tmp_path / "exact")]]
    assert _fresh_process_loads(attribute, model, watched) == [[0], ["scipy.special._special_ufuncs"]]


def test_attribute_filter_baseline_from_stored_targets(workdir):
    out = workdir["root"] / "attr_filter"
    rc = main(
        ["attribute", "--model", str(workdir["model"]), "--query", "6.0,4.0",
         "--baseline", "filter:-0.2:0.2", "--out-dir", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "attributions.json").read_text())
    model = json.loads(workdir["model"].read_text())
    X = np.array(model["x_train"])
    y = np.array(model["y_train"])
    mask = (y >= -0.2) & (y <= 0.2)
    assert doc["baseline"] == pytest.approx(X[mask].mean(axis=0).tolist())


def test_attribute_rfgp_engine_and_ensemble(workdir):
    out = workdir["root"] / "attr_rfgp"
    rc = main(
        ["attribute", "--model", str(workdir["model"]), "--query", "7.0,2.5",
         "--engine", "rfgp", "--rfgp-features", "80", "--out-dir", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "attributions.json").read_text())
    assert doc["engine"] == "rfgp" and "mixtures" not in doc
    out2 = workdir["root"] / "attr_rfgp_ens"
    rc = main(
        ["attribute", "--model", str(workdir["model"]), "--query", "7.0,2.5",
         "--engine", "rfgp", "--rfgp-features", "40", "--rfgp-ensemble", "5",
         "--out-dir", str(out2)]
    )
    assert rc == 0
    doc2 = json.loads((out2 / "attributions.json").read_text())
    assert len(doc2["mixtures"]) == 2
    for m in doc2["mixtures"]:
        assert m["format"] == "gpattr-attribution-mixture"
        assert len(m["components"]) == 5


def test_attribute_rfgp_without_ensemble_is_the_single_fit_law(workdir):
    # an ensemble of one writes the law of one fit bit for bit, and no mixtures
    out = workdir["root"] / "attr_rfgp_single"
    assert main(["attribute", "--model", str(workdir["model"]), "--query", "7.0,2.5",
                 "--engine", "rfgp", "--rfgp-features", "30", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    doc = json.loads((out / "attributions.json").read_text())
    assert "mixtures" not in doc
    model = load_model(str(workdir["model"]))
    y_train = json.loads(workdir["model"].read_text())["y_train"]
    train = Dataset(model.x_train, np.array(y_train), ("x1", "x2"))
    means, variances = rfgp_attribution(
        rfgp_fit(train, model.hyper, 30, 2), np.array(doc["query"]), np.array(doc["baseline"])
    )
    assert [a["mean"] for a in doc["attributions"]] == means.tolist()
    assert [a["variance"] for a in doc["attributions"]] == variances.tolist()


def test_rerun_is_byte_identical(workdir):
    out = workdir["root"] / "rerun"
    cmd = ["attribute", "--model", str(workdir["model"]), "--query", "6.5,3.5",
           "--out-dir", str(out)]
    assert main(cmd) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("attributions.json", "attributions.csv", "manifest.json")
    }
    assert main(cmd) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_fit_simulate_source(tmp_path):
    out = tmp_path / "sim_fit"
    rc = main(["fit", "--simulate", "50", "--noise-scale", "0.3", "--data-seed", "1",
               *HYPER_FLAGS, "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["n_train"] == 50


def test_fit_normalize_stores_stats_and_maps_queries(tmp_path):
    csv_path = _write_sim_csv(tmp_path / "d.csv", n=40, seed=5)
    out = tmp_path / "norm_fit"
    rc = main(["fit", "--data", str(csv_path), "--target", "y", "--normalize",
               *HYPER_FLAGS, "--out-dir", str(out)])
    assert rc == 0
    payload = json.loads((out / "model.json").read_text())
    stats = payload["norm_stats"]
    assert len(stats["mean"]) == 2 and len(stats["std"]) == 2
    attr_out = tmp_path / "norm_attr"
    rc = main(["attribute", "--model", str(out / "model.json"), "--query", "5.0,5.0",
               "--out-dir", str(attr_out)])
    assert rc == 0
    doc = json.loads((attr_out / "attributions.json").read_text())
    want = (np.array([5.0, 5.0]) - np.array(stats["mean"])) / np.array(stats["std"])
    assert doc["query"] == pytest.approx(want.tolist())


def test_fit_gives_a_constant_column_the_unit_lengthscale(workdir, tmp_path):
    # the default lengthscale is the column's std, or 1 for a constant column
    # (not the 8.9e-16 its float variance gives)
    assert main(["fit", "--data", str(workdir["const"]), "--target", "y", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["hyper"]["lengthscales"] == [1.0, float(np.std(np.arange(20)))]


def test_fit_with_small_search_budget(tmp_path):
    out = tmp_path / "opt_fit"
    rc = main(["fit", "--simulate", "40", "--optimize", "8", "--out-dir", str(out)])
    assert rc == 0


def test_quad_sweep_outputs(workdir):
    out = workdir["root"] / "sweep"
    rc = main(["quad-sweep", "--model", str(workdir["model"]), "--rules",
               "right_hand,simpson", "--l-values", "4,16", "--queries", "3",
               "--out-dir", str(out)])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rule", "L", "function_evals", "mean_abs_err", "var_abs_err"]
    assert len(rows) == 5  # 2 rules x 2 partition counts
    cells = {(r[0], int(r[1])): float(r[3]) for r in rows[1:]}
    assert cells[("simpson", 16)] < cells[("right_hand", 16)]
    assert cells[("right_hand", 16)] < cells[("right_hand", 4)]


def test_rfgp_compare_outputs(workdir):
    for baseline in ("mean", "values:7.0,1.0"):
        out = workdir["root"] / "compare" / baseline.replace(":", "-")
        rc = main(["rfgp-compare", "--model", str(workdir["model"]), "--query", "7.0,2.5", "--baseline", baseline,
                   "--m-values", "10,50", "--seeds", "3", "--ensemble", "4",
                   "--ensemble-m", "20", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "rfgp_compare.json").read_text())
        assert doc["format"] == "gpattr-rfgp-compare"
        assert len(doc["features"]) == 2
        for f in doc["features"]:
            assert {"exact", "per_m", "mixture"} <= set(f)
            assert [p["m"] for p in f["per_m"]] == [10, 50]
            assert all(len(p["draws"]) == 3 for p in f["per_m"])
            assert len(f["mixture"]["components"]) == 4
            # the medians equal those of the per-draw scalar forms bit for
            # bit; x1 at its baseline has degenerate laws only, so no divergence
            exact = f["exact"]
            for p in f["per_m"]:
                gaps = [abs(d["mean"] - exact["mean"]) for d in p["draws"]]
                kls = [sym_kl_scalar(d["mean"], d["variance"], exact["mean"], exact["variance"]) for d in p["draws"]]
                kls = [k for k in kls if k is not None]
                assert p["median_abs_mean_gap"] == float(np.median(gaps))
                assert p["median_sym_kl"] == (float(np.median(kls)) if kls else None)
        assert [f["per_m"][0]["median_sym_kl"] is None for f in doc["features"]] == [baseline != "mean", False]


def test_mc_validate_outputs(workdir):
    out = workdir["root"] / "mc"
    rc = main(["mc-validate", "--model", str(workdir["model"]), "--samples", "600",
               "--grid-points", "65", "--queries", "1", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "mc_validation.json").read_text())
    assert doc["format"] == "gpattr-mc-validation"
    assert isinstance(doc["all_ok"], bool)
    assert len(doc["rows"]) == 4  # (1 random query + baseline) x 2 features
    # the pass flags are the per-row rule applied to the stored moments
    for row in doc["rows"]:
        closed_var, emp_var = row["closed_variance"], row["empirical_variance"]
        mean_ok = abs(row["empirical_mean"] - row["closed_mean"]) <= 3.0 * row["std_error"] + 1e-12
        var_ok = abs(emp_var - closed_var) <= 0.10 * closed_var if closed_var > 0.0 else emp_var == 0.0
        assert (row["mean_within_3se"], row["variance_within_10pct"]) == (mean_ok, var_ok)
    assert doc["all_ok"] == all(r["mean_within_3se"] and r["variance_within_10pct"] for r in doc["rows"])
    # the appended baseline query must come out exactly zero on both sides,
    # as +0.0 and never -0.0
    tail = doc["rows"][-2:]
    for row in tail:
        assert row["closed_mean"] == 0.0 and row["closed_variance"] == 0.0
        assert row["empirical_mean"] == 0.0 and row["empirical_variance"] == 0.0
        for key in ("closed_mean", "closed_variance", "empirical_mean", "empirical_variance", "std_error"):
            assert math.copysign(1.0, row[key]) == 1.0, (key, row[key])


def test_mc_validate_rows_draw_from_one_stream_per_query_and_feature(workdir):
    # row (q, i) holds the statistics of stream seed + 1000 q + i through
    # the per-feature direct-law oracle, to round-off
    out = workdir["root"] / "mc_streams"
    assert main(["mc-validate", "--model", str(workdir["model"]), "--samples", "300",
                 "--grid-points", "33", "--queries", "2", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    doc = json.loads((out / "mc_validation.json").read_text())
    model = load_model(str(workdir["model"]))
    z = np.array(doc["baseline"])
    assert len(doc["rows"]) == 6
    for row in doc["rows"]:
        qi, i = row["query_index"], row["feature_index"]
        want = mc_attribution_oracle_direct(
            model, np.array(row["query"]), z, i, 33, 300, seed=4 + 1000 * qi + i
        )
        assert row["empirical_mean"] == pytest.approx(want.empirical_mean, rel=1e-12, abs=1e-14)
        assert row["empirical_variance"] == pytest.approx(want.empirical_var, rel=1e-12)
        assert row["std_error"] == pytest.approx(want.std_error, rel=1e-12)


def test_usage_errors_exit_2(workdir, tmp_path, capsys):
    cases = [
        ["fit", "--out-dir", str(tmp_path)],  # no data source
        ["fit", "--simulate", "10", "--signal-variance", "1.0", "--out-dir", str(tmp_path)],
        ["attribute", "--model", str(workdir["model"]), "--query", "1,2",
         "--query-row", "0", "--out-dir", str(tmp_path)],
        ["attribute", "--model", str(workdir["model"]), "--query", "1,2",
         "--baseline", "nonsense", "--out-dir", str(tmp_path)],
        ["attribute", "--model", str(workdir["model"]), "--query", "1,2",
         "--engine", "quad:simpson", "--out-dir", str(tmp_path)],
        ["attribute", "--model", str(workdir["model"]), "--query", "1,2,3",
         "--out-dir", str(tmp_path)],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()
    # bad row specs and counts fail before any work, naming the flag
    model = ["--model", str(workdir["model"])]
    attr = ["attribute", *model, "--query", "1,2"]
    named = [
        ("--query-row", ["fit", "--data", str(workdir["csv"]), "--target", "y", "--query-row", "abc"]),
        ("--query-row", ["attribute", *model, "--data", str(workdir["csv"]), "--target", "y",
                         "--query-row", "abc"]),
        ("--query-row", ["attribute", *model, "--data", str(workdir["csv"]), "--target", "y",
                         "--query-row", "1.5"]),
        ("--simulate", ["fit", "--simulate", "0"]),
        ("--optimize", ["fit", "--simulate", "10", "--optimize", "0"]),
        ("--target", ["fit", "--simulate", "20", "--target", "foo"]),
        ("--simulate", ["fit", "--simulate", "20", "--target", "foo"]),
        ("--queries", ["quad-sweep", *model, "--queries", "0"]),
        ("--queries", ["quad-sweep", *model, "--queries", "-1"]),
        ("--queries", ["mc-validate", *model, "--queries", "-1"]),
        ("--samples", ["mc-validate", *model, "--samples", "1"]),
        ("--grid-points", ["mc-validate", *model, "--grid-points", "2"]),
        ("--l-values", ["quad-sweep", *model, "--l-values", "8,0"]),
        ("--rules", ["quad-sweep", *model, "--rules", "simpson,foo"]),
        ("--rules", ["quad-sweep", *model, "--rules", ","]),
        # checked before the model file is opened
        ("--rules", ["quad-sweep", "--model", str(tmp_path / "missing.json"), "--rules", "foo"]),
        ("--seeds", ["rfgp-compare", *model, "--query", "1,2", "--seeds", "0"]),
        ("--ensemble", ["rfgp-compare", *model, "--query", "1,2", "--ensemble", "0"]),
        ("--ensemble-m", ["rfgp-compare", *model, "--query", "1,2", "--ensemble-m", "0"]),
        ("--m-values", ["rfgp-compare", *model, "--query", "1,2", "--m-values", "10,-5"]),
        ("--rfgp-features", [*attr, "--engine", "rfgp", "--rfgp-features", "0"]),
        ("--rfgp-ensemble", [*attr, "--engine", "rfgp", "--rfgp-ensemble", "0"]),
        ("--rfgp-ensemble", [*attr, "--engine", "rfgp", "--rfgp-ensemble", "two"]),
        ("--baseline", [*attr, "--baseline", "filter:nan:1"]),
        ("--baseline", [*attr, "--baseline", "filter:1e400:2"]),
        ("--baseline", [*attr, "--baseline", "filter:-inf:inf"]),
        ("--baseline", [*attr, "--baseline", "filter:2:1"]),  # LO > HI
    ]
    for flag, argv in named:
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "rfgp_compare.json").exists()


@pytest.fixture(scope="module")
def readme_model(tmp_path_factory):
    """model.json of the README's fit command."""
    fit_dir = tmp_path_factory.mktemp("readme_fit")
    assert main(["fit", "--simulate", "200", "--noise-scale", "0.5", "--data-seed", "5",
                 "--optimize", "60", "--query-row", "last", "--out-dir", str(fit_dir)]) == 0
    return fit_dir / "model.json"


def test_quad_on_an_unresolved_path_shows_it_in_the_residual(readme_model, tmp_path):
    # the README model queried at x1 = 1e20, about 1.4e20 lengthscales from
    # the baseline: 17 Simpson nodes cannot resolve the path, and the run
    # still exits 0 with x1's mean about 7.05e17. The completeness residual,
    # measured against the exact posterior gap, is the only sign of it; the
    # closed form on the same query closes to round-off.
    docs = {}
    for engine in ("quad:simpson:8", "exact"):
        out = tmp_path / engine.replace(":", "-")
        assert main(["attribute", "--model", str(readme_model), "--query", "1e20,1",
                     "--engine", engine, "--out-dir", str(out)]) == 0
        docs[engine] = json.loads((out / "attributions.json").read_text())
    quad, exact = docs["quad:simpson:8"], docs["exact"]
    x1 = quad["attributions"][0]["mean"]
    assert x1 == pytest.approx(7.05e17, rel=1e-3)
    assert quad["completeness_residual"] == pytest.approx(x1, rel=1e-12)
    assert exact["completeness_residual"] <= 1e-12
    for key in ("prediction_mean", "baseline_prediction_mean"):
        assert quad[key] == exact[key]


@pytest.mark.parametrize("x1", ["1e7", "1e8", "1e9", "7887114532844.254", "1e20"])
def test_exact_closes_on_a_far_baseline(readme_model, tmp_path, capsys, x1):
    # the README model queried at the origin, near its training data, against
    # a baseline far out along x1: the closed form used to give x1's mean the
    # wrong sign at 1e7, a negative variance (exit 4) at 1e8, 1e9 and 1e20, and
    # a traceback from inf slice values at 7887114532844.254
    out = tmp_path / "attr"
    assert main(["attribute", "--model", str(readme_model), "--query", "0,0",
                 "--baseline", f"values:{x1},0", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "attributions.json").read_text())
    assert doc["completeness_residual"] <= 1e-13
    gap = doc["prediction_mean"] - doc["baseline_prediction_mean"]
    assert doc["attributions"][0]["mean"] == pytest.approx(gap, rel=1e-10)
    capsys.readouterr()


def test_mc_validate_zero_queries_checks_the_baseline(workdir):
    out = workdir["root"] / "mc0"
    rc = main(["mc-validate", "--model", str(workdir["model"]), "--samples", "50",
               "--grid-points", "9", "--queries", "0", "--out-dir", str(out)])
    assert rc == 0
    rows = json.loads((out / "mc_validation.json").read_text())["rows"]
    assert [r["query_index"] for r in rows] == [0, 0]


def _count_rfgp_fits(monkeypatch) -> list:
    """Record the (M, seed) of every rfgp_fit call, wherever gpattr looks it up."""
    fits, real = [], gpattr.rfgp.rfgp_fit

    def counting(data, hyper, m_features, seed):
        fits.append((m_features, seed))
        return real(data, hyper, m_features, seed)

    for module in (gpattr, gpattr.rfgp, gpattr.cli):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counting)
    return fits


def test_rfgp_engines_fit_once_per_draw(workdir, monkeypatch, capsys):
    # one fit serves every feature: E fits for an E-member ensemble, and
    # |M| * seeds + ensemble fits for rfgp-compare, whatever d is
    fits = _count_rfgp_fits(monkeypatch)
    base = ["--model", str(workdir["model"]), "--query", "7.0,2.5"]
    out = workdir["root"] / "fit_counts"
    assert main(["attribute", *base, "--engine", "rfgp", "--rfgp-features", "30",
                 "--rfgp-ensemble", "4", "--seed", "3", "--out-dir", str(out / "ens")]) == 0
    assert fits == [(30, 3), (30, 4), (30, 5), (30, 6)]
    fits.clear()
    assert main(["attribute", *base, "--engine", "rfgp", "--rfgp-features", "30",
                 "--out-dir", str(out / "one")]) == 0
    assert fits == [(30, 0)]
    fits.clear()
    assert main(["rfgp-compare", *base, "--m-values", "10,20,30", "--seeds", "2", "--ensemble", "3",
                 "--ensemble-m", "15", "--out-dir", str(out / "cmp")]) == 0
    assert sorted(fits) == sorted([(m, s) for m in (10, 20, 30) for s in (0, 1)] + [(15, 0), (15, 1), (15, 2)])
    capsys.readouterr()


@pytest.mark.parametrize("flags, want", [
    # --ensemble-m among --m-values: the mixture's members extend the draws ...
    (["--m-values", "10,20", "--seeds", "2", "--ensemble", "3", "--ensemble-m", "20"],
     [(10, 0), (10, 1), (20, 0), (20, 1), (20, 2)]),
    # ... or are the first of them
    (["--m-values", "10,20", "--seeds", "3", "--ensemble", "2", "--ensemble-m", "20"],
     [(10, 0), (10, 1), (10, 2), (20, 0), (20, 1), (20, 2)]),
    # a repeated M is one ensemble, reported twice
    (["--m-values", "10,10", "--seeds", "2", "--ensemble", "2", "--ensemble-m", "15"],
     [(10, 0), (10, 1), (15, 0), (15, 1)]),
])
def test_rfgp_compare_fits_each_m_and_seed_once(workdir, monkeypatch, capsys, tmp_path, flags, want):
    fits = _count_rfgp_fits(monkeypatch)
    assert main(["rfgp-compare", "--model", str(workdir["model"]), "--query", "7.0,2.5", *flags,
                 "--out-dir", str(tmp_path)]) == 0
    assert sorted(fits) == want
    doc = json.loads((tmp_path / "rfgp_compare.json").read_text())
    m_values, seeds, ensemble = flags[1], int(flags[3]), int(flags[5])
    for feature in doc["features"]:
        assert [p["m"] for p in feature["per_m"]] == [int(m) for m in m_values.split(",")]
        assert all([d["seed"] for d in p["draws"]] == list(range(seeds)) for p in feature["per_m"])
        assert len(feature["mixture"]["components"]) == ensemble
    capsys.readouterr()


def test_argparse_failures_exit_2(capsys):
    assert main([]) == 2
    assert main(["fit", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_readme_commands_parse_and_its_scripts_exist():
    # README drift fails here, before scripts/readme_commands.py would run it
    root = Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    commands = runpy.run_path(str(root / "scripts" / "readme_commands.py"))["readme_commands"](text)
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gpattr {shlex.join(argv)}")
    scripts = re.findall(r"python (scripts/\S+\.py)", text)
    assert scripts
    assert [s for s in scripts if not (root / s).is_file()] == []


def test_variance_profile_script_runs():
    # the experiment script on a short ray: one row per step, exact zeros at
    # the baseline (t = 0) and finite values with growing spread elsewhere
    script = Path(__file__).resolve().parent.parent / "scripts" / "variance_profile.py"
    rows = runpy.run_path(str(script))["run"](np.array([1.0, 1.0]), 2.0, 3, 5)
    assert [r["t"] for r in rows] == [0.0, 1.0, 2.0]
    assert list(rows[0]) == ["t", "mean_x1", "std_x1", "mean_x2", "std_x2"]
    assert all(v == 0.0 for v in rows[0].values())
    assert all(np.isfinite(v) for r in rows[1:] for v in r.values())
    assert all(r["std_x1"] > 0.0 and r["std_x2"] > 0.0 for r in rows[1:])


def test_data_errors_exit_3(workdir, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["fit", "--data", missing, "--target", "y", "--out-dir", str(tmp_path)]) == 3
    assert main(["fit", "--data", str(workdir["csv"]), "--target", "nope",
                 "--out-dir", str(tmp_path)]) == 3
    bad_model = tmp_path / "bad.json"
    bad_model.write_text('{"format": "other", "version": 1}')
    assert main(["attribute", "--model", str(bad_model), "--query", "1,2",
                 "--out-dir", str(tmp_path)]) == 3
    capsys.readouterr()


# placeholders in EXIT_CASES argvs: the workdir model, its CSV, the
# out-of-scale CSV, and the model file a case writes by editing the workdir model;
# "<key>" of any other workdir entry is that path
MODEL, DATA, HUGE, BAD = "<model>", "<data>", "<huge>", "<bad>"
DELETE = object()


def _edit(path: str, value=DELETE):
    """The workdir model payload with the dotted field path (a number in it
    indexes a list) deleted, set to value, or mapped through value when it
    is callable, as file text."""

    def apply(payload: dict) -> str:
        *parents, last = (int(key) if key.isdigit() else key for key in path.split("."))
        node = payload
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value(node[last]) if callable(value) else value
        return json.dumps(payload)

    return apply


def _bad_model(edit, *names, argv=("attribute", "--model", BAD, "--query", "1,2")):
    """Exit-3 case: a malformed model file, named in stderr with the field."""
    return 3, list(argv), [BAD, *names], edit


FIT_HYPER = ["fit", "--simulate", "10", "--signal-variance", "1", "--lengthscales", "1,1",
             "--noise-variance", "0.1"]
SWEEP_BAD = ("quad-sweep", "--model", BAD, "--queries", "1", "--rules", "simpson", "--l-values", "2")
MC_BAD = ("mc-validate", "--model", BAD, "--samples", "20", "--grid-points", "5", "--queries", "1")

# id: (exit code, argv, what stderr must name, model-file edit written to BAD)
EXIT_CASES = {
    "query-nan": (2, ["attribute", "--model", MODEL, "--query", "nan,1"], ["--query"], None),
    "baseline-inf": (2, ["attribute", "--model", MODEL, "--query", "1,2", "--baseline", "values:inf,1"],
                     ["--baseline"], None),
    "signal-variance-negative": (2, [*FIT_HYPER, "--signal-variance", "-1"], ["--signal-variance"], None),
    "noise-variance-nan": (2, [*FIT_HYPER, "--noise-variance", "nan"], ["--noise-variance"], None),
    "lengthscale-negative": (2, [*FIT_HYPER, "--lengthscales", "1,-1"], ["--lengthscales"], None),
    "noise-scale-negative": (2, ["fit", "--simulate", "10", "--noise-scale", "-1"], ["--noise-scale"], None),
    "lengthscale-count": (2, [*FIT_HYPER, "--lengthscales", "1"], ["--lengthscales"], None),
    "data-without-target": (2, ["fit", "--data", DATA], ["--target"], None),
    "query-row-without-data": (2, ["attribute", "--model", MODEL, "--query-row", "0"], ["--query-row"], None),
    "query-row-out-of-range": (3, ["attribute", "--model", MODEL, "--data", DATA, "--target", "y",
                                   "--query-row", "60"], ["--query-row"], None),
    "query-row-feature-count": (3, ["attribute", "--model", MODEL, "--data", "<three>", "--target", "y",
                                    "--query-row", "0"], ["<three>", "3 features", "expects 2"], None),
    # --data and --target are read only for --query-row or --baseline filter:;
    # a file nothing reads would pass unchecked
    "data-unread": (2, ["attribute", "--model", MODEL, "--query", "1,2", "--data", "<three>", "--target", "y"],
                    ["--data"], None),
    "target-without-data": (2, ["attribute", "--model", MODEL, "--query", "1,2", "--target", "y"], ["--target"],
                            None),
    "data-unread-rfgp-compare": (2, ["rfgp-compare", "--model", MODEL, "--query", "1,2", "--data", DATA,
                                     "--target", "y", "--m-values", "5", "--seeds", "2"], ["--data"], None),
    "holdout-leaves-no-rows": (3, ["fit", "--simulate", "1", "--query-row", "0"], ["query row"], None),
    "not-an-object": _bad_model(lambda payload: "[1, 2]"),
    "empty": _bad_model(lambda payload: ""),
    "truncated": _bad_model(lambda payload: json.dumps(payload)[:300]),
    "no-hyper": _bad_model(_edit("hyper"), "hyper"),
    "no-x_train": _bad_model(_edit("x_train"), "x_train"),
    "hyper-a-list": _bad_model(_edit("hyper", [1]), "hyper"),
    "signal-variance-null": _bad_model(_edit("hyper.signal_variance", None), "signal_variance"),
    "x_train-ragged": _bad_model(_edit("x_train", lambda x: [x[0][:1], *x[1:]]), "x_train"),
    "norm_stats-no-std": _bad_model(_edit("norm_stats", {"mean": [0.0, 0.0]}), "norm_stats.std"),
    "norm_stats-short": _bad_model(_edit("norm_stats", {"mean": [0.0, 0.0], "std": [1.0]}), "norm_stats.std"),
    "holdout-no-x": _bad_model(_edit("holdout.x"), "holdout.x"),
    "holdout-nan": _bad_model(_edit("holdout.x", [float("nan"), 1.0]), "holdout.x"),
    "y_train-text": _bad_model(_edit("y_train", lambda y: ["a"] * len(y)), "y_train"),
    "y_train-short": _bad_model(_edit("y_train", lambda y: y[:-1]), "y_train"),
    "no-y_train": _bad_model(_edit("y_train"), "y_train", argv=("quad-sweep", "--model", BAD)),
    "version-1": _bad_model(_edit("version", 1), "version 1"),
    "feature_names-a-number": _bad_model(_edit("feature_names", 5), "feature_names"),
    # every model command reads the metadata fit stores, so each rejects the same files
    "feature_names-a-number-quad-sweep": _bad_model(_edit("feature_names", 5), "feature_names", argv=SWEEP_BAD),
    "feature_names-a-number-mc": _bad_model(_edit("feature_names", 5), "feature_names", argv=MC_BAD),
    "holdout-text-quad-sweep": _bad_model(_edit("holdout", {"x": "text"}), "holdout.x", argv=SWEEP_BAD),
    "holdout-text-mc": _bad_model(_edit("holdout", {"x": "text"}), "holdout.x", argv=MC_BAD),
    # the targets are a model field: without them no command loads the file,
    # whether or not it reads the targets itself
    "no-targets-filter-baseline": _bad_model(
        _edit("y_train"), "y_train",
        argv=("attribute", "--model", BAD, "--query", "1,2", "--baseline", "filter:-1:1")),
    "no-targets-rfgp-engine": _bad_model(
        _edit("y_train"), "y_train",
        argv=("attribute", "--model", BAD, "--query", "1,2", "--engine", "rfgp")),
    "no-query-point": (2, ["attribute", "--model", BAD], ["--query"], _edit("holdout")),
    # an x_train column whose range squared overflows is refused at load, as
    # fit refuses it, before any engine or the query box of quad-sweep sees it
    "x_train-range-overflow-exact": _bad_model(
        _edit("x_train.3.1", -1e308), "x_train", "column(s) 1",
        argv=("attribute", "--model", BAD, "--query=1,1", "--baseline", "values:5,5")),
    "x_train-range-overflow-rfgp": _bad_model(
        _edit("x_train.3.0", 1e308), "x_train", "column(s) 0",
        argv=("attribute", "--model", BAD, "--query", "1,2", "--engine", "rfgp")),
    "x_train-range-overflow-quad-sweep": _bad_model(
        _edit("x_train", lambda x: [[1e308, 0.0], [-1e308, 0.0], *x[2:]]), "x_train", "column(s) 0",
        argv=("quad-sweep", "--model", BAD, "--queries", "1")),
    "x_train-range-overflow-mc": _bad_model(
        _edit("x_train.3.1", -1e308), "x_train", "column(s) 1",
        argv=("mc-validate", "--model", BAD, "--samples", "20", "--grid-points", "5", "--queries", "1")),
    # finite inputs that overflow the numerics exit 4, the same for every engine
    "query-overflow-exact": (4, ["attribute", "--model", MODEL, "--query", "1e308,1"], ["query"], None),
    "query-overflow-rfgp": (4, ["attribute", "--model", MODEL, "--query", "1e308,1", "--engine", "rfgp"],
                            ["query"], None),
    "query-overflow-quad": (4, ["attribute", "--model", MODEL, "--query", "1e308,1",
                                "--engine", "quad:simpson:8"], ["query"], None),
    # p2 ~ 7e155 is finite, but the closed forms' p2^2 is not
    "query-long-path-exact": (4, ["attribute", "--model", MODEL, "--query", "1e78,1"], ["query"], None),
    "query-long-path-rfgp": (4, ["attribute", "--model", MODEL, "--query", "1e78,1", "--engine", "rfgp"],
                             ["query"], None),
    "query-long-path-quad": (4, ["attribute", "--model", MODEL, "--query", "1e78,1",
                                 "--engine", "quad:simpson:8"], ["query"], None),
    "baseline-long-path-exact": (4, ["attribute", "--model", MODEL, "--query", "1,1",
                                     "--baseline", "values:1e78,1"], ["baseline"], None),
    "lengthscale-overflow": (4, ["fit", "--simulate", "20", "--signal-variance", "1e308",
                                 "--lengthscales", "1e-300,1", "--noise-variance", "0"], ["lengthscale"], None),
    "weights-overflow": (4, ["fit", "--simulate", "20", "--signal-variance", "1e-300",
                             "--lengthscales", "1e300,1e300", "--noise-variance", "0"], ["weights"], None),
    # finite model values that overflow an engine's numerics exit 4 from that
    # engine's one check: the exact report's solve, the rfgp fit's design
    # matrix and ridge, the weights at load, rfgp-compare's divergence and
    # mixtures, the Monte Carlo moments and the laws themselves
    "signal-variance-overflow-exact": (4, ["attribute", "--model", BAD, "--query", "1,2"],
                                       ["solve", "not finite"], _edit("hyper.signal_variance", 1e308)),
    "signal-variance-overflow-mc": (4, ["mc-validate", "--model", BAD, "--samples", "20", "--grid-points", "5",
                                        "--queries", "1"], ["Monte Carlo"], _edit("hyper.signal_variance", 1e308)),
    "ridge-overflow-rfgp": (4, ["attribute", "--model", BAD, "--query", "1,2", "--engine", "rfgp"],
                            ["ridge (inf)"], _edit("hyper.signal_variance", 1e-320)),
    "y_train-overflow-rfgp-compare": (4, ["rfgp-compare", "--model", BAD, "--query", "1,2", "--m-values", "5",
                                          "--seeds", "2", "--ensemble", "2", "--ensemble-m", "5"],
                                      [BAD, "weights"], _edit("y_train.5", 1e308)),
    "mixture-overflow-rfgp-compare": (4, ["rfgp-compare", "--model", BAD, "--query", "1,2", "--m-values", "5",
                                          "--seeds", "2", "--ensemble", "2", "--ensemble-m", "5"],
                                      ["attribution mixture"], _edit("y_train.5", 1e160)),
    "sym-kl-overflow-rfgp-compare": (4, ["rfgp-compare", "--model", BAD, "--query", "1,2", "--m-values", "5",
                                         "--seeds", "1", "--ensemble", "1", "--ensemble-m", "5"],
                                     ["divergence", "'x1'"], _edit("y_train.5", 1e160)),
    # x1 at its baseline has degenerate laws, which no divergence compares: x2 is named
    "sym-kl-overflow-rfgp-compare-x1-degenerate": (
        4, ["rfgp-compare", "--model", BAD, "--query", "1,5", "--baseline", "values:1,2", "--m-values", "5",
            "--seeds", "1", "--ensemble", "1", "--ensemble-m", "5"],
        ["divergence", "'x2'"], _edit("y_train.5", 1e160)),
    "laws-overflow-rfgp": (4, ["attribute", "--model", "<wide_model>", "--query", "1e100,2", "--engine", "rfgp"],
                           ["law of feature 0", "not finite"], None),
    # a size past any address space fails its allocation at once, which numpy's message names
    "oversized-simulate": (4, ["fit", "--simulate", "100000000000000000"], ["Unable to allocate", "shape"], None),
    "oversized-mc-samples": (4, ["mc-validate", "--model", MODEL, "--samples", "100000000000000000"],
                             ["Unable to allocate", "shape"], None),
    "lml-overflow-fit": (4, ["fit", "--data", "<tall>", "--target", "y", *HYPER_FLAGS], ["log marginal likelihood"],
                         None),
    # finite data whose variance overflows exits 3 naming the column
    "simulate-out-of-scale": (3, ["fit", "--simulate", "20", "--noise-scale", "1e300"], ["'y'"], None),
    "csv-out-of-scale": (3, ["fit", "--data", HUGE, "--target", "y"], ["'y'"], None),
    "csv-out-of-scale-normalize": (3, ["fit", "--data", HUGE, "--target", "y", "--normalize"],
                                   ["'x1'", "'x2'"], None),
    # a column whose range squared overflows exits 3 naming it, whatever the hyperparameters
    "csv-range-overflow": (3, ["fit", "--data", "<far>", "--target", "y", *HYPER_FLAGS], ["'x1'", "range"], None),
    "csv-range-overflow-search": (3, ["fit", "--data", "<far>", "--target", "y", *HYPER_FLAGS, "--optimize", "4"],
                                  ["'x1'", "range"], None),
    # a column whose entries are all equal is constant, whatever its float variance
    "csv-constant-normalize": (3, ["fit", "--data", "<const>", "--target", "y", "--normalize"],
                               ["zero-variance", "'a'"], None),
    # every CSV column needs its own non-empty name
    "csv-duplicate-feature": (3, ["fit", "--data", "<dup>", "--target", "y"], ["<dup>", "'a', 'a'"], None),
    "csv-duplicate-target": (3, ["fit", "--data", "<twin>", "--target", "y"], ["<twin>", "'y', 'y'"], None),
    "csv-empty-name": (3, ["fit", "--data", "<blank>", "--target", "y"], ["<blank>", "''"], None),
    "csv-not-utf8": (3, ["fit", "--data", "<notutf8>", "--target", "y"], ["<notutf8>", "UTF-8", "0xff"], None),
    "csv-cell-too-long": (3, ["fit", "--data", "<longcell>", "--target", "y"], ["<longcell>", "line 3", "field limit"],
                          None),
    # --data must hold the model's features, by name and in order
    "data-swapped-query-row": (3, ["attribute", "--model", MODEL, "--data", "<swapped>", "--target", "y",
                                   "--query-row", "0"], ["<swapped>", "['x2', 'x1']", "['x1', 'x2']"], None),
    "data-swapped-filter": (3, ["attribute", "--model", MODEL, "--data", "<swapped>", "--target", "y",
                                "--query", "1,2", "--baseline", "filter:-1:1"],
                            ["<swapped>", "['x2', 'x1']", "['x1', 'x2']"], None),
    "data-swapped-rfgp-compare": (3, ["rfgp-compare", "--model", MODEL, "--data", "<swapped>", "--target", "y",
                                      "--query-row", "0"], ["<swapped>", "['x2', 'x1']", "['x1', 'x2']"], None),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_code_and_message_name_the_fault(workdir, tmp_path, capsys, case):
    # bad flag values exit 2 at parse time; every malformed model file
    # exits 3 naming the file and the field; overflow exits 4 naming what
    # overflowed; never with a traceback
    code, argv, names, edit = EXIT_CASES[case]
    bad = tmp_path / "bad.json"
    if edit is not None:
        bad.write_text(edit(json.loads(workdir["model"].read_text())))
    paths = {**{f"<{key}>": str(path) for key, path in workdir.items()}, DATA: str(workdir["csv"]), BAD: str(bad)}
    argv = [paths.get(a, a) for a in argv]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert all(paths.get(name, name) in err for name in names), err
    assert "Traceback" not in err


# the seeded fuzz of the model file: single-field mutations of the workdir
# model, each run in process through one of these commands with small flags
FUZZ_VALUES = (None, "text", [1.0, 2.0], 1e308, -1e308, math.nan, math.inf, 1e-320, DELETE)
FUZZ_COMMANDS = (
    ("attribute", "--query", "1,2"),
    ("attribute", "--query", "1,2", "--engine", "quad:simpson:4"),
    ("attribute", "--query", "1,2", "--engine", "rfgp", "--rfgp-features", "20"),
    ("quad-sweep", "--queries", "1", "--rules", "simpson", "--l-values", "2"),
    ("rfgp-compare", "--query", "1,2", "--m-values", "5", "--seeds", "2", "--ensemble", "2", "--ensemble-m", "5"),
    ("mc-validate", "--samples", "20", "--grid-points", "5", "--queries", "1"),
)


def _fuzz_paths(node, rng, prefix="") -> list[str]:
    """Dotted path of every object field and sub-object of the payload node,
    and of three seeded entries of each list (all of a shorter one)."""
    if isinstance(node, dict):
        keys = sorted(node)
    elif isinstance(node, list):
        keys = sorted(rng.choice(len(node), min(3, len(node)), replace=False).tolist())
    else:
        return []
    paths = []
    for key in keys:
        path = f"{prefix}{key}"
        paths += [path, *_fuzz_paths(node[key], rng, path + ".")]
    return paths


def test_model_file_fuzz_exits_with_a_documented_code(workdir, tmp_path, capsys):
    # every mutation exits 0, 2, 3 or 4 with no traceback; a numpy warning,
    # an error under this suite's settings, counts as an escape too
    payload = json.loads(workdir["model"].read_text())
    rng = np.random.default_rng(2024)
    bad, out = tmp_path / "bad.json", str(tmp_path / "out")
    cases = [(path, value) for path in _fuzz_paths(payload, rng) for value in FUZZ_VALUES]
    assert len(cases) >= 250
    escapes = []
    for (path, value), k in zip(cases, rng.integers(len(FUZZ_COMMANDS), size=len(cases))):
        command, *flags = FUZZ_COMMANDS[k]
        bad.write_text(_edit(path, value)(json.loads(json.dumps(payload))))
        try:
            code = main([command, "--model", str(bad), *flags, "--out-dir", out])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 2, 3, 4) or "Traceback" in capsys.readouterr().err:
            escapes.append((path, value, command, *flags, code))
    assert not escapes, "\n".join(map(repr, escapes))


# the seeded fuzz of the CSV file: single-cell and header mutations of a
# fixture CSV, each fitted with one of these flag sets and, when the fit
# succeeds, attributed by three engines; CSV_FUZZ_CELLS maps a cell value
# to how many seeded cells take it (text the loader rejects needs few)
CSV_FUZZ_CELLS = {"1e308": 16, "-1e308": 16, "1e-320": 8, "nan": 2, "inf": 2, "-inf": 2, "": 2}
CSV_FUZZ_FITS = ((), ("--normalize",), ("--optimize", "3"), tuple(HYPER_FLAGS))
CSV_FUZZ_ENGINES = ("exact", "quad:simpson:8", "rfgp")


def _csv_mutations(rows: list[list[str]], rng) -> list[tuple[str, list[list[str]]]]:
    """(description, rows) of every mutation: each cell value at its count
    of seeded cells, a row with an extra or a missing cell, and a header
    with an extra, a missing, a duplicated or an empty name."""
    header, width = rows[0], len(rows[0])
    cases = []
    for value, count in CSV_FUZZ_CELLS.items():
        for r, c in zip(rng.integers(1, len(rows), size=count), rng.integers(width, size=count)):
            cases.append((f"row {r} column {c} = {value!r}", [*rows[:r], [*rows[r][:c], value, *rows[r][c + 1:]],
                                                             *rows[r + 1:]]))
    r = int(rng.integers(1, len(rows)))
    for what, row in (("extra cell", [*rows[r], "1.0"]), ("missing cell", rows[r][:-1])):
        cases.append((f"row {r} {what}", [*rows[:r], row, *rows[r + 1:]]))
    for what, head in (("extra name", [*header, "z"]), ("missing name", header[1:]),
                       ("duplicate name", [header[0], *header[:-1]]), ("empty name", ["", *header[1:]])):
        cases.append((f"header {what}", [head, *rows[1:]]))
    return cases


def test_csv_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    # every mutation exits 0, 2, 3 or 4 at fit and at each engine, with no
    # traceback; a numpy warning, an error under this suite's settings,
    # counts as an escape too
    with open(_write_sim_csv(tmp_path / "fixture.csv", n=20, seed=8), newline="") as fh:
        rows = list(csv.reader(fh))
    rng = np.random.default_rng(2025)
    bad, out = tmp_path / "bad.csv", tmp_path / "out"
    cases = _csv_mutations(rows, rng)
    assert len(cases) == 54
    escapes = []

    def run(what: str, argv: list[str]) -> int | str:
        try:
            code = main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 2, 3, 4) or "Traceback" in capsys.readouterr().err:
            escapes.append((what, *argv, code))
        return code

    for (what, mutated), k in zip(cases, rng.integers(len(CSV_FUZZ_FITS), size=len(cases))):
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(mutated)
        fit_argv = ["fit", "--data", str(bad), "--target", "y", "--query-row", "last", *CSV_FUZZ_FITS[k]]
        if run(what, [*fit_argv, "--out-dir", str(out / "fit")]) != 0:
            continue
        for engine in CSV_FUZZ_ENGINES:
            run(what, ["attribute", "--model", str(out / "fit" / "model.json"), "--engine", engine,
                 "--rfgp-features", "10", "--out-dir", str(out / "attr")])
    assert not escapes, "\n".join(map(repr, escapes))


def test_main_lets_other_exceptions_surface(workdir, tmp_path, monkeypatch):
    # only the documented exception types map to exit codes; anything
    # else is a bug and must keep its traceback
    argv = ["quad-sweep", "--model", str(workdir["model"]), "--out-dir", str(tmp_path)]
    for exc in (ValueError("bug"), KeyError("bug"), TypeError("bug")):
        def broken(args, out, exc=exc):
            raise exc
        monkeypatch.setattr(gpattr.cli, "cmd_quad_sweep", broken)
        with pytest.raises(type(exc)):
            main(argv)


def test_numerical_errors_exit_4(tmp_path, capsys):
    # zero noise makes the random-feature system rank deficient when 2M > N
    csv_path = _write_sim_csv(tmp_path / "d.csv", n=30, seed=6)
    fit_dir = tmp_path / "fit0"
    rc = main(["fit", "--data", str(csv_path), "--target", "y",
               "--signal-variance", "0.6", "--lengthscales", "1.2,0.8",
               "--noise-variance", "0", "--out-dir", str(fit_dir)])
    assert rc == 0
    rc = main(["attribute", "--model", str(fit_dir / "model.json"), "--query", "5,5",
               "--engine", "rfgp", "--rfgp-features", "100",
               "--out-dir", str(tmp_path / "attr")])
    assert rc == 4
    capsys.readouterr()


def test_attribute_load_uses_the_stored_jitter(workdir, tmp_path, capsys):
    payload = json.loads(workdir["model"].read_text())
    query = ["--query", "1,2", "--out-dir", str(tmp_path)]
    payload["jitter"] = -1.0
    bad = tmp_path / "negative_jitter.json"
    bad.write_text(json.dumps(payload))
    assert main(["attribute", "--model", str(bad), *query]) == 3
    assert "jitter" in capsys.readouterr().err
    # duplicate every training row at zero noise: singular without jitter
    payload["x_train"] = payload["x_train"] * 2
    payload["y_train"] = payload["y_train"] * 2
    payload["hyper"]["noise_variance"] = 0.0
    payload["jitter"] = 0.0
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(payload))
    assert main(["attribute", "--model", str(bad), *query]) == 4
    err = capsys.readouterr().err
    assert "jitter" in err and str(bad) in err


def test_attribute_parses_the_model_and_reads_the_data_once(workdir, tmp_path, monkeypatch):
    # --query-row and a filter baseline both need --data: one CSV read and
    # one JSON parse serve the query, the baseline and the model
    counts = {"json.load": 0, "load_csv": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(json, "load", counting("json.load", json.load))
    monkeypatch.setattr(gpattr.cli, "load_csv", counting("load_csv", gpattr.cli.load_csv))
    small = {"attribute": [], "rfgp-compare": ["--m-values", "5", "--seeds", "1", "--ensemble", "1"]}
    for command, flags in small.items():
        counts.update({"json.load": 0, "load_csv": 0})
        rc = main([command, "--model", str(workdir["model"]), "--data", str(workdir["csv"]),
                   "--target", "y", "--query-row", "3", "--baseline", "filter:-0.2:0.2",
                   *flags, "--out-dir", str(tmp_path / command)])
        assert rc == 0
        assert counts == {"json.load": 1, "load_csv": 1}, command


def test_fit_writes_the_factor_sidecar_and_every_load_reads_it(workdir, tmp_path, monkeypatch):
    # fit stores the factor beside model.json; each command that loads the
    # model reads it from there instead of refactoring, with the same output
    sidecar = workdir["fit"] / "model.json.factor.npy"
    n = len(json.loads(workdir["model"].read_text())["y_train"])
    assert sidecar.stat().st_size > 8 * n * (n + 1) // 2
    query = ["--query", "6.5,3.5"]
    small = {
        "attribute": query,
        "quad-sweep": ["--queries", "1", "--rules", "simpson", "--l-values", "2"],
        "rfgp-compare": [*query, "--m-values", "5", "--seeds", "1", "--ensemble", "1", "--ensemble-m", "5"],
        "mc-validate": ["--samples", "20", "--grid-points", "5", "--queries", "1"],
    }
    refactored = tmp_path / "copy" / "model.json"  # copied without its sidecar
    refactored.parent.mkdir()
    refactored.write_bytes(workdir["model"].read_bytes())
    for command, flags in small.items():
        assert main([command, "--model", str(refactored), *flags, "--out-dir", str(tmp_path / "a" / command)]) == 0

    def fail(mat):
        raise AssertionError("a command refactored the model")

    monkeypatch.setattr(gpattr.gpr, "cholesky", fail)
    for command, flags in small.items():
        out = tmp_path / "b" / command
        assert main([command, "--model", str(workdir["model"]), *flags, "--out-dir", str(out)]) == 0
        for path in out.iterdir():
            if path.name != "manifest.json":  # it records the --model and --out-dir paths
                assert path.read_bytes() == (tmp_path / "a" / command / path.name).read_bytes(), path


def test_python_dash_m_runs_the_cli(workdir, tmp_path):
    src = str(Path(gpattr.__file__).resolve().parent.parent)
    out = tmp_path / "m"
    proc = subprocess.run(
        [sys.executable, "-m", "gpattr", "attribute", "--model", str(workdir["model"]),
         "--query", "7.0,2.5", "--out-dir", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "completeness residual" in proc.stdout
    assert (out / "attributions.json").is_file()
    usage = subprocess.run([sys.executable, "-m", "gpattr"], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert usage.returncode == 2 and "usage" in usage.stderr


def test_python_dash_m_reports_a_malformed_model(tmp_path):
    src = str(Path(gpattr.__file__).resolve().parent.parent)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    proc = subprocess.run(
        [sys.executable, "-m", "gpattr", "attribute", "--model", str(bad), "--query", "1,2",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    assert str(bad) in proc.stderr and "Traceback" not in proc.stderr
