"""End-to-end command line tests, driving main() in-process."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpattr
from gpattr.cli import build_parser, main
from gpattr.data_io import simulate

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
    return {"root": root, "csv": csv_path, "fit": fit_dir, "model": fit_dir / "model.json"}


def test_fit_outputs(workdir):
    for name in ("model.json", "fit_report.json", "manifest.json"):
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
    out = workdir["root"] / "compare"
    rc = main(["rfgp-compare", "--model", str(workdir["model"]), "--query", "7.0,2.5",
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


def test_mc_validate_outputs(workdir):
    out = workdir["root"] / "mc"
    rc = main(["mc-validate", "--model", str(workdir["model"]), "--samples", "600",
               "--grid-points", "65", "--queries", "1", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "mc_validation.json").read_text())
    assert doc["format"] == "gpattr-mc-validation"
    assert isinstance(doc["all_ok"], bool)
    assert len(doc["rows"]) == 4  # (1 random query + baseline) x 2 features
    # the appended baseline query must come out exactly zero on both sides
    tail = doc["rows"][-2:]
    for row in tail:
        assert row["closed_mean"] == 0.0 and row["closed_variance"] == 0.0
        assert row["empirical_mean"] == 0.0 and row["empirical_variance"] == 0.0


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
    ]
    for flag, argv in named:
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "rfgp_compare.json").exists()


def test_mc_validate_zero_queries_checks_the_baseline(workdir):
    out = workdir["root"] / "mc0"
    rc = main(["mc-validate", "--model", str(workdir["model"]), "--samples", "50",
               "--grid-points", "9", "--queries", "0", "--out-dir", str(out)])
    assert rc == 0
    rows = json.loads((out / "mc_validation.json").read_text())["rows"]
    assert [r["query_index"] for r in rows] == [0, 0]


def _count_rfgp_fits(monkeypatch) -> list:
    """Record the seed of every rfgp_fit call, wherever gpattr looks it up."""
    seeds, real = [], gpattr.rfgp.rfgp_fit

    def counting(data, hyper, m_features, seed):
        seeds.append(seed)
        return real(data, hyper, m_features, seed)

    for module in (gpattr, gpattr.rfgp, gpattr.cli):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counting)
    return seeds


def test_rfgp_engines_fit_once_per_draw(workdir, monkeypatch, capsys):
    # one fit serves every feature: E fits for an E-member ensemble, and
    # |M| * seeds + ensemble fits for rfgp-compare, whatever d is
    seeds = _count_rfgp_fits(monkeypatch)
    base = ["--model", str(workdir["model"]), "--query", "7.0,2.5"]
    out = workdir["root"] / "fit_counts"
    assert main(["attribute", *base, "--engine", "rfgp", "--rfgp-features", "30",
                 "--rfgp-ensemble", "4", "--seed", "3", "--out-dir", str(out / "ens")]) == 0
    assert seeds == [3, 4, 5, 6]
    seeds.clear()
    assert main(["attribute", *base, "--engine", "rfgp", "--rfgp-features", "30",
                 "--out-dir", str(out / "one")]) == 0
    assert seeds == [0]
    seeds.clear()
    assert main(["rfgp-compare", *base, "--m-values", "10,20,30", "--seeds", "2", "--ensemble", "3",
                 "--ensemble-m", "15", "--out-dir", str(out / "cmp")]) == 0
    assert sorted(seeds) == sorted([0, 1] * 3 + [0, 1, 2])
    capsys.readouterr()


def test_argparse_failures_exit_2(capsys):
    assert main([]) == 2
    assert main(["fit", "--no-such-flag"]) == 2
    capsys.readouterr()


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


def test_attribute_rejects_truncated_alpha_at_load(workdir, tmp_path, capsys):
    payload = json.loads(workdir["model"].read_text())
    payload["alpha"] = payload["alpha"][:-1]
    bad = tmp_path / "truncated.json"
    bad.write_text(json.dumps(payload))
    rc = main(["attribute", "--model", str(bad), "--query", "1,2", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "alpha" in err and "matmul" not in err


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
    payload["alpha"] = payload["alpha"] * 2
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
