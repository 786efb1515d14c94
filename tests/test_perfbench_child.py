"""The benchmark's timed explain loop, perfbench/explain_child.py, runs on
this package: it reads each report through the per-feature
AttributionReport.attributions view, so a change to that view must show
here, not only under a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gpattr import ArdSeHyper, fit, save_model, simulate

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "explain_child.py"


def test_explain_child_reports_every_feature(tmp_path):
    # untraced (no PERFBENCH_SPANS) and run from tmp_path, so it writes
    # nothing under perfbench/; the last query is the baseline itself
    data = simulate(40, 0.3, seed=3)
    model = fit(data, ArdSeHyper(0.6, np.array([1.2, 0.8]), 0.1))
    model_path, queries_path, out_path = (tmp_path / name for name in ("model.json", "queries.json", "out.json"))
    save_model(model, str(model_path))
    baseline = data.X.mean(axis=0).tolist()
    queries = [[7.0, 2.0], [1.0, 9.0], [5.0, 5.0], [baseline[0], 9.0], baseline]
    queries_path.write_text(json.dumps({"queries": queries, "baseline": baseline}))
    env = {key: value for key, value in os.environ.items() if key != "PERFBENCH_SPANS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(CHILD), str(model_path), str(queries_path), str(out_path)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(out_path.read_text())["reports"]
    assert len(reports) == len(queries)
    for report in reports:
        assert "error" not in report, report
        means, variances = np.array(report["means"]), np.array(report["variances"])
        assert means.shape == variances.shape == (data.dim,)
        assert np.all(np.isfinite(means)) and np.all(np.isfinite(variances)) and np.all(variances >= 0.0)
        assert report["residual"] <= 1e-10
    assert reports[-2]["means"][0] == 0.0 and reports[-2]["variances"][0] == 0.0
    assert reports[-1]["means"] == [0.0, 0.0] and reports[-1]["variances"] == [0.0, 0.0]
