"""Timed child process of the explain workload.

    python perfbench/explain_child.py MODEL QUERIES OUT

Loads MODEL once with gpattr.load_model, then calls
gpattr.attribution_report for each query in QUERIES (JSON with "queries" and
"baseline") and writes the latencies and report contents to OUT as JSON. A
report that raises is recorded with its error and the loop goes on, so the
benchmark can count it as failed. With PERFBENCH_SPANS set, the gpattr
functions are traced and the spans written to that path.
"""

import json
import os
import sys
import time


def main(model_path: str, queries_path: str, out_path: str) -> int:
    tracer = None
    if os.environ.get("PERFBENCH_SPANS"):
        import spantrace

        tracer = spantrace.install()
    import numpy as np

    import gpattr

    with open(queries_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    baseline = np.array(spec["baseline"], dtype=float)

    start = time.perf_counter()
    model = gpattr.load_model(model_path)
    load_s = time.perf_counter() - start

    reports = []
    for query in spec["queries"]:
        start = time.perf_counter()
        try:
            report = gpattr.attribution_report(model, np.array(query, dtype=float), baseline)
        except Exception as exc:  # counted as a failed report by the benchmark
            reports.append({"seconds": time.perf_counter() - start, "error": repr(exc)})
            continue
        reports.append(
            {
                "seconds": time.perf_counter() - start,
                "residual": report.completeness_residual,
                "means": [a.mean for a in report.attributions],
                "variances": [a.variance for a in report.attributions],
            }
        )

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"load_s": load_s, "reports": reports}, fh)
    if tracer is not None:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
