"""Attribution uncertainty along a ray leaving the baseline.

Fits a model on the simulated benchmark, then slides the query along
x(t) = t * direction from a zero baseline and records each feature's
attribution mean and standard deviation. At t = 0 the attribution is
exactly zero with zero variance; past the edge of the training data the
uncertainty keeps growing while the mean flattens out.

Usage: python scripts/variance_profile.py --out profile.csv
"""

import argparse
import csv

import numpy as np

from gpattr import ArdSeHyper, attribution_report, fit, optimize_hyperparameters, simulate

N_TRAIN = 200
NOISE_SCALE = 0.5
SEARCH_BUDGET = 60


def run(direction: np.ndarray, t_max: float, steps: int, seed: int) -> list[dict]:
    """One row per t in linspace(0, t_max, steps): t and each feature's
    attribution mean and std at x = t * direction, on a model searched and
    fitted on the simulated benchmark drawn with seed."""
    data = simulate(N_TRAIN, NOISE_SCALE, seed=seed)
    y_var = max(float(np.var(data.y)), 1e-8)
    init = ArdSeHyper(y_var, data.X.std(axis=0), 0.1 * y_var)
    hyper = optimize_hyperparameters(data, init, SEARCH_BUDGET)
    model = fit(data, hyper)
    baseline = np.zeros(data.dim)
    rows = []
    for t in np.linspace(0.0, t_max, steps):
        x = t * direction
        row = {"t": float(t)}
        report = attribution_report(model, x, baseline)
        for name, mean, std in zip(data.feature_names, report.means.tolist(), np.sqrt(report.variances).tolist()):
            row[f"mean_{name}"] = mean
            row[f"std_{name}"] = std
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="variance_profile.csv", help="output CSV path")
    parser.add_argument("--t-max", type=float, default=4.0)
    parser.add_argument("--steps", type=int, default=41)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    rows = run(np.array([1.0, 1.0]), args.t_max, args.steps, args.seed)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    head = "      ".join(k for k in rows[0] if k != "t")
    print(f"    t      {head}")
    for row in rows[:: max(1, len(rows) // 10)]:
        vals = "  ".join(f"{row[k]:+10.4f}" for k in row if k != "t")
        print(f"{row['t']:5.2f}  {vals}")
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
