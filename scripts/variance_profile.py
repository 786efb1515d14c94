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
from dataclasses import dataclass

import numpy as np

from gpattr import ArdSeHyper, attribution_report, fit, optimize_hyperparameters, simulate


@dataclass(frozen=True)
class ProfileConfig:
    n_train: int = 200
    noise_scale: float = 0.5
    seed: int = 5
    search_budget: int = 60
    t_max: float = 4.0
    steps: int = 41


def run(cfg: ProfileConfig, direction: np.ndarray) -> list[dict]:
    data = simulate(cfg.n_train, cfg.noise_scale, seed=cfg.seed)
    y_var = max(float(np.var(data.y)), 1e-8)
    init = ArdSeHyper(y_var, data.X.std(axis=0), 0.1 * y_var)
    hyper = optimize_hyperparameters(data, init, cfg.search_budget)
    model = fit(data, hyper)
    baseline = np.zeros(data.dim)
    rows = []
    for t in np.linspace(0.0, cfg.t_max, cfg.steps):
        x = t * direction
        row = {"t": float(t)}
        report = attribution_report(model, x, baseline)
        for name, attr in zip(data.feature_names, report.attributions):
            row[f"mean_{name}"] = attr.mean
            row[f"std_{name}"] = float(np.sqrt(attr.variance))
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="variance_profile.csv", help="output CSV path")
    parser.add_argument("--t-max", type=float, default=4.0)
    parser.add_argument("--steps", type=int, default=41)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    cfg = ProfileConfig(t_max=args.t_max, steps=args.steps, seed=args.seed)
    rows = run(cfg, direction=np.array([1.0, 1.0]))

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
