"""Random-feature attributions closing in on the exact law.

For each feature count M the script fits random-feature models across
several frequency seeds, compares their attribution means with the exact
closed form at a handful of query points, and reports the median absolute
gap. A second table shows how marginalizing over an ensemble of frequency
draws widens the attribution variance relative to a single model.

Usage: python scripts/rfgp_convergence.py --m-values 10,100,1000
"""

import argparse
import csv

import numpy as np

from gpattr import (
    ArdSeHyper,
    attribution_report,
    fit,
    marginalized_attribution,
    optimize_hyperparameters,
    rfgp_attribution,
    rfgp_fit,
    simulate,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="rfgp_convergence.csv", help="output CSV path")
    parser.add_argument("--m-values", default="10,100,1000")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--queries", type=int, default=5)
    parser.add_argument("--ensemble", type=int, default=100)
    args = parser.parse_args()

    data = simulate(200, 0.5, seed=5)
    y_var = max(float(np.var(data.y)), 1e-8)
    init = ArdSeHyper(y_var, data.X.std(axis=0), 0.1 * y_var)
    hyper = optimize_hyperparameters(data, init, 60)
    model = fit(data, hyper)

    rng = np.random.default_rng(7)
    lo, hi = data.X.min(axis=0), data.X.max(axis=0)
    pairs = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(args.queries)]
    exact = [[a.mean for a in attribution_report(model, x, z).attributions] for x, z in pairs]

    m_values = [int(v) for v in args.m_values.split(",")]
    rows = []
    print("median |approx mean - exact mean| over "
          f"{args.seeds} seeds x {args.queries} query pairs")
    for m in m_values:
        gaps = []
        for seed in range(args.seeds):
            approx = rfgp_fit(data, hyper, m, seed)
            for (x, z), ex in zip(pairs, exact):
                gaps.extend(
                    abs(rfgp_attribution(approx, x, z, i).mean - ex[i])
                    for i in range(data.dim)
                )
        med = float(np.median(gaps))
        rows.append({"m_features": m, "median_mean_gap": med})
        print(f"  M = {m:<6d} median gap = {med:.4f}")

    x, z = pairs[0]
    print(f"\nensemble of {args.ensemble} frequency draws at M = 100, first query pair")
    for i in range(data.dim):
        mix = marginalized_attribution(data, hyper, 100, x, z, i, args.ensemble, seed=0)
        single = float(np.median([c.variance for c in mix.components]))
        print(
            f"  {data.feature_names[i]}: mixture var {mix.total_variance:.4f}"
            f"  vs median single-model var {single:.4f}"
        )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["m_features", "median_mean_gap"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nwrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
