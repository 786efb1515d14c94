"""Command line for fitting, attribution, and validation workflows.

Subcommands:
    fit           fit a GP on CSV or simulated data, write model + report
    attribute     per-feature attribution laws for one query point
    quad-sweep    benchmark quadrature rules against the closed forms
    rfgp-compare  random-feature attributions vs the exact law
    mc-validate   Monte Carlo check of attribution means and variances

Every command writes a manifest.json (its parsed options, package and
library versions, seeds) next to its outputs; re-running the same command
on the same machine reproduces the outputs byte for byte.

Exit codes: 0 success, 2 usage, 3 data problems, 4 numerical failures.
"""

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .attrib_exact import (
    AttributionGaussian,
    attribution_report,
    report_from_rows,
    write_report_csv,
    write_report_json_dict,
)
from .attrib_quad import (
    QuadratureSpec,
    convergence_sweep,
    mc_attribution_oracle,
    quad_attribution,
)
from .data_io import (
    Baseline,
    DataError,
    Dataset,
    NormStats,
    apply_norm,
    load_csv,
    normalize,
    simulate,
    target_filtered_baseline,
)
from .gpr import (
    GprModel,
    fit,
    load_model,
    load_model_payload,
    log_marginal_likelihood,
    optimize_hyperparameters,
    save_model,
)
from .kernels import ArdSeHyper
from .rfgp import marginalized_attribution, rfgp_attribution, rfgp_fit
from .specfun import NumericalError

__all__ = ["build_parser", "main", "entrypoint"]


class UsageError(Exception):
    """Flag combination or argument syntax the parser cannot catch."""


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, out: Path, seed_key: str) -> None:
    """manifest.json: every parsed option under "options", except the
    subcommand, its handler and the seed option, which goes under "seeds"."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", seed_key)}
    manifest = {
        "format": "gpattr-manifest",
        "version": 1,
        "command": args.command,
        "options": options,
        "seeds": {seed_key: getattr(args, seed_key)},
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    _write_json(manifest, out / "manifest.json")


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _count(text: str, minimum: int = 1) -> int:
    """argparse type of every count flag: an integer >= minimum."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
    return value


def _count_list(text: str, flag: str) -> list[int]:
    try:
        return [_count(p) for p in text.split(",") if p != ""]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _rule_names(text: str) -> str:
    """argparse type of --rules: comma-separated quadrature rule names, each
    checked here and the text kept as given."""
    rules = [r.strip() for r in text.split(",") if r.strip()]
    if not rules:
        raise argparse.ArgumentTypeError("expected comma-separated rule names")
    for rule in rules:
        try:
            QuadratureSpec(rule=rule, partitions=1)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _row_index(spec: str, n: int) -> int:
    """Row of --query-row among n rows: an integer (negative counts from the
    end) or 'last'."""
    if spec == "last":
        idx = n - 1
    else:
        try:
            idx = int(spec)
        except ValueError:
            raise UsageError(f"--query-row must be an integer or 'last', got {spec!r}") from None
        if idx < 0:
            idx += n
    if not 0 <= idx < n:
        raise DataError(f"--query-row {spec} out of range for {n} rows")
    return idx


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args, require: bool = True) -> Dataset | None:
    """Dataset from --data/--target or --simulate, per the shared flags."""
    if args.data is not None and args.simulate is not None:
        raise UsageError("--data and --simulate are mutually exclusive")
    if args.data is not None:
        if args.target is None:
            raise UsageError("--data requires --target")
        return load_csv(args.data, args.target)
    if args.simulate is not None:
        return simulate(args.simulate, noise_scale=args.noise_scale, seed=args.data_seed)
    if require:
        raise UsageError("provide a data source: --data CSV --target COL, or --simulate N")
    return None


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="CSV file with a header row")
    p.add_argument("--target", help="name of the target column in --data")
    p.add_argument("--simulate", type=_count, help="generate N simulated rows instead of reading CSV")
    p.add_argument("--noise-scale", type=float, default=0.5, help="noise scale for --simulate")
    p.add_argument("--data-seed", type=int, default=0, help="seed for --simulate")


def _resolve_hyper(args, data: Dataset) -> ArdSeHyper:
    explicit = [args.signal_variance, args.lengthscales, args.noise_variance]
    if any(v is not None for v in explicit) and not all(v is not None for v in explicit):
        raise UsageError(
            "--signal-variance, --lengthscales and --noise-variance must be given together"
        )
    if args.signal_variance is not None:
        ls = np.array(_float_list(args.lengthscales, "--lengthscales"))
        if ls.size != data.dim:
            raise UsageError(f"--lengthscales has {ls.size} entries, data has {data.dim} features")
        return ArdSeHyper(args.signal_variance, ls, args.noise_variance)
    y_var = max(float(np.var(data.y)), 1e-8)
    ls = data.X.std(axis=0)
    ls[ls == 0.0] = 1.0
    return ArdSeHyper(y_var, ls, 0.1 * y_var)


# ---------------------------------------------------------------- fit


def cmd_fit(args) -> int:
    out = _out_dir(args)
    data = _load_dataset(args)

    holdout = None
    if args.query_row is not None:
        idx = _row_index(args.query_row, data.n)
        holdout = {
            "row": idx,
            "x": data.X[idx].tolist(),
            "y": float(data.y[idx]),
        }
        keep = np.ones(data.n, dtype=bool)
        keep[idx] = False
        data = Dataset(data.X[keep], data.y[keep], data.feature_names)
        if data.n < 1:
            raise DataError("holding out the query row leaves no training rows")

    if args.normalize:
        data = normalize(data)

    hyper = _resolve_hyper(args, data)
    if args.optimize is not None:
        hyper = optimize_hyperparameters(data, hyper, args.optimize)
    model = fit(data, hyper)

    metadata: dict = {"feature_names": list(data.feature_names), "y_train": data.y.tolist()}
    if args.target is not None:
        metadata["target_column"] = args.target
    if data.norm_stats is not None:
        metadata["norm_stats"] = {
            "mean": data.norm_stats.mean.tolist(),
            "std": data.norm_stats.std.tolist(),
        }
    if holdout is not None:
        metadata["holdout"] = holdout
    save_model(model, out / "model.json", metadata=metadata)

    lml = log_marginal_likelihood(model, data.y)
    report = {
        "format": "gpattr-fit-report",
        "version": 1,
        "n_train": data.n,
        "log_marginal_likelihood": lml,
        "jitter": model.jitter,
        "hyper": {
            "signal_variance": hyper.signal_variance,
            "lengthscales": hyper.lengthscales.tolist(),
            "noise_variance": hyper.noise_variance,
        },
        "relevance": {
            name: 1.0 / float(ls)
            for name, ls in zip(data.feature_names, hyper.lengthscales)
        },
        "normalized": data.norm_stats is not None,
    }
    _write_json(report, out / "fit_report.json")

    _write_manifest(args, out, "data_seed")
    print(f"fit: n={data.n} lml={lml:.6f} -> {out / 'model.json'}")
    return 0


# ---------------------------------------------------------------- shared model/query plumbing


def _model_space_point(raw_x: np.ndarray, stats: NormStats | None) -> np.ndarray:
    return apply_norm(stats, raw_x) if stats is not None else raw_x


def _stats_from_payload(payload: dict) -> NormStats | None:
    ns = payload.get("norm_stats")
    if ns is None:
        return None
    return NormStats(mean=np.array(ns["mean"]), std=np.array(ns["std"]))


def _resolve_query(args, payload: dict, stats: NormStats | None, dim: int, dataset) -> np.ndarray:
    """Query point in model space, from --query, --query-row (a row of
    dataset(), the --data file), or the held-out row stored at fit time."""
    given = [args.query is not None, args.query_row is not None]
    if sum(given) > 1:
        raise UsageError("--query and --query-row are mutually exclusive")
    if args.query is not None:
        raw = np.array(_float_list(args.query, "--query"))
        if raw.size != dim:
            raise UsageError(f"--query has {raw.size} values, model expects {dim}")
        return _model_space_point(raw, stats)
    if args.query_row is not None:
        if args.data is None or args.target is None:
            raise UsageError("--query-row needs --data and --target")
        data = dataset()
        if data.dim != dim:
            raise DataError(f"{args.data} has {data.dim} features, model expects {dim}")
        return _model_space_point(data.X[_row_index(args.query_row, data.n)], stats)
    holdout = payload.get("holdout")
    if holdout is not None:
        return _model_space_point(np.array(holdout["x"], dtype=float), stats)
    raise UsageError("no query point: pass --query, or --query-row with --data, "
                     "or fit with --query-row to store one")


def _resolve_baseline(args, model: GprModel, stats: NormStats | None, payload: dict, dataset) -> Baseline:
    """Baseline in model space. Policies: mean (training mean), values:...,
    filter:lo:hi (mean of the rows of dataset(), the --data file, or else of
    the stored training rows, whose target falls in the window)."""
    spec = args.baseline
    if spec == "mean":
        return Baseline(values=model.x_train.mean(axis=0))
    if spec.startswith("values:"):
        raw = np.array(_float_list(spec[len("values:"):], "--baseline values"))
        if raw.size != model.hyper.dim:
            raise UsageError(
                f"--baseline values has {raw.size} entries, model expects {model.hyper.dim}"
            )
        return Baseline(values=_model_space_point(raw, stats))
    if spec.startswith("filter:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError("--baseline filter syntax is filter:LO:HI")
        try:
            lo, hi = float(parts[1]), float(parts[2])
        except ValueError:
            raise UsageError("--baseline filter bounds must be numbers")
        if args.data is not None:
            if args.target is None:
                raise UsageError("--baseline filter with --data needs --target")
            data = dataset()
            if data.dim != model.hyper.dim:
                raise DataError(f"{args.data} feature count does not match the model")
            raw = target_filtered_baseline(data, lo, hi).values
            return Baseline(values=_model_space_point(raw, stats))
        # fall back to the training rows stored in the model file (already
        # in model space, so no further normalization)
        y_train = payload.get("y_train")
        if y_train is None:
            raise UsageError("--baseline filter needs --data/--target or a model with stored targets")
        train = Dataset(model.x_train, np.array(y_train), tuple(f"x{j}" for j in range(model.hyper.dim)))
        return target_filtered_baseline(train, lo, hi)
    raise UsageError(f"unknown --baseline policy {spec!r}")


def _payload_names(payload: dict, dim: int) -> list[str]:
    names = payload.get("feature_names")
    if names is None or len(names) != dim:
        return [f"x{j}" for j in range(dim)]
    return list(names)


def _parse_engine(text: str) -> tuple[str, QuadratureSpec | None]:
    if text in ("exact", "rfgp"):
        return text, None
    if text.startswith("quad:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("--engine quad syntax is quad:RULE:L")
        try:
            spec = QuadratureSpec(rule=parts[1], partitions=int(parts[2]))
        except ValueError as exc:
            raise UsageError(f"--engine: {exc}") from exc
        return "quad", spec
    raise UsageError(f"unknown --engine {text!r} (use exact, quad:RULE:L, or rfgp)")


def _load_query_context(args) -> tuple[GprModel, dict, np.ndarray, Baseline, list[str]]:
    """Model, raw payload, model-space query and baseline, and feature names
    for a command that attributes one query point. The model file is parsed
    once, and --data is read at most once, when the query or baseline needs it."""
    payload = load_model_payload(args.model)
    try:
        model = load_model(payload)
    except NumericalError as exc:
        raise NumericalError(f"{args.model}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from None
    stats = _stats_from_payload(payload)
    dataset = functools.cache(lambda: load_csv(args.data, args.target))
    x = _resolve_query(args, payload, stats, model.hyper.dim, dataset)
    baseline = _resolve_baseline(args, model, stats, payload, dataset)
    return model, payload, x, baseline, _payload_names(payload, model.hyper.dim)


def _training_dataset_from_payload(model: GprModel, payload: dict) -> Dataset:
    y_train = payload.get("y_train")
    if y_train is None:
        raise DataError("model file does not store training targets; refit with this version")
    names = tuple(_payload_names(payload, model.hyper.dim))
    return Dataset(model.x_train, np.array(y_train, dtype=float), names)


# ---------------------------------------------------------------- attribute


def cmd_attribute(args) -> int:
    out = _out_dir(args)
    model, payload, x, baseline, names = _load_query_context(args)
    engine, quad_spec = _parse_engine(args.engine)

    mixtures = None
    if engine == "exact":
        report = attribution_report(model, x, baseline)
    elif engine == "quad":
        report = report_from_rows(model, x, baseline, quad_attribution(model, x, baseline, quad_spec))
    else:  # rfgp
        train = _training_dataset_from_payload(model, payload)
        if args.rfgp_ensemble > 1:
            mixtures = marginalized_attribution(
                train, model.hyper, args.rfgp_features, x, baseline,
                ensemble_size=args.rfgp_ensemble, seed=args.seed,
            )
            rows = [
                AttributionGaussian(m.feature_index, m.mixture_mean, m.total_variance)
                for m in mixtures
            ]
        else:
            rfgp_model = rfgp_fit(train, model.hyper, args.rfgp_features, args.seed)
            rows = rfgp_attribution(rfgp_model, x, baseline)
        report = report_from_rows(model, x, baseline, rows)

    doc = write_report_json_dict(report, names)
    doc["engine"] = args.engine
    doc["query"] = x.tolist()
    doc["baseline"] = baseline.values.tolist()
    if mixtures is not None:
        doc["mixtures"] = [m.to_json_dict() for m in mixtures]
    _write_json(doc, out / "attributions.json")
    write_report_csv(report, out / "attributions.csv", names)

    _write_manifest(args, out, "seed")
    for a in report.attributions:
        print(f"attribute: {names[a.feature_index]:>12s} mean {a.mean:+.6f} std {a.std:.6f}")
    print(f"attribute: completeness residual {report.completeness_residual:.3e}")
    return 0


# ---------------------------------------------------------------- quad-sweep


def cmd_quad_sweep(args) -> int:
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    l_values = _count_list(args.l_values, "--l-values")
    if not l_values:
        raise UsageError("--l-values must be non-empty")
    out = _out_dir(args)
    model = load_model(args.model)

    rng = np.random.default_rng(args.seed)
    lo = model.x_train.min(axis=0)
    hi = model.x_train.max(axis=0)
    queries = rng.uniform(lo, hi, size=(args.queries, model.hyper.dim))
    baseline = Baseline(values=model.x_train.mean(axis=0))

    rows = convergence_sweep(model, queries, baseline, rules, l_values)
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rule", "L", "function_evals", "mean_abs_err", "var_abs_err"])
        for row in rows:
            writer.writerow(
                [row.rule, row.partitions, row.function_evals,
                 repr(row.mean_abs_err), repr(row.var_abs_err)]
            )

    _write_manifest(args, out, "seed")
    for row in rows:
        print(
            f"quad-sweep: {row.rule:>10s} L={row.partitions:<5d} evals={row.function_evals:<6d} "
            f"mean_err={row.mean_abs_err:.3e} var_err={row.var_abs_err:.3e}"
        )
    return 0


# ---------------------------------------------------------------- rfgp-compare


def _sym_kl(mean_a: float, var_a: float, mean_b: float, var_b: float) -> float | None:
    if var_a <= 0.0 or var_b <= 0.0:
        return None
    def kl(m1, v1, m2, v2):
        return 0.5 * (np.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1.0)
    return float(kl(mean_a, var_a, mean_b, var_b) + kl(mean_b, var_b, mean_a, var_a))


def cmd_rfgp_compare(args) -> int:
    m_values = _count_list(args.m_values, "--m-values")
    out = _out_dir(args)
    model, payload, x, baseline, names = _load_query_context(args)
    train = _training_dataset_from_payload(model, payload)

    exact = attribution_report(model, x, baseline).attributions
    seeds = [args.seed + s for s in range(args.seeds)]
    per_m = [[] for _ in exact]
    for m in m_values:
        draws = [rfgp_attribution(rfgp_fit(train, model.hyper, m, seed=s), x, baseline) for s in seeds]
        for i, ex in enumerate(exact):
            laws = [rows[i] for rows in draws]
            kls = [_sym_kl(a.mean, a.variance, ex.mean, ex.variance) for a in laws]
            kls = [k for k in kls if k is not None]
            per_m[i].append(
                {
                    "m": m,
                    "median_abs_mean_gap": float(np.median([abs(a.mean - ex.mean) for a in laws])),
                    "median_sym_kl": float(np.median(kls)) if kls else None,
                    "draws": [
                        {"seed": s, "mean": a.mean, "variance": a.variance} for s, a in zip(seeds, laws)
                    ],
                }
            )
    mixtures = marginalized_attribution(
        train, model.hyper, args.ensemble_m, x, baseline,
        ensemble_size=args.ensemble, seed=args.seed,
    )
    features = [
        {
            "feature": names[i],
            "feature_index": i,
            "exact": {"mean": ex.mean, "variance": ex.variance},
            "per_m": per_m[i],
            "mixture": mixture.to_json_dict(),
        }
        for i, (ex, mixture) in enumerate(zip(exact, mixtures))
    ]

    doc = {
        "format": "gpattr-rfgp-compare",
        "version": 1,
        "query": x.tolist(),
        "baseline": baseline.values.tolist(),
        "m_values": m_values,
        "seeds": args.seeds,
        "features": features,
    }
    _write_json(doc, out / "rfgp_compare.json")

    _write_manifest(args, out, "seed")
    for f in features:
        gaps = " ".join(f"M={p['m']}:{p['median_abs_mean_gap']:.4f}" for p in f["per_m"])
        print(f"rfgp-compare: {f['feature']:>12s} median gaps {gaps}")
    return 0


# ---------------------------------------------------------------- mc-validate


def cmd_mc_validate(args) -> int:
    out = _out_dir(args)
    model = load_model(args.model)
    baseline = Baseline(values=model.x_train.mean(axis=0))

    rng = np.random.default_rng(args.seed)
    lo = model.x_train.min(axis=0)
    hi = model.x_train.max(axis=0)
    queries = [rng.uniform(lo, hi) for _ in range(args.queries)]
    queries.append(baseline.values.copy())  # degenerate case: exact zeros

    rows = []
    all_ok = True
    for qi, xq in enumerate(queries):
        for i, closed in enumerate(attribution_report(model, xq, baseline).attributions):
            mc = mc_attribution_oracle(
                model, xq, baseline, i,
                grid_points=args.grid_points, samples=args.samples,
                seed=args.seed + 1000 * qi + i,
            )
            mean_ok = abs(mc.empirical_mean - closed.mean) <= 3.0 * mc.std_error + 1e-12
            if closed.variance > 0.0:
                var_ok = abs(mc.empirical_var - closed.variance) <= 0.10 * closed.variance
            else:
                var_ok = mc.empirical_var == 0.0
            all_ok = all_ok and mean_ok and var_ok
            rows.append(
                {
                    "query_index": qi,
                    "query": np.asarray(xq).tolist(),
                    "feature_index": i,
                    "closed_mean": closed.mean,
                    "closed_variance": closed.variance,
                    "empirical_mean": mc.empirical_mean,
                    "empirical_variance": mc.empirical_var,
                    "std_error": mc.std_error,
                    "mean_within_3se": bool(mean_ok),
                    "variance_within_10pct": bool(var_ok),
                }
            )

    doc = {
        "format": "gpattr-mc-validation",
        "version": 1,
        "samples": args.samples,
        "grid_points": args.grid_points,
        "baseline": baseline.values.tolist(),
        "all_ok": bool(all_ok),
        "rows": rows,
    }
    _write_json(doc, out / "mc_validation.json")

    _write_manifest(args, out, "seed")
    for r in rows:
        flag = "ok" if (r["mean_within_3se"] and r["variance_within_10pct"]) else "MISMATCH"
        print(
            f"mc-validate: q{r['query_index']} f{r['feature_index']} "
            f"closed ({r['closed_mean']:+.4f}, {r['closed_variance']:.4f}) "
            f"empirical ({r['empirical_mean']:+.4f}, {r['empirical_variance']:.4f}) {flag}"
        )
    print(f"mc-validate: all_ok={all_ok}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpattr",
        description="GP regression with exact integrated-gradients attribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a GP and write model.json")
    _add_data_flags(p_fit)
    p_fit.add_argument("--normalize", action="store_true", help="z-score features before fitting")
    p_fit.add_argument("--optimize", type=_count, help="hyperparameter search budget (evaluations)")
    p_fit.add_argument("--query-row", help="row index (or 'last') to hold out as the query point")
    p_fit.add_argument("--signal-variance", type=float)
    p_fit.add_argument("--lengthscales", help="comma-separated, one per feature")
    p_fit.add_argument("--noise-variance", type=float)
    p_fit.add_argument("--out-dir", default=".", help="directory for outputs")
    p_fit.set_defaults(func=cmd_fit)

    p_attr = sub.add_parser("attribute", help="per-feature attribution laws at a query point")
    p_attr.add_argument("--model", required=True, help="model.json from fit")
    p_attr.add_argument("--data", help="CSV for --query-row / --baseline filter")
    p_attr.add_argument("--target", help="target column of --data")
    p_attr.add_argument("--query", help="comma-separated raw feature values")
    p_attr.add_argument("--query-row", help="row index (or 'last') in --data")
    p_attr.add_argument("--baseline", default="mean",
                        help="mean | values:v1,v2,... | filter:LO:HI (default mean)")
    p_attr.add_argument("--engine", default="exact",
                        help="exact | quad:RULE:L | rfgp (default exact)")
    p_attr.add_argument("--rfgp-features", type=_count, default=100,
                        help="frequency count M for --engine rfgp")
    p_attr.add_argument("--rfgp-ensemble", type=_count, default=1,
                        help="ensemble size for --engine rfgp (>1 marginalizes)")
    p_attr.add_argument("--seed", type=int, default=0)
    p_attr.add_argument("--out-dir", default=".")
    p_attr.set_defaults(func=cmd_attribute)

    p_sweep = sub.add_parser("quad-sweep", help="quadrature error sweep against closed forms")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--rules", type=_rule_names, default="right_hand,trapezoid,simpson")
    p_sweep.add_argument("--l-values", default="8,16,32,64,128,256,512,1024")
    p_sweep.add_argument("--queries", type=_count, default=20)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out-dir", default=".")
    p_sweep.set_defaults(func=cmd_quad_sweep)

    p_cmp = sub.add_parser("rfgp-compare", help="random-feature attributions vs the exact law")
    p_cmp.add_argument("--model", required=True)
    p_cmp.add_argument("--data", help="CSV for --query-row / --baseline filter")
    p_cmp.add_argument("--target")
    p_cmp.add_argument("--query")
    p_cmp.add_argument("--query-row")
    p_cmp.add_argument("--baseline", default="mean")
    p_cmp.add_argument("--m-values", default="10,100,1000")
    p_cmp.add_argument("--seeds", type=_count, default=20, help="frequency draws per M")
    p_cmp.add_argument("--ensemble", type=_count, default=100, help="mixture ensemble size")
    p_cmp.add_argument("--ensemble-m", type=_count, default=100, help="M used for the mixture")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--out-dir", default=".")
    p_cmp.set_defaults(func=cmd_rfgp_compare)

    p_mc = sub.add_parser("mc-validate", help="Monte Carlo check of the closed forms")
    p_mc.add_argument("--model", required=True)
    p_mc.add_argument("--samples", type=lambda text: _count(text, minimum=2), default=10_000)
    p_mc.add_argument("--grid-points", type=lambda text: _count(text, minimum=3), default=257)
    p_mc.add_argument("--queries", type=lambda text: _count(text, minimum=0), default=5,
                      help="random queries besides the baseline itself")
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--out-dir", default=".")
    p_mc.set_defaults(func=cmd_mc_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
