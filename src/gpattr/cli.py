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

Flag syntax and values are checked at parse time, everything that needs
a file by the command. Exit codes: 0 success, 2 usage (argparse, UsageError),
3 data problems (DataError, OSError), 4 numerical failures (NumericalError,
LinAlgError). Any other exception is a bug and surfaces with its traceback.
"""

import argparse
import csv
import functools
import gc
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .attrib_exact import AttributionReport, attribution_report, report_from_rows
from .attrib_quad import (
    QuadratureSpec,
    convergence_sweep,
    mc_attribution_oracle,
    quad_attribution,
)
from .data_io import (
    DataError,
    Dataset,
    NormStats,
    _column_variances,
    apply_norm,
    load_csv,
    normalize,
    simulate,
    target_filtered_baseline,
)
from .gpr import (
    GprModel,
    _all_finite,
    _model_from_payload,
    _payload_field,
    _write_json,
    fit,
    load_model,
    load_model_payload,
    log_marginal_likelihood,
    optimize_hyperparameters,
    save_model,
)
from .kernels import ArdSeHyper
from .rfgp import AttributionMixture, marginalized_attribution
from .specfun import NumericalError

# A command runs once and exits, and the modules imported above (numpy and
# scipy most of all) stay alive to the end. Frozen, their objects are left
# out of every later collection, the one at interpreter exit included:
# exiting after this import took 16 ms instead of 67 (median of 10 runs,
# 2-core x86-64 host).
gc.freeze()

__all__ = ["build_parser", "main", "entrypoint"]


class UsageError(Exception):
    """Flag combination or value count the parser cannot check."""


def _write_manifest(args, out: Path) -> None:
    """manifest.json: every parsed option under "options", except the
    subcommand, its handler and the seed option (--data-seed for fit,
    --seed for the others), which goes under "seeds"."""
    seed_key = "seed" if hasattr(args, "seed") else "data_seed"
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


# ---------------------------------------------------------------- flag types


def _flag(parse, **kwargs):
    """argparse type of a text flag: checks the text with parse, the function
    the command reads the flag with, and keeps the text as given, so the
    manifest records the flag as typed."""

    def check(text: str) -> str:
        try:
            parse(text, **kwargs)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def _number(text: str, kind=float, low: float | None = None, strict: bool = False):
    """argparse type of every numeric flag: a finite float, or an integer
    when kind is int, that is >= low (> low if strict) when low is given."""
    try:
        value = kind(text)
        if math.isfinite(value) and (low is None or value > low or (value == low and not strict)):
            return value
    except (ValueError, OverflowError):  # not a number; an integer too large for a float
        pass
    what = "an integer" if kind is int else "a finite number"
    bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"
    raise argparse.ArgumentTypeError(f"expected {what}{bound}, got {text!r}")


_count = functools.partial(_number, kind=int, low=1)
_natural = functools.partial(_number, kind=int, low=0)
_positive = functools.partial(_number, low=0.0, strict=True)
_nonnegative = functools.partial(_number, low=0.0)


def _items(text: str, item=_number) -> list:
    """Comma-separated entries, blank ones skipped, each read by item; at least one."""
    values = [item(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return values


def _rule(text: str) -> str:
    return QuadratureSpec(rule=text.strip(), partitions=1).rule


def _row(text: str) -> int:
    """--query-row: a row index (negative counts from the end) or 'last'."""
    return -1 if text == "last" else _number(text, int)


def _parse_engine(text: str) -> tuple[str, QuadratureSpec | None]:
    """--engine: exact, rfgp, or quad:RULE:L with its quadrature spec."""
    if text in ("exact", "rfgp"):
        return text, None
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "quad":
        raise ValueError(f"expected exact, quad:RULE:L or rfgp, got {text!r}")
    return "quad", QuadratureSpec(rule=parts[1], partitions=_count(parts[2]))


def _baseline_policy(text: str) -> tuple[str, object]:
    """--baseline: ("mean", None), ("values", [v1, ...]) or ("filter", (lo, hi))."""
    policy, _, rest = text.partition(":")
    if text == "mean":
        return "mean", None
    if policy == "values":
        return "values", _items(rest)
    if policy == "filter" and rest.count(":") == 1:
        lo, hi = map(_number, rest.split(":"))
        if lo > hi:
            raise ValueError(f"filter window needs LO <= HI, got {text!r}")
        return "filter", (lo, hi)
    raise ValueError(f"expected mean, values:V1,V2,... or filter:LO:HI, got {text!r}")


# ---------------------------------------------------------------- data


def _read_csv(args) -> Dataset:
    if args.target is None:
        raise UsageError("--data requires --target")
    return load_csv(args.data, args.target)


def _row_index(text: str, n: int) -> int:
    idx = _row(text)
    if idx < 0:
        idx += n
    if not 0 <= idx < n:
        raise DataError(f"--query-row {text} out of range for {n} rows")
    return idx


def _resolve_hyper(args, data: Dataset) -> ArdSeHyper:
    given = [v is not None for v in (args.signal_variance, args.lengthscales, args.noise_variance)]
    if any(given) != all(given):
        raise UsageError(
            "--signal-variance, --lengthscales and --noise-variance must be given together"
        )
    if all(given):
        ls = np.array(_items(args.lengthscales, _positive))
        if ls.size != data.dim:
            raise UsageError(f"--lengthscales has {ls.size} entries, data has {data.dim} features")
        return ArdSeHyper(args.signal_variance, ls, args.noise_variance)
    y_var = max(float(_column_variances(data.y[:, None], [args.target or "y"])[0]), 1e-8)
    ls = np.sqrt(_column_variances(data.X, data.feature_names))
    ls[ls == 0.0] = 1.0
    return ArdSeHyper(y_var, ls, 0.1 * y_var)


# ---------------------------------------------------------------- fit


def cmd_fit(args, out: Path) -> None:
    if args.simulate is not None:
        data = simulate(args.simulate, noise_scale=args.noise_scale, seed=args.data_seed)
    else:
        data = _read_csv(args)

    holdout = None
    if args.query_row is not None:
        idx = _row_index(args.query_row, data.n)
        holdout = {"row": idx, "x": data.X[idx].tolist(), "y": float(data.y[idx])}
        data = Dataset(np.delete(data.X, idx, axis=0), np.delete(data.y, idx), data.feature_names)
        if data.n < 1:
            raise DataError("holding out the query row leaves no training rows")

    if args.normalize:
        data = normalize(data)

    hyper = _resolve_hyper(args, data)
    if args.optimize is not None:
        hyper = optimize_hyperparameters(data, hyper, args.optimize)
    model = fit(data, hyper)
    lml = log_marginal_likelihood(model)

    metadata: dict = {"feature_names": list(data.feature_names)}
    if args.target is not None:
        metadata["target_column"] = args.target
    if data.norm_stats is not None:
        metadata["norm_stats"] = {"mean": data.norm_stats.mean.tolist(), "std": data.norm_stats.std.tolist()}
    if holdout is not None:
        metadata["holdout"] = holdout
    save_model(model, out / "model.json", metadata=metadata)

    report = {
        "format": "gpattr-fit-report",
        "version": 1,
        "n_train": data.n,
        "log_marginal_likelihood": lml,
        "jitter": model.jitter,
        "hyper": hyper.to_json_dict(),
        "relevance": {name: 1.0 / float(ls) for name, ls in zip(data.feature_names, hyper.lengthscales)},
        "normalized": data.norm_stats is not None,
    }
    _write_json(report, out / "fit_report.json")

    print(f"fit: n={data.n} lml={lml:.6f} -> {out / 'model.json'}")


# ---------------------------------------------------------------- shared model/query plumbing


@dataclass(frozen=True)
class _ModelFile:
    """A model.json from fit and the metadata stored beside the model: names
    x0, x1, ... unless stored (named), holdout the held-out query in raw
    units."""

    model: GprModel
    names: list[str]
    named: bool
    stats: NormStats | None
    holdout: np.ndarray | None

    @property
    def train(self) -> Dataset:
        """The training rows and targets, in model space."""
        return Dataset(self.model.x_train, self.model.y_train, self.names)


def _read_model_file(path: str) -> _ModelFile:
    """Parse a model file once, reading its factor sidecar as load_model
    does; any malformed field raises DataError naming the file and the
    field."""
    payload = load_model_payload(path)
    field = functools.partial(_payload_field, payload)
    try:
        model = _model_from_payload(payload, path)
        dim = model.hyper.dim
        names = payload.get("feature_names", [f"x{j}" for j in range(dim)])
        if not (isinstance(names, list) and len(names) == dim and all(isinstance(n, str) for n in names)):
            raise DataError(f"model field 'feature_names' must be a list of {dim} strings")
        stats = None if payload.get("norm_stats") is None else NormStats(
            field("norm_stats.mean", (dim,)), field("norm_stats.std", (dim,), low=0.0, strict=True))
        return _ModelFile(
            model, names, "feature_names" in payload, stats,
            None if payload.get("holdout") is None else field("holdout.x", (dim,)),
        )
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_query_context(args) -> tuple[_ModelFile, np.ndarray, np.ndarray]:
    """Model file, model-space query and baseline for a command that
    attributes one query point. The model file is parsed once, and --data
    is read at most once, when the query or baseline needs it; its features
    must be the model's, by name and in order when the model names them.

    The query is --query, a row of --data (--query-row) or the row held out
    at fit time. The baseline policy is mean (training mean), values:... or
    filter:lo:hi (mean of the rows of --data, or else of the stored training
    rows, whose target falls in the window)."""
    mf = _read_model_file(args.model)
    dim = mf.model.hyper.dim

    @functools.cache
    def dataset() -> Dataset:
        data = _read_csv(args)
        if data.dim != dim:
            raise DataError(f"{args.data} has {data.dim} features, model expects {dim}")
        if mf.named and list(data.feature_names) != mf.names:
            raise DataError(f"{args.data} has features {list(data.feature_names)}, model expects {mf.names}")
        return data

    def model_space(raw, flag: str) -> np.ndarray:
        if len(raw) != dim:
            raise UsageError(f"{flag} has {len(raw)} values, model expects {dim}")
        raw = np.array(raw)
        return apply_norm(mf.stats, raw) if mf.stats is not None else raw

    if args.query is not None:
        x = model_space(_items(args.query), "--query")
    elif args.query_row is not None:
        if args.data is None:
            raise UsageError("--query-row needs --data and --target")
        x = model_space(dataset().X[_row_index(args.query_row, dataset().n)], "--query-row")
    elif mf.holdout is not None:
        x = model_space(mf.holdout, "holdout")
    else:
        raise UsageError("no query point: pass --query, or --query-row with --data, "
                         "or fit with --query-row to store one")

    policy, arg = _baseline_policy(args.baseline)
    if policy == "mean":
        baseline = mf.model.x_train.mean(axis=0)
    elif policy == "values":
        baseline = model_space(arg, "--baseline values")
    elif args.data is not None:
        baseline = model_space(target_filtered_baseline(dataset(), *arg), "--data")
    else:  # the stored training rows are already in model space
        baseline = target_filtered_baseline(mf.train, *arg)
    return mf, x, baseline


def _random_queries(model: GprModel, count: int, seed: int) -> np.ndarray:
    """count query points drawn uniformly from the box of the training inputs;
    NumericalError when the box is wider than the float range."""
    lo, hi = model.x_train.min(axis=0), model.x_train.max(axis=0)
    with np.errstate(over="ignore"):
        if not _all_finite(hi - lo):
            raise NumericalError("the box of the training inputs, where queries are drawn, overflows")
    return np.random.default_rng(seed).uniform(lo, hi, size=(count, model.hyper.dim))


# ---------------------------------------------------------------- attribute


def _report_doc(report: AttributionReport, names) -> dict:
    """attributions.json without its engine, query and baseline: ValueError
    unless names has one entry per feature."""
    laws = zip(names, report.means.tolist(), report.variances.tolist(), strict=True)
    return {
        "format": "gpattr-attribution-report",
        "version": 1,
        "prediction_mean": report.prediction_mean,
        "baseline_prediction_mean": report.baseline_prediction_mean,
        "completeness_residual": report.completeness_residual,
        "attributions": [
            {"feature": name, "feature_index": i, "mean": m, "variance": v, "std": math.sqrt(v)}
            for i, (name, m, v) in enumerate(laws)
        ],
    }


def _attributions_csv(doc: dict, path) -> None:
    """attributions.csv: one row (feature, mean, std, completeness_residual)
    per feature of the report doc, every number as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean", "std", "completeness_residual"])
        for a in doc["attributions"]:
            writer.writerow([a["feature"], repr(a["mean"]), repr(a["std"]), repr(doc["completeness_residual"])])


def _mixture_doc(mixture: AttributionMixture, i: int) -> dict:
    """Feature i's equal-weight mixture, its components in seed order."""
    return {
        "format": "gpattr-attribution-mixture",
        "version": 1,
        "feature_index": i,
        "mixture_mean": float(mixture.mixture_mean[i]),
        "total_variance": float(mixture.total_variance[i]),
        "components": [
            {"mean": m, "variance": v} for m, v in zip(mixture.means[i].tolist(), mixture.variances[i].tolist())
        ],
    }


def cmd_attribute(args, out: Path) -> None:
    mf, x, baseline = _load_query_context(args)
    model, names = mf.model, mf.names
    engine, quad_spec = _parse_engine(args.engine)

    mixture = None
    if engine == "exact":
        report = attribution_report(model, x, baseline)
    elif engine == "quad":
        report = quad_attribution(model, x, baseline, quad_spec)
    else:  # rfgp; an ensemble of one is the single fit's law exactly
        mixture = marginalized_attribution(
            mf.train, model.hyper, args.rfgp_features, x, baseline,
            ensemble_size=args.rfgp_ensemble, seed=args.seed,
        )
        report = report_from_rows(model, x, baseline, mixture.mixture_mean, mixture.total_variance)

    doc = _report_doc(report, names)
    doc["engine"] = args.engine
    doc["query"] = x.tolist()
    doc["baseline"] = baseline.tolist()
    if mixture is not None and args.rfgp_ensemble > 1:
        doc["mixtures"] = [_mixture_doc(mixture, i) for i in range(len(names))]
    _write_json(doc, out / "attributions.json")
    _attributions_csv(doc, out / "attributions.csv")

    for a in doc["attributions"]:
        print(f"attribute: {a['feature']:>12s} mean {a['mean']:+.6f} std {a['std']:.6f}")
    print(f"attribute: completeness residual {report.completeness_residual:.3e}")


# ---------------------------------------------------------------- quad-sweep


def cmd_quad_sweep(args, out: Path) -> None:
    model = load_model(args.model)
    queries = _random_queries(model, args.queries, args.seed)
    baseline = model.x_train.mean(axis=0)

    rows = convergence_sweep(
        model, queries, baseline, _items(args.rules, _rule), _items(args.l_values, _count)
    )
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rule", "L", "function_evals", "mean_abs_err", "var_abs_err"])
        for row in rows:
            writer.writerow(
                [row.rule, row.partitions, row.function_evals,
                 repr(row.mean_abs_err), repr(row.var_abs_err)]
            )

    for row in rows:
        print(
            f"quad-sweep: {row.rule:>10s} L={row.partitions:<5d} evals={row.function_evals:<6d} "
            f"mean_err={row.mean_abs_err:.3e} var_err={row.var_abs_err:.3e}"
        )


# ---------------------------------------------------------------- rfgp-compare


def _sym_kl(feature: str, mean_a: float, var_a: float, mean_b: float, var_b: float) -> float | None:
    """Symmetric KL divergence of two Gaussian laws of the feature's attribution,
    None when either is degenerate; NumericalError naming the feature on overflow."""
    if var_a <= 0.0 or var_b <= 0.0:
        return None
    def kl(m1, v1, m2, v2):
        return 0.5 * (np.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1.0)
    with np.errstate(all="ignore"):  # in float64 an overflow gives inf, checked below
        a, b = np.float64([mean_a, var_a]), np.float64([mean_b, var_b])
        out = float(kl(*a, *b) + kl(*b, *a))
    if not math.isfinite(out):
        raise NumericalError(f"symmetric KL divergence overflows for feature {feature!r}")
    return out


def cmd_rfgp_compare(args, out: Path) -> None:
    m_values = _items(args.m_values, _count)
    mf, x, baseline = _load_query_context(args)
    model, names = mf.model, mf.names

    exact = attribution_report(model, x, baseline)
    seeds = range(args.seed, args.seed + args.seeds)
    draws = [
        marginalized_attribution(mf.train, model.hyper, m, x, baseline, ensemble_size=args.seeds, seed=args.seed)
        for m in m_values
    ]
    mixture = marginalized_attribution(
        mf.train, model.hyper, args.ensemble_m, x, baseline,
        ensemble_size=args.ensemble, seed=args.seed,
    )

    def per_m(i: int, mean: float, variance: float, m: int, mix) -> dict:  # feature i's draws at M = m
        laws = list(zip(mix.means[i].tolist(), mix.variances[i].tolist()))
        kls = [k for k in (_sym_kl(names[i], a, v, mean, variance) for a, v in laws) if k is not None]
        return {
            "m": m,
            "median_abs_mean_gap": float(np.median(np.abs(mix.means[i] - mean))),
            "median_sym_kl": float(np.median(kls)) if kls else None,
            "draws": [{"seed": s, "mean": a, "variance": v} for s, (a, v) in zip(seeds, laws)],
        }

    features = [
        {
            "feature": names[i],
            "feature_index": i,
            "exact": {"mean": mean, "variance": variance},
            "per_m": [per_m(i, mean, variance, m, mix) for m, mix in zip(m_values, draws)],
            "mixture": _mixture_doc(mixture, i),
        }
        for i, (mean, variance) in enumerate(zip(exact.means.tolist(), exact.variances.tolist()))
    ]

    doc = {
        "format": "gpattr-rfgp-compare",
        "version": 1,
        "query": x.tolist(),
        "baseline": baseline.tolist(),
        "m_values": m_values,
        "seeds": args.seeds,
        "features": features,
    }
    _write_json(doc, out / "rfgp_compare.json")

    for f in features:
        gaps = " ".join(f"M={p['m']}:{p['median_abs_mean_gap']:.4f}" for p in f["per_m"])
        print(f"rfgp-compare: {f['feature']:>12s} median gaps {gaps}")


# ---------------------------------------------------------------- mc-validate


def cmd_mc_validate(args, out: Path) -> None:
    model = load_model(args.model)
    baseline = model.x_train.mean(axis=0)
    # the baseline itself is the degenerate case: exact zeros
    queries = [*_random_queries(model, args.queries, args.seed), baseline]

    rows = []
    all_ok = True
    for qi, xq in enumerate(queries):
        mc = mc_attribution_oracle(
            model, xq, baseline,
            grid_points=args.grid_points, samples=args.samples, seed=args.seed + 1000 * qi,
        )
        closed = attribution_report(model, xq, baseline)
        for i, (mean, variance) in enumerate(zip(closed.means.tolist(), closed.variances.tolist())):
            mean_ok = abs(mc.empirical_mean[i] - mean) <= 3.0 * mc.std_error[i] + 1e-12
            if variance > 0.0:
                var_ok = abs(mc.empirical_var[i] - variance) <= 0.10 * variance
            else:
                var_ok = mc.empirical_var[i] == 0.0
            all_ok = all_ok and mean_ok and var_ok
            rows.append(
                {
                    "query_index": qi,
                    "query": xq.tolist(),
                    "feature_index": i,
                    "closed_mean": mean,
                    "closed_variance": variance,
                    "empirical_mean": float(mc.empirical_mean[i]),
                    "empirical_variance": float(mc.empirical_var[i]),
                    "std_error": float(mc.std_error[i]),
                    "mean_within_3se": bool(mean_ok),
                    "variance_within_10pct": bool(var_ok),
                }
            )

    doc = {
        "format": "gpattr-mc-validation",
        "version": 1,
        "samples": args.samples,
        "grid_points": args.grid_points,
        "baseline": baseline.tolist(),
        "all_ok": bool(all_ok),
        "rows": rows,
    }
    _write_json(doc, out / "mc_validation.json")

    for r in rows:
        flag = "ok" if (r["mean_within_3se"] and r["variance_within_10pct"]) else "MISMATCH"
        print(
            f"mc-validate: q{r['query_index']} f{r['feature_index']} "
            f"closed ({r['closed_mean']:+.4f}, {r['closed_variance']:.4f}) "
            f"empirical ({r['empirical_mean']:+.4f}, {r['empirical_variance']:.4f}) {flag}"
        )
    print(f"mc-validate: all_ok={all_ok}")


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpattr",
        description="GP regression with exact integrated-gradients attribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=".", help="directory for outputs")
    model = argparse.ArgumentParser(add_help=False, parents=[out])
    model.add_argument("--model", required=True, help="model.json from fit")
    model.add_argument("--seed", type=_natural, default=0)
    query = argparse.ArgumentParser(add_help=False, parents=[model])
    query.add_argument("--data", help="CSV for --query-row / --baseline filter")
    query.add_argument("--target", help="target column of --data")
    point = query.add_mutually_exclusive_group()
    point.add_argument("--query", type=_flag(_items), help="comma-separated raw feature values")
    point.add_argument("--query-row", type=_flag(_row), help="row index (or 'last') in --data")
    query.add_argument("--baseline", type=_flag(_baseline_policy), default="mean",
                       help="mean | values:v1,v2,... | filter:LO:HI (default mean)")

    p_fit = sub.add_parser("fit", parents=[out], help="fit a GP and write model.json")
    source = p_fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="CSV file with a header row")
    source.add_argument("--simulate", type=_count, help="generate N simulated rows instead of reading CSV")
    p_fit.add_argument("--target", help="name of the target column in --data")
    p_fit.add_argument("--noise-scale", type=_nonnegative, default=0.5, help="noise scale for --simulate")
    p_fit.add_argument("--data-seed", type=_natural, default=0, help="seed for --simulate")
    p_fit.add_argument("--normalize", action="store_true", help="z-score features before fitting")
    p_fit.add_argument("--optimize", type=_count, help="hyperparameter search budget (evaluations)")
    p_fit.add_argument("--query-row", type=_flag(_row),
                       help="row index (or 'last') to hold out as the query point")
    p_fit.add_argument("--signal-variance", type=_positive)
    p_fit.add_argument("--lengthscales", type=_flag(_items, item=_positive),
                       help="comma-separated, one per feature")
    p_fit.add_argument("--noise-variance", type=_nonnegative)
    p_fit.set_defaults(func=cmd_fit)

    p_attr = sub.add_parser("attribute", parents=[query], help="per-feature attribution laws at a query point")
    p_attr.add_argument("--engine", type=_flag(_parse_engine), default="exact",
                        help="exact | quad:RULE:L | rfgp (default exact)")
    p_attr.add_argument("--rfgp-features", type=_count, default=100,
                        help="frequency count M for --engine rfgp")
    p_attr.add_argument("--rfgp-ensemble", type=_count, default=1,
                        help="ensemble size for --engine rfgp (>1 marginalizes)")
    p_attr.set_defaults(func=cmd_attribute)

    p_sweep = sub.add_parser("quad-sweep", parents=[model], help="quadrature error sweep against closed forms")
    p_sweep.add_argument("--rules", type=_flag(_items, item=_rule), default="right_hand,trapezoid,simpson")
    p_sweep.add_argument("--l-values", type=_flag(_items, item=_count), default="8,16,32,64,128,256,512,1024")
    p_sweep.add_argument("--queries", type=_count, default=20)
    p_sweep.set_defaults(func=cmd_quad_sweep)

    p_cmp = sub.add_parser("rfgp-compare", parents=[query], help="random-feature attributions vs the exact law")
    p_cmp.add_argument("--m-values", type=_flag(_items, item=_count), default="10,100,1000")
    p_cmp.add_argument("--seeds", type=_count, default=20, help="frequency draws per M")
    p_cmp.add_argument("--ensemble", type=_count, default=100, help="mixture ensemble size")
    p_cmp.add_argument("--ensemble-m", type=_count, default=100, help="M used for the mixture")
    p_cmp.set_defaults(func=cmd_rfgp_compare)

    p_mc = sub.add_parser("mc-validate", parents=[model], help="Monte Carlo check of the closed forms")
    p_mc.add_argument("--samples", type=lambda text: _number(text, int, 2), default=10_000)
    p_mc.add_argument("--grid-points", type=lambda text: _number(text, int, 3), default=257)
    p_mc.add_argument("--queries", type=_natural, default=5,
                      help="random queries besides the baseline itself")
    p_mc.set_defaults(func=cmd_mc_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, out)
        _write_manifest(args, out)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
