#!/usr/bin/env python3
"""Benchmark for gpattr: three seeded workloads, end to end and layer by layer.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload explain --seed 1 --seconds 35 --trace 0

The benchmark writes its inputs from --seed into a temporary directory under
.perfbench_tmp/ in the checkout, runs gpattr on them in child processes
(python -c calling gpattr.cli.main, with PYTHONPATH=src), checks every output
and deletes the temporary directory. Its last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. fail_share, the
failed share of the attempted operations, is failed / attempted.

Workloads (the reasons for each are in BENCHMARK.json):
  fit-search  CLI `fit --optimize 60` on n=800, d=8. One operation = one fit.
  explain     set-up fits n=3000, d=8 with pinned hyperparameters; the timed
              child loads the model once and runs 41 attribution reports
              through the public API. One operation = one report.
  validate    set-up fits the README model (n=200, d=2); the timed part runs
              attribute (three engines), quad-sweep, rfgp-compare and
              mc-validate. One operation = one CLI command.

A cycle is one pass over the workload's timed operations. With --trace 0 the
benchmark sets up several times, each on another data stream of the seed,
then repeats cycles on stream 0 for as long as the next cycle is expected to
end within --seconds, and reports medians (the end_to_end metrics in
BENCHMARK.json). Every child runs BLAS on one thread:
on two cores one thread gave the same median fit time as two with a narrower
spread. With --trace 1 it repeats (traced set-up, traced cycle, untraced
cycle) at least twice, and reports the per_layer metrics of BENCHMARK.json: per repetition,
spans of every traced gpattr function over set-up plus cycle (counts, which
must repeat exactly, and medians of times), the share of the cycle's wall time
the spans cover, and the tracing overhead against the untraced cycle.

Compare two files of recorded runs (--record FILE appends one line per run):

    python3 perfbench/run.py --compare base.jsonl new.jsonl
"""

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import spantrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
CLI_CODE = "import sys; from gpattr.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED_CLI_CODE = "import sys, spantrace; sys.exit(spantrace.run_cli(sys.argv[1:]))"
# Children still running this long after the benchmark started are killed,
# so a hung child cannot keep a run past its 180-second limit.
RUN_LIMIT_S = 170.0
MB = 1e6


class SetupError(RuntimeError):
    """A set-up step failed; no result is printed."""


# ---------------------------------------------------------------- child processes


@dataclass
class Child:
    """A finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    spawned: float
    output_bytes: int
    log: Path
    spans: Path | None

    def tail(self) -> str:
        return self.log.read_text(errors="replace")[-400:]


class Launcher:
    """Starts gpattr children and waits for each with os.wait4, so each one's
    peak RSS is known. trace_id=None runs a child untraced."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S
        src = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(src))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def cli(self, argv: list, out: Path, trace_id: str | None) -> Child:
        code = CLI_CODE if trace_id is None else TRACED_CLI_CODE
        return self._run(["-c", code, *map(str, argv), "--out-dir", str(out)], out, trace_id)

    def explain(self, model: Path, queries: Path, out: Path, trace_id: str | None) -> Child:
        return self._run([str(HERE / "explain_child.py"), str(model), str(queries), str(out)], out, trace_id)

    def _run(self, args: list, out: Path, trace_id: str | None) -> Child:
        self.count += 1
        log = self.work / f"child{self.count}.log"
        env, spans = self.env, None
        if trace_id is not None:
            spans = self.work / f"child{self.count}.spans.json"
            env = dict(
                env,
                PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], str(HERE)]),
                PERFBENCH_SPANS=str(spans),
                PERFBENCH_RUN_ID=f"{trace_id}/{self.count}",
            )
        with open(log, "wb") as fh:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        if out.is_dir():
            size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        else:
            size = out.stat().st_size if out.exists() else 0
        return Child(
            code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss * 1024 / MB,
            spawned=spawned, output_bytes=size, log=log,
            spans=spans if spans is not None and spans.exists() else None,
        )


# ---------------------------------------------------------------- workloads


@dataclass
class Op:
    """One timed operation and whether its output passed the checks."""

    name: str
    seconds: float
    error: str | None = None


@dataclass
class Cycle:
    """One pass over a workload's timed operations."""

    wall_s: float
    ops: list
    children: list = field(default_factory=list)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


def make_dataset(path: Path, n: int, d: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """CSV with the README generator's signal in x1, x2 (y = sin(x1) sin(2 x2)
    + 0.5 N(0, 1)) and uniform junk in x3..xd. Returns (X, y). Each stream
    of a seed is a different data set."""
    rng = np.random.default_rng([seed, stream, n, d])
    X = rng.uniform(0.0, 10.0, size=(n, d))
    y = np.sin(X[:, 0]) * np.sin(2.0 * X[:, 1]) + 0.5 * rng.standard_normal(n)
    header = ",".join([f"x{j + 1}" for j in range(d)] + ["y"])
    rows = [",".join(map(repr, row)) for row in np.column_stack([X, y]).tolist()]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return X, y


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fit_nlml(fit_dir: Path) -> float:
    return -read_json(fit_dir / "fit_report.json")["log_marginal_likelihood"]


def cli_op(name: str, child: Child, out: Path, check=None) -> Op:
    """Op for one CLI command: it must exit 0 and pass check(out) if given."""
    if child.code != 0:
        return Op(name, child.wall_s, f"exit {child.code}: {child.tail()}")
    try:
        error = check(out) if check else None
    except (OSError, KeyError, ValueError) as exc:
        error = f"unreadable output: {exc!r}"
    return Op(name, child.wall_s, error)


class Workload:
    """Set-up and the timed cycle of one workload.

    setup(d, stream, trace_id) writes data stream `stream` of the seed into d,
    runs the set-up fit and returns its child; a timed run sets up SETUPS
    times. cycle(d, trace_id) runs the timed operations on the last set-up.
    """

    SETUPS = 3

    def __init__(self, launcher: Launcher, seed: int):
        self.launcher, self.seed = launcher, seed
        self.nlml = {}

    @property
    def fit_nlml(self) -> float:
        """Mean negative LML over the fits, one per data stream: a single
        fit's likelihood spreads widely from seed to seed. 0 when no fit
        succeeded, which a failed operation has already marked."""
        return sum(self.nlml.values()) / len(self.nlml) if self.nlml else 0.0


class FitSearch(Workload):
    """CLI fit with the budgeted hyperparameter search on n=800, d=8."""

    name = "fit-search"
    N, D, BUDGET = 800, 8, 60
    SETUPS = 5  # a set-up is short (about 0.6 s), so its median needs more samples

    def setup(self, d: Path, stream: int, trace_id) -> list:
        """Data, and a fit at the search's starting point (the CLI's default
        hyperparameters on all rows but the held-out last) for its LML."""
        self.data = d / "data.csv"
        X, y = make_dataset(self.data, self.N, self.D, self.seed, stream)
        X, y = X[:-1], y[:-1]
        y_var = max(float(np.var(y)), 1e-8)
        out = d / "init"
        child = self.launcher.cli(
            ["fit", "--data", self.data, "--target", "y", "--query-row", "last",
             "--signal-variance", repr(y_var),
             "--lengthscales", ",".join(map(repr, X.std(axis=0).tolist())),
             "--noise-variance", repr(0.1 * y_var)],
            out, trace_id,
        )
        if child.code != 0:
            raise SetupError(f"fit at the init hyperparameters failed: {child.tail()}")
        self.init_lml = -fit_nlml(out)
        return [child]

    def cycle(self, d: Path, trace_id) -> Cycle:
        out = d / "fit"
        child = self.launcher.cli(
            ["fit", "--data", self.data, "--target", "y", "--optimize", self.BUDGET,
             "--query-row", "last"],
            out, trace_id,
        )
        return Cycle(child.wall_s, [cli_op("fit", child, out, self._check)], [child])

    def _check(self, out: Path):
        """The search ends at or above the init LML and ranks x1, x2 above
        every junk feature."""
        report = read_json(out / "fit_report.json")
        lml = report["log_marginal_likelihood"]
        self.nlml = {0: -lml}
        if not lml >= self.init_lml:
            return f"search LML {lml!r} below the init LML {self.init_lml!r}"
        rel = report["relevance"]
        junk = max(rel[f"x{j}"] for j in range(3, self.D + 1))
        if not min(rel["x1"], rel["x2"]) > junk:
            return f"x1/x2 relevance {rel['x1']:.4g}/{rel['x2']:.4g} not above junk {junk:.4g}"
        return None


class Explain(Workload):
    """Load a pinned n=3000, d=8 model once and attribute 41 queries."""

    name = "explain"
    N, D, QUERIES = 3000, 8, 40
    HYPER = ["--signal-variance", "0.4", "--lengthscales", "0.7,0.7,12,12,12,12,12,12",
             "--noise-variance", "0.17"]
    RESIDUAL_MAX = 1e-10
    def setup(self, d: Path, stream: int, trace_id) -> list:
        data = d / "data.csv"
        X, _ = make_dataset(data, self.N, self.D, self.seed, stream)
        out = d / "fit"
        child = self.launcher.cli(
            ["fit", "--data", data, "--target", "y", "--query-row", "last", *self.HYPER],
            out, trace_id,
        )
        if child.code != 0:
            raise SetupError(f"set-up fit failed: {child.tail()}")
        self.nlml[stream] = fit_nlml(out)
        train = X[:-1]
        rng = np.random.default_rng([self.seed, stream, 2])
        queries = rng.uniform(train.min(axis=0), train.max(axis=0), size=(self.QUERIES, self.D))
        baseline = train.mean(axis=0).tolist()
        self.model, self.queries = out / "model.json", d / "queries.json"
        # the last query equals the baseline: the degenerate-path fallback
        self.queries.write_text(
            json.dumps({"queries": queries.tolist() + [baseline], "baseline": baseline}),
            encoding="utf-8",
        )
        return [child]

    def cycle(self, d: Path, trace_id) -> Cycle:
        out = d / "reports.json"
        child = self.launcher.explain(self.model, self.queries, out, trace_id)
        count = self.QUERIES + 1
        if child.code != 0:
            error = f"exit {child.code}: {child.tail()}"
            return Cycle(child.wall_s, [Op("report", child.wall_s, error)] * count, [child])
        reports = read_json(out)["reports"]
        ops = [self._check(k, r) for k, r in enumerate(reports)]
        ops += [Op("report", child.wall_s, "report missing")] * (count - len(reports))
        return Cycle(child.wall_s, ops, [child])

    def _check(self, k: int, r: dict) -> Op:
        op = Op("report", r["seconds"])
        if "error" in r:
            op.error = r["error"]
        elif not r["residual"] <= self.RESIDUAL_MAX:
            op.error = f"completeness residual {r['residual']!r} > {self.RESIDUAL_MAX}"
        elif not all(math.isfinite(m) for m in r["means"]):
            op.error = f"non-finite mean in {r['means']}"
        elif not all(math.isfinite(v) and v >= 0.0 for v in r["variances"]):
            op.error = f"variance not finite and >= 0 in {r['variances']}"
        elif k == self.QUERIES and any(v != 0.0 for v in r["means"] + r["variances"]):
            op.error = f"baseline query gave non-zero laws {r['means']} {r['variances']}"
        return op


def check_sweep(out: Path):
    """The finest Simpson row's median errors are at most 1e-8."""
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["rule"] == "simpson"]
    finest = max(rows, key=lambda r: int(r["L"]))
    err = max(float(finest["mean_abs_err"]), float(finest["var_abs_err"]))
    return None if err <= 1e-8 else f"simpson L={finest['L']} error {err:.3e} > 1e-8"


def check_rfgp(out: Path):
    """For every feature the M=1000 median mean gap is below the exact
    attribution's standard deviation.

    Over 40 data seeds the largest gap was 0.41 standard deviations. The
    M=1000 gap is not reliably below the M=10 gap: with 5 draws per M that
    failed on 4 of the 40 seeds, as a 10-frequency fit can land near the
    exact mean by chance.
    """
    for f in read_json(out / "rfgp_compare.json")["features"]:
        gap = {p["m"]: p["median_abs_mean_gap"] for p in f["per_m"]}[1000]
        std = math.sqrt(f["exact"]["variance"])
        if not gap < std:
            return f"{f['feature']}: M=1000 gap {gap:.4g} not below the exact std {std:.4g}"
    return None


# mc-validate's all_ok asks each of its rows for a mean within 3 standard
# errors. Its 10 random rows then fail together on about 2.7% of correct
# models, so the benchmark requires 5 (false alarm about 6e-6 per run) and
# keeps the command's 10% variance rule and exact zeros at the baseline.
MC_MAX_SE = 5.0


def check_mc(out: Path):
    """Every Monte Carlo row agrees with the closed form."""
    doc = read_json(out / "mc_validation.json")
    for r in doc["rows"]:
        where = f"query {r['query_index']} feature {r['feature_index']}"
        if not r["variance_within_10pct"]:
            return f"{where}: MC variance {r['empirical_variance']:.4g} vs {r['closed_variance']:.4g}"
        if not abs(r["empirical_mean"] - r["closed_mean"]) <= MC_MAX_SE * r["std_error"] + 1e-12:
            return f"{where}: MC mean {r['empirical_mean']:.4g} vs {r['closed_mean']:.4g}"
    if not doc["all_ok"]:
        print(f"perfbench: note: mc-validate all_ok is false but every row is within {MC_MAX_SE} SE")
    return None


class Validate(Workload):
    """Small-n validation commands on the README model."""

    name = "validate"
    N, D = 200, 2
    SETUPS = 5  # a set-up is short (about 0.8 s), so its median needs more samples
    COMMANDS = (
        ("attribute-exact", ["attribute", "--engine", "exact"], None),
        ("attribute-quad", ["attribute", "--engine", "quad:simpson:1024"], None),
        ("attribute-rfgp", ["attribute", "--engine", "rfgp", "--rfgp-ensemble", "5"], None),
        ("quad-sweep", ["quad-sweep", "--queries", "5"], check_sweep),
        ("rfgp-compare", ["rfgp-compare", "--seeds", "5", "--ensemble", "25"], check_rfgp),
        ("mc-validate", ["mc-validate"], check_mc),
    )

    def setup(self, d: Path, stream: int, trace_id) -> list:
        data = d / "data.csv"
        make_dataset(data, self.N, self.D, self.seed, stream)
        out = d / "fit"
        child = self.launcher.cli(
            ["fit", "--data", data, "--target", "y", "--optimize", "60", "--query-row", "last"],
            out, trace_id,
        )
        if child.code != 0:
            raise SetupError(f"set-up fit failed: {child.tail()}")
        self.nlml[stream] = fit_nlml(out)
        self.model = out / "model.json"
        return [child]

    def cycle(self, d: Path, trace_id) -> Cycle:
        start = time.monotonic()
        ops, children = [], []
        for name, argv, check in self.COMMANDS:
            out = d / name
            child = self.launcher.cli([argv[0], "--model", self.model, *argv[1:]], out, trace_id)
            ops.append(cli_op(name, child, out, check))
            children.append(child)
        return Cycle(time.monotonic() - start, ops, children)


WORKLOADS = {w.name: w for w in (FitSearch, Explain, Validate)}


# ---------------------------------------------------------------- measuring


def median(values) -> float:
    return float(statistics.median(values))


def report_cycle(k: int, cycle: Cycle, label: str = "") -> None:
    bad = [op for op in cycle.ops if op.error]
    print(f"perfbench: cycle {k}{label} wall {cycle.wall_s:.3f} s, {len(cycle.ops)} ops, "
          f"{len(bad)} failed, peak RSS {cycle.rss_mb:.1f} MB")
    if len(cycle.ops) <= 8:
        print("perfbench:   " + ", ".join(f"{op.name} {op.seconds:.3f} s" for op in cycle.ops))
    for op in bad[:3]:
        print(f"perfbench:   FAILED {op.name}: {op.error}")


def op_summary(ops: list) -> None:
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    times = sorted(op.seconds for op in ops)
    line = f"perfbench: op latency over {len(times)} ops: p50 {median(times):.4f} s"
    for q in (99, 90):
        if len(times) * (100 - q) / 100 >= 10:
            line += f", p{q} {times[math.ceil(len(times) * q / 100) - 1]:.4f} s"
            break
    failed = sum(1 for op in ops if op.error)
    print(f"{line}; fail_share {failed}/{len(ops)} = {failed / len(ops):.4g}")


def timed_run(wl, work: Path, seconds: float) -> tuple[dict, list]:
    setup_times = []
    # streams count down, so the cycles run on stream 0 as traced runs do
    for stream in reversed(range(wl.SETUPS)):
        d = work / f"setup{stream}"
        d.mkdir()
        start = time.monotonic()
        wl.setup(d, stream, None)
        setup_times.append(time.monotonic() - start)
    print(f"perfbench: set-up x{len(setup_times)}, median {median(setup_times):.4f} s")

    cycles, lengths = [], []
    start = time.monotonic()
    # a cycle starts only if a cycle of median length would end in time, so
    # a run measures about `seconds` and does not overrun by a whole cycle
    while not cycles or time.monotonic() - start + median(lengths) <= seconds:
        d = work / f"cycle{len(cycles)}"
        d.mkdir()
        began = time.monotonic()
        cycles.append(wl.cycle(d, None))
        lengths.append(time.monotonic() - began)
        report_cycle(len(cycles), cycles[-1])
    ops = [op for c in cycles for op in c.ops]
    op_summary(ops)
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": median(c.wall_s for c in cycles),
        "op_p50_s": median(op.seconds for op in ops),
        "peak_rss_mb": median(c.rss_mb for c in cycles),
        "fit_nlml": wl.fit_nlml,
    }
    return metrics, ops


# Per-layer names whose values are exact counts: they must repeat exactly.
EXACT_SUFFIXES = (".calls", ".evals", ".rhs", ".retries", ".elements", ".temp_mb",
                  "solves_per_report", "fits_per_attribution")
MODULES = ("specfun", "kernels", "gpr", "attrib_exact", "attrib_quad", "rfgp", "data_io", "cli")


def traced_functions() -> list:
    return [f"{m}.{a}" for m, a in spantrace.TRACED] + ["gpr.GprModel.solve"]


def load_spans(children: list) -> list:
    """(child, span file, spans) per traced child; each span gets its self time
    appended."""
    out = []
    for child in children:
        if child.spans is None:
            continue
        doc = read_json(child.spans)
        spans = doc["spans"]
        inner = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                inner[s[3]] += s[2] - s[1]
        for s, t in zip(spans, inner):
            s.append(s[2] - s[1] - t)
        out.append((child, doc, spans))
    return out


def ancestors(spans: list, i: int):
    while spans[i][3] >= 0:
        i = spans[i][3]
        yield i


def under(spans: list, i: int, name: str) -> bool:
    return any(spans[j][0] == name for j in ancestors(spans, i))


def layer_metrics(children: list) -> dict:
    """Per-layer values of one traced repetition (set-up plus cycle)."""
    m = {f"{f}.{k}": 0 if k == "calls" else 0.0 for f in traced_functions() for k in ("calls", "s", "self_s")}
    m.update({f"cli.{c}.s": 0.0 for c in spantrace.CLI_COMMANDS.values()})
    elements = temp = attempts = evals = rhs = report_solves = 0
    startups = []
    for child, doc, spans in load_spans(children):
        startups.append(doc["imported_at"] - child.spawned)
        for i, (name, t0, t1, parent, size, self_s) in enumerate(spans):
            if name.startswith("cli."):
                m[f"{name}.s"] += t1 - t0
                continue
            if name == "gpr.cholesky":
                attempts += parent >= 0 and spans[parent][0] == "gpr.jittered_cholesky"
                continue
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += t1 - t0
            m[f"{name}.self_s"] += self_s
            if name == "specfun.erf":
                elements += size
            elif name == "kernels.kernel_cross":
                temp = max(temp, size)
            elif name == "gpr.fit":
                evals += under(spans, i, "gpr.optimize_hyperparameters")
            elif name == "gpr.GprModel.solve":
                rhs += size
                report_solves += under(spans, i, "attrib_exact.attribution_report")
    reports = m["attrib_exact.attribution_report.calls"]
    attributions = m["rfgp.rfgp_attribution.calls"]
    m.update({
        "specfun.erf.elements": elements,
        "kernels.kernel_cross.temp_mb": temp / MB,
        # one attempt per call succeeds; every further attempt is a retry
        "gpr.jittered_cholesky.retries": attempts - m["gpr.jittered_cholesky.calls"],
        "gpr.optimize_hyperparameters.evals": evals,
        "gpr.GprModel.solve.rhs": rhs,
        "attrib_exact.solves_per_report": report_solves / reports if reports else 0.0,
        "rfgp.fits_per_attribution": m["rfgp.rfgp_fit.calls"] / attributions if attributions else 0.0,
        "cli.startup_s": median(startups),
        "cli.output_mb": sum(c.output_bytes for c in children) / MB,
    })
    return m


def cycle_breakdown(cycle: Cycle) -> tuple[float, dict, dict]:
    """Share of the cycle's wall time under top-level spans, and per module
    the share under its outermost spans (inclusive) and its self time."""
    covered = 0.0
    inclusive, own = dict.fromkeys(MODULES, 0.0), dict.fromkeys(MODULES, 0.0)
    for _, _, spans in load_spans(cycle.children):
        for i, (name, t0, t1, parent, _, self_s) in enumerate(spans):
            module = name.split(".")[0]
            covered += (t1 - t0) if parent < 0 else 0.0
            own[module] += self_s / cycle.wall_s
            if not any(spans[j][0].startswith(module + ".") for j in ancestors(spans, i)):
                inclusive[module] += (t1 - t0) / cycle.wall_s
    return covered / cycle.wall_s, inclusive, own


def traced_run(wl, work: Path, seconds: float) -> tuple[dict, list]:
    layers, inclusive, own, traced_walls, plain_walls, ops = [], [], [], [], [], []
    start = time.monotonic()
    while len(layers) < 2 or time.monotonic() - start < seconds:
        r = len(layers)
        d = work / f"rep{r}"
        (d / "traced").mkdir(parents=True)
        (d / "plain").mkdir()
        setup_children = wl.setup(d, 0, f"rep{r}/setup")
        traced = wl.cycle(d / "traced", f"rep{r}/cycle")
        plain = wl.cycle(d / "plain", None)
        report_cycle(r + 1, traced, " (traced)")
        report_cycle(r + 1, plain, " (untraced)")
        layers.append(layer_metrics(setup_children + traced.children))
        coverage, shares, self_shares = cycle_breakdown(traced)
        layers[-1]["trace.span_coverage"] = coverage
        inclusive.append(shares)
        own.append(self_shares)
        traced_walls.append(traced.wall_s)
        plain_walls.append(plain.wall_s)
        ops += traced.ops + plain.ops

    metrics = {"trace.overhead_share": median(traced_walls) / median(plain_walls) - 1.0}
    for name in layers[0]:
        if name.endswith(EXACT_SUFFIXES):
            values = {rep[name] for rep in layers}
            # a count that moves between identical repetitions is a failure
            ops.append(Op(f"repeat {name}", 0.0, None if len(values) == 1 else f"varies: {values}"))
            metrics[name] = layers[0][name]
        else:
            metrics[name] = median(rep[name] for rep in layers)
    print("perfbench: share of the traced cycle's wall time by module, inclusive / self:")
    for mod in MODULES:
        print(f"perfbench:   {mod:12s} {median(s[mod] for s in inclusive):6.3f} / "
              f"{median(s[mod] for s in own):6.3f}")
    print(f"perfbench: spans cover {metrics['trace.span_coverage']:.3f} of the traced cycle; "
          f"tracing overhead {metrics['trace.overhead_share']:+.4f} of the untraced cycle")
    op_summary([op for op in ops if not op.name.startswith("repeat ")])
    return metrics, ops


# ---------------------------------------------------------------- environment


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or commit
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_name,
        "commit": commit,
    }


def load_bench() -> dict:
    return read_json(ROOT / "BENCHMARK.json")


def run(args) -> int:
    if not (ROOT / "src" / "gpattr" / "cli.py").is_file():
        print(f"perfbench: no gpattr sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = load_bench()
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    env = environment(args.seed)
    print("perfbench: " + json.dumps({"workload": args.workload, "trace": args.trace, **env}))

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        wl = WORKLOADS[args.workload](Launcher(work), args.seed)
        measure = traced_run if args.trace else timed_run
        try:
            metrics, ops = measure(wl, work, args.seconds)
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    failed = sum(1 for op in ops if op.error)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.record:
        record = {"workload": args.workload, "trace": args.trace, "env": env, "result": result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- compare


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, new: list, better: str, bound: float) -> str:
    """better / worse / same against the bound, or unresolved when either
    side's interquartile spread exceeds the bound and the runs overlap."""
    sign = 1.0 if better == "lower" else -1.0
    (b1, bm, b3), (n1, nm, n3) = quartiles(base), quartiles(new)
    spread = max((b3 - b1) / abs(bm) if bm else math.inf, (n3 - n1) / abs(nm) if nm else math.inf)
    if spread > bound:
        if all(sign * v < sign * w for v in new for w in base):
            return "better"
        if all(sign * v > sign * w for v in new for w in base):
            return "worse"
        return "unresolved"
    change = sign * (nm - bm) / abs(bm)
    return "worse" if change > bound else "better" if change < -bound else "same"


def compare(base_path: str, new_path: str) -> int:
    bench = load_bench()
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    def load(path):
        groups = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    groups.setdefault((rec["workload"], rec["trace"]), []).append(rec["result"])
        return groups

    base, new = load(base_path), load(new_path)
    for key in sorted(set(base) & set(new)):
        b_runs, n_runs = base[key], new[key]
        print(f"\n{key[0]} (trace {key[1]}): {len(b_runs)} base runs, {len(n_runs)} new runs")
        print(f"{'metric':44s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} "
              f"{'new/base':>9s}  verdict")
        for name, d in defs.items():
            if name not in b_runs[0]["metrics"]:
                continue
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            (b1, bm, b3), (n1, nm, n3) = quartiles(bv), quartiles(nv)
            ratio = f"{nm / bm:9.4f}" if bm else f"{'-':>9s}"
            if "bound" in d:
                mark = f"{verdict(bv, nv, d['better'], d['bound'])} (bound {d['bound']})"
            elif name.endswith(EXACT_SUFFIXES):
                mark = "identical" if bv == nv else "differs"
            else:
                mark = ""
            print(f"{name:44s} {bm:12.6g} [{b1:9.4g}, {b3:9.4g}] {nm:12.6g} [{n1:9.4g}, {n3:9.4g}] "
                  f"{ratio}  {mark}")
        for label, runs in (("base", b_runs), ("new", n_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"fail_share {label}: {failed}/{attempted} = {failed / attempted:.4g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run's result as one JSON line to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files of recorded runs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
