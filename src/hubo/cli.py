"""Command-line front end: configured experiments, CSV traces, diagnostics.

Subcommands
-----------
run --config FILE [--set key=value]...
    Run every (algorithm, repeat) pair of the experiment, one trace CSV per
    run, plus per-algorithm summary and log-distance files and a manifest.
diagnostics --out DIR
    Check the library's analytic guarantees (series sandwiches, reachability,
    nearest-cube Monte-Carlo bound) and write a pass/fail report.
list-benchmarks
    Print the shipped benchmark functions.

Config files are flat ``key = value`` lines; ``#`` starts a comment.  Keys
(all optional unless noted): benchmark (required), dim (required for
ackley/levy), algorithms (comma list of hubo,hdhubo,vol2,random), alpha,
lambda, n0, l_h (absolute; default 10% of the X0 side), delta, s1, s2,
fraction (X0 side as a fraction of the domain side), budget (30d, 10d, or an
integer), repeats, seed, noise_std, restarts, max_evals, n_init, kernel
(se or matern52), workers, out_dir.

Exit codes: 0 success, 2 config error, 3 at least one run failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

import numpy as np

from . import series
from .acquisition import BetaSchedule, MaximizerConfig
from .benchmarks import BENCHMARK_NAMES, initial_space, make_benchmark
from .cubes import HdConfig, nearest_in_set, sample_cubes
from .driver import (
    ALGORITHMS,
    Objective,
    RunTrace,
    RunConfig,
    compute_regret,
    default_n_init,
    random_search,
    run,
)
from .space import (
    ExpansionConfig,
    SearchBox,
    _coverage_need,
    expand,
    reachability_horizon,
    reachability_horizon_bound,
    side_length,
    translate,
)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_config_file",
    "resolve_spec",
    "run_experiment",
    "emit_log_distance",
    "diagnostics",
    "main",
]

CLI_ALGORITHMS = ALGORITHMS + ("random",)

TRACE_COLUMNS = (
    "t",
    "x",
    "y",
    "best_y",
    "r_t",
    "R_t",
    "log_dist",
    "side",
    "n_cubes",
    "wall_ms",
)

SUMMARY_COLUMNS = (
    "t",
    "mean_best_y",
    "std_best_y",
    "stderr_best_y",
    "mean_log_dist",
    "stderr_log_dist",
)


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: every default materialized."""

    benchmark: str
    dim: int
    algorithms: tuple[str, ...]
    alpha: float
    lam: float
    n0: int
    l_h: float | None
    delta: float
    s1: float
    s2: float
    fraction: float
    budget: str
    budget_T: int
    repeats: int
    seed: int
    noise_std: float
    restarts: int
    max_evals: int
    n_init: int
    kernel: str
    workers: int
    out_dir: str


_DEFAULTS = {
    "dim": "",
    "algorithms": "hubo",
    "alpha": "-1",
    "lambda": "1.0",
    "n0": "1",
    "l_h": "",
    "delta": "0.1",
    "s1": "1.0",
    "s2": "1.0",
    "fraction": "0.2",
    "budget": "30d",
    "repeats": "15",
    "seed": "0",
    "noise_std": "0",
    "restarts": "20",
    "max_evals": "1000",
    "n_init": "",
    "kernel": "se",
    "workers": "1",
    "out_dir": "results",
}

_FIXED_DIMS = {"beale": 2, "hartmann3": 3, "hartmann6": 6}


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value file; '#' comments and blank lines are skipped."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _as_int(raw: dict, key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw[key]!r}") from exc


def _as_float(raw: dict, key: str) -> float:
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {raw[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw[key]!r}")
    return value


def resolve_spec(raw: dict[str, str]) -> ExperimentSpec:
    """Validate a raw key->string mapping and materialize every default."""
    known = set(_DEFAULTS) | {"benchmark"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    merged = dict(_DEFAULTS)
    merged.update(raw)

    if "benchmark" not in merged or not merged["benchmark"]:
        raise ConfigError("benchmark is required")
    benchmark = merged["benchmark"].lower()
    if benchmark not in BENCHMARK_NAMES:
        raise ConfigError(
            f"benchmark must be one of {BENCHMARK_NAMES}, got {benchmark!r}"
        )

    if merged["dim"]:
        dim = _as_int(merged, "dim")
    elif benchmark in _FIXED_DIMS:
        dim = _FIXED_DIMS[benchmark]
    else:
        raise ConfigError(f"dim is required for benchmark {benchmark!r}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if benchmark in _FIXED_DIMS and dim != _FIXED_DIMS[benchmark]:
        raise ConfigError(
            f"benchmark {benchmark!r} is {_FIXED_DIMS[benchmark]}-dimensional, "
            f"got dim={dim}"
        )

    algorithms = tuple(
        token.strip() for token in merged["algorithms"].split(",") if token.strip()
    )
    if not algorithms:
        raise ConfigError("algorithms must name at least one algorithm")
    for algo in algorithms:
        if algo not in CLI_ALGORITHMS:
            raise ConfigError(
                f"algorithms entries must be in {CLI_ALGORITHMS}, got {algo!r}"
            )
    if len(set(algorithms)) != len(algorithms):
        raise ConfigError("algorithms contains duplicates")

    alpha = _as_float(merged, "alpha")
    if not (-1.0 <= alpha < 0.0):
        raise ConfigError(f"alpha must lie in [-1, 0), got {alpha}")
    lam = _as_float(merged, "lambda")
    if lam < 0.0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    n0 = _as_int(merged, "n0")
    if n0 < 1:
        raise ConfigError(f"n0 must be >= 1, got {n0}")

    l_h: float | None = None
    if merged["l_h"]:
        l_h = _as_float(merged, "l_h")
        if l_h <= 0.0:
            raise ConfigError(f"l_h must be > 0, got {l_h}")

    delta = _as_float(merged, "delta")
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    s1 = _as_float(merged, "s1")
    s2 = _as_float(merged, "s2")
    if s1 <= 0.0 or s2 <= 0.0:
        raise ConfigError("s1 and s2 must be > 0")
    fraction = _as_float(merged, "fraction")
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must lie in (0, 1], got {fraction}")

    budget = merged["budget"].strip().lower()
    if budget == "30d":
        budget_T = 30 * dim
    elif budget == "10d":
        budget_T = 10 * dim
    else:
        try:
            budget_T = int(budget)
        except ValueError as exc:
            raise ConfigError(
                f"budget must be 30d, 10d, or an integer, got {budget!r}"
            ) from exc
    if budget_T < 0:
        raise ConfigError(f"budget must be >= 0, got {budget_T}")

    repeats = _as_int(merged, "repeats")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    seed = _as_int(merged, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    noise_std = _as_float(merged, "noise_std")
    if noise_std < 0.0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    restarts = _as_int(merged, "restarts")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    max_evals = _as_int(merged, "max_evals")
    if max_evals < restarts:
        raise ConfigError(
            f"max_evals ({max_evals}) must be >= restarts ({restarts})"
        )

    if merged["n_init"]:
        n_init = _as_int(merged, "n_init")
    else:
        n_init = default_n_init(dim)
    if n_init < 2:
        raise ConfigError(f"n_init must be >= 2, got {n_init}")

    kernel = merged["kernel"].lower()
    if kernel not in ("se", "matern52"):
        raise ConfigError(f"kernel must be se or matern52, got {kernel!r}")
    workers = _as_int(merged, "workers")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out_dir = merged["out_dir"]
    if not out_dir:
        raise ConfigError("out_dir must not be empty")

    return ExperimentSpec(
        benchmark=benchmark,
        dim=dim,
        algorithms=algorithms,
        alpha=alpha,
        lam=lam,
        n0=n0,
        l_h=l_h,
        delta=delta,
        s1=s1,
        s2=s2,
        fraction=fraction,
        budget=budget,
        budget_T=budget_T,
        repeats=repeats,
        seed=seed,
        noise_std=noise_std,
        restarts=restarts,
        max_evals=max_evals,
        n_init=n_init,
        kernel=kernel,
        workers=workers,
        out_dir=out_dir,
    )


def _build_and_run(spec: ExperimentSpec, algorithm: str, repeat: int) -> RunTrace:
    """Run one (algorithm, repeat) pair and fill regret columns."""
    run_seed = spec.seed + repeat
    bench = make_benchmark(spec.benchmark, spec.dim)
    obj = Objective.from_benchmark(bench, noise_std=spec.noise_std)
    ispace = initial_space(bench, spec.fraction, run_seed)
    l_h = spec.l_h if spec.l_h is not None else 0.1 * ispace.side

    if algorithm == "random":
        trace = random_search(
            obj, ispace.c_min, ispace.c_max, spec.n_init + spec.budget_T, run_seed
        )
    else:
        exp_cfg = ispace.to_expansion(spec.alpha)
        if algorithm == "hdhubo":
            beta_sched = BetaSchedule(
                variant="hdhubo",
                delta=spec.delta,
                dim=bench.dim,
                s1=spec.s1,
                s2=spec.s2,
                l_h=l_h,
            )
            hd = HdConfig(lam=spec.lam, n0=spec.n0, l_h=l_h)
        else:
            beta_sched = BetaSchedule(
                variant="hubo",
                delta=spec.delta,
                dim=bench.dim,
                s1=spec.s1,
                s2=spec.s2,
                a=exp_cfg.a,
                b=exp_cfg.b,
                alpha=spec.alpha,
            )
            hd = None
        cfg = RunConfig(
            expansion=exp_cfg,
            beta=beta_sched,
            maximizer=MaximizerConfig(
                restarts=spec.restarts, max_evals=spec.max_evals
            ),
            budget_T=spec.budget_T,
            n_init=spec.n_init,
            seed=run_seed,
            algorithm=algorithm,
            hd=hd,
            kernel_family=spec.kernel,
        )
        trace = run(obj, cfg)

    if obj.optimum_value is not None and not trace.incomplete:
        compute_regret(trace, obj)
    return trace


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def write_trace_csv(path: str, trace: RunTrace) -> None:
    """One row per observation; floats use repr so reruns are byte-identical.

    wall_ms is part of the schema but deliberately left empty: wall time is
    nondeterministic and would break the identical-rerun contract, so timings
    live in the manifest instead.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace.records:
            writer.writerow(
                [
                    rec.t,
                    ";".join(repr(float(c)) for c in rec.x),
                    repr(float(rec.y)),
                    repr(float(rec.best_y)),
                    _cell(rec.r_t),
                    _cell(rec.R_t),
                    _cell(rec.log_dist),
                    repr(float(rec.side)),
                    "" if rec.n_cubes is None else rec.n_cubes,
                    "",
                ]
            )


def _task_meta(task: tuple[ExperimentSpec, str, int]) -> dict:
    """A task's metadata before it runs: status ok, no columns yet."""
    spec, algorithm, repeat = task
    return {
        "algorithm": algorithm,
        "repeat": repeat,
        "seed": spec.seed + repeat,
        "file": f"{algorithm}_r{repeat:03d}.csv",
        "status": "ok",
        "error": None,
        "duration_s": 0.0,
        "columns": None,
    }


def _failed(meta: dict, exc: BaseException) -> dict:
    meta.update(status="error", error=f"{type(exc).__name__}: {exc}", file=None)
    return meta


def _run_task(task: tuple[ExperimentSpec, str, int]) -> dict:
    """Worker body: run one pair, write its trace CSV, return light metadata.

    Must stay a module-level function so process pools can pickle it.
    """
    spec, algorithm, repeat = task
    started = time.perf_counter()
    meta = _task_meta(task)
    try:
        trace = _build_and_run(spec, algorithm, repeat)
        write_trace_csv(os.path.join(spec.out_dir, meta["file"]), trace)
        if trace.incomplete:
            meta["status"] = "incomplete"
            meta["error"] = trace.error
        else:
            meta["columns"] = {
                "t": [rec.t for rec in trace.records],
                "best_y": [rec.best_y for rec in trace.records],
                "log_dist": [rec.log_dist for rec in trace.records],
            }
    except Exception as exc:  # a failed run must not sink the others
        _failed(meta, exc)
    meta["duration_s"] = round(time.perf_counter() - started, 3)
    return meta


def _run_pool(tasks: list, workers: int) -> list[dict]:
    """Run the tasks in a process pool of at most one worker per task.

    A worker process that dies breaks the pool: every task it had not
    finished is recorded as an error, and the finished ones keep their
    results.
    """
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(_run_task, task) for task in tasks]
        metas = []
        for task, future in zip(tasks, futures):
            try:
                metas.append(future.result())
            except BrokenProcessPool as exc:
                metas.append(_failed(_task_meta(task), exc))
    return metas


def _mean_std_stderr(values: np.ndarray) -> tuple[float, float, float]:
    n = len(values)
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return mean, std, std / math.sqrt(n)


def _summarize(run_metas: list[dict]) -> list[dict]:
    """Per-record-index stats across repeats of one algorithm."""
    columns = [m["columns"] for m in run_metas]
    lengths = {len(c["t"]) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"repeat traces disagree on length: {sorted(lengths)}")
    (n_rows,) = lengths
    rows = []
    for i in range(n_rows):
        best = np.array([c["best_y"][i] for c in columns], dtype=np.float64)
        mean_b, std_b, se_b = _mean_std_stderr(best)
        row = {
            "t": columns[0]["t"][i],
            "mean_best_y": mean_b,
            "std_best_y": std_b,
            "stderr_best_y": se_b,
            "mean_log_dist": None,
            "stderr_log_dist": None,
        }
        log_dists = [c["log_dist"][i] for c in columns]
        if all(v is not None for v in log_dists):
            mean_l, _, se_l = _mean_std_stderr(np.array(log_dists, dtype=np.float64))
            row["mean_log_dist"] = mean_l
            row["stderr_log_dist"] = se_l
        rows.append(row)
    return rows


def write_summary_csv(path: str, summary_rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in summary_rows:
            writer.writerow(
                [
                    row["t"],
                    repr(float(row["mean_best_y"])),
                    repr(float(row["std_best_y"])),
                    repr(float(row["stderr_best_y"])),
                    _cell(row["mean_log_dist"]),
                    _cell(row["stderr_log_dist"]),
                ]
            )


def emit_log_distance(summary_rows: list[dict], path: str) -> str:
    """Write (iteration, mean log-distance, std-err) rows for plotting."""
    if any(row["mean_log_dist"] is None for row in summary_rows):
        raise ValueError("log-distance requires a benchmark with a known optimum")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_log_dist", "stderr_log_dist"])
        for row in summary_rows:
            writer.writerow(
                [
                    row["t"],
                    repr(float(row["mean_log_dist"])),
                    repr(float(row["stderr_log_dist"])),
                ]
            )
    return path


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the whole experiment and write all output files.

    Returns the manifest (also written as manifest.json): resolved config,
    file list, and per-run status.  Failed runs, including runs lost with a
    killed worker process, are recorded and skipped by the summaries; the
    remaining runs still complete.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    tasks = [
        (spec, algorithm, repeat)
        for algorithm in spec.algorithms
        for repeat in range(spec.repeats)
    ]
    if spec.workers > 1:
        metas = _run_pool(tasks, spec.workers)
    else:
        metas = [_run_task(task) for task in tasks]

    files = [m["file"] for m in metas if m["file"]]
    for algorithm in spec.algorithms:
        ok = [
            m
            for m in metas
            if m["algorithm"] == algorithm and m["status"] == "ok"
        ]
        if not ok:
            continue
        summary_rows = _summarize(ok)
        summary_file = f"{algorithm}_summary.csv"
        write_summary_csv(os.path.join(spec.out_dir, summary_file), summary_rows)
        files.append(summary_file)
        if all(row["mean_log_dist"] is not None for row in summary_rows):
            ld_file = f"{algorithm}_log_distance.csv"
            emit_log_distance(summary_rows, os.path.join(spec.out_dir, ld_file))
            files.append(ld_file)

    config = asdict(spec)
    config["lambda"] = config.pop("lam")
    config["algorithms"] = list(spec.algorithms)  # as json.load reads it back
    manifest = {
        "config": config,
        "files": sorted(files) + ["manifest.json"],
        "runs": [
            {key: m[key] for key in
             ("algorithm", "repeat", "seed", "file", "status", "error", "duration_s")}
            for m in metas
        ],
    }
    with open(os.path.join(spec.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# --------------------------------------------------------------------------
# diagnostics


def _check_sandwich(lines: list[str]) -> bool:
    """Partial-sum bounds: lower < sum (< upper for n >= 2) on a dense sweep."""
    ok = True
    ns = np.unique(np.concatenate([
        np.arange(1, 1001),
        np.geomspace(1000, 100_000, 200).astype(np.int64),
    ]))
    for alpha in (-1.0, -0.9, -0.5, -0.1):
        sums = series.partial_sums(alpha, int(ns[-1]))[ns - 1]
        lower = np.array([series.partial_sum_lower_bound(alpha, int(n)) for n in ns])
        upper = np.array([series.partial_sum_upper_bound(alpha, int(n)) for n in ns])
        lower_margin = float(np.min(sums - lower))
        strict = ns >= 2
        upper_margin = float(np.min(upper[strict] - sums[strict]))
        passed = lower_margin > 0.0 and upper_margin > 0.0 and bool(
            np.all(upper[~strict] - sums[~strict] >= 0.0)
        )
        ok &= passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'} partial-sum sandwich alpha={alpha} "
            f"n<=1e5 min_lower_margin={lower_margin:.3e} "
            f"min_upper_margin={upper_margin:.3e}"
        )
    return ok


def _check_p_series(lines: list[str]) -> bool:
    ok = True
    for p in (1.5, 2.0, 3.0):
        bound = series.p_series_bound(p)
        total = float(np.sum(np.arange(1, 1_000_001, dtype=np.float64) ** (-p)))
        passed = total < bound
        ok &= passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'} p-series p={p} "
            f"sum(1e6 terms)={total:.6f} < bound={bound:.6f}"
        )
    return ok


def _check_gamma_root(lines: list[str]) -> bool:
    margins = [
        math.sqrt(d + 2) - series.gamma_root(d) for d in range(1, 201)
    ]
    margin = min(margins)
    passed = margin > 0.0
    lines.append(
        f"{'PASS' if passed else 'FAIL'} gamma-root bound d<=200 "
        f"min_margin={margin:.3e}"
    )
    return passed


def _nearest_distances(
    t: int, alpha: float, lam: float, dim: int, l_h: float, n_seeds: int, base: int
) -> np.ndarray:
    """Nearest-cube distance to a uniform target in the step-t box, per seed.

    Seed s samples the cubes and the target from the stream [base + t, s].
    """
    side = side_length(t, _unit_expansion(alpha, dim))
    box = SearchBox(np.zeros(dim), 0.5 * side, dim)
    hd = HdConfig(lam=lam, n0=1, l_h=l_h)
    dists = np.empty(n_seeds)
    for s in range(n_seeds):
        rng = np.random.default_rng([base + t, s])
        cube_set = sample_cubes(box, t, hd, rng)
        x_star = rng.uniform(box.lower, box.upper)
        _, dists[s] = nearest_in_set(cube_set, x_star)
    return dists


def _median_distance(t: int, alpha: float, lam: float) -> float:
    return float(np.median(_nearest_distances(t, alpha, lam, 2, 0.1, 100, 40_000)))


def _unit_expansion(alpha: float, dim: int) -> ExpansionConfig:
    return ExpansionConfig(
        a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=dim
    )


def _check_decay_regimes(lines: list[str]) -> bool:
    ok = True
    # shrinking regime: lambda > d(alpha+1)
    ts = (20, 80, 320)
    medians = [_median_distance(t, -1.0, 1.0) for t in ts]
    shrinking = medians[0] > medians[1] > medians[2]
    ok &= shrinking
    lines.append(
        f"{'PASS' if shrinking else 'FAIL'} nearest-distance decay "
        f"(alpha=-1, lambda=1, d=2): medians at t={ts} = "
        f"{', '.join(f'{m:.4f}' for m in medians)} strictly decreasing"
    )
    # violated regime: lambda = 0 < d(alpha+1) = 1 -> expected non-decreasing
    medians = [_median_distance(t, -0.5, 0.0) for t in ts]
    flagged = not (medians[0] > medians[1] > medians[2])
    ok &= flagged
    lines.append(
        f"{'PASS' if flagged else 'FAIL'} regime flag (alpha=-0.5, lambda=0, "
        f"d=2, lambda <= d(alpha+1)): medians at t={ts} = "
        f"{', '.join(f'{m:.4f}' for m in medians)} flagged non-decreasing "
        f"(expected)"
    )
    return ok


def _check_reachability(lines: list[str]) -> bool:
    ok = True
    cfg = _unit_expansion(-1.0, 2)
    target = (-2.0, 3.0)
    t0 = reachability_horizon(target[0], target[1], cfg)
    contained_at_t0 = t0 is not None and _corner_containment(target, cfg, t0)
    contained_before = t0 is not None and _corner_containment(target, cfg, t0 - 1)
    passed = t0 is not None and contained_at_t0 and not contained_before
    ok &= passed
    lines.append(
        f"{'PASS' if passed else 'FAIL'} reachability simulation target="
        f"[{target[0]}, {target[1]}]^2 alpha=-1: T0={t0}, adversarial-corner "
        f"containment at T0: {contained_at_t0}, at T0-1: {contained_before}"
    )

    # A target ~100 initial sides away at alpha=-1: the horizon is beyond any
    # enumerable range, so certify it in closed form via the partial-sum
    # lower bound instead of simulating.
    far = (-100.0, 101.0)
    t_cert = reachability_horizon_bound(far[0], far[1], cfg)
    need = _coverage_need(far[0], far[1], cfg)
    required = need / (0.5 * (cfg.b - cfg.a)) - 1.0
    certified = math.log(t_cert + 1.0) >= required
    simulated = reachability_horizon(far[0], far[1], cfg, limit=10**6)
    ok &= certified and simulated is None
    lines.append(
        f"{'PASS' if certified and simulated is None else 'FAIL'} reachability "
        f"closed form target=[{far[0]}, {far[1]}]^2 alpha=-1: certified "
        f"T0<={t_cert:.3e}, containment guaranteed by the partial-sum lower "
        f"bound ln(T0+1)={math.log(t_cert + 1.0):.3f} >= required sum "
        f"{required:.3f}; simulation within 1e6 steps correctly returns None"
    )
    return ok


def _corner_containment(
    target: tuple[float, float], cfg: ExpansionConfig, t_steps: int
) -> bool:
    """Simulate t_steps expansions with the center adversarially pinned at a
    corner of C_initial; True iff the final box contains the target cube."""
    if t_steps < 1:
        return False
    for corner in (cfg.c_min, cfg.c_max):
        box = SearchBox(cfg.x0_center, 0.5 * (cfg.b - cfg.a), cfg.dim)
        for t in range(1, t_steps + 1):
            box = translate(expand(box, t, cfg), corner, cfg)
        lo_ok = bool(np.all(box.lower <= target[0]))
        hi_ok = bool(np.all(box.upper >= target[1]))
        if not (lo_ok and hi_ok):
            return False
    return True


def _check_mc_bound(lines: list[str]) -> bool:
    """Empirical violation rate of the nearest-distance bound vs its delta."""
    ok = True
    delta = 0.2
    dim = 2
    lam = 1.0
    alpha = -1.0
    l_h = 0.1
    n_seeds = 200
    for t in (50, 100, 400):
        m_t = series.nearest_point_decay(alpha, lam, dim, t)
        bound = (
            2.0
            / math.sqrt(math.pi)
            * series.gamma_root(dim)
            * math.log(1.0 / delta) ** (1.0 / dim)
            * m_t
        )
        dists = _nearest_distances(t, alpha, lam, dim, l_h, n_seeds, 50_000)
        violations = int(np.sum(~(dists < bound)))
        rate = violations / n_seeds
        passed = rate <= delta
        ok &= passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'} nearest-distance bound t={t} "
            f"d=2 lambda=1 delta={delta}: violation rate {rate:.3f} <= {delta} "
            f"(bound={bound:.4f})"
        )
    return ok


def diagnostics(out_dir: str) -> str:
    """Run every analytic self-check and write report.txt; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    lines: list[str] = []
    all_ok = True
    all_ok &= _check_sandwich(lines)
    all_ok &= _check_p_series(lines)
    all_ok &= _check_gamma_root(lines)
    all_ok &= _check_decay_regimes(lines)
    all_ok &= _check_reachability(lines)
    all_ok &= _check_mc_bound(lines)
    n_pass = sum(1 for line in lines if line.startswith("PASS"))
    lines.append(
        f"{'ALL CHECKS PASSED' if all_ok else 'CHECK FAILURES'} "
        f"({n_pass}/{len(lines)} passed)"
    )
    path = os.path.join(out_dir, "report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _list_benchmarks() -> list[str]:
    lines = []
    for name in BENCHMARK_NAMES:
        dim = _FIXED_DIMS.get(name)
        bench = make_benchmark(name, dim if dim else 2)
        domain = f"[{bench.lower[0]:g}, {bench.upper[0]:g}]"
        dims = f"d={bench.dim}" if dim else "d=any"
        point = ", ".join(f"{v:g}" for v in bench.optimum_point)
        lines.append(
            f"{name:<10} {dims:<6} domain={domain}^d "
            f"max={bench.optimum_value:g} at ({point})"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hubo",
        description="Expanding-search-space Bayesian optimisation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable; later wins)",
    )

    p_diag = sub.add_parser("diagnostics", help="write the analytic self-check report")
    p_diag.add_argument("--out", default="diagnostics", help="output directory")

    sub.add_parser("list-benchmarks", help="print available benchmark functions")

    args = parser.parse_args(argv)

    if args.command == "list-benchmarks":
        for line in _list_benchmarks():
            print(line)
        return 0

    if args.command == "diagnostics":
        path = diagnostics(args.out)
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
        print(content, end="")
        print(f"report written to {path}")
        return 0

    # run
    try:
        raw = parse_config_file(args.config) if args.config else {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        spec = resolve_spec(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = run_experiment(spec)
    failed = [r for r in manifest["runs"] if r["status"] != "ok"]
    n_ok = len(manifest["runs"]) - len(failed)
    print(
        f"{n_ok}/{len(manifest['runs'])} runs ok; outputs in {spec.out_dir}"
    )
    if failed:
        for r in failed:
            print(
                f"  {r['algorithm']} repeat {r['repeat']}: {r['status']} "
                f"({r['error']})",
                file=sys.stderr,
            )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
