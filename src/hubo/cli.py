"""The `hubo` command: configured experiments, their CSV traces and manifest.

Subcommands
-----------
run --config FILE [--set key=value]...
    Run every (algorithm, repeat) pair of the experiment, each in a worker
    process of a pool, one trace CSV per run, plus per-algorithm summary and
    log-distance files and a manifest.
diagnostics --out DIR
    Write the analytic self-check report of `hubo.diagnostics`.
list-benchmarks
    Print the shipped benchmark functions.

Config files are flat ``key = value`` lines.  In them and in ``--set``, a
``#`` at the start of the text or after whitespace starts a comment.  Each
key is one `ExperimentSpec` field, declared with its default and parser in
the order the keys are resolved.  Only benchmark is required, and dim as
well for the scalable benchmarks (ackley, levy).  A config is accepted only
when every run it lists builds: the library's constructors own every range
rule, and their errors are config errors.  Benchmark, kernel and algorithm
names may be written in any case; the library matches the lowercased names.

Exit codes: 0 success, 2 config error, 3 at least one run failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

import numpy as np

from .acquisition import BetaSchedule, MaximizerConfig
from .benchmarks import BENCHMARK_NAMES, fixed_dim, initial_space, make_benchmark
from .contracts import choice, count
from .cubes import HdConfig
from .diagnostics import diagnostics
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

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_config_file",
    "resolve_spec",
    "run_experiment",
    "emit_log_distance",
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


def _key_value(text: str, expected: str) -> tuple[str, str]:
    """The stripped (key, value) of a key=value text.  A '#' at the start or
    after whitespace begins a comment, which is dropped; any other '#' is
    part of the value, so /tmp/run#1 keeps it.  ConfigError(f"{expected},
    got {rest!r}") if what is left has no '='."""
    text = re.split(r"(?:^|\s)#", text, maxsplit=1)[0].strip()
    if "=" not in text:
        raise ConfigError(f"{expected}, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value file; comment lines and blank lines are skipped.
    A key set on two lines is a ConfigError; only --set overrides a value."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if line and not line.startswith("#"):
            key, value = _key_value(line, f"{path}:{lineno}: expected key=value")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: {key} is already set on line {first_line[key]}")
            first_line[key] = lineno
            out[key] = value
    return out


def _as_int(key: str, text: str, fields: dict | None = None) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from exc


def _as_float(key: str, text: str, fields: dict | None = None) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {text!r}") from exc
    return value


def _positive_int(key: str, text: str, fields: dict | None = None) -> int:
    return count(key, _as_int(key, text), 1)


def _lowered(parse):
    """parse, given the text lowercased: config text may name a benchmark,
    kernel or algorithm in any case, and the library matches names exactly."""
    return lambda key, text, fields: parse(key, text.lower(), fields)


def _benchmark(key: str, text: str, fields: dict) -> str:
    if not text:
        raise ConfigError("benchmark is required")
    return text  # make_benchmark, called by _dim next, checks the name


def _dim(key: str, text: str, fields: dict) -> int:
    try:
        dim = int(text) if text else None
    except ValueError:
        dim = text  # make_benchmark checks the name, then rejects this dim
    return make_benchmark(fields["benchmark"], dim).dim


def _algorithms(key: str, text: str, fields: dict) -> tuple[str, ...]:
    algorithms = tuple(token.strip() for token in text.split(",") if token.strip())
    if not algorithms:
        raise ConfigError("algorithms must name at least one algorithm")
    for algo in algorithms:
        choice(key, algo, CLI_ALGORITHMS)
    if len(set(algorithms)) != len(algorithms):
        raise ConfigError("algorithms contains duplicates")
    return algorithms


def _budget(key: str, text: str, fields: dict) -> str:
    """The budget text, normalized; also resolves budget_T from it."""
    budget = text.strip().lower()
    per_dim = {"30d": 30, "10d": 10}.get(budget)
    try:
        budget_T = per_dim * fields["dim"] if per_dim else int(budget)
    except ValueError as exc:
        raise ConfigError(f"budget must be 30d, 10d, or an integer, got {budget!r}") from exc
    fields["budget_T"] = count("budget", budget_T, 0)
    return budget


def _n_init(key: str, text: str, fields: dict) -> int:
    return _as_int(key, text) if text else default_n_init(fields["dim"])


def _l_h(key: str, text: str, fields: dict) -> float:
    if text:
        return _as_float(key, text)
    bench = make_benchmark(fields["benchmark"], fields["dim"])
    return 0.1 * (fields["fraction"] * float(bench.upper[0] - bench.lower[0]))


def _out_dir(key: str, text: str, fields: dict) -> str:
    if not text:
        raise ConfigError("out_dir must not be empty")
    return text


def _key(default: str, parse, key: str | None = None):
    """The ExperimentSpec field of one config key: an unset key parses its
    default text.  parse(key, text, fields) sees the fields resolved above
    it; `key` is the config name where it differs from the field name."""
    return dataclasses.field(metadata={"default": default, "parse": parse, "key": key})


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: every default materialized.

    Each field but budget_T is one config key, declared in resolution order.
    The parsers hold only the rules no library type owns; resolve_spec
    checks the rest by building every run.
    """

    benchmark: str = _key("", _lowered(_benchmark))
    # empty: the benchmark's fixed dimension
    dim: int = _key("", _dim)
    # a comma list
    algorithms: tuple[str, ...] = _key("hubo", _lowered(_algorithms))
    alpha: float = _key("-1", _as_float)
    lam: float = _key("1.0", _as_float, "lambda")
    n0: int = _key("1", _as_int)
    delta: float = _key("0.1", _as_float)
    s1: float = _key("1.0", _as_float)
    s2: float = _key("1.0", _as_float)
    # the X0 side as a fraction of the domain side
    fraction: float = _key("0.2", _as_float)
    # the absolute cube side; empty: 10% of the X0 side
    l_h: float = _key("", _l_h)
    # 30d, 10d or an iteration count; its parser also resolves budget_T
    budget: str = _key("30d", _budget)
    budget_T: int
    repeats: int = _key("15", _positive_int)
    seed: int = _key("0", _as_int)
    noise_std: float = _key("0", _as_float)
    restarts: int = _key("20", _as_int)
    max_evals: int = _key("1000", _as_int)
    # empty: max(3, dim + 1)
    n_init: int = _key("", _n_init)
    kernel_family: str = _key("se", _lowered(lambda key, text, fields: text), "kernel")
    workers: int = _key("1", _positive_int)
    out_dir: str = _key("results", _out_dir)


# Config keys whose ExperimentSpec field has another name.
_FIELD_NAMES = {
    f.metadata["key"]: f.name for f in dataclasses.fields(ExperimentSpec) if f.metadata.get("key")
}


def resolve_spec(raw: dict[str, str]) -> ExperimentSpec:
    """Validate a raw key->string mapping and materialize every default.

    After the fields' own parsers, it builds every (algorithm, repeat) run of
    the experiment, and hdhubo's repeat 0 as well, since hdhubo reads every
    key and its beta_t tail rule is the weakest; a field the library rejects
    is a ConfigError with the library's message.
    """
    keys = {f.metadata["key"] or f.name: f for f in dataclasses.fields(ExperimentSpec) if f.metadata}
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
    fields: dict = {}
    try:
        for key, f in keys.items():
            fields[f.name] = f.metadata["parse"](key, raw.get(key, f.metadata["default"]), fields)
        spec = ExperimentSpec(**fields)
        pairs = [(algo, repeat) for algo in spec.algorithms for repeat in range(spec.repeats)]
        for algorithm, repeat in dict.fromkeys(pairs + [("hdhubo", 0)]):
            _build(spec, algorithm, repeat)
    except (ValueError, TypeError) as exc:
        message = str(exc)
        for key, name in _FIELD_NAMES.items():
            if message.startswith(f"{name} "):
                message = key + message[len(name):]
        raise ConfigError(message) from None
    return spec


def _build(spec: ExperimentSpec, algorithm: str, repeat: int) -> tuple:
    """(objective, start) of one (algorithm, repeat) pair: start() runs it and
    returns its trace."""
    run_seed = spec.seed + repeat
    bench = make_benchmark(spec.benchmark, spec.dim)
    obj = Objective.from_benchmark(bench, noise_std=spec.noise_std)
    ispace = initial_space(bench, spec.fraction, run_seed)
    if algorithm == "random":
        T = spec.n_init + spec.budget_T
        return obj, functools.partial(random_search, obj, ispace.c_min, ispace.c_max, T, run_seed)
    exp_cfg = ispace.to_expansion(spec.alpha)
    sched = {"delta": spec.delta, "dim": bench.dim, "s1": spec.s1, "s2": spec.s2}
    if algorithm == "hdhubo":
        beta_sched = BetaSchedule(variant="hdhubo", l_h=spec.l_h, **sched)
        hd = HdConfig(lam=spec.lam, n0=spec.n0, l_h=spec.l_h)
    else:
        beta_sched = BetaSchedule(variant="hubo", a=ispace.a, b=ispace.b, alpha=spec.alpha, **sched)
        hd = None
    cfg = RunConfig(
        expansion=exp_cfg,
        beta=beta_sched,
        maximizer=MaximizerConfig(restarts=spec.restarts, max_evals=spec.max_evals),
        budget_T=spec.budget_T,
        n_init=spec.n_init,
        seed=run_seed,
        algorithm=algorithm,
        hd=hd,
        kernel_family=spec.kernel_family,
    )
    return obj, functools.partial(run, obj, cfg)


def _build_and_run(spec: ExperimentSpec, algorithm: str, repeat: int) -> RunTrace:
    """Run one (algorithm, repeat) pair in this process and fill regret columns."""
    obj, start = _build(spec, algorithm, repeat)
    return compute_regret(start(), obj)


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(path: str, trace: RunTrace) -> None:
    """One row per observation; floats use repr so reruns are byte-identical.
    Wall time is not a column, since it would differ between reruns; timings
    live in the manifest."""
    _write_csv(path, TRACE_COLUMNS, (
        [rec.t, ";".join(map(_cell, rec.x)), _cell(rec.y), _cell(rec.best_y),
         _cell(rec.r_t), _cell(rec.R_t), _cell(rec.log_dist), _cell(rec.side),
         "" if rec.n_cubes is None else rec.n_cubes]
        for rec in trace.records
    ))


def _task_meta(task: tuple[ExperimentSpec, str, int]) -> dict:
    """A task's metadata before it runs: status ok, no columns yet.  Its
    manifest entry is this dict without `columns`."""
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
    meta.update(status="error", error=f"{type(exc).__name__}: {exc}")
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
            meta.update(status="incomplete", error=trace.error)
        else:
            meta["columns"] = {column: [getattr(rec, column) for rec in trace.records]
                               for column in ("t", "best_y", "log_dist")}
    except Exception as exc:  # a failed run must not sink the others
        _failed(meta, exc)
    meta["duration_s"] = round(time.perf_counter() - started, 3)
    return meta


def _summarize(run_metas: list[dict]) -> list[dict]:
    """Per-record-index stats across repeats of one algorithm."""
    n = len(run_metas)
    stats = {"t": run_metas[0]["columns"]["t"]}
    for column in ("best_y", "log_dist"):
        # (records, repeats), so each statistic reduces a contiguous row
        values = np.array([m["columns"][column] for m in run_metas], dtype=np.float64).T.copy()
        std = np.std(values, axis=1, ddof=1) if n > 1 else np.zeros(len(values))
        stats[f"mean_{column}"] = np.mean(values, axis=1).tolist()
        stats[f"std_{column}"] = std.tolist()
        stats[f"stderr_{column}"] = (std / math.sqrt(n)).tolist()
    return [dict(zip(SUMMARY_COLUMNS, row)) for row in zip(*(stats[c] for c in SUMMARY_COLUMNS))]


def write_summary_csv(path: str, summary_rows: list[dict]) -> None:
    _write_csv(path, SUMMARY_COLUMNS, (
        [row["t"], *(_cell(row[key]) for key in SUMMARY_COLUMNS[1:])] for row in summary_rows
    ))


def emit_log_distance(summary_rows: list[dict], path: str) -> str:
    """Write (iteration, mean log-distance, std-err) rows for plotting."""
    _write_csv(path, ("t", "mean_log_dist", "stderr_log_dist"), (
        [row["t"], _cell(row["mean_log_dist"]), _cell(row["stderr_log_dist"])]
        for row in summary_rows
    ))
    return path


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the whole experiment and write all output files.

    Returns the manifest (also written as manifest.json): resolved config,
    file list, and per-run status.  Every run executes in a pool of `workers`
    processes.  Failed runs, killed ones included, leave no trace CSV and are
    skipped by the summaries; the others still complete.  An out_dir that
    cannot be created is a ConfigError, raised before any run starts.
    """
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {spec.out_dir}: {exc}") from exc
    tasks = [(spec, algo, repeat) for algo in spec.algorithms for repeat in range(spec.repeats)]
    with ProcessPoolExecutor(max_workers=min(spec.workers, len(tasks))) as pool:
        futures = [pool.submit(_run_task, task) for task in tasks]
        metas = []
        for task, future in zip(tasks, futures):
            try:
                metas.append(future.result())
            except BrokenProcessPool as exc:
                metas.append(_failed(_task_meta(task), exc))
    for meta in metas:  # the pool has stopped, so no worker is still writing
        if meta["status"] == "error":  # its CSV may be partial, or whole but unreported
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(spec.out_dir, meta["file"]))
            meta["file"] = None
    files = [m["file"] for m in metas if m["file"]]
    for algorithm in spec.algorithms:
        ok = [m for m in metas if m["algorithm"] == algorithm and m["status"] == "ok"]
        if not ok:
            continue
        summary_rows = _summarize(ok)
        summary_file = f"{algorithm}_summary.csv"
        write_summary_csv(os.path.join(spec.out_dir, summary_file), summary_rows)
        ld_file = f"{algorithm}_log_distance.csv"
        emit_log_distance(summary_rows, os.path.join(spec.out_dir, ld_file))
        files.extend((summary_file, ld_file))

    config = asdict(spec)
    for key, name in _FIELD_NAMES.items():
        config[key] = config.pop(name)
    config["algorithms"] = list(spec.algorithms)  # as json.load reads it back
    manifest = {
        "config": config,
        "files": sorted(files) + ["manifest.json"],
        "runs": [{key: v for key, v in m.items() if key != "columns"} for m in metas],
    }
    with open(os.path.join(spec.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _list_benchmarks() -> list[str]:
    lines = []
    for name in BENCHMARK_NAMES:
        dim = fixed_dim(name)
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
        try:
            path = diagnostics(args.out)
        except OSError as exc:
            print(f"config error: cannot write the report to {args.out}: {exc}", file=sys.stderr)
            return 2
        with open(path, encoding="utf-8") as fh:
            print(fh.read(), end="")
        print(f"report written to {path}")
        return 0

    # run
    try:
        raw = parse_config_file(args.config) if args.config else {}
        raw.update(_key_value(item, "--set expects KEY=VALUE") for item in args.set)
        spec = resolve_spec(raw)
        manifest = run_experiment(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in manifest["runs"] if r["status"] != "ok"]
    n_ok = len(manifest["runs"]) - len(failed)
    print(
        f"{n_ok}/{len(manifest['runs'])} runs ok; outputs in {spec.out_dir}"
    )
    for r in failed:
        print(
            f"  {r['algorithm']} repeat {r['repeat']}: {r['status']} ({r['error']})",
            file=sys.stderr,
        )
    return 3 if failed else 0
