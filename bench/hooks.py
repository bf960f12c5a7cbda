"""Timing hooks installed around hubo's public functions, from outside hubo.

Two levels:

* always on, the cheap hooks the end-to-end metrics need: a wall-clock stamp
  at every objective call made inside `driver.run` (step times and the first
  BO step), the cube sets the hdhubo maximizer searched (for the membership
  check), and the wall time of `cli.run_experiment`;
* with tracing on, a span around every call into the layers named in
  README.md, counted and timed per process.

Each process writes what it recorded into `trace_dir`: one JSON line per BO
run in `steps-<pid>.jsonl`, and its cumulative layer totals in
`layers-<pid>.json`.  A forked pool worker starts from zero, so the files
of all processes add up without double counting.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Per-process layer totals; a forked child resets them on first use."""

    def __init__(self, trace_dir: str, traced: bool):
        self.trace_dir = trace_dir
        self.traced = traced
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.amount = defaultdict(int)
        self.in_run = False
        self.stamps: list[float] = []
        self.cubes: list[dict] = []

    def own(self) -> "Recorder":
        if os.getpid() != self.pid:
            self._reset()
        return self

    def add(self, name: str, seconds: float, amount: int = 0):
        self.calls[name] += 1
        self.busy[name] += seconds
        self.amount[name] += amount

    def dump_layers(self):
        rec = self.own()
        path = os.path.join(self.trace_dir, f"layers-{rec.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"calls": rec.calls, "busy": rec.busy, "amount": rec.amount}, fh
            )

    def dump_run(self, entry: dict):
        path = os.path.join(self.trace_dir, f"steps-{self.own().pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")


def cube_record(t: int, cube_set) -> dict:
    """What the membership check needs of the cubes searched at step t."""
    return {
        "t": t,
        "l_h": cube_set.l_h,
        "lower": cube_set.parent.lower.tolist(),
        "upper": cube_set.parent.upper.tolist(),
        "centers": cube_set.centers.tolist(),
    }


def _span(rec: Recorder, name: str, fn, amount=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
        rec.own().add(name, elapsed, amount(args, result) if amount else 0)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Patch hubo's module attributes; must run before any run starts."""
    from hubo import acquisition, benchmarks, cli, driver, gp

    traced = rec.traced

    objective = benchmarks.BenchmarkFunction.eval

    def eval_hook(self, x):
        r = rec.own()
        if r.in_run:
            r.stamps.append(time.time())
        if not traced:
            return objective(self, x)
        start = perf_counter()
        try:
            return objective(self, x)
        finally:
            r.add("objective.in_run" if r.in_run else "objective.other",
                  perf_counter() - start)

    benchmarks.BenchmarkFunction.eval = eval_hook

    run = driver.run

    @functools.wraps(run)
    def run_hook(obj, cfg):
        r = rec.own()
        r.in_run, r.stamps, r.cubes = True, [], []
        start = perf_counter()
        try:
            return run(obj, cfg)
        finally:
            if traced:
                r.add("driver.run", perf_counter() - start)
            r.in_run = False
            r.dump_run({
                "algorithm": cfg.algorithm,
                "seed": cfg.seed,
                "n_init": cfg.n_init,
                "stamps": r.stamps,
                "cubes": r.cubes,
            })

    driver.run = run_hook
    cli.run = run_hook

    sample_cubes = driver.sample_cubes

    def sample_cubes_hook(parent, t, cfg, rng):
        start = perf_counter()
        cube_set = sample_cubes(parent, t, cfg, rng)
        elapsed = perf_counter() - start
        r = rec.own()
        r.cubes.append(cube_record(t, cube_set))
        if traced:
            r.add("cubes.sample_cubes", elapsed, cube_set.n)
        return cube_set

    driver.sample_cubes = sample_cubes_hook

    run_experiment = cli.run_experiment

    @functools.wraps(run_experiment)
    def run_experiment_hook(spec):
        start = perf_counter()
        try:
            return run_experiment(spec)
        finally:
            rec.own().add("cli.run_experiment", perf_counter() - start)

    cli.run_experiment = run_experiment_hook

    if not traced:
        return

    write_trace_csv = cli.write_trace_csv

    @functools.wraps(write_trace_csv)
    def write_trace_csv_hook(path, trace):
        start = perf_counter()
        write_trace_csv(path, trace)
        rec.own().add("cli.write_trace_csv", perf_counter() - start)
        rec.dump_layers()  # the end of a task; pool workers leave no other hook

    cli.write_trace_csv = write_trace_csv_hook

    def rows(args, _result):
        return len(args[1])

    driver.fit_mle = _span(rec, "gp.fit_mle", driver.fit_mle)
    gp.eigh = _span(rec, "gp.eigh", gp.eigh)
    gp.cholesky = _span(rec, "gp.cholesky", gp.cholesky)
    gp.PosteriorState.predict = _span(
        rec, "gp.predict", gp.PosteriorState.predict, rows
    )
    driver.maximize_over_box = _span(
        rec, "acquisition.maximize", driver.maximize_over_box
    )
    driver.maximize_over_cubes = _span(
        rec, "acquisition.maximize", driver.maximize_over_cubes
    )
    acquisition._search_rect = _span(
        rec, "acquisition.search_rect", acquisition._search_rect
    )
    driver.membership = _span(rec, "cubes.membership", driver.membership)
    driver.expand = _span(rec, "space.region", driver.expand)
    driver.translate = _span(rec, "space.region", driver.translate)
    regret = _span(rec, "driver.compute_regret", driver.compute_regret)
    driver.compute_regret = regret
    cli.compute_regret = regret
    cli._summarize = _span(rec, "cli.summary", cli._summarize)
    cli.write_summary_csv = _span(rec, "cli.summary", cli.write_summary_csv)
    cli.emit_log_distance = _span(rec, "cli.summary", cli.emit_log_distance)


def read_trace_dir(trace_dir: str) -> tuple[list[dict], dict]:
    """Every BO run's step record, and the layer totals of all processes."""
    runs: list[dict] = []
    totals = {"calls": defaultdict(int), "busy": defaultdict(float),
              "amount": defaultdict(int)}
    for name in sorted(os.listdir(trace_dir)):
        path = os.path.join(trace_dir, name)
        if name.startswith("steps-"):
            with open(path, encoding="utf-8") as fh:
                runs.extend(json.loads(line) for line in fh if line.strip())
        elif name.startswith("layers-"):
            with open(path, encoding="utf-8") as fh:
                part = json.load(fh)
            for key, table in part.items():
                for metric, value in table.items():
                    totals[key][metric] += value
    return runs, totals
