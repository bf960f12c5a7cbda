"""hubo's benchmark: one workload, timed from outside each layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every process it starts runs hubo from this checkout's `src/`, with BLAS
limited to one thread.  It first launches one warm-up and three set-up
probes (the workload's first entry cut to one BO step), then repeats whole
rounds of the workload until the next round would end after S seconds, and
always runs at least one.  The first round's outputs go through every check
of checks.py; later rounds must write byte-identical trace CSVs.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (operations, i.e. optimisation runs) and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer ones with
`--trace 1`.  README.md defines each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from time import perf_counter

import numpy as np

import checks
import hooks
from workloads import COMMON, WORKLOADS, operations_per_round, round_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for `end_to_end` and `per_layer`, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# One BLAS thread per process: on a 2-core host two pool workers then use
# both cores, and OpenBLAS's idle threads do not spin-wait against them.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run stays inside 180 s


class ChildFailed(Exception):
    """A benchmark process failed or ran out of the run's time."""


class Launcher:
    """Starts each benchmark process in its own directory and waits for it."""

    def __init__(self, run_dir: str, trace: bool):
        self.run_dir = run_dir
        self.trace = trace
        self.count = 0
        self.started = perf_counter()
        self.env = dict(os.environ, **CHILD_ENV, TMPDIR=run_dir)

    def launch(self, entry: dict, budget: int | None = None, final_fit: bool = False) -> dict:
        wl = WORKLOADS[entry["workload"]]
        pdir = os.path.join(self.run_dir, f"p{self.count:03d}")
        self.count += 1
        os.makedirs(pdir)
        plan = dict(entry, trace=self.trace, final_fit=final_fit,
                    budget=wl["budget"] if budget is None else budget)
        if budget is not None and wl["kind"] == "cli":
            plan["repeats"] = 1
        with open(os.path.join(pdir, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        timeout = DEADLINE_S - (perf_counter() - self.started)
        if timeout <= 0:
            raise ChildFailed("no time left in the run")
        with open(os.path.join(pdir, "log.txt"), "w", encoding="utf-8") as log:
            spawned = time.time()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), pdir],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,  # a timeout kills the pool workers too
            )
            try:
                proc.wait(timeout)
            except BaseException as exc:  # a timeout or an interrupt ends the group
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise ChildFailed(f"{entry} ran out of the run's {DEADLINE_S:.0f} s") from None
                raise
        if proc.returncode != 0 or not os.path.exists(os.path.join(pdir, "result.json")):
            with open(os.path.join(pdir, "log.txt"), encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise ChildFailed(f"{entry} exited with {proc.returncode}:\n{tail}")
        with open(os.path.join(pdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        runs, layers = hooks.read_trace_dir(os.path.join(pdir, "trace"))
        result.update(dir=pdir, runs=runs, layers=layers)
        if runs:
            first_step = min(r["stamps"][r["n_init"] - 1] for r in runs)
            result["setup_s"] = first_step - spawned
        return result


def step_ms(runs: list[dict]) -> list[float]:
    """Wall time between consecutive objective calls of the BO steps."""
    out = []
    for r in runs:
        stamps = r["stamps"][r["n_init"] - 1:]
        out.extend(1e3 * (b - a) for a, b in zip(stamps, stamps[1:]))
    return out


def csv_digests(results: list[dict]) -> dict[str, str]:
    digests = {}
    for res in results:
        out = os.path.join(res["dir"], "out")
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_round(launcher: Launcher, name: str, seed: int, final_fit: bool) -> dict:
    wl = WORKLOADS[name]
    results, failed = [], 0
    for entry in round_plan(name, seed):
        canonical = wl["kind"] == "cli" or entry["seed"] == wl["seeds"][0]
        try:
            results.append(launcher.launch(entry, final_fit=final_fit and canonical))
        except ChildFailed as exc:
            print(f"operation failed: {exc}", file=sys.stderr)
            failed += 1 if wl["kind"] == "driver" else operations_per_round(name)
            continue
        if wl["kind"] == "driver" and not results[-1]["ok"]:
            failed += 1
    if wl["kind"] == "cli" and results:
        manifest = _manifest(results[0])
        failed += sum(1 for r in manifest["runs"] if r["status"] != "ok")
    return {"results": results, "failed": failed}


def _manifest(result: dict) -> dict:
    with open(os.path.join(result["dir"], "out", "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_round(rnd: dict) -> dict:
    """The trace rows, input geometry and searched cubes of one round."""
    loaded = {"geometry": {}, "cubes": {}, "traces": {}}
    for res in rnd["results"]:
        loaded["geometry"].update(res["geometry"])
        for run in res["runs"]:
            loaded["cubes"][(run["algorithm"], run["seed"])] = run["cubes"]
        out = os.path.join(res["dir"], "out")
        for file in sorted(os.listdir(out)):
            if file.endswith(".csv") and "_r" in file:
                algo, rep = file[:-4].rsplit("_r", 1)
                path = os.path.join(out, file)
                loaded["traces"][(algo, int(rep))] = (path, checks.read_trace(path))
    return loaded


def round_quality(loaded: dict) -> dict:
    """R_T and the final gap hubo reports, over the round's BO runs."""
    finals = [rows[-1] for (algo, _), (_, rows) in loaded["traces"].items()
              if algo != "random"]
    return {
        "cum_regret": statistics.fmean(row["R_t"] for row in finals),
        "best_gap": 10.0 ** statistics.fmean(row["log_dist"] for row in finals),
    }


def check_round(name: str, rnd: dict, loaded: dict) -> None:
    """Every check of checks.py on one round; raises CheckError."""
    wl = WORKLOADS[name]
    for geo in loaded["geometry"].values():
        checks.check_geometry(geo, COMMON["fraction"])
    hd = {"lam": wl["lam"], "n0": wl["n0"]} if "lam" in wl else None
    residuals = []
    for (algo, rep), (_, rows) in sorted(loaded["traces"].items()):
        seed = rep + wl.get("seed", 0)
        stats = checks.check_trace(
            rows, algorithm=algo, benchmark=wl["benchmark"], budget=wl["budget"],
            n_init=max(3, wl["dim"] + 1),  # hubo's default initial design
            geo=loaded["geometry"][str(seed)], alpha=COMMON["alpha"],
            noiseless=wl["noise_std"] == 0.0, hd=hd,
            cubes=loaded["cubes"].get((algo, seed)),
        )
        residuals.extend(stats["residuals"])
    if wl["noise_std"] > 0.0:
        checks.check_noise(residuals, wl["noise_std"])
    if wl["kind"] == "cli":
        res = rnd["results"][0]
        checks.check_cli_outputs(
            os.path.join(res["dir"], "out"), _manifest(res), wl["algorithms"],
            wl["repeats"], {key: rows for key, (_, rows) in loaded["traces"].items()},
        )
    finals = [res["final"] for res in rnd["results"] if "final" in res]
    if not finals:
        raise checks.CheckError("no round entry refitted its final dataset")
    for final in finals:
        rows = next((rows for path, rows in loaded["traces"].values()
                     if os.path.basename(path) == final["csv"]), None)
        if rows is None:
            raise checks.CheckError(f"the refitted trace {final['csv']} is missing")
        X = np.array([r["x"] for r in rows])
        y = np.array([r["y"] for r in rows])
        checks.check_final_fit(final, X, y, wl["kernel"])


def round_run_s(name: str, rnd: dict) -> float:
    if WORKLOADS[name]["kind"] == "cli":
        return rnd["results"][0]["layers"]["busy"]["cli.run_experiment"]
    return math.fsum(res["op_s"] for res in rnd["results"])


def layer_metrics(name: str, rnd: dict) -> dict:
    """The per-layer metrics of one traced round."""
    calls, busy, amount = ({} for _ in range(3))
    for res in rnd["results"]:
        for table, part in ((calls, "calls"), (busy, "busy"), (amount, "amount")):
            for key, value in res["layers"][part].items():
                table[key] = table.get(key, 0) + value

    def c(key):
        return calls.get(key, 0)

    def b(key):
        return busy.get(key, 0.0)

    wl = WORKLOADS[name]
    in_run = ("gp.fit_mle", "acquisition.maximize", "space.region",
              "cubes.sample_cubes", "cubes.membership", "objective.in_run")
    task_s = run_exp_s = 0.0
    if wl["kind"] == "cli":
        task_s = math.fsum(r["duration_s"] for r in _manifest(rnd["results"][0])["runs"])
        run_exp_s = b("cli.run_experiment")
    return {
        "gp.fit_mle.calls": c("gp.fit_mle"),
        "gp.fit_mle.busy_s": b("gp.fit_mle"),
        "gp.eigh.calls": c("gp.eigh"),
        "gp.eigh.busy_s": b("gp.eigh"),
        "gp.cholesky.calls": c("gp.cholesky"),
        "gp.predict.calls": c("gp.predict"),
        "gp.predict.rows": amount.get("gp.predict", 0),
        "gp.predict.rows_per_call": amount.get("gp.predict", 0) / max(1, c("gp.predict")),
        "gp.predict.busy_s": b("gp.predict"),
        "acquisition.maximize.calls": c("acquisition.maximize"),
        "acquisition.maximize.busy_s": b("acquisition.maximize"),
        "acquisition.maximize.self_s": b("acquisition.maximize") - b("gp.predict"),
        "acquisition.search_rect.calls": c("acquisition.search_rect"),
        "cubes.sample_cubes.busy_s": b("cubes.sample_cubes"),
        "cubes.membership.busy_s": b("cubes.membership"),
        "cubes.n_cubes.sum": amount.get("cubes.sample_cubes", 0),
        "space.region.busy_s": b("space.region"),
        "benchmarks.objective.calls": c("objective.in_run") + c("objective.other"),
        "benchmarks.objective.busy_s": b("objective.in_run") + b("objective.other"),
        "driver.run.self_s": b("driver.run") - math.fsum(b(k) for k in in_run),
        "driver.compute_regret.busy_s": b("driver.compute_regret"),
        "setup.import_s": statistics.median(res["import_s"] for res in rnd["results"]),
        "cli.write_trace_csv.busy_s": b("cli.write_trace_csv"),
        "cli.summary.busy_s": b("cli.summary"),
        "cli.task_s.sum": task_s,
        "cli.pool.utilization": task_s / (wl.get("workers", 1) * run_exp_s) if run_exp_s else 0.0,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    launcher = Launcher(run_dir, trace)
    first = round_plan(name, seed)[0]
    launcher.launch(first, budget=1)  # warm-up: bytecode and page caches
    setup = [] if trace else [
        launcher.launch(first, budget=1)["setup_s"] for _ in range(SETUP_PROBES)
    ]

    window = perf_counter()
    rounds = []
    while True:
        started = perf_counter()
        rounds.append(run_round(launcher, name, seed, final_fit=not rounds))
        took = perf_counter() - started
        if perf_counter() - window + took > seconds:
            break
    per_round = operations_per_round(name)
    failed = sum(r["failed"] for r in rounds)
    ok_rounds = [r for r in rounds if r["failed"] == 0 and r["results"]]
    if not ok_rounds:
        raise ChildFailed("no round completed")

    loaded = load_round(ok_rounds[0])
    quality = round_quality(loaded)
    correct = True
    try:
        check_round(name, ok_rounds[0], loaded)
        reference = csv_digests(ok_rounds[0]["results"])
        for rnd in ok_rounds[1:]:
            if csv_digests(rnd["results"]) != reference:
                raise checks.CheckError("a repeated round wrote different trace CSVs")
    except (checks.CheckError, KeyError, ValueError) as exc:
        print(f"correctness check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        correct = False

    run_s = [round_run_s(name, r) for r in ok_rounds]
    if trace:
        tables = [layer_metrics(name, r) for r in ok_rounds]
        metrics = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
        print(f"traced run_s per round: {run_s}", file=sys.stderr)
        units = declared_units()["per_layer"]
    else:
        setup += [res["setup_s"] for r in ok_rounds for res in r["results"]]
        steps = [s for r in ok_rounds for res in r["results"] for s in step_ms(res["runs"])]
        rss = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        units = declared_units()["end_to_end"]
        metrics = {
            "run_s": statistics.median(run_s),
            "step_ms.p50": statistics.median(steps),
            "step_ms.p90": statistics.quantiles(steps, n=10)[8],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss / 1024.0,
            "cum_regret": quality["cum_regret"],
            "best_gap": quality["best_gap"],
        }
        print(f"rounds: {len(rounds)}, run_s per round: {run_s}, "
              f"{len(steps)} steps, {len(setup)} set-up samples", file=sys.stderr)
    if set(metrics) != set(units):
        raise ChildFailed(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json")
    return {"correct": correct, "attempted": per_round * len(rounds), "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "hubo", "__init__.py")):
        print(f"no hubo sources under {ROOT}/src", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
