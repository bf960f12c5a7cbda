"""One benchmark process: imports hubo, runs one plan entry, reports.

Usage: python3 bench/child.py PROCESS_DIR

PROCESS_DIR holds `plan.json` (written by run.py).  The process installs the
hooks of hooks.py, runs the entry (one `driver.run` for a driver workload,
one `hubo run` for the CLI workload), writes the trace CSVs into
PROCESS_DIR/out, then records what the correctness checks need in
`result.json`.  Everything after the timed operation is outside the timing.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_started = perf_counter()
import numpy as np  # noqa: E402

from hubo import benchmarks, cli, driver, gp  # noqa: E402
from hubo.acquisition import BetaSchedule, MaximizerConfig  # noqa: E402
from hubo.cubes import HdConfig  # noqa: E402

IMPORT_S = perf_counter() - _started

import checks  # noqa: E402
import hooks  # noqa: E402
from workloads import COMMON, WORKLOADS  # noqa: E402

# Query points for the posterior oracle check, drawn inside the final box.
_N_QUERY = 16


def run_config(wl: dict, seed: int, budget: int, ispace) -> driver.RunConfig:
    """The RunConfig `hubo run` builds for these settings."""
    exp = ispace.to_expansion(COMMON["alpha"])
    l_h = COMMON["l_h_fraction"] * ispace.side
    sched = {"delta": COMMON["delta"], "dim": wl["dim"], "s1": COMMON["s1"],
             "s2": COMMON["s2"]}
    if wl["algorithm"] == "hdhubo":
        beta = BetaSchedule(variant="hdhubo", l_h=l_h, **sched)
        hd = HdConfig(lam=wl["lam"], n0=wl["n0"], l_h=l_h)
    else:
        beta = BetaSchedule(variant="hubo", a=exp.a, b=exp.b,
                            alpha=COMMON["alpha"], **sched)
        hd = None
    return driver.RunConfig(
        expansion=exp,
        beta=beta,
        maximizer=MaximizerConfig(restarts=COMMON["restarts"],
                                  max_evals=COMMON["max_evals"]),
        budget_T=budget,
        n_init=driver.default_n_init(wl["dim"]),
        seed=seed,
        algorithm=wl["algorithm"],
        hd=hd,
        kernel_family=wl["kernel"],
    )


def geometry(wl: dict, seed: int) -> dict:
    bench = benchmarks.make_benchmark(wl["benchmark"], wl["dim"])
    ispace = benchmarks.initial_space(bench, COMMON["fraction"], seed)
    return {
        "a": ispace.a,
        "b": ispace.b,
        "x0_center": ispace.x0_center.tolist(),
        "c_min": ispace.c_min.tolist(),
        "c_max": ispace.c_max.tolist(),
        "domain_lower": bench.lower.tolist(),
        "domain_upper": bench.upper.tolist(),
    }


def run_driver_op(plan: dict, wl: dict, out_dir: str) -> dict:
    seed = plan["seed"]
    bench = benchmarks.make_benchmark(wl["benchmark"], wl["dim"])
    obj = driver.Objective.from_benchmark(bench, noise_std=wl["noise_std"])
    ispace = benchmarks.initial_space(bench, COMMON["fraction"], seed)
    cfg = run_config(wl, seed, plan["budget"], ispace)
    started = perf_counter()
    trace = driver.run(obj, cfg)
    driver.compute_regret(trace, obj)
    cli.write_trace_csv(os.path.join(out_dir, f"{cfg.algorithm}_r{seed:03d}.csv"),
                        trace)
    return {"op_s": perf_counter() - started, "ok": not trace.incomplete,
            "geometry": {str(seed): geometry(wl, seed)}}


def run_cli_op(plan: dict, wl: dict, out_dir: str, process_dir: str) -> dict:
    config = {
        "benchmark": wl["benchmark"],
        "algorithms": ",".join(plan["algorithms"]),
        "budget": str(plan["budget"]),
        "kernel": wl["kernel"],
        "noise_std": repr(wl["noise_std"]),
        "repeats": str(plan.get("repeats", wl["repeats"])),
        "seed": str(wl["seed"]),
        "workers": str(wl["workers"]),
        "fraction": repr(COMMON["fraction"]),
        "out_dir": out_dir,
    }
    path = os.path.join(process_dir, "experiment.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in config.items())
    code = cli.main(["run", "--config", path])
    if code not in (0, 3):  # 3: some runs failed, which the manifest records
        raise RuntimeError(f"hubo run exited with {code}")
    seeds = [wl["seed"] + r for r in range(int(config["repeats"]))]
    return {"geometry": {str(s): geometry(wl, s) for s in seeds}}


def final_fit(wl: dict, csv_path: str) -> dict:
    """Refit on the final dataset of one run and query the posterior."""
    rows = checks.read_trace(csv_path)
    side = rows[-1]["side"]
    data = gp.Dataset(np.array([r["x"] for r in rows]), np.array([r["y"] for r in rows]),
                      wl["dim"])
    model = gp.fit_mle(data, gp.FitConfig(side_length=side, family=wl["kernel"]))
    rng = np.random.default_rng(12345)
    centre = data.points[int(np.argmax(data.targets))]
    query = centre + rng.uniform(-0.5 * side, 0.5 * side, size=(_N_QUERY, wl["dim"]))
    state = gp.PosteriorState(model, data)
    means, variances = state.predict(query)
    return {
        "csv": os.path.basename(csv_path),
        "side": side,
        "lengthscale": model.kernel.lengthscale,
        "signal_variance": model.kernel.signal_variance,
        "noise_variance": model.noise_variance,
        "prior_mean": model.prior_mean,
        "jitter": state.jitter,
        "query": query.tolist(),
        "means": means.tolist(),
        "variances": variances.tolist(),
    }


def main() -> int:
    process_dir = sys.argv[1]
    with open(os.path.join(process_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    wl = WORKLOADS[plan["workload"]]
    out_dir = os.path.join(process_dir, "out")
    trace_dir = os.path.join(process_dir, "trace")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    rec = hooks.Recorder(trace_dir, plan["trace"])
    hooks.install(rec)

    if wl["kind"] == "driver":
        result = run_driver_op(plan, wl, out_dir)
    else:
        result = run_cli_op(plan, wl, out_dir, process_dir)
    rec.dump_layers()

    if plan["final_fit"]:
        name = "hubo_r000.csv" if wl["kind"] == "cli" else sorted(os.listdir(out_dir))[0]
        result["final"] = final_fit(wl, os.path.join(out_dir, name))
    result["import_s"] = IMPORT_S
    with open(os.path.join(process_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
