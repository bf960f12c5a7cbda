"""Each correctness check of the benchmark rejects a corrupted output.

Run from the root of a checkout:  python3 -m pytest -q bench/test_checks.py

The valid outputs come from short real runs of hubo (a few BO steps), made
the way the benchmark makes them; every test corrupts one field and expects
the check that guards it to raise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import child  # noqa: E402  (puts the checkout's src/ on sys.path)
import hooks  # noqa: E402
from workloads import COMMON, WORKLOADS  # noqa: E402

from hubo import benchmarks, cli, driver  # noqa: E402

CheckError = checks.CheckError


def _driver_run(out_dir, name, algorithm, dim, budget):
    """A short run of a driver workload's set-up; returns what the checks need."""
    wl = dict(WORKLOADS[name], algorithm=algorithm, dim=dim, budget=budget)
    bench = benchmarks.make_benchmark(wl["benchmark"], dim)
    obj = driver.Objective.from_benchmark(bench)
    ispace = benchmarks.initial_space(bench, COMMON["fraction"], 3)
    cubes = []
    sample_cubes = driver.sample_cubes

    def capture(parent, t, cfg, rng):
        cube_set = sample_cubes(parent, t, cfg, rng)
        cubes.append(hooks.cube_record(t, cube_set))
        return cube_set

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "sample_cubes", capture)
        trace = driver.run(obj, child.run_config(wl, 3, budget, ispace))
    driver.compute_regret(trace, obj)
    path = os.path.join(out_dir, f"{algorithm}_r003.csv")
    cli.write_trace_csv(path, trace)
    kwargs = dict(algorithm=algorithm, benchmark=wl["benchmark"], budget=budget,
                  n_init=driver.default_n_init(dim), geo=child.geometry(wl, 3),
                  alpha=COMMON["alpha"], noiseless=True,
                  hd={"lam": wl.get("lam", 1.0), "n0": wl.get("n0", 1)}, cubes=cubes)
    return {"path": path, "wl": wl, "kwargs": kwargs}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("driver"))
    return {
        "hubo": _driver_run(out, "hubo-ackley2-t150", "hubo", 2, 8),
        "vol2": _driver_run(out, "hubo-ackley2-t150", "vol2", 2, 8),
        "hdhubo": _driver_run(out, "hdhubo-ackley10-t100", "hdhubo", 3, 6),
    }


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli"))
    wl = WORKLOADS["cli-hartmann6-mixed"]
    spec = cli.resolve_spec({
        "benchmark": wl["benchmark"], "algorithms": ",".join(wl["algorithms"]),
        "budget": "4", "kernel": wl["kernel"], "noise_std": str(wl["noise_std"]),
        "repeats": "2", "workers": "1", "out_dir": out,
    })
    manifest = cli.run_experiment(spec)
    traces = {(a, r): checks.read_trace(os.path.join(out, f"{a}_r{r:03d}.csv"))
              for a in wl["algorithms"] for r in range(2)}
    geo = {r: child.geometry(wl, r) for r in range(2)}
    return {"out": out, "manifest": manifest, "traces": traces, "geo": geo, "wl": wl}


def _check(run, rows=None, **overrides):
    kwargs = dict(run["kwargs"], **overrides)
    if rows is None:
        rows = checks.read_trace(run["path"])
    return checks.check_trace(rows, **kwargs)


def test_valid_driver_traces_pass(runs):
    for run in runs.values():
        stats = _check(run)
        assert stats["R_T"] > 0.0 and stats["gap"] > 0.0
        checks.check_geometry(run["kwargs"]["geo"], COMMON["fraction"])


def _bump(field, row, delta):
    def corrupt(rows):
        rows[row][field] += delta
    return corrupt


@pytest.mark.parametrize("algorithm, corrupt, message", [
    ("hubo", _bump("y", 5, 1e-6), "y at row 5"),
    ("hubo", _bump("best_y", 4, 1.0), "running maximum"),
    ("hubo", _bump("r_t", 6, 1e-6), "r_t is not one optimum"),
    ("hubo", _bump("R_t", 9, 1e-3), "R_t at t=7"),
    ("hubo", _bump("side", 10, 1e-9), "box side at t=8"),
    ("hubo", _bump("log_dist", 10, 1e-3), "log_dist"),
    ("hubo", lambda rows: rows.pop(), "t column"),
    ("vol2", _bump("side", 7, 1e-9), "box side at t=5"),
    ("hdhubo", _bump("n_cubes", 6, 1), "n_cubes at t=3"),
])
def test_trace_check_rejects(runs, algorithm, corrupt, message):
    rows = checks.read_trace(runs[algorithm]["path"])
    corrupt(rows)
    with pytest.raises(CheckError, match=message):
        _check(runs[algorithm], rows)


def test_trace_check_rejects_edited_csv(runs, tmp_path):
    path = tmp_path / "edited.csv"
    lines = open(runs["hubo"]["path"], encoding="utf-8").read().splitlines()
    cells = lines[4].split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckError, match="y at row 3"):
        _check(runs["hubo"], checks.read_trace(str(path)))


def test_trace_check_rejects_point_outside_its_region(runs):
    geo = copy.deepcopy(runs["hubo"]["kwargs"]["geo"])
    geo["x0_center"] = [v + 2.0 * (geo["b"] - geo["a"]) for v in geo["x0_center"]]
    with pytest.raises(CheckError, match="initial point 0 lies outside X0"):
        _check(runs["hubo"], geo=geo)
    geo = copy.deepcopy(runs["hubo"]["kwargs"]["geo"])
    geo["c_max"] = [lo + 1e-9 for lo in geo["c_min"]]  # pins every box centre
    with pytest.raises(CheckError, match="outside its search box"):
        _check(runs["hubo"], geo=geo)


def test_trace_check_rejects_point_outside_its_cubes(runs):
    cubes = copy.deepcopy(runs["hdhubo"]["kwargs"]["cubes"])
    far = np.array(cubes[2]["centers"]) + 10.0 * cubes[2]["l_h"]
    cubes[2]["centers"] = far.tolist()
    with pytest.raises(CheckError, match="x at t=3 lies in none of its cubes"):
        _check(runs["hdhubo"], cubes=cubes)
    cubes = copy.deepcopy(runs["hdhubo"]["kwargs"]["cubes"])
    cubes[3]["centers"].pop()
    with pytest.raises(CheckError, match="searched 3 cubes at t=4"):
        _check(runs["hdhubo"], cubes=cubes)


def test_random_search_rejects_point_outside_c_initial(cli_run):
    geo = copy.deepcopy(cli_run["geo"][0])
    geo["c_min"] = [v + 0.5 * (hi - v) for v, hi in zip(geo["c_min"], geo["c_max"])]
    with pytest.raises(CheckError, match="outside C_initial"):
        checks.check_trace(cli_run["traces"][("random", 0)], algorithm="random",
                           benchmark="hartmann6", budget=4, n_init=7, geo=geo,
                           alpha=COMMON["alpha"], noiseless=False)


def test_geometry_check_rejects_wrong_c_initial(runs):
    geo = copy.deepcopy(runs["hubo"]["kwargs"]["geo"])
    geo["c_min"][0] -= 1.0
    with pytest.raises(CheckError, match="C_initial"):
        checks.check_geometry(geo, COMMON["fraction"])


def test_cube_count_is_exact_integer_arithmetic():
    assert [checks.cubes_at(t, 1.0, 1) for t in (1, 2, 100)] == [1, 2, 100]
    assert [checks.cubes_at(t, 0.5, 2) for t in (1, 4, 5, 9, 10)] == [2, 4, 6, 6, 8]
    assert checks.cubes_at(8, 1.0 / 3.0, 1) == 2 and checks.cubes_at(9, 1.0 / 3.0, 1) == 3


def test_noise_check():
    rng = np.random.default_rng(0)
    checks.check_noise(list(rng.normal(0.0, 0.01, 500)), 0.01)
    with pytest.raises(CheckError, match="noise residuals"):
        checks.check_noise(list(rng.normal(0.0, 0.02, 500)), 0.01)
    with pytest.raises(CheckError, match="noise residuals"):
        checks.check_noise(list(rng.normal(0.005, 0.01, 500)), 0.01)


def _cli_check(cli_run, out=None, manifest=None):
    checks.check_cli_outputs(out or cli_run["out"], manifest or cli_run["manifest"],
                             cli_run["wl"]["algorithms"], 2, cli_run["traces"])


def test_valid_cli_outputs_pass(cli_run):
    _cli_check(cli_run)
    for (algo, rep), rows in cli_run["traces"].items():
        checks.check_trace(rows, algorithm=algo, benchmark="hartmann6", budget=4,
                           n_init=7, geo=cli_run["geo"][rep], alpha=COMMON["alpha"],
                           noiseless=False)


def test_cli_check_rejects_manifest_file_list(cli_run, tmp_path):
    manifest = copy.deepcopy(cli_run["manifest"])
    manifest["files"].append("ghost.csv")
    with pytest.raises(CheckError, match="manifest lists"):
        _cli_check(cli_run, manifest=manifest)
    out = str(tmp_path / "out")
    shutil.copytree(cli_run["out"], out)
    open(os.path.join(out, "stray.csv"), "w").close()
    with pytest.raises(CheckError, match="manifest lists"):
        _cli_check(cli_run, out=out)


def test_cli_check_rejects_failed_or_missing_run(cli_run):
    manifest = copy.deepcopy(cli_run["manifest"])
    manifest["runs"][1]["status"] = "incomplete"
    with pytest.raises(CheckError, match="has status incomplete"):
        _cli_check(cli_run, manifest=manifest)
    manifest = copy.deepcopy(cli_run["manifest"])
    manifest["runs"].pop()
    with pytest.raises(CheckError, match="every .algorithm, repeat. pair"):
        _cli_check(cli_run, manifest=manifest)


@pytest.mark.parametrize("file, column, message", [
    ("vol2_summary.csv", 1, "best_y statistics"),
    ("hubo_summary.csv", 4, "mean_log_dist"),
    ("random_log_distance.csv", 1, "does not repeat the summary"),
])
def test_cli_check_rejects_edited_summary(cli_run, tmp_path, file, column, message):
    out = str(tmp_path / "out")
    shutil.copytree(cli_run["out"], out)
    path = os.path.join(out, file)
    lines = open(path, encoding="utf-8").read().splitlines()
    cells = lines[3].split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6))
    lines[3] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match=message):
        _cli_check(cli_run, out=out)


@pytest.fixture(scope="module")
def final(runs):
    run = runs["hubo"]
    rows = checks.read_trace(run["path"])
    X = np.array([r["x"] for r in rows])
    y = np.array([r["y"] for r in rows])
    return child.final_fit(run["wl"], run["path"]), X, y


def test_final_fit_passes(final):
    fit, X, y = final
    checks.check_final_fit(fit, X, y, "se")


@pytest.mark.parametrize("field, value, message", [
    ("lengthscale", "low", "below the grid"),
    ("noise_variance", 1e9, "outside"),
    ("prior_mean", 0.5, "prior mean"),
    ("means", 1e-3, "means disagree"),
    ("variances", 1e-3, "variances disagree"),
])
def test_final_fit_check_rejects(final, field, value, message):
    fit, X, y = final
    fit = json.loads(json.dumps(fit))
    if value == "low":  # the smallest lengthscale the ranges allow: a poor fit
        fit["lengthscale"] = 1e-2 * fit["side"]
    elif field == "means":
        fit[field][0] += value * (1.0 + float(np.max(np.abs(y - np.mean(y)))))
    elif field == "variances":
        fit[field][0] += value * fit["signal_variance"]
    else:
        fit[field] += value
    with pytest.raises(CheckError, match=message):
        checks.check_final_fit(fit, X, y, "se")
