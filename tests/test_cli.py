"""Tests for the command-line harness: config handling, CSV emission,
manifest contents, exit codes, and the diagnostics report."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubo import cli, gp
from hubo.cli import (
    ConfigError,
    parse_config_file,
    resolve_spec,
    run_experiment,
)


def fast_spec(tmp_path, **overrides):
    raw = {
        "benchmark": "beale",
        "algorithms": "hubo,random",
        "budget": "3",
        "repeats": "2",
        "n_init": "3",
        "restarts": "5",
        "max_evals": "100",
        "out_dir": str(tmp_path / "out"),
    }
    raw.update({k: str(v) for k, v in overrides.items()})
    return resolve_spec(raw)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# parse_config_file
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment\n"
        "benchmark = beale\n"
        "\n"
        "budget=10   # explicit iteration count\n"
        "seed = 7\n"
    )
    raw = parse_config_file(str(cfg))
    assert raw == {"benchmark": "beale", "budget": "10", "seed": "7"}


def test_parse_config_file_reports_line_number(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("benchmark = beale\nthis is not a pair\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_file(str(cfg))


def test_file_and_set_strip_comments_by_one_rule(tmp_path, monkeypatch):
    # '#' starts a comment only at the start or after whitespace, in a config
    # file and in --set alike; a '#' inside a path is part of the value
    seen = []

    def capture(raw):
        seen.append(raw)
        raise ConfigError("stop")

    monkeypatch.setattr(cli, "resolve_spec", capture)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("out_dir = /tmp/run#1\nbudget = 7 # note\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert cli.main(["run", "--set", "out_dir=/tmp/run#1", "--set", "budget=7 # note"]) == 2
    assert seen == [{"out_dir": "/tmp/run#1", "budget": "7"}] * 2
    # and a run writes into the directory whose name keeps the '#'
    monkeypatch.undo()
    by_file, by_set = tmp_path / "hash#file", tmp_path / "hash#set"
    cfg.write_text("benchmark = beale\nalgorithms = random # no fit\nbudget = 1\n"
                   f"repeats = 1\nout_dir = {by_file}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert cli.main(["run", "--set", "benchmark=beale", "--set", "algorithms=random",
                     "--set", "budget=1", "--set", "repeats=1", "--set", f"out_dir={by_set}"]) == 0
    for out_dir in (by_file, by_set):
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["out_dir"] == str(out_dir)


def test_config_file_with_utf8_bom_resolves_like_one_without(tmp_path):
    out_dir = tmp_path / "out"
    text = f"benchmark = beale\nalgorithms = random\nbudget = 1\nrepeats = 1\nout_dir = {out_dir}\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config_file(str(bom)) == parse_config_file(str(plain))
    assert resolve_spec(parse_config_file(str(bom))) == resolve_spec(parse_config_file(str(plain)))
    assert cli.main(["run", "--config", str(bom)]) == 0
    assert (out_dir / "manifest.json").exists()


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "nope.cfg"))


# ---------------------------------------------------------------------------
# resolve_spec
# ---------------------------------------------------------------------------


def test_resolve_spec_materializes_defaults():
    spec = resolve_spec({"benchmark": "beale"})
    assert spec.benchmark == "beale"
    assert spec.dim == 2
    assert spec.algorithms == ("hubo",)
    assert spec.alpha == -1.0
    assert spec.lam == 1.0
    assert spec.budget == "30d"
    assert spec.budget_T == 60
    assert spec.repeats == 15
    assert spec.n_init == 3  # max(3, d+1) with d=2
    assert spec.l_h == 0.1 * (0.2 * 9.0)  # 10% of X0's side: fraction 0.2 of Beale's 9
    assert spec.kernel_family == "se"
    assert spec.workers == 1


def test_each_config_key_is_one_experiment_spec_field():
    # (config key, default text) in resolution order; budget_T follows budget
    keys = [(f.metadata["key"] or f.name, f.metadata["default"])
            for f in fields(cli.ExperimentSpec) if f.metadata]
    assert keys == [
        ("benchmark", ""), ("dim", ""), ("algorithms", "hubo"), ("alpha", "-1"),
        ("lambda", "1.0"), ("n0", "1"), ("delta", "0.1"), ("s1", "1.0"), ("s2", "1.0"),
        ("fraction", "0.2"), ("l_h", ""), ("budget", "30d"), ("repeats", "15"),
        ("seed", "0"), ("noise_std", "0"), ("restarts", "20"), ("max_evals", "1000"),
        ("n_init", ""), ("kernel", "se"), ("workers", "1"), ("out_dir", "results"),
    ]
    assert [f.name for f in fields(cli.ExperimentSpec) if not f.metadata] == ["budget_T"]
    assert cli._FIELD_NAMES == {"lambda": "lam", "kernel": "kernel_family"}


def test_resolve_spec_budget_rules():
    assert resolve_spec({"benchmark": "hartmann6"}).budget_T == 180  # 30d
    assert (
        resolve_spec({"benchmark": "hartmann6", "budget": "10d"}).budget_T == 60
    )
    assert resolve_spec({"benchmark": "beale", "budget": "25"}).budget_T == 25
    with pytest.raises(ConfigError, match="budget"):
        resolve_spec({"benchmark": "beale", "budget": "sometimes"})
    with pytest.raises(ConfigError, match="budget"):
        resolve_spec({"benchmark": "beale", "budget": "-3"})


def test_resolve_spec_n_init_default_follows_dim():
    assert resolve_spec({"benchmark": "hartmann6"}).n_init == 7


def test_resolve_spec_field_errors():
    with pytest.raises(ConfigError, match="benchmark"):
        resolve_spec({})
    with pytest.raises(ConfigError, match="benchmark"):
        resolve_spec({"benchmark": "rosenbrock"})
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_spec({"benchmark": "beale", "bugdet": "10"})
    with pytest.raises(ConfigError, match="dim"):
        resolve_spec({"benchmark": "ackley"})
    with pytest.raises(ConfigError, match="dim"):
        resolve_spec({"benchmark": "beale", "dim": "3"})
    with pytest.raises(ConfigError, match="alpha"):
        resolve_spec({"benchmark": "beale", "alpha": "0.5"})
    with pytest.raises(ConfigError, match="algorithms"):
        resolve_spec({"benchmark": "beale", "algorithms": "hubo,hubo"})
    with pytest.raises(ConfigError, match="algorithms"):
        resolve_spec({"benchmark": "beale", "algorithms": "sgd"})
    with pytest.raises(ConfigError, match="max_evals"):
        resolve_spec(
            {"benchmark": "beale", "restarts": "50", "max_evals": "10"}
        )
    with pytest.raises(ConfigError, match="repeats"):
        resolve_spec({"benchmark": "beale", "repeats": "0"})
    with pytest.raises(ConfigError, match="fraction"):
        resolve_spec({"benchmark": "beale", "fraction": "0"})
    with pytest.raises(ConfigError, match="kernel"):
        resolve_spec({"benchmark": "beale", "kernel": "rbf"})
    with pytest.raises(ConfigError, match="must be an integer"):
        resolve_spec({"benchmark": "beale", "seed": "x"})
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        resolve_spec({"benchmark": "beale", "seed": "-1"})


_NAMES = "('beale', 'hartmann3', 'hartmann6', 'ackley', 'levy')"
_ALGOS = "('hubo', 'hdhubo', 'vol2', 'random')"


@pytest.mark.parametrize(
    "raw, message",
    [
        ({}, "benchmark is required"),
        ({"benchmark": ""}, "benchmark is required"),
        ({"benchmark": "rosenbrock"}, f"benchmark must be one of {_NAMES}, got 'rosenbrock'"),
        ({"benchmark": "beale", "bugdet": "10"}, "unknown config key 'bugdet'"),
        ({"bugdet": "10"}, "unknown config key 'bugdet'"),
        ({"benchmark": "beale", "budget_T": "5"}, "unknown config key 'budget_T'"),
        ({"benchmark": "ackley"}, "dim is required for benchmark 'ackley'"),
        ({"benchmark": "levy", "dim": "x"}, "dim must be an integer, got 'x'"),
        ({"benchmark": "levy", "dim": "0"}, "dim must be >= 1, got 0"),
        ({"benchmark": "beale", "dim": "3"}, "benchmark 'beale' is 2-dimensional, got dim=3"),
        ({"benchmark": "hartmann6", "dim": "0"}, "dim must be >= 1, got 0"),
        ({"benchmark": "beale", "algorithms": " , "},
         "algorithms must name at least one algorithm"),
        ({"benchmark": "beale", "algorithms": "hubo,sgd"},
         f"algorithms must be one of {_ALGOS}, got 'sgd'"),
        ({"benchmark": "beale", "algorithms": "hubo,hubo"}, "algorithms contains duplicates"),
        ({"benchmark": "beale", "algorithms": "hubo,hubo,sgd"},
         f"algorithms must be one of {_ALGOS}, got 'sgd'"),
        ({"benchmark": "beale", "alpha": "x"}, "alpha must be a number, got 'x'"),
        ({"benchmark": "beale", "alpha": "nan"}, "alpha must lie in [-1, 0), got nan"),
        ({"benchmark": "beale", "alpha": "0"}, "alpha must lie in [-1, 0), got 0.0"),
        ({"benchmark": "beale", "alpha": "-1.5"}, "alpha must lie in [-1, 0), got -1.5"),
        ({"benchmark": "beale", "lambda": "-0.1"}, "lambda must be >= 0, got -0.1"),
        ({"benchmark": "beale", "lambda": "inf"}, "lambda must be finite, got inf"),
        ({"benchmark": "beale", "n0": "0"}, "n0 must be >= 1, got 0"),
        ({"benchmark": "beale", "n0": "1.5"}, "n0 must be an integer, got '1.5'"),
        ({"benchmark": "beale", "l_h": "0"}, "l_h must be > 0, got 0.0"),
        ({"benchmark": "beale", "l_h": "-inf"}, "l_h must be > 0, got -inf"),
        ({"benchmark": "beale", "delta": "1"}, "delta must lie in (0, 1), got 1.0"),
        ({"benchmark": "beale", "delta": "x"}, "delta must be a number, got 'x'"),
        ({"benchmark": "beale", "s1": "0"}, "s1 must be > 0, got 0.0"),
        ({"benchmark": "beale", "s2": "-1"}, "s2 must be > 0, got -1.0"),
        ({"benchmark": "beale", "s1": "x"}, "s1 must be a number, got 'x'"),
        # every key parses before any run is built
        ({"benchmark": "beale", "s1": "-1", "s2": "x"}, "s2 must be a number, got 'x'"),
        ({"benchmark": "beale", "fraction": "0"}, "fraction must lie in (0, 1], got 0.0"),
        ({"benchmark": "beale", "fraction": "1.5"}, "fraction must lie in (0, 1], got 1.5"),
        ({"benchmark": "beale", "budget": " Sometimes "},
         "budget must be 30d, 10d, or an integer, got 'sometimes'"),
        ({"benchmark": "beale", "budget": "-3"}, "budget must be >= 0, got -3"),
        ({"benchmark": "beale", "repeats": "0"}, "repeats must be >= 1, got 0"),
        ({"benchmark": "beale", "seed": "x"}, "seed must be an integer, got 'x'"),
        ({"benchmark": "beale", "seed": "-1"}, "seed must be >= 0, got -1"),
        ({"benchmark": "beale", "noise_std": "-0.1"}, "noise_std must be >= 0, got -0.1"),
        ({"benchmark": "beale", "noise_std": "inf"}, "noise_std must be finite, got inf"),
        ({"benchmark": "beale", "restarts": "0"}, "restarts must be >= 1, got 0"),
        ({"benchmark": "beale", "restarts": "50", "max_evals": "10"},
         "max_evals (10) must be >= restarts (50)"),
        ({"benchmark": "beale", "max_evals": "10", "restarts": "x"},
         "restarts must be an integer, got 'x'"),
        ({"benchmark": "beale", "max_evals": "x"}, "max_evals must be an integer, got 'x'"),
        ({"benchmark": "beale", "n_init": "1"}, "n_init must be >= 2, got 1"),
        ({"benchmark": "beale", "n_init": "x"}, "n_init must be an integer, got 'x'"),
        ({"benchmark": "beale", "kernel": "rbf"},
         "kernel must be one of ('se', 'matern52'), got 'rbf'"),
        ({"benchmark": "beale", "workers": "0"}, "workers must be >= 1, got 0"),
        ({"benchmark": "beale", "out_dir": ""}, "out_dir must not be empty"),
        # of two bad keys, the one resolved first is reported, and the
        # table's rules come before those a run's build checks
        ({"benchmark": "beale", "workers": "0", "alpha": "0"}, "workers must be >= 1, got 0"),
        ({"workers": "0", "benchmark": "nope"},
         f"benchmark must be one of {_NAMES}, got 'nope'"),
        # beta_t's tail needs k * dim * s1 > delta: k = 4 for hubo and vol2, 6 for hdhubo
        ({"benchmark": "beale", "s1": "0.01", "delta": "0.5"},
         "s1 must be > delta / (4 * dim), got 0.01"),
        ({"benchmark": "beale", "algorithms": "random,vol2", "s1": "0.05", "delta": "0.5"},
         "s1 must be > delta / (4 * dim), got 0.05"),
        ({"benchmark": "beale", "algorithms": "hdhubo", "s1": "0.04", "delta": "0.5"},
         "s1 must be > delta / (6 * dim), got 0.04"),
        # hdhubo's repeat 0 is built for every config, random-only ones too
        ({"benchmark": "beale", "algorithms": "random", "s1": "0.04", "delta": "0.5"},
         "s1 must be > delta / (6 * dim), got 0.04"),
        ({"benchmark": "beale", "algorithms": "hubo,random", "fraction": "1e-300"},
         "fraction 1e-300 gives C_initial no width at its center"),
        ({"benchmark": "beale", "algorithms": "random", "lambda": "-1"},
         "lambda must be >= 0, got -1.0"),
        # hdhubo's cube count N_T = n0 * ceil(T**lambda) is capped at
        # MAX_CUBE_VALUES / dim, also when T**lambda overflows float64
        ({"benchmark": "beale", "lambda": "40"},
         "lambda must keep N_T * dim <= 16777216 at budget_T=60, got 40.0"),
        ({"benchmark": "beale", "algorithms": "random", "lambda": "1e300"},
         "lambda must keep N_T * dim <= 16777216 at budget_T=60, got 1e+300"),
        # at the defaults N_T * dim = 30 * dim**2 first passes the cap at dim 748
        ({"benchmark": "ackley", "dim": "748"},
         "lambda must keep N_T * dim <= 16777216 at budget_T=22440, got 1.0"),
        # the benchmark name is checked before the dim text
        ({"benchmark": "sphere", "dim": "x"}, f"benchmark must be one of {_NAMES}, got 'sphere'"),
    ],
)
def test_resolve_spec_error_message(raw, message):
    with pytest.raises(ConfigError) as info:
        resolve_spec(raw)
    assert str(info.value) == message


# Per key, text a config file may hold: valid values, values at the edge of
# float64 and values past a library rule.  An absent key takes its default.
HOSTILE_TEXT = {
    "dim": ["", "1", "2", "3"],
    "algorithms": ["hubo", "hdhubo", "vol2", "random", "hubo,random", "random,vol2",
                   "hdhubo,random", "hubo,hdhubo,vol2,random", "HUBO,Random"],
    "alpha": ["-1", "-0.5", "-1e-300", "0"],
    "lambda": ["0", "2", "40", "1e300", "-1"],
    "n0": ["1", "3", "0"],
    "l_h": ["0.1", "1e-300", "5e-324", "1e300", "0"],
    "delta": ["0.1", "0.5", "1e-300", "0.999"],
    "s1": ["1", "0.05", "0.04", "0.01", "1e-300", "1e300"],
    "s2": ["1", "1e-300", "1e300", "0"],
    "fraction": ["0.2", "1", "1e-12", "1e-17", "1e-300", "5e-324"],
    "budget": ["0", "2", "10d"],
    "repeats": ["1", "3"],
    "seed": ["0", "7", str(2**64 - 1), "-1"],
    "noise_std": ["0", "1e-300", "1e300"],
    "restarts": ["1", "20", "0"],
    "max_evals": ["1", "1000"],
    "n_init": ["2", "5", "1"],
    "kernel": ["se", "MATERN52", "rbf"],
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.fixed_dictionaries(
    {"benchmark": st.sampled_from(["beale", "hartmann3", "ackley"])},
    optional={key: st.sampled_from(texts) for key, texts in HOSTILE_TEXT.items()},
))
def test_resolve_spec_accepts_only_configs_whose_runs_build(raw):
    try:
        spec = resolve_spec(raw)
    except ConfigError:
        return
    for algorithm in spec.algorithms:
        for repeat in range(spec.repeats):
            cli._build(spec, algorithm, repeat)


# ---------------------------------------------------------------------------
# run_experiment: files, manifest, summary math
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exp")
    spec = fast_spec(tmp)
    manifest = run_experiment(spec)
    return spec, manifest


def test_experiment_writes_expected_files(experiment):
    spec, manifest = experiment
    expected = sorted(
        [
            "hubo_r000.csv",
            "hubo_r001.csv",
            "random_r000.csv",
            "random_r001.csv",
            "hubo_summary.csv",
            "random_summary.csv",
            "hubo_log_distance.csv",
            "random_log_distance.csv",
        ]
    ) + ["manifest.json"]
    assert manifest["files"] == expected
    # the directory holds exactly the listed files
    assert sorted(os.listdir(spec.out_dir)) == sorted(manifest["files"])


def test_manifest_echoes_full_config(experiment):
    spec, manifest = experiment
    with open(os.path.join(spec.out_dir, "manifest.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == manifest
    cfg = manifest["config"]
    names = {f.name for f in fields(spec)}
    # config keys, not spec field names: lambda for lam, kernel for kernel_family
    assert set(cfg) == names - set(cli._FIELD_NAMES.values()) | set(cli._FIELD_NAMES)
    assert cfg["algorithms"] == ["hubo", "random"]
    # every knob materialized, including ones left at defaults
    assert cfg["benchmark"] == "beale"
    assert cfg["lambda"] == 1.0
    assert cfg["kernel"] == "se"
    assert cfg["s1"] == 1.0
    assert cfg["delta"] == 0.1
    assert cfg["budget_T"] == 3
    assert cfg["n_init"] == 3
    assert cfg["l_h"] == 0.1 * (0.2 * 9.0)  # the defaulted cube side, as its value
    for run in manifest["runs"]:
        assert run["status"] == "ok"
        assert run["seed"] == cfg["seed"] + run["repeat"]
        assert run["duration_s"] >= 0.0


def test_trace_csv_schema(experiment):
    spec, _ = experiment
    rows = read_csv(os.path.join(spec.out_dir, "hubo_r000.csv"))
    assert rows[0] == ["t", "x", "y", "best_y", "r_t", "R_t", "log_dist", "side", "n_cubes"]
    assert list(cli.TRACE_COLUMNS) == rows[0]
    body = rows[1:]
    assert len(body) == spec.n_init + spec.budget_T
    t_col = [int(r[0]) for r in body]
    assert t_col == [0, 0, 0, 1, 2, 3]
    for r in body:
        assert len(r) == 9
        x = [float(tok) for tok in r[1].split(";")]
        assert len(x) == 2
        float(r[2])  # y parses
        float(r[3])  # best_y parses
    # best_y nondecreasing
    best = [float(r[3]) for r in body]
    assert all(b >= a for a, b in zip(best, best[1:]))


def test_trace_csv_uses_crlf(experiment):
    spec, _ = experiment
    with open(
        os.path.join(spec.out_dir, "hubo_r000.csv"), "rb"
    ) as fh:
        blob = fh.read()
    assert b"\r\n" in blob


def test_summary_stderr_is_std_over_sqrt_n(experiment):
    spec, _ = experiment
    rows = read_csv(os.path.join(spec.out_dir, "hubo_summary.csv"))
    assert rows[0] == list(cli.SUMMARY_COLUMNS)
    n = spec.repeats
    for r in rows[1:]:
        std = float(r[2])
        stderr = float(r[3])
        assert abs(stderr - std / math.sqrt(n)) <= 1e-12
    # cross-check one mean against the raw traces
    t1 = read_csv(os.path.join(spec.out_dir, "hubo_r000.csv"))
    t2 = read_csv(os.path.join(spec.out_dir, "hubo_r001.csv"))
    final_best = np.array([float(t1[-1][3]), float(t2[-1][3])])
    assert float(rows[-1][1]) == pytest.approx(float(np.mean(final_best)), rel=1e-15)
    assert float(rows[-1][2]) == pytest.approx(
        float(np.std(final_best, ddof=1)), rel=1e-12
    )


def per_row_summary(run_metas):
    """The per-row loop `_summarize` replaced, kept as its reference."""
    columns = [m["columns"] for m in run_metas]
    n = len(columns)
    rows = []
    for i, t in enumerate(columns[0]["t"]):
        row = {"t": t}
        for name in ("best_y", "log_dist"):
            values = np.array([c[name][i] for c in columns], dtype=np.float64)
            std = float(np.std(values, ddof=1)) if n > 1 else 0.0
            row[f"mean_{name}"] = float(np.mean(values))
            row[f"std_{name}"], row[f"stderr_{name}"] = std, std / math.sqrt(n)
        rows.append(row)
    return rows


@pytest.mark.parametrize("repeats", [1, 2, 15, 40])
def test_summarize_equals_the_per_row_loop_bit_for_bit(repeats):
    rng = np.random.default_rng(repeats)
    n_rows = 60
    metas = []
    for _ in range(repeats):
        # best_y of mixed magnitude; log_dist floored at -12 at random rows
        # and on the last 10 rows of every repeat, as in a run that converged
        best_y = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-12, 13, n_rows)
        log_dist = np.where(rng.random(n_rows) < 0.3, -12.0, rng.uniform(-11.5, 3.0, n_rows))
        log_dist[-10:] = -12.0
        metas.append({"columns": {"t": list(range(n_rows)), "best_y": best_y.tolist(),
                                  "log_dist": log_dist.tolist()}})
    got = cli._summarize(metas)
    want = per_row_summary(metas)
    assert [list(row) for row in got] == [list(cli.SUMMARY_COLUMNS)] * n_rows
    assert [[repr(row[k]) for k in cli.SUMMARY_COLUMNS] for row in got] == [
        [repr(row[k]) for k in cli.SUMMARY_COLUMNS] for row in want
    ]


def test_log_distance_file_matches_summary(experiment):
    spec, _ = experiment
    summary = read_csv(os.path.join(spec.out_dir, "hubo_summary.csv"))
    ld = read_csv(os.path.join(spec.out_dir, "hubo_log_distance.csv"))
    assert ld[0] == ["t", "mean_log_dist", "stderr_log_dist"]
    assert len(ld) == len(summary)
    for srow, lrow in zip(summary[1:], ld[1:]):
        assert srow[0] == lrow[0]
        assert srow[4] == lrow[1]
        assert srow[5] == lrow[2]


def test_reused_out_dir_keeps_the_files_a_rerun_does_not_write(tmp_path):
    # the manifest lists only its own run's files; hubo run deletes nothing
    # but an error run's own trace name, so a file it does not write stays
    first = fast_spec(tmp_path, algorithms="random", budget=2, repeats=3)
    run_experiment(first)
    stale = Path(first.out_dir) / "random_r002.csv"
    blob = stale.read_bytes()
    manifest = run_experiment(replace(first, repeats=2))
    assert manifest["files"] == ["random_log_distance.csv", "random_r000.csv", "random_r001.csv",
                                 "random_summary.csv", "manifest.json"]
    assert stale.read_bytes() == blob


def test_single_repeat_has_zero_stderr(tmp_path):
    spec = fast_spec(tmp_path, repeats=1, algorithms="random", budget=5)
    run_experiment(spec)
    rows = read_csv(os.path.join(spec.out_dir, "random_summary.csv"))
    for r in rows[1:]:
        assert float(r[2]) == 0.0  # std
        assert float(r[3]) == 0.0  # stderr
        assert float(r[5]) == 0.0  # stderr_log_dist


def test_log_distance_of_two_digit_gap():
    # A best-so-far gap of 0.01 must appear as exactly -2 in the trace.
    from hubo.driver import IterationRecord, Objective, RunTrace, compute_regret

    trace = RunTrace()
    trace.records.append(
        IterationRecord(t=1, x=np.array([0.1]), f=-0.01, y=-0.01, best_y=-0.01, side=1.0)
    )
    obj = Objective(fn=lambda x: -float(x[0] ** 2), dim=1, optimum_value=0.0)
    compute_regret(trace, obj)
    assert trace.records[0].log_dist == pytest.approx(-2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# determinism and parallel workers
# ---------------------------------------------------------------------------


def _manifest_without_workers(out_dir):
    """The manifest in out_dir less what may differ across `workers`: the
    worker count, out_dir and the runs' durations."""
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
    for key in ("workers", "out_dir"):
        del manifest["config"][key]
    for entry in manifest["runs"]:
        del entry["duration_s"]
    return manifest


def test_pools_of_one_and_two_workers_write_identical_files(tmp_path):
    one = fast_spec(tmp_path / "one", budget=2, algorithms="hubo,hdhubo,vol2,random")
    two = replace(one, workers=2, out_dir=str(tmp_path / "two" / "out"))
    run_experiment(one)
    run_experiment(two)
    manifest = _manifest_without_workers(one.out_dir)
    assert manifest == _manifest_without_workers(two.out_dir)
    csvs = [name for name in manifest["files"] if name.endswith(".csv")]
    assert len(csvs) == 16  # 8 traces, 4 summaries and 4 log-distance files
    for name in csvs:
        assert (Path(one.out_dir) / name).read_bytes() == (Path(two.out_dir) / name).read_bytes()


def test_pool_has_at_most_one_worker_per_task(tmp_path, monkeypatch):
    # A process pool starts all its workers at once, so ask for no more than
    # there are tasks.  The fake pool runs each task inline.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    spec = fast_spec(tmp_path, algorithms="random", budget=2, repeats=3, workers=64)
    manifest = run_experiment(spec)
    assert sizes == [3]
    assert manifest["config"]["workers"] == 64
    assert [r["status"] for r in manifest["runs"]] == ["ok"] * 3


# ---------------------------------------------------------------------------
# failure handling
# ---------------------------------------------------------------------------


def test_killed_worker_is_recorded_and_manifest_written(tmp_path, monkeypatch, capsys):
    real = cli._build_and_run

    def killed(s, algorithm, repeat):
        if repeat == 1:
            # die only once repeat 0 has written its CSV and had time to report
            first = os.path.join(s.out_dir, "random_r000.csv")
            deadline = time.monotonic() + 30.0
            while not os.path.exists(first) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(1)
        return real(s, algorithm, repeat)

    monkeypatch.setattr(cli, "_build_and_run", killed)
    # repeat 2 may finish on the other worker before the pool breaks: its CSV
    # is then on disk, but its result is lost, so it must not stay there
    spec = fast_spec(tmp_path / "direct", algorithms="random", budget=2, repeats=3, workers=2)
    manifest = run_experiment(spec)
    by_repeat = {r["repeat"]: r for r in manifest["runs"]}
    assert by_repeat[0]["status"] == "ok"
    assert by_repeat[1]["status"] == "error"
    assert by_repeat[1]["error"].startswith("BrokenProcessPool")
    assert by_repeat[1]["file"] is None
    with open(os.path.join(spec.out_dir, "manifest.json"), encoding="utf-8") as fh:
        assert json.load(fh) == manifest
    assert "random_summary.csv" in manifest["files"]
    assert os.path.exists(os.path.join(spec.out_dir, "random_summary.csv"))
    assert sorted(manifest["files"]) == sorted(os.listdir(spec.out_dir))

    out = tmp_path / "main"
    code = cli.main(
        [
            "run",
            "--set", "benchmark=beale",
            "--set", "algorithms=random",
            "--set", "budget=2",
            "--set", "repeats=2",
            "--set", "workers=2",
            "--set", f"out_dir={out}",
        ]
    )
    assert code == 3
    assert "BrokenProcessPool" in capsys.readouterr().err
    assert (out / "manifest.json").exists()


def test_killed_run_in_a_one_worker_pool_is_recorded(tmp_path):
    # os._exit would end this process if the run were not in a worker, so
    # `hubo run` runs in a subprocess of its own
    out = tmp_path / "out"
    code = (
        "import os, sys, time\n"
        "from hubo import cli\n"
        "real = cli._build_and_run\n"
        "def killed(spec, algorithm, repeat):\n"
        "    if repeat == 1:\n"
        "        time.sleep(0.5)\n"
        "        os._exit(1)\n"
        "    return real(spec, algorithm, repeat)\n"
        "cli._build_and_run = killed\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    args = ["run", "--set", "benchmark=beale", "--set", "algorithms=random",
            "--set", "budget=2", "--set", "repeats=2", "--set", "workers=1",
            "--set", f"out_dir={out}"]
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(_SRC)}, timeout=120)
    assert done.returncode == 3, done.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [(r["repeat"], r["status"]) for r in manifest["runs"]] == [(0, "ok"), (1, "error")]
    assert manifest["runs"][1]["error"].startswith("BrokenProcessPool")
    assert sorted(manifest["files"]) == sorted(os.listdir(out))


def test_error_run_leaves_no_trace_csv(tmp_path, monkeypatch):
    # repeat 1 writes its whole CSV, then fails: the run is an error, so its
    # file must not be left behind unlisted
    real = cli.write_trace_csv

    def write_then_fail(path, trace):
        real(path, trace)
        if path.endswith("_r001.csv"):
            raise OSError("disk full")

    monkeypatch.setattr(cli, "write_trace_csv", write_then_fail)
    spec = fast_spec(tmp_path, algorithms="random", budget=2, repeats=3)
    manifest = run_experiment(spec)
    assert [(r["status"], r["file"]) for r in manifest["runs"]] == [
        ("ok", "random_r000.csv"), ("error", None), ("ok", "random_r002.csv")]
    assert manifest["runs"][1]["error"] == "OSError: disk full"
    assert not os.path.exists(os.path.join(spec.out_dir, "random_r001.csv"))
    assert sorted(manifest["files"]) == sorted(os.listdir(spec.out_dir))


def test_failed_run_is_recorded_and_others_continue(tmp_path, monkeypatch):
    spec = fast_spec(tmp_path, algorithms="random", budget=4)
    real = cli._build_and_run

    def flaky(s, algorithm, repeat):
        if repeat == 1:
            raise RuntimeError("boom")
        return real(s, algorithm, repeat)

    monkeypatch.setattr(cli, "_build_and_run", flaky)
    manifest = run_experiment(spec)
    by_repeat = {r["repeat"]: r for r in manifest["runs"]}
    assert by_repeat[0]["status"] == "ok"
    assert by_repeat[1]["status"] == "error"
    assert "boom" in by_repeat[1]["error"]
    assert by_repeat[1]["file"] is None
    # summary still produced, from the ok run alone
    assert os.path.exists(os.path.join(spec.out_dir, "random_summary.csv"))


# case -> (algorithm, fault, run status, error prefix, records kept).  With
# n_init = 3, the fifth objective call is BO step t = 2, and the
# PosteriorState of step t = 3 is the first built on 5 points.  Random search
# draws n_init + budget = 9 points and fits nothing, so its fifth call is
# draw t = 5.
_FAULT_CASES = {
    "raise": ("hubo", "raise", "incomplete", "evaluate failed at t=2: RuntimeError: boom", 4),
    "nan": ("hubo", "nan", "incomplete", "evaluate failed at t=2: objective returned f=nan", 4),
    "+inf": ("hubo", "+inf", "incomplete", "evaluate failed at t=2: objective returned f=inf", 4),
    "-inf": ("hubo", "-inf", "incomplete",
             "evaluate failed at t=2: objective returned f=-inf", 4),
    "x1e200": ("hubo", "x1e200", "incomplete",
               "fit failed at t=1: GpFactorizationError: target variance is not finite", 3),
    "x1e-200": ("hubo", "x1e-200", "incomplete",
                "fit failed at t=1: GpFactorizationError: fitted variances underflow", 3),
    "constant": ("hubo", "constant", "ok", None, 3 + 6),
    "maximize-hubo": ("hubo", "maximize", "incomplete",
                      "maximize failed at t=3: GpFactorizationError: injected", 5),
    "maximize-hdhubo": ("hdhubo", "maximize", "incomplete",
                        "maximize failed at t=3: GpFactorizationError: injected", 5),
    "maximize-vol2": ("vol2", "maximize", "incomplete",
                      "maximize failed at t=3: GpFactorizationError: injected", 5),
    "random-raise": ("random", "raise", "incomplete",
                     "evaluate failed at t=5: RuntimeError: boom", 4),
    "random-nan": ("random", "nan", "incomplete",
                   "evaluate failed at t=5: objective returned f=nan", 4),
}
_FIFTH_CALL = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}
_EVERY_CALL = {"x1e200": lambda y: 1e200 * y, "x1e-200": lambda y: 1e-200 * y,
               "constant": lambda y: 1.0}


def _assert_regret_read_from_f(rows, f_of_x, optimum):
    """The r_t, R_t and log_dist cells hold what compute_regret derives from
    each row's f: r_t and R_t on BO rows (t >= 1), log_dist on every row."""
    best_f, total = -math.inf, 0.0
    for row in rows[1:]:
        f = f_of_x(np.array([float(v) for v in row[1].split(";")]))
        best_f = max(best_f, f)
        gap = optimum - best_f
        r_t = R_t = ""
        if int(row[0]) >= 1:
            total += optimum - f
            r_t, R_t = repr(optimum - f), repr(total)
        assert row[4:7] == [r_t, R_t, repr(-12.0 if gap <= 1e-12 else math.log10(gap))]


def _faulty_value(fault, y, n):
    """The objective value of call n under `fault`, from the true value y."""
    if n == 5 and fault == "raise":
        raise RuntimeError("boom")
    if n == 5 and fault in _FIFTH_CALL:
        return _FIFTH_CALL[fault]
    return _EVERY_CALL.get(fault, lambda y: y)(y)


@pytest.mark.parametrize("case", list(_FAULT_CASES))
def test_fault_matrix_through_hubo_run(tmp_path, monkeypatch, capsys, case):
    # Each built benchmark counts its own calls, so every run sees the same
    # faults whichever worker process runs it.
    algorithm, fault, status, prefix, kept = _FAULT_CASES[case]
    steps = list(range(1, kept + 1)) if algorithm == "random" else [0, 0, 0, *range(1, kept - 2)]
    real_make, real_chol = cli.make_benchmark, gp._chol_with_jitter
    beale = real_make("beale")

    def make(name, dim=None):
        bench = real_make(name, dim)
        calls = {"n": 0}

        def fn(x):
            calls["n"] += 1
            return _faulty_value(fault, bench.fn(x), calls["n"])

        return replace(bench, fn=fn)

    def chol(K_noisy, signal_variance):
        if fault == "maximize" and K_noisy.shape[0] == 5:
            raise gp.GpFactorizationError("injected")
        return real_chol(K_noisy, signal_variance)

    monkeypatch.setattr(cli, "make_benchmark", make)
    monkeypatch.setattr(gp, "_chol_with_jitter", chol)
    outcomes = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        code = cli.main(
            [
                "run",
                "--set", "benchmark=beale",
                "--set", f"algorithms={algorithm}",
                "--set", "budget=6",
                "--set", "repeats=2",
                "--set", "restarts=5",
                "--set", "max_evals=100",
                "--set", f"workers={workers}",
                "--set", f"out_dir={out}",
            ]
        )
        assert code == (0 if status == "ok" else 3)
        err = capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["runs"]) == 2
        for entry in manifest["runs"]:
            assert entry["status"] == status
            assert entry["file"] == f"{algorithm}_r{entry['repeat']:03d}.csv"
            assert (out / entry["file"]).exists()
            if prefix is None:
                assert entry["error"] is None
            else:
                assert entry["error"].startswith(prefix)
                assert prefix in err
            rows = read_csv(out / entry["file"])
            assert [int(row[0]) for row in rows[1:]] == steps
            # partial traces carry regret too, read from the rows' f
            _assert_regret_read_from_f(
                rows, lambda x: _faulty_value(fault, beale.eval(x), 0), beale.optimum_value)
            del entry["duration_s"]
        csvs = {n: (out / n).read_bytes() for n in manifest["files"] if n.endswith(".csv")}
        outcomes.append((manifest["runs"], manifest["files"], csvs))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("noise_std", ["0", "0.1"])
@pytest.mark.parametrize("algorithm", ["hubo", "hdhubo", "vol2", "random"])
def test_build_and_run_evaluates_each_point_once(tmp_path, monkeypatch, algorithm, noise_std):
    real = cli.make_benchmark
    calls = {"n": 0}

    def make(name, dim=None):
        bench = real(name, dim)

        def fn(x):
            calls["n"] += 1
            return bench.fn(x)

        return replace(bench, fn=fn)

    monkeypatch.setattr(cli, "make_benchmark", make)
    spec = fast_spec(tmp_path, algorithms=algorithm, noise_std=noise_std, budget=3)
    trace = cli._build_and_run(spec, algorithm, 0)
    assert not trace.incomplete
    assert trace.records[-1].R_t is not None
    assert calls["n"] == len(trace.records) == 6


# ---------------------------------------------------------------------------
# main() and exit codes
# ---------------------------------------------------------------------------


def test_main_run_success_exit_zero(tmp_path, capsys):
    out = tmp_path / "res"
    code = cli.main(
        [
            "run",
            "--set", "benchmark=beale",
            "--set", "algorithms=random",
            "--set", "budget=5",
            "--set", "repeats=2",
            "--set", f"out_dir={out}",
        ]
    )
    assert code == 0
    assert "2/2 runs ok" in capsys.readouterr().out
    assert (out / "manifest.json").exists()


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SRC = Path(cli.__file__).resolve().parents[1]


def _thread_vars_after(code: str, **env) -> list:
    """The BLAS thread variables after `code` runs in a fresh interpreter
    whose environment holds none of them but those in `env`."""
    child_env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    child_env.update(PYTHONPATH=str(_SRC), **env)
    probe = f"{code}; import json, os; print(json.dumps([os.getenv(n) for n in {_THREAD_VARS}]))"
    done = subprocess.run([sys.executable, "-c", probe], env=child_env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_command_defaults_blas_threads_to_one():
    # the package itself loads no NumPy, so the entry module's defaults come first
    assert _thread_vars_after("import sys, hubo; assert 'numpy' not in sys.modules") == [None] * 3
    assert _thread_vars_after("import hubo.__main__") == ["1", "1", "1"]
    assert _thread_vars_after("import hubo.__main__", OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]
    # a library import leaves the environment alone
    assert _thread_vars_after("import hubo.cli") == [None] * 3
    pyproject = (_SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'hubo = "hubo.__main__:main"' in pyproject


def test_python_dash_m_runs_the_command():
    done = subprocess.run([sys.executable, "-m", "hubo", "list-benchmarks"],
                          env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[0].startswith("beale ")


def test_main_config_error_exit_two(tmp_path, capsys):
    assert cli.main(["run", "--set", "benchmark=nope"]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli.main(["run"]) == 2  # benchmark missing entirely
    assert cli.main(["run", "--set", "oops"]) == 2  # not KEY=VALUE
    bad_seed = ["--set", "benchmark=beale", "--set", "seed=-1"]
    assert cli.main(["run", *bad_seed, "--set", f"out_dir={tmp_path}"]) == 2


# (config file text or None, --set items, the config error's message);
# {path} stands for the config file's path
_MAIN_CONFIG_ERRORS = [
    # an s1 that makes beta_t's tail the root of a negative number
    (None, ["benchmark=beale", "s1=0.01", "delta=0.5"], "s1 must be > delta / (4 * dim), got 0.01"),
    (None, ["benchmark=beale", "kernel=rbf"], "kernel must be one of ('se', 'matern52'), got 'rbf'"),
    (None, ["benchmark=ackley"], "dim is required for benchmark 'ackley'"),
    (None, ["benchmark=beale", "fraction=1e-300"],
     "fraction 1e-300 gives C_initial no width at its center"),
    (None, ["benchmark=beale", "lambda=40"],
     "lambda must keep N_T * dim <= 16777216 at budget_T=60, got 40.0"),
    ("benchmark = beale\nbudget 5\n", [], "{path}:2: expected key=value, got 'budget 5'"),
    ("benchmark = beale\nbudget = 3\n# again\nbudget = 1\n", [],
     "{path}:4: budget is already set on line 2"),
]


def test_main_s1_that_beta_rejects_is_config_error(tmp_path, capsys):
    # each is rejected before any run starts and before out_dir is made: exit
    # 2 and one stderr line, in the config key's own words
    for i, (text, items, message) in enumerate(_MAIN_CONFIG_ERRORS):
        path, out_dir = tmp_path / f"case{i}.cfg", tmp_path / f"out{i}"
        argv = ["run", *(arg for item in items for arg in ("--set", item))]
        if text is not None:
            path.write_text(text, encoding="utf-8")
            argv += ["--config", str(path)]
        assert cli.main([*argv, "--set", f"out_dir={out_dir}"]) == 2, message
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"
        assert not out_dir.exists(), message
    # hdhubo's k = 6 admits it: 6 * 2 * 0.05 > 0.5 > 4 * 2 * 0.05
    spec = resolve_spec({"benchmark": "beale", "algorithms": "hdhubo", "s1": "0.05",
                         "delta": "0.5"})
    assert spec.s1 == 0.05
    # random search uses no beta_t, but every config is held to hdhubo's rule,
    # the weakest of the three
    spec = resolve_spec({"benchmark": "beale", "algorithms": "random", "s1": "0.05",
                         "delta": "0.5"})
    assert spec.s1 == 0.05


def test_main_folds_the_case_of_every_name(tmp_path):
    # config text names benchmarks, kernels and algorithms in any case; the
    # spec, the manifest and the file names hold the library's names
    out_dir = tmp_path / "out"
    code = cli.main([
        "run", "--set", "benchmark=BEALE", "--set", "kernel=SE",
        "--set", "algorithms=HUBO,Random", "--set", "budget=1", "--set", "repeats=1",
        "--set", f"out_dir={out_dir}",
    ])
    assert code == 0
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = manifest["config"]
    assert (config["benchmark"], config["kernel"], config["algorithms"]) == (
        "beale", "se", ["hubo", "random"]
    )
    assert [run["file"] for run in manifest["runs"]] == ["hubo_r000.csv", "random_r000.csv"]
    assert (out_dir / "hubo_r000.csv").exists()


def test_main_non_utf8_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("benchmark = beale\n# caf\u00e9\n".encode("latin-1"))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfg}: 'utf-8' codec")


def test_main_uncreatable_out_dir_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    for out_dir in (taken, taken / "sub"):
        code = cli.main(
            ["run", "--set", "benchmark=beale", "--set", "budget=1", "--set", f"out_dir={out_dir}"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create out_dir {out_dir}: [Errno"
        )
    assert taken.read_text() == "a file, not a directory\n"


def test_main_set_overrides_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "benchmark = beale\nalgorithms = random\nbudget = 2\nrepeats = 1\n"
        f"out_dir = {tmp_path / 'o1'}\n"
    )
    code = cli.main(
        [
            "run",
            "--config", str(cfg),
            "--set", "budget=3",
            "--set", "budget=4",  # on the command line, the last one wins
            "--set", f"out_dir={tmp_path / 'o2'}",
        ]
    )
    assert code == 0
    with open(tmp_path / "o2" / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["budget_T"] == 4


def test_readme_config_example_runs(tmp_path):
    # README's experiment.cfg, read through --config under --set overrides
    readme = (_SRC.parent / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "experiment.cfg"
    path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--set", "budget=2", "--set", "repeats=1",
                     "--set", f"out_dir={out_dir}"])
    assert code == 0
    config = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert config["benchmark"] == "ackley"


def test_main_partial_failure_exit_three(tmp_path, capsys, monkeypatch):
    real = cli._build_and_run

    def flaky(s, algorithm, repeat):
        if repeat == 0:
            raise RuntimeError("np-hard weather")
        return real(s, algorithm, repeat)

    monkeypatch.setattr(cli, "_build_and_run", flaky)
    code = cli.main(
        [
            "run",
            "--set", "benchmark=beale",
            "--set", "algorithms=random",
            "--set", "budget=3",
            "--set", "repeats=2",
            "--set", f"out_dir={tmp_path / 'res'}",
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "1/2 runs ok" in captured.out
    assert "np-hard weather" in captured.err


def test_main_list_benchmarks(capsys):
    assert cli.main(["list-benchmarks"]) == 0
    out = capsys.readouterr().out
    for name in ("beale", "hartmann3", "hartmann6", "ackley", "levy"):
        assert name in out


def test_main_diagnostics_report(tmp_path, capsys):
    out_dir = tmp_path / "diag"
    assert cli.main(["diagnostics", "--out", str(out_dir)]) == 0
    report = out_dir / "report.txt"
    assert report.exists()
    content = report.read_text()
    assert content.splitlines()[-1] == "ALL CHECKS PASSED (15/15 passed)"
    assert "FAIL" not in content.replace("PASS/FAIL", "")
    assert str(report) in capsys.readouterr().out
    # the report is deterministic: a second run writes the same bytes
    assert cli.main(["diagnostics", "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "report.txt").read_bytes() == report.read_bytes()


def test_diagnostics_report_counts_fail_lines(tmp_path, monkeypatch):
    from hubo import diagnostics, series

    monkeypatch.setattr(series, "p_series_bound", lambda p: 0.0)
    diagnostics.diagnostics(str(tmp_path))
    lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(" p=")[0] for line in lines if " p-series " in line] == ["FAIL p-series"] * 3
    assert sum(line.startswith("FAIL") for line in lines) == 3
    assert lines[-1] == "CHECK FAILURES (12/15 passed)"


def test_main_diagnostics_uncreatable_out_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    for out_dir in (taken, taken / "sub"):
        assert cli.main(["diagnostics", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"config error: cannot write the report to {out_dir}: [Errno"
        )
    assert taken.read_text() == "a file, not a directory\n"
