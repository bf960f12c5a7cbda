"""Acceptance gate: twelve pinned end-to-end checks.

Each test prints exactly one line of the form

    ACCEPTANCE CRITERION <n>: PASS (<detail>)

so the suite output doubles as a sign-off report.  Tolerances, instance
counts, seeds, and runtime budgets are frozen here; loosening any of them
is a contract change, not a test fix.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np

from hubo import gp, series, space
from hubo.acquisition import BetaSchedule, MaximizerConfig
from hubo.cli import resolve_spec, run_experiment
from hubo.cubes import HdConfig, nearest_in_set, num_cubes, sample_cubes
from hubo.driver import Objective, RunConfig, run
from hubo.gp import Dataset, GpModel, KernelSpec, PosteriorState
from hubo.space import ExpansionConfig, SearchBox


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. GP posterior equals the dense-inverse oracle
# ---------------------------------------------------------------------------


def _dense_posterior(model, X, y, Xq):
    K = gp.kernel_matrix(model.kernel, X) + model.noise_variance * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    Ks = gp.kernel_matrix(model.kernel, Xq, X)
    means = Ks @ K_inv @ (y - model.prior_mean) + model.prior_mean
    variances = model.kernel.signal_variance - np.sum((Ks @ K_inv) * Ks, axis=1)
    return means, np.maximum(variances, 0.0)


def test_criterion_01_gp_posterior_matches_dense_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 21))
        d = int(rng.integers(1, 7))
        family = "se" if rng.random() < 0.5 else "matern52"
        model = GpModel(
            kernel=KernelSpec(
                family,
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(0.5, 3.0)),
            ),
            noise_variance=float(rng.uniform(1e-4, 0.5)),
            prior_mean=float(rng.normal()),
        )
        X = rng.uniform(-2, 2, size=(t, d))
        y = rng.normal(size=t)
        Xq = rng.uniform(-2, 2, size=(5, d))
        means, variances = PosteriorState(model, Dataset(X, y, d)).predict(Xq)
        om, ov = _dense_posterior(model, X, y, Xq)
        rel_mu = np.max(np.abs(means - om) / np.maximum(np.abs(om), 1e-12))
        rel_var = np.max(np.abs(variances - ov) / np.maximum(np.abs(ov), 1e-12))
        worst = max(worst, float(rel_mu), float(rel_var))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        1,
        ok,
        f"200 instances, max rel err {worst:.3e} <= 1e-8, {elapsed:.2f} s < 10 s",
    )


# ---------------------------------------------------------------------------
# 2. Series bound suite: sandwich, p-series dominance, gamma-root growth
# ---------------------------------------------------------------------------


def test_criterion_02_series_bounds_hold():
    start = time.perf_counter()
    violations = 0
    n_max = 10**5
    for alpha in (-1.0, -0.9, -0.5, -0.1):
        sums = series.partial_sums(alpha, n_max)
        for n in range(2, n_max + 1):
            s = sums[n - 1]
            if not (
                series.partial_sum_lower_bound(alpha, n)
                < s
                < series.partial_sum_upper_bound(alpha, n)
            ):
                violations += 1
    for p in (1.5, 2.0, 3.0):
        bound = series.p_series_bound(p)
        tail_sums = np.cumsum(np.arange(1, 10**6 + 1, dtype=np.float64) ** (-p))
        violations += int(np.count_nonzero(tail_sums >= bound))
    for d in range(1, 201):
        if not (0.0 < series.gamma_root(d) < math.sqrt(d + 2)):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(
        2,
        ok,
        f"sandwich n<=1e5 x 4 alphas, p-series n<=1e6 x 3, gamma-root d<=200: "
        f"{violations} violations, {elapsed:.2f} s < 30 s",
    )


# ---------------------------------------------------------------------------
# 3. Iterated expansion equals the closed-form side length
# ---------------------------------------------------------------------------


def test_criterion_03_iterated_expansion_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (-1.0, -0.5):
        cfg = ExpansionConfig(
            a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=1
        )
        box = space.initial_box(cfg)
        for t in range(1, 10**4 + 1):
            box = space.expand(box, t, cfg)
            width = float(box.upper[0] - box.lower[0])
            closed = space.side_length(t, cfg)
            worst = max(worst, abs(width - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    _report(
        3,
        ok,
        f"t<=1e4, alpha in (-1,-0.5): max rel err {worst:.3e} <= 1e-12, "
        f"{elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 4. Expand/translate trajectories stay inside the fixed envelope
# ---------------------------------------------------------------------------


def test_criterion_04_trajectories_stay_in_envelope():
    start = time.perf_counter()
    T = 50
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(-1.0, -0.1))
        dim = int(rng.integers(1, 4))
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.uniform(0.5, 2.0))
        c_min = a - float(rng.uniform(0.0, 3.0))
        c_max = b + float(rng.uniform(0.0, 3.0))
        cfg = ExpansionConfig(
            a=a, b=b, alpha=alpha, c_min=c_min, c_max=c_max, dim=dim
        )
        env = space.envelope(T, cfg)
        box = space.initial_box(cfg)
        for t in range(1, T + 1):
            box = space.expand(box, t, cfg)
            box = space.translate(
                box, rng.uniform(c_min - 10.0, c_max + 10.0, size=dim), cfg
            )
            if not (
                np.all(box.lower >= env.lower - 1e-12)
                and np.all(box.upper <= env.upper + 1e-12)
            ):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    _report(
        4,
        ok,
        f"100 trajectories, T=50: {violations} envelope violations, "
        f"{elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 5. Reachability horizon is exact under corner-pinned worst cases
# ---------------------------------------------------------------------------


def test_criterion_05_reachability_horizon_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    failures = 0
    max_horizon = 0
    for alpha in (-1.0, -0.9):
        for _ in range(20):
            a = float(rng.uniform(-3.0, 3.0))
            w = float(rng.uniform(0.5, 2.0))
            b = a + w
            c_min = a - float(rng.uniform(0.0, 1.0)) * w
            c_max = b + float(rng.uniform(0.0, 1.0)) * w
            a_g = c_min - float(rng.uniform(0.2, 1.0)) * w
            b_g = c_max + float(rng.uniform(0.2, 1.0)) * w
            dim = int(rng.integers(1, 4))
            cfg = ExpansionConfig(
                a=a, b=b, alpha=alpha, c_min=c_min, c_max=c_max, dim=dim
            )
            t0 = space.reachability_horizon(a_g, b_g, cfg)
            if t0 is None:
                failures += 1
                continue
            max_horizon = max(max_horizon, t0)

            def covered(t: int) -> bool:
                half = 0.5 * w * (1.0 + series.partial_sum(alpha, t))
                return all(
                    corner - half <= a_g and corner + half >= b_g
                    for corner in (c_min, c_max)
                )

            if not covered(t0):
                failures += 1
            if t0 > 1 and covered(t0 - 1):
                failures += 1  # horizon must be minimal, not just sufficient
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(
        5,
        ok,
        f"20 instances x alpha in (-1,-0.9): {failures} failures, "
        f"max horizon {max_horizon}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 6. Monte-Carlo check of the nearest-cube distance bound
# ---------------------------------------------------------------------------


def test_criterion_06_nearest_distance_bound_monte_carlo():
    start = time.perf_counter()
    delta = 0.2
    dim = 2
    lam = 1.0
    alpha = -1.0
    n_seeds = 200
    cfg = ExpansionConfig(
        a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=dim
    )
    hd = HdConfig(lam=lam, n0=1, l_h=0.1)  # l_h = 0.1 * (b - a)
    ok = True
    details = []
    for t in (50, 100, 400):
        side = space.side_length(t, cfg)
        box = SearchBox(np.zeros(dim), 0.5 * side, dim)
        bound = (
            2.0
            / math.sqrt(math.pi)
            * series.gamma_root(dim)
            * math.log(1.0 / delta) ** (1.0 / dim)
            * series.nearest_point_decay(alpha, lam, dim, t)
        )
        # One fixed target point per t; randomness ranges over cube draws.
        x_star = np.random.default_rng([777, t]).uniform(box.lower, box.upper)
        violations = 0
        for s in range(n_seeds):
            cube_set = sample_cubes(
                box, t, hd, np.random.default_rng([50_000 + t, s])
            )
            _, dist = nearest_in_set(cube_set, x_star)
            if not dist < bound:
                violations += 1
        rate = violations / n_seeds
        ok &= rate <= delta
        details.append(f"t={t}: rate {rate:.3f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(
        6,
        ok,
        f"{'; '.join(details)} (all <= delta={delta}), 200 seeds each, "
        f"{elapsed:.2f} s < 120 s",
    )


# ---------------------------------------------------------------------------
# 7. Cube-count schedule matches exact integer arithmetic
# ---------------------------------------------------------------------------


def _int_ceil_root_power(t: int, p: int, q: int) -> int:
    """Smallest m >= 1 with m**q >= t**p, computed in exact integer math."""
    target = t**p
    m = max(1, round(target ** (1.0 / q)))
    while m > 1 and (m - 1) ** q >= target:
        m -= 1
    while m**q < target:
        m += 1
    return m


def test_criterion_07_cube_count_schedule_exact():
    start = time.perf_counter()
    mismatches = 0
    for lam, (p, q) in (
        (0.2, (1, 5)),
        (0.5, (1, 2)),
        (1.0, (1, 1)),
        (2.0, (2, 1)),
    ):
        for t in range(1, 10**4 + 1):
            m = _int_ceil_root_power(t, p, q)
            for n0 in (1, 2):
                if num_cubes(t, HdConfig(lam=lam, n0=n0, l_h=0.1)) != n0 * m:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    _report(
        7,
        ok,
        f"t<=1e4, lambda in (0.2,0.5,1,2), N0 in (1,2): "
        f"{mismatches} mismatches, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 8. End-to-end 2-D run: log distance to the optimum improves by >= 1 decade
# ---------------------------------------------------------------------------


def _pooled_traces(out_dir, raw: dict[str, str]):
    """Run the experiment `raw` as `hubo run` does, in a pool of two workers
    writing into out_dir.  Returns the resolved spec and, per algorithm, each
    repeat's trace CSV rows as dicts, in repeat order.  The CSVs write floats
    by repr, so float() of a cell is the traced value exactly."""
    spec = resolve_spec({**raw, "workers": "2", "out_dir": str(out_dir)})
    traces = {algorithm: [] for algorithm in spec.algorithms}
    for entry in run_experiment(spec)["runs"]:  # in (algorithm, repeat) order
        assert entry["status"] == "ok", entry
        with open(os.path.join(out_dir, entry["file"]), newline="", encoding="utf-8") as fh:
            traces[entry["algorithm"]].append(list(csv.DictReader(fh)))
    return spec, traces


def test_criterion_08_beale_improves_log_distance(tmp_path):
    start = time.perf_counter()
    spec, traces = _pooled_traces(
        tmp_path,
        {
            "benchmark": "beale",
            "algorithms": "hubo",
            "budget": "30d",  # T = 60
            "repeats": "15",
        },
    )
    init_ld = [float(rows[spec.n_init - 1]["log_dist"]) for rows in traces["hubo"]]
    final_ld = [float(rows[-1]["log_dist"]) for rows in traces["hubo"]]
    improvement = float(np.median(init_ld) - np.median(final_ld))
    elapsed = time.perf_counter() - start
    ok = improvement >= 1.0 and elapsed < 180.0
    _report(
        8,
        ok,
        f"median log10 distance improvement {improvement:.2f} >= 1.0 "
        f"over 15 seeds, {elapsed:.1f} s < 180 s",
    )


# ---------------------------------------------------------------------------
# 9. Average cumulative regret decreases with the horizon
# ---------------------------------------------------------------------------


def test_criterion_09_average_regret_decreases(tmp_path):
    start = time.perf_counter()
    spec, traces = _pooled_traces(
        tmp_path,
        {
            "benchmark": "ackley",
            "dim": "2",
            "algorithms": "hubo",
            "budget": "150",
            "repeats": "15",
        },
    )
    wins = 0
    for rows in traces["hubo"]:
        r30 = float(rows[spec.n_init + 30 - 1]["R_t"]) / 30.0
        r150 = float(rows[spec.n_init + 150 - 1]["R_t"]) / 150.0
        if r150 < r30:
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins >= math.ceil(0.8 * spec.repeats)
    _report(
        9,
        ok,
        f"R_T/T fell from T=30 to T=150 in {wins}/15 seeds (need >= 12), "
        f"{elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 10. High-dimensional cube-restricted run beats random search
# ---------------------------------------------------------------------------


def test_criterion_10_high_dim_beats_random_search(tmp_path):
    start = time.perf_counter()
    spec, traces = _pooled_traces(
        tmp_path,
        {
            "benchmark": "ackley",
            "dim": "10",
            "algorithms": "hdhubo,random",
            "budget": "10d",  # T = 100
            "repeats": "10",
        },
    )
    hd_final = [float(rows[-1]["best_y"]) for rows in traces["hdhubo"]]
    rnd_final = [float(rows[-1]["best_y"]) for rows in traces["random"]]
    med_hd = float(np.median(hd_final))
    med_rnd = float(np.median(rnd_final))
    elapsed = time.perf_counter() - start
    ok = med_hd >= med_rnd and elapsed < 600.0
    _report(
        10,
        ok,
        f"median final best {med_hd:.2f} >= random-search {med_rnd:.2f} "
        f"over 10 seeds, {elapsed:.1f} s < 600 s",
    )


# ---------------------------------------------------------------------------
# 11. Reruns of an identical experiment are byte-identical
# ---------------------------------------------------------------------------


def test_criterion_11_reruns_byte_identical(tmp_path):
    start = time.perf_counter()

    def run_into(out_dir):
        return run_experiment(
            resolve_spec(
                {
                    "benchmark": "beale",
                    "algorithms": "hubo,random",
                    "budget": "5",
                    "repeats": "2",
                    "n_init": "3",
                    "restarts": "5",
                    "max_evals": "100",
                    "out_dir": str(out_dir),
                }
            )
        )

    manifest = run_into(tmp_path / "a")
    run_into(tmp_path / "b")
    traces = [
        r["file"] for r in manifest["runs"] if r["file"] is not None
    ]
    identical = 0
    for name in traces:
        with open(os.path.join(tmp_path, "a", name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(tmp_path, "b", name), "rb") as fh:
            blob_b = fh.read()
        identical += int(blob_a == blob_b)
    elapsed = time.perf_counter() - start
    ok = identical == len(traces) == 4
    _report(
        11,
        ok,
        f"{identical}/{len(traces)} trace CSVs byte-identical on rerun, "
        f"{elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 12. Doubling baseline: volume doubles every 3d steps, geometric side law
# ---------------------------------------------------------------------------


def test_criterion_12_volume_doubling_schedule():
    start = time.perf_counter()
    cfg = RunConfig(
        expansion=ExpansionConfig(
            a=0.0, b=1.0, alpha=-1.0, c_min=-10.0, c_max=10.0, dim=1
        ),
        beta=BetaSchedule(
            variant="hubo", delta=0.1, dim=1, a=0.0, b=1.0, alpha=-1.0
        ),
        maximizer=MaximizerConfig(restarts=5, max_evals=100),
        budget_T=30,
        n_init=3,
        seed=0,
        algorithm="vol2",
    )
    obj = Objective(fn=lambda x: -((x[0] - 5.0) ** 2), dim=1)
    trace = run(obj, cfg)
    sides = [rec.side for rec in trace.records[cfg.n_init :]]
    schedule_exact = all(
        sides[t - 1] == 2.0 ** (t // 3) for t in range(1, 31)
    )
    # d=1: volume == side, so it must exactly double at every 3rd step.
    doubling_exact = all(
        sides[3 * k - 1] == 2.0 * (sides[3 * (k - 1) - 1] if k > 1 else 1.0)
        for k in range(1, 11)
    )
    # Geometric side law across dimensions: k doublings multiply the
    # d-dimensional volume by exactly 2^k.
    law_ok = all(
        abs((2.0 ** (k / d)) ** d - 2.0**k) <= 1e-12 * 2.0**k
        for d in (1, 2, 3)
        for k in range(1, 11)
    )
    elapsed = time.perf_counter() - start
    ok = schedule_exact and doubling_exact and law_ok
    _report(
        12,
        ok,
        f"30-step d=1 run doubles volume every 3 steps exactly; side law "
        f"holds for k<=10, d<=3; {elapsed:.1f} s",
    )
