"""Tests for the optimisation loops and regret accounting.

End-to-end behavior is checked on cheap objectives (a 1-D quadratic and
small benchmark instances); regret arithmetic is verified against direct
summation done in the tests.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from hubo import driver, gp, space
from hubo.acquisition import BetaSchedule, MaximizerConfig
from hubo.cubes import HdConfig
from hubo.driver import (
    IterationRecord,
    Objective,
    RunConfig,
    RunTrace,
    compute_regret,
    default_n_init,
    run,
    sublinearity_diagnostic,
)
from hubo.gp import GpFactorizationError
from hubo.space import ExpansionConfig


def quadratic_objective() -> Objective:
    return Objective(
        fn=lambda x: -((x[0] - 5.0) ** 2),
        dim=1,
        optimum_value=0.0,
    )


def hubo_config(budget_T: int, seed: int = 0, **kw) -> RunConfig:
    expansion = ExpansionConfig(
        a=0.0, b=1.0, alpha=-1.0, c_min=-10.0, c_max=10.0, dim=1
    )
    sched = BetaSchedule(
        variant="hubo", delta=0.1, dim=1, a=0.0, b=1.0, alpha=-1.0
    )
    base = dict(
        expansion=expansion,
        beta=sched,
        maximizer=MaximizerConfig(restarts=10, max_evals=300),
        budget_T=budget_T,
        n_init=3,
        seed=seed,
        algorithm="hubo",
    )
    base.update(kw)
    return RunConfig(**base)


def small_2d_config(algorithm: str, budget_T: int, seed: int = 0) -> RunConfig:
    expansion = ExpansionConfig(
        a=0.0, b=1.0, alpha=-1.0, c_min=-3.0, c_max=4.0, dim=2
    )
    if algorithm == "hdhubo":
        sched = BetaSchedule(variant="hdhubo", delta=0.1, dim=2, l_h=0.1)
        hd = HdConfig(lam=1.0, n0=1, l_h=0.1)
    else:
        sched = BetaSchedule(
            variant="hubo", delta=0.1, dim=2, a=0.0, b=1.0, alpha=-1.0
        )
        hd = None
    return RunConfig(
        expansion=expansion,
        beta=sched,
        maximizer=MaximizerConfig(restarts=8, max_evals=160),
        budget_T=budget_T,
        n_init=3,
        seed=seed,
        algorithm=algorithm,
        hd=hd,
    )


def sphere_2d() -> Objective:
    return Objective(
        fn=lambda x: -float(np.sum((x - 1.5) ** 2)),
        dim=2,
        optimum_value=0.0,
    )


# ---------------------------------------------------------------------------
# Objective / RunConfig validation
# ---------------------------------------------------------------------------


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(fn=lambda x: 0.0, dim=0)
    with pytest.raises(ValueError):
        Objective(fn=lambda x: 0.0, dim=1, noise_std=-0.1)


def test_objective_from_benchmark_copies_metadata():
    from hubo.benchmarks import make_benchmark

    bench = make_benchmark("beale")
    obj = Objective.from_benchmark(bench, noise_std=0.2)
    assert obj.dim == 2
    assert obj.noise_std == 0.2
    assert obj.optimum_value == bench.optimum_value
    assert obj.eval(np.array([3.0, 0.5])) == pytest.approx(0.0, abs=1e-12)


def test_run_config_validation():
    with pytest.raises(ValueError):
        hubo_config(budget_T=-1)
    with pytest.raises(ValueError):
        hubo_config(budget_T=5, n_init=1)
    # hd config present iff algorithm hdhubo
    with pytest.raises(ValueError):
        hubo_config(budget_T=5, hd=HdConfig(lam=1.0, n0=1, l_h=0.1))
    # variant mismatch
    with pytest.raises(ValueError):
        hubo_config(
            budget_T=5,
            beta=BetaSchedule(variant="hdhubo", delta=0.1, dim=1, l_h=0.1),
        )
    with pytest.raises(ValueError):
        hubo_config(budget_T=5, algorithm="sgd")


def test_run_config_rejects_hd_and_beta_with_different_l_h():
    # beta_t would be computed for a cube side the maximizer never searches
    cfg = small_2d_config("hdhubo", budget_T=5)
    with pytest.raises(ValueError, match="beta schedule and hd config disagree on l_h"):
        replace(cfg, hd=HdConfig(lam=1.0, n0=1, l_h=0.2))
    with pytest.raises(ValueError, match="beta schedule and hd config disagree on l_h"):
        replace(cfg, beta=BetaSchedule(variant="hdhubo", delta=0.1, dim=2, l_h=0.05))


def test_default_n_init():
    assert default_n_init(1) == 3
    assert default_n_init(2) == 3
    assert default_n_init(3) == 4
    assert default_n_init(10) == 11


# ---------------------------------------------------------------------------
# run (hubo)
# ---------------------------------------------------------------------------


def test_zero_budget_returns_initial_design_only():
    trace = run(quadratic_objective(), hubo_config(budget_T=0))
    assert len(trace.records) == 3
    assert all(rec.t == 0 for rec in trace.records)
    assert not trace.incomplete


def test_trace_has_n_init_plus_T_records():
    trace = run(quadratic_objective(), hubo_config(budget_T=4))
    assert len(trace.records) == 3 + 4
    assert [rec.t for rec in trace.records] == [0, 0, 0, 1, 2, 3, 4]


def test_run_is_deterministic():
    cfg = hubo_config(budget_T=6, seed=123)
    obj = quadratic_objective()
    t1 = run(obj, cfg)
    t2 = run(obj, cfg)
    assert len(t1.records) == len(t2.records)
    for r1, r2 in zip(t1.records, t2.records):
        assert np.array_equal(r1.x, r2.x)
        assert r1.y == r2.y
        assert r1.best_y == r2.best_y
        assert r1.side == r2.side


def test_different_seeds_differ():
    obj = quadratic_objective()
    t1 = run(obj, hubo_config(budget_T=3, seed=0))
    t2 = run(obj, hubo_config(budget_T=3, seed=1))
    assert any(
        not np.array_equal(r1.x, r2.x) for r1, r2 in zip(t1.records, t2.records)
    )


def test_best_y_nondecreasing_and_running_max():
    trace = run(quadratic_objective(), hubo_config(budget_T=8, seed=5))
    best = -math.inf
    for rec in trace.records:
        best = max(best, rec.y)
        assert rec.best_y == best


def test_side_column_matches_closed_form():
    cfg = hubo_config(budget_T=8)
    trace = run(quadratic_objective(), cfg)
    for rec in trace.records:
        expected = space.side_length(rec.t, cfg.expansion)
        assert rec.side == pytest.approx(expected, rel=1e-12)


def test_initial_points_inside_x0():
    cfg = hubo_config(budget_T=0, seed=3)
    trace = run(quadratic_objective(), cfg)
    for rec in trace.records:
        assert 0.0 <= rec.x[0] <= 1.0


def test_hubo_finds_quadratic_optimum():
    # x* = 5 sits far outside X0 = [0, 1] but inside C_initial = [-10, 10];
    # the expanding box must reach and localize it.
    trace = run(quadratic_objective(), hubo_config(budget_T=60))
    assert trace.best_y == pytest.approx(0.0, abs=0.05)


def test_noise_stream_changes_observations_not_points_at_init():
    cfg = hubo_config(budget_T=0, seed=9)
    clean = run(quadratic_objective(), cfg)
    noisy_obj = Objective(
        fn=lambda x: -((x[0] - 5.0) ** 2), dim=1, noise_std=0.3
    )
    noisy = run(noisy_obj, cfg)
    for rc, rn in zip(clean.records, noisy.records):
        assert np.array_equal(rc.x, rn.x)
        assert rc.y != rn.y


def test_objective_failure_marks_trace_incomplete():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 4:
            raise RuntimeError("sensor died")
        return -float(x[0] ** 2)

    obj = Objective(fn=flaky, dim=1)
    trace = run(obj, hubo_config(budget_T=10))
    assert trace.incomplete
    assert trace.error is not None and "sensor died" in trace.error
    assert trace.error.startswith("evaluate failed at t=2:")
    assert len(trace.records) == 4  # the 4 successful evaluations


def beale_returning(value: float, on_call: int) -> Objective:
    from hubo.benchmarks import make_benchmark

    bench = make_benchmark("beale")
    calls = {"n": 0}

    def fn(x):
        calls["n"] += 1
        return value if calls["n"] == on_call else bench.eval(x)

    return Objective(fn=fn, dim=2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_objective_marks_trace_incomplete(value):
    # n_init = 3, so the 5th call is BO step t = 2.
    trace = run(beale_returning(value, on_call=5), small_2d_config("hubo", budget_T=10))
    assert trace.incomplete
    assert len(trace.records) == 4
    assert trace.error.startswith("evaluate failed at t=2: objective returned f=")


def test_fit_failure_marks_trace_incomplete():
    from hubo.benchmarks import make_benchmark

    bench = make_benchmark("beale")
    obj = Objective(fn=lambda x: 1e200 * bench.eval(x), dim=2)
    trace = run(obj, small_2d_config("hubo", budget_T=10))
    assert trace.incomplete
    assert len(trace.records) == 3  # the initial design; var(y) overflows at t = 1
    assert trace.error.startswith("fit failed at t=1: GpFactorizationError:")


def test_tiny_scale_fit_failure_marks_trace_incomplete():
    from hubo.benchmarks import make_benchmark

    bench = make_benchmark("beale")
    obj = Objective(fn=lambda x: 1e-200 * bench.eval(x), dim=2)
    trace = run(obj, small_2d_config("hubo", budget_T=10))
    assert trace.incomplete
    assert len(trace.records) == 3  # the initial design; the variances underflow at t = 1
    assert trace.error.startswith("fit failed at t=1: GpFactorizationError: fitted variances underflow")


def fail_third_factorization(monkeypatch):
    """Make the third PosteriorState factorization (BO step t = 3) exhaust its jitter."""
    real = gp._chol_with_jitter
    calls = {"n": 0}

    def chol(K_noisy, signal_variance):
        calls["n"] += 1
        if calls["n"] == 3:
            raise GpFactorizationError("factorization failed at maximum jitter 1e-05")
        return real(K_noisy, signal_variance)

    monkeypatch.setattr(gp, "_chol_with_jitter", chol)


@pytest.mark.parametrize("algorithm", ["hubo", "hdhubo"])
def test_maximize_failure_marks_trace_incomplete(monkeypatch, algorithm):
    fail_third_factorization(monkeypatch)
    trace = run(Objective(fn=lambda x: -float(x @ x), dim=2), small_2d_config(algorithm, 10))
    assert trace.incomplete
    assert [rec.t for rec in trace.records] == [0, 0, 0, 1, 2]
    assert trace.error == (
        "maximize failed at t=3: GpFactorizationError: "
        "factorization failed at maximum jitter 1e-05"
    )


# fault -> (error prefix, records kept).  With n_init = 3, the fifth
# objective call is BO step t = 2, and the PosteriorState of step t = 3 is
# the first built on 5 points.  The same faults as
# test_cli.test_fault_matrix_through_hubo_run, through run() directly.
_RUN_FAULTS = {
    "raise": ("evaluate failed at t=2: RuntimeError: boom", 4),
    "nan": ("evaluate failed at t=2: objective returned f=nan", 4),
    "+inf": ("evaluate failed at t=2: objective returned f=inf", 4),
    "-inf": ("evaluate failed at t=2: objective returned f=-inf", 4),
    "x1e200": ("fit failed at t=1: GpFactorizationError: target variance is not finite", 3),
    "x1e-200": ("fit failed at t=1: GpFactorizationError: fitted variances underflow", 3),
    "constant": (None, 3 + 6),
    "maximize": ("maximize failed at t=3: GpFactorizationError: injected", 5),
}


@pytest.mark.parametrize("fault", list(_RUN_FAULTS))
@pytest.mark.parametrize("algorithm", ["hubo", "hdhubo", "vol2"])
def test_fault_matrix_through_run(monkeypatch, algorithm, fault):
    from hubo.benchmarks import make_benchmark

    prefix, kept = _RUN_FAULTS[fault]
    bench = make_benchmark("beale")
    cfg = small_2d_config(algorithm, budget_T=6)
    clean = run(Objective(fn=bench.eval, dim=2), cfg)
    calls = {"n": 0}

    def fn(x):
        calls["n"] += 1
        y = bench.eval(x)
        if calls["n"] == 5 and fault == "raise":
            raise RuntimeError("boom")
        if calls["n"] == 5 and fault in ("nan", "+inf", "-inf"):
            return float(fault)
        return {"x1e200": 1e200 * y, "x1e-200": 1e-200 * y, "constant": 1.0}.get(fault, y)

    real_chol = gp._chol_with_jitter

    def chol(K_noisy, signal_variance):
        if fault == "maximize" and K_noisy.shape[0] == 5:
            raise GpFactorizationError("injected")
        return real_chol(K_noisy, signal_variance)

    monkeypatch.setattr(gp, "_chol_with_jitter", chol)
    trace = run(Objective(fn=fn, dim=2), cfg)
    assert len(trace.records) == kept
    if prefix is None:
        assert not trace.incomplete and trace.error is None
    else:
        assert trace.incomplete and trace.error.startswith(prefix)
    if fault in ("raise", "nan", "+inf", "-inf", "maximize"):
        # the steps before the fault are the fault-free run's steps
        for got, want in zip(trace.records, clean.records):
            assert (got.t, got.y, got.side) == (want.t, want.y, want.side)
            assert np.array_equal(got.x, want.x)


@pytest.mark.parametrize("algorithm", ["hubo", "hdhubo"])
def test_maximizer_repeating_one_point_runs_to_completion(monkeypatch, algorithm):
    # Every BO step observes the same point again, so from t = 3 on the fit
    # sees duplicate rows and a singular unit kernel.
    x_rep = np.array([0.25, 0.75])

    def same_point(model, data, beta_t, region, mcfg, seed):
        return x_rep.copy(), 0.0

    monkeypatch.setattr(driver, "maximize_over_box", same_point)
    monkeypatch.setattr(driver, "maximize_over_cubes", same_point)
    cfg = small_2d_config(algorithm, budget_T=15)
    if algorithm == "hdhubo":
        # cubes wider than the box cover all of it, so x_rep is always a member
        cfg = replace(cfg, hd=HdConfig(lam=1.0, n0=1, l_h=10.0),
                      beta=BetaSchedule(variant="hdhubo", delta=0.1, dim=2, l_h=10.0))
    trace = run(sphere_2d(), cfg)
    assert not trace.incomplete and trace.error is None
    steps = trace.records[3:]
    assert [rec.t for rec in steps] == list(range(1, 16))
    assert all(np.array_equal(rec.x, x_rep) for rec in steps)


def test_constant_objective_runs_to_completion():
    # The mean of three 0.1s is not 0.1; the fit must still see constant
    # targets and return the floor model instead of failing.
    trace = run(Objective(fn=lambda x: 0.1, dim=2), small_2d_config("hubo", budget_T=5))
    assert not trace.incomplete and trace.error is None
    assert len(trace.records) == 3 + 5


def test_best_x_earliest_tie():
    trace = RunTrace(algorithm="hubo", seed=0)
    xs = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    for t, (x, y) in enumerate(zip(xs, [5.0, 5.0, 4.0])):
        trace.records.append(
            IterationRecord(t=t, x=x, y=y, best_y=5.0, side=1.0)
        )
    np.testing.assert_allclose(trace.best_x, [1.0])
    assert trace.best_y == 5.0


def test_empty_trace_best_values():
    trace = RunTrace(algorithm="hubo", seed=0)
    assert trace.best_y == -math.inf
    assert trace.best_x is None


# ---------------------------------------------------------------------------
# run (hdhubo)
# ---------------------------------------------------------------------------


def test_hdhubo_n_cubes_schedule():
    trace = run(sphere_2d(), small_2d_config("hdhubo", budget_T=7))
    for rec in trace.records:
        if rec.t == 0:
            assert rec.n_cubes is None
        else:
            assert rec.n_cubes == rec.t  # lam=1, n0=1


def test_hdhubo_deterministic():
    cfg = small_2d_config("hdhubo", budget_T=5, seed=77)
    obj = sphere_2d()
    t1 = run(obj, cfg)
    t2 = run(obj, cfg)
    for r1, r2 in zip(t1.records, t2.records):
        assert np.array_equal(r1.x, r2.x)
        assert r1.y == r2.y


@pytest.mark.parametrize("seed", [77, 2**64 + 77])
def test_hdhubo_cube_stream_is_seeded_by_run_seed_2_0(monkeypatch, seed):
    # Every cube center comes from the stream [run seed, 2, 0], in step order.
    # Below 2**64 the trailing 0 is the same as SeedSequence's zero padding;
    # the larger seed shows it.
    drawn = []
    real = driver.sample_cubes

    def record(parent, t, cfg, rng):
        cube_set = real(parent, t, cfg, rng)
        drawn.append(cube_set)
        return cube_set

    monkeypatch.setattr(driver, "sample_cubes", record)
    run(sphere_2d(), small_2d_config("hdhubo", budget_T=4, seed=seed))
    rng = np.random.default_rng([seed, 2, 0])
    assert len(drawn) == 4
    for cs in drawn:
        expected = rng.uniform(cs.parent.lower, cs.parent.upper, size=(cs.n, 2))
        assert np.array_equal(cs.centers, expected)


def test_hdhubo_side_matches_closed_form():
    cfg = small_2d_config("hdhubo", budget_T=6)
    trace = run(sphere_2d(), cfg)
    for rec in trace.records:
        assert rec.side == pytest.approx(
            space.side_length(rec.t, cfg.expansion), rel=1e-12
        )


# ---------------------------------------------------------------------------
# run (vol2)
# ---------------------------------------------------------------------------


def test_vol2_doubling_schedule_d2():
    cfg = small_2d_config("vol2", budget_T=13)
    trace = run(sphere_2d(), cfg)
    side0 = cfg.expansion.initial_side
    for rec in trace.records:
        if rec.t == 0:
            assert rec.side == pytest.approx(side0)
        else:
            doublings = rec.t // 6  # 3d = 6
            assert rec.side == pytest.approx(
                side0 * 2.0 ** (doublings / 2.0), rel=1e-12
            )
    # volume doubles exactly at t = 6 and t = 12 (records[3 + t - 1] is t).
    assert trace.records[3 + 4].side == pytest.approx(side0)
    assert trace.records[3 + 5].side == pytest.approx(side0 * math.sqrt(2.0))
    assert trace.records[3 + 11].side == pytest.approx(side0 * 2.0)


def test_vol2_geometric_side_formula():
    side0 = 1.0
    for d in (1, 2, 3):
        for k in range(11):
            assert side0 * 2.0 ** (k / d) == pytest.approx(
                side0 * (2.0 ** (1.0 / d)) ** k, rel=1e-12
            )


def test_vol2_deterministic():
    cfg = small_2d_config("vol2", budget_T=4, seed=3)
    obj = sphere_2d()
    t1 = run(obj, cfg)
    t2 = run(obj, cfg)
    for r1, r2 in zip(t1.records, t2.records):
        assert np.array_equal(r1.x, r2.x)


def test_vol2_keeps_center_fixed():
    # All suggested points stay inside the doubling box around x0_center.
    cfg = small_2d_config("vol2", budget_T=8)
    trace = run(sphere_2d(), cfg)
    center = cfg.expansion.x0_center
    for rec in trace.records:
        if rec.t >= 1:
            assert np.all(np.abs(rec.x - center) <= 0.5 * rec.side + 1e-12)


# ---------------------------------------------------------------------------
# compute_regret
# ---------------------------------------------------------------------------


def synthetic_trace(xs: list[float], ts: list[int]) -> RunTrace:
    trace = RunTrace(algorithm="hubo", seed=0)
    best = -math.inf
    for t, xv in zip(ts, xs):
        y = -((xv - 5.0) ** 2)
        best = max(best, y)
        trace.records.append(
            IterationRecord(t=t, x=np.array([xv]), y=y, best_y=best, side=1.0)
        )
    return trace


def test_regret_all_optimal_hits_floor():
    trace = synthetic_trace([5.0, 5.0, 5.0], [1, 2, 3])
    compute_regret(trace, quadratic_objective())
    for rec in trace.records:
        assert rec.r_t == pytest.approx(0.0, abs=1e-15)
        assert rec.log_dist == -12.0
    assert trace.records[-1].R_t == pytest.approx(0.0, abs=1e-15)


def test_regret_constant_gap():
    # f(1) = -16, so each step has regret 16 and R_5 = 80 = T * gap.
    trace = synthetic_trace([1.0] * 5, [1, 2, 3, 4, 5])
    compute_regret(trace, quadratic_objective())
    assert trace.records[-1].R_t == pytest.approx(80.0, rel=1e-14)
    for rec in trace.records:
        assert rec.r_t == pytest.approx(16.0, rel=1e-14)
        assert rec.log_dist == pytest.approx(math.log10(16.0), rel=1e-14)


def test_regret_matches_summation_oracle():
    rng = np.random.default_rng(14)
    xs = list(rng.uniform(0, 10, size=5))
    trace = synthetic_trace(xs, [1, 2, 3, 4, 5])
    compute_regret(trace, quadratic_objective())
    running = 0.0
    best_f = -math.inf
    for rec, xv in zip(trace.records, xs):
        f = -((xv - 5.0) ** 2)
        best_f = max(best_f, f)
        running += 0.0 - f
        assert rec.r_t == pytest.approx(0.0 - f, rel=1e-14)
        assert rec.R_t == pytest.approx(running, rel=1e-14)
        assert rec.log_dist == pytest.approx(math.log10(-best_f), rel=1e-12)


def test_regret_skips_initial_rows_but_logs_distance():
    trace = synthetic_trace([1.0, 2.0, 3.0], [0, 0, 1])
    compute_regret(trace, quadratic_objective())
    assert trace.records[0].r_t is None
    assert trace.records[0].R_t is None
    assert trace.records[0].log_dist == pytest.approx(math.log10(16.0))
    assert trace.records[2].r_t == pytest.approx(4.0)
    assert trace.records[2].R_t == pytest.approx(4.0)


def test_regret_nonnegative_on_noiseless_run():
    trace = run(quadratic_objective(), hubo_config(budget_T=10, seed=21))
    compute_regret(trace, quadratic_objective())
    for rec in trace.records:
        if rec.t >= 1:
            assert rec.r_t >= 0.0


def test_regret_requires_optimum():
    trace = synthetic_trace([1.0], [1])
    with pytest.raises(ValueError):
        compute_regret(trace, Objective(fn=lambda x: 0.0, dim=1))


# ---------------------------------------------------------------------------
# sublinearity_diagnostic
# ---------------------------------------------------------------------------


def test_sublinearity_sqrt_regret_is_decreasing():
    trace = RunTrace(algorithm="hubo", seed=0)
    for t in range(1, 50):
        rec = IterationRecord(
            t=t, x=np.zeros(1), y=0.0, best_y=0.0, side=1.0
        )
        rec.R_t = math.sqrt(t)
        trace.records.append(rec)
    series_vals = [v for _, v in sublinearity_diagnostic(trace)]
    assert all(b < a for a, b in zip(series_vals, series_vals[1:]))
    assert series_vals[0] == pytest.approx(1.0)


def test_sublinearity_linear_regret_is_constant():
    trace = RunTrace(algorithm="hubo", seed=0)
    for t in range(1, 20):
        rec = IterationRecord(t=t, x=np.zeros(1), y=0.0, best_y=0.0, side=1.0)
        rec.R_t = float(t)
        trace.records.append(rec)
    series_vals = [v for _, v in sublinearity_diagnostic(trace)]
    assert all(v == pytest.approx(1.0) for v in series_vals)


def test_sublinearity_requires_filled_regret():
    trace = synthetic_trace([1.0], [1])
    with pytest.raises(ValueError):
        sublinearity_diagnostic(trace)
