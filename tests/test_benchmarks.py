"""Tests for the synthetic benchmark functions and run-setup helpers.

The Hartmann coefficient tables are checked against an independent
multi-start L-BFGS-B oracle run inside the test; the other optima have
closed forms.  All functions use the maximization convention (standard
minimization forms are negated), so the global optimum value of the
negated classics is 0.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from hubo import benchmarks
from hubo.benchmarks import initial_space, make_benchmark
from hubo.driver import Objective, random_search

ALL_NAMES = ("beale", "hartmann3", "hartmann6", "ackley", "levy")


def build(name: str):
    if name in ("ackley", "levy"):
        return make_benchmark(name, dim=2)
    return make_benchmark(name)


# ---------------------------------------------------------------------------
# construction and domains
# ---------------------------------------------------------------------------


def test_benchmark_names_constant():
    assert benchmarks.BENCHMARK_NAMES == ALL_NAMES


def test_canonical_domains():
    expected = {
        "beale": (-4.5, 4.5, 2),
        "hartmann3": (0.0, 1.0, 3),
        "hartmann6": (0.0, 1.0, 6),
        "ackley": (-32.768, 32.768, 2),
        "levy": (-10.0, 10.0, 2),
    }
    for name, (lo, hi, dim) in expected.items():
        bench = build(name)
        assert bench.dim == dim
        np.testing.assert_allclose(bench.lower, np.full(dim, lo))
        np.testing.assert_allclose(bench.upper, np.full(dim, hi))


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_benchmark("rosenbrock")


def test_scalable_functions_require_dim():
    with pytest.raises(ValueError):
        make_benchmark("ackley")
    with pytest.raises(ValueError):
        make_benchmark("levy")


def test_fixed_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        make_benchmark("beale", dim=3)
    assert make_benchmark("hartmann6", dim=6).dim == 6


@pytest.mark.parametrize(
    "name, dim, message",
    [
        ("Rosenbrock", None,
         "benchmark must be one of "
         "('beale', 'hartmann3', 'hartmann6', 'ackley', 'levy'), got 'Rosenbrock'"),
        # names match exactly: only `hubo run` folds the case of config text
        ("Beale", None,
         "benchmark must be one of "
         "('beale', 'hartmann3', 'hartmann6', 'ackley', 'levy'), got 'Beale'"),
        (3, None,
         "benchmark must be one of "
         "('beale', 'hartmann3', 'hartmann6', 'ackley', 'levy'), got 3"),
        (None, None,
         "benchmark must be one of "
         "('beale', 'hartmann3', 'hartmann6', 'ackley', 'levy'), got None"),
        ("beale", 3, "benchmark 'beale' is 2-dimensional, got dim=3"),
        ("hartmann3", 2, "benchmark 'hartmann3' is 3-dimensional, got dim=2"),
        ("hartmann6", 3, "benchmark 'hartmann6' is 6-dimensional, got dim=3"),
        ("ackley", None, "dim is required for benchmark 'ackley'"),
        ("levy", 0, "dim must be >= 1, got 0"),
    ],
)
def test_make_benchmark_error_messages(name, dim, message):
    with pytest.raises(ValueError) as info:
        make_benchmark(name, dim)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["beale", "ackley"])
def test_make_benchmark_takes_only_an_integer_dim(name):
    with pytest.raises(TypeError) as info:
        make_benchmark(name, 2.0)
    assert str(info.value) == "dim must be an integer, got 2.0"


def test_fixed_dim_is_the_built_dimension():
    assert [benchmarks.fixed_dim(name) for name in ALL_NAMES] == [2, 3, 6, None, None]
    for name in ("beale", "hartmann3", "hartmann6"):
        bench = make_benchmark(name)
        assert bench.dim == benchmarks.fixed_dim(name)
        assert bench.optimum_point.shape == (bench.dim,)
        assert not bench.optimum_point.flags.writeable


# ---------------------------------------------------------------------------
# optima
# ---------------------------------------------------------------------------


def test_ackley_optimum_at_origin():
    bench = make_benchmark("ackley", dim=4)
    assert bench.eval(np.zeros(4)) == pytest.approx(0.0, abs=1e-12)
    assert bench.optimum_value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(bench.optimum_point, np.zeros(4))


def test_levy_optimum_at_ones():
    bench = make_benchmark("levy", dim=3)
    assert bench.eval(np.ones(3)) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(bench.optimum_point, np.ones(3))


def test_beale_optimum():
    bench = make_benchmark("beale")
    assert bench.eval(np.array([3.0, 0.5])) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(bench.optimum_point, [3.0, 0.5])


def test_eval_at_optimum_matches_metadata():
    for name in ALL_NAMES:
        bench = build(name)
        assert bench.eval(bench.optimum_point) == pytest.approx(
            bench.optimum_value, abs=1e-9
        )
        assert np.all(bench.optimum_point >= bench.lower)
        assert np.all(bench.optimum_point <= bench.upper)


def test_random_points_never_beat_optimum():
    rng = np.random.default_rng(2023)
    for name in ALL_NAMES:
        bench = build(name)
        pts = rng.uniform(bench.lower, bench.upper, size=(10_000, bench.dim))
        vals = np.array([bench.eval(p) for p in pts])
        assert np.all(vals <= bench.optimum_value + 1e-9)


def test_hartmann_tables_against_multistart_oracle():
    # Independent check of the coefficient tables: multi-start L-BFGS-B on
    # the negated surface must reproduce the stored optimum value and point.
    for name, n_starts in (("hartmann3", 40), ("hartmann6", 80)):
        bench = build(name)
        rng = np.random.default_rng(314)
        best_val = -np.inf
        best_x = None
        for _ in range(n_starts):
            x0 = rng.uniform(0.0, 1.0, size=bench.dim)
            res = minimize(
                lambda x: -bench.eval(x),
                x0,
                method="L-BFGS-B",
                bounds=[(0.0, 1.0)] * bench.dim,
            )
            if -res.fun > best_val:
                best_val = -res.fun
                best_x = res.x
        assert best_val == pytest.approx(bench.optimum_value, abs=1e-6)
        np.testing.assert_allclose(best_x, bench.optimum_point, atol=1e-4)


def test_hartmann_frozen_optimum_values():
    # Polished values (multi-start L-BFGS-B at convergence, frozen).
    assert build("hartmann3").optimum_value == pytest.approx(
        3.862779787332663, abs=1e-9
    )
    assert build("hartmann6").optimum_value == pytest.approx(
        3.322368011415515, abs=1e-9
    )


def test_eval_rejects_wrong_shape():
    bench = build("beale")
    with pytest.raises(ValueError):
        bench.eval(np.zeros(3))


# ---------------------------------------------------------------------------
# initial_space
# ---------------------------------------------------------------------------


def test_initial_space_side_fraction():
    bench = build("hartmann3")  # domain [0,1]^3
    space = initial_space(bench, 0.2, seed=0)
    assert space.side == pytest.approx(0.2)
    assert space.a == 0.0
    assert space.b == pytest.approx(0.2)


def test_initial_space_tiny_fraction():
    bench = build("beale")  # domain side 9
    space = initial_space(bench, 0.02, seed=1)
    assert space.side == pytest.approx(0.18)


def test_initial_space_full_fraction_centers_domain():
    bench = build("levy")
    space = initial_space(bench, 1.0, seed=5)
    assert space.side == pytest.approx(20.0)
    np.testing.assert_allclose(space.x0_center, np.zeros(2))
    np.testing.assert_allclose(space.c_min, bench.lower)
    np.testing.assert_allclose(space.c_max, bench.upper)


def test_initial_space_box_inside_domain():
    for seed in range(25):
        bench = build("ackley")
        space = initial_space(bench, 0.2, seed=seed)
        half = 0.5 * space.side
        assert np.all(space.x0_center - half >= bench.lower - 1e-12)
        assert np.all(space.x0_center + half <= bench.upper + 1e-12)
        # C region is the 10x concentric cube clipped to the domain, and
        # always contains X0.
        assert np.all(space.c_min >= bench.lower - 1e-12)
        assert np.all(space.c_max <= bench.upper + 1e-12)
        assert np.all(space.c_min <= space.x0_center - half + 1e-12)
        assert np.all(space.c_max >= space.x0_center + half - 1e-12)


def test_initial_space_deterministic_per_seed():
    bench = build("beale")
    s1 = initial_space(bench, 0.2, seed=7)
    s2 = initial_space(bench, 0.2, seed=7)
    s3 = initial_space(bench, 0.2, seed=8)
    assert np.array_equal(s1.x0_center, s2.x0_center)
    assert not np.array_equal(s1.x0_center, s3.x0_center)


def test_initial_space_rejects_bad_fraction():
    bench = build("beale")
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            initial_space(bench, fraction, seed=0)


def test_initial_space_to_expansion_round_trip():
    bench = build("ackley")
    space = initial_space(bench, 0.2, seed=3)
    cfg = space.to_expansion(-1.0)
    assert cfg.initial_side == pytest.approx(space.side)
    np.testing.assert_allclose(cfg.x0_center, space.x0_center)


# ---------------------------------------------------------------------------
# driver.random_search on benchmark domains
# ---------------------------------------------------------------------------


def random_over_domain(bench, T: int, seed: int, noise_std: float = 0.0):
    obj = Objective.from_benchmark(bench, noise_std=noise_std)
    return random_search(obj, bench.lower, bench.upper, T, seed)


def test_random_search_single_draw():
    trace = random_over_domain(build("beale"), 1, seed=0)
    assert len(trace.records) == 1
    assert trace.records[0].t == 1
    assert trace.algorithm == "random"


def test_random_search_deterministic():
    bench = build("ackley")
    t1 = random_over_domain(bench, 50, seed=9)
    t2 = random_over_domain(bench, 50, seed=9)
    for r1, r2 in zip(t1.records, t2.records):
        assert np.array_equal(r1.x, r2.x)
        assert r1.y == r2.y


def test_random_search_best_is_running_max():
    bench = build("levy")
    trace = random_over_domain(bench, 100, seed=4)
    best = -np.inf
    for rec in trace.records:
        best = max(best, rec.y)
        assert rec.best_y == best
        assert np.all(rec.x >= bench.lower) and np.all(rec.x <= bench.upper)


def test_random_search_ackley_reaches_modest_level():
    # Ackley d=2 over the full domain: 1e4 uniform draws land within a few
    # units of the optimum on each of 5 fixed seeds (measured worst -2.84).
    bench = build("ackley")
    for seed in range(5):
        trace = random_over_domain(bench, 10_000, seed=seed)
        assert trace.records[-1].best_y >= -4.0


def test_random_search_noise_comes_from_objective():
    bench = build("beale")
    noisy = random_over_domain(bench, 20, seed=11, noise_std=0.5)
    clean = random_over_domain(bench, 20, seed=11)
    # Same points, different observations.
    for rn, rc in zip(noisy.records, clean.records):
        assert np.array_equal(rn.x, rc.x)
    assert any(rn.y != rc.y for rn, rc in zip(noisy.records, clean.records))


def test_random_search_accepts_rectangular_region():
    # The bounds need not form a cube.
    lower = np.array([0.0, -1.0])
    upper = np.array([1.0, 3.0])
    obj = Objective.from_benchmark(build("ackley"))
    trace = random_search(obj, lower, upper, 30, seed=2)
    for rec in trace.records:
        assert np.all(rec.x >= lower) and np.all(rec.x <= upper)


def beale_failing_on_call(n: int, fault):
    """Beale whose n-th call raises (fault is None) or returns `fault`."""
    bench = build("beale")
    calls = {"n": 0}

    def fn(x):
        calls["n"] += 1
        if calls["n"] == n:
            if fault is None:
                raise RuntimeError("boom")
            return fault
        return bench.fn(x)

    return replace(bench, fn=fn)


@pytest.mark.parametrize("fault", [math.nan, math.inf, -math.inf])
def test_random_search_non_finite_objective_ends_trace_incomplete(fault):
    bench = beale_failing_on_call(3, fault)
    trace = random_over_domain(bench, 10, seed=0)
    assert trace.incomplete
    assert trace.error.startswith("evaluate failed at t=3: objective returned f=")
    assert [rec.t for rec in trace.records] == [1, 2]
    assert all(math.isfinite(rec.y) for rec in trace.records)


def test_random_search_objective_exception_ends_trace_incomplete():
    bench = beale_failing_on_call(5, None)
    trace = random_over_domain(bench, 10, seed=0)
    assert trace.incomplete
    assert trace.error == "evaluate failed at t=5: RuntimeError: boom"
    assert [rec.t for rec in trace.records] == [1, 2, 3, 4]


def test_random_search_complete_trace_is_not_incomplete():
    bench = build("beale")
    trace = random_over_domain(bench, 10, seed=0)
    assert not trace.incomplete
    assert trace.error is None


def test_random_search_rejects_bad_budget():
    bench = build("beale")
    with pytest.raises(ValueError):
        random_over_domain(bench, 0, seed=0)

