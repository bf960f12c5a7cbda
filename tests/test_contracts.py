"""The hostile-config contract.

Every library config either fails to construct, with a ValueError or
TypeError whose message names one of its fields, or `run()` returns a trace,
complete or incomplete.  `random_search` keeps the same contract for its
arguments, and `benchmarks.initial_space` for its own: a placement it
returns gives an `ExpansionConfig` that constructs.  The explicit cases
below are the holes the contract closed; the property test draws NaN, ±inf,
huge and tiny finite values, floats in integer fields, negatives and zero
for every field, None, a number, an unknown name and an upper-cased one
for every named choice, and a cube-schedule lam past the cube-count cap.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubo import contracts
from hubo.acquisition import BetaSchedule, MaximizerConfig, beta
from hubo.benchmarks import BENCHMARK_NAMES, initial_space, make_benchmark
from hubo.cubes import HdConfig, HypercubeSet
from hubo.driver import (
    ALGORITHMS, MAX_CUBE_VALUES, Objective, RunConfig, RunTrace, random_search, run,
)
from hubo.gp import KERNEL_FAMILIES, FitConfig, GpModel, KernelSpec
from hubo.space import ExpansionConfig, SearchBox

NAN, INF = math.nan, math.inf
BEALE = make_benchmark("beale")


def expansion(**kw) -> ExpansionConfig:
    base = dict(a=0.0, b=1.0, alpha=-1.0, c_min=-3.0, c_max=4.0, dim=1)
    return ExpansionConfig(**{**base, **kw})


def run_config(**kw) -> RunConfig:
    base = dict(
        expansion=expansion(),
        beta=BetaSchedule(variant="hubo", delta=0.1, dim=1, a=0.0, b=1.0, alpha=-1.0),
        maximizer=MaximizerConfig(restarts=4, max_evals=40),
        budget_T=2,
        n_init=2,
        seed=0,
        algorithm="hubo",
    )
    return RunConfig(**{**base, **kw})


def sphere(x) -> float:
    return -float(np.sum((np.asarray(x) - 0.3) ** 2))


# ---------------------------------------------------------------------------
# The helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [2.0, 1.5, NAN, INF, True, np.float64(3.0), "3", None])
def test_count_takes_only_true_integers(value):
    with pytest.raises(TypeError, match=re.escape(f"n0 must be an integer, got {value!r}")):
        contracts.count("n0", value, 1)


def test_count_accepts_numpy_integers_and_checks_the_minimum():
    assert contracts.count("n0", np.int64(3), 1) == 3
    assert type(contracts.count("n0", np.int64(3), 1)) is int
    with pytest.raises(ValueError, match=re.escape("n0 must be >= 1, got 0")):
        contracts.count("n0", 0, 1)


@pytest.mark.parametrize(
    "args, message",
    [
        (("lam", NAN, 0.0), "lam must be >= 0, got nan"),
        (("lam", INF, 0.0), "lam must be finite, got inf"),
        (("l_h", -INF, 0.0, INF, "(]"), "l_h must be > 0, got -inf"),
        (("alpha", 0.0, -1.0, 0.0, "[)"), "alpha must lie in [-1, 0), got 0.0"),
        (("delta", INF, 0.0, 1.0, "()"), "delta must lie in (0, 1), got inf"),
        (("a", NAN), "a must be finite, got nan"),
        (("a", "1.0"), "a must be a real number, got '1.0'"),
    ],
)
def test_real_checks_the_range_then_finiteness(args, message):
    with pytest.raises((ValueError, TypeError)) as info:
        contracts.real(*args)
    assert str(info.value) == message


def test_frozen_checks_finiteness_only_for_a_named_field():
    with pytest.raises(ValueError, match=re.escape("c_min must be finite, got [nan  1.]")):
        contracts.frozen([NAN, 1.0], name="c_min")


@pytest.mark.parametrize("value", [None, 3, "bogus", "SE", ["se"], np.array(["se", "se"])])
def test_choice_takes_only_an_option(value):
    with pytest.raises(ValueError) as info:
        contracts.choice("kernel_family", value, ("se", "matern52"))
    assert str(info.value) == f"kernel_family must be one of ('se', 'matern52'), got {value!r}"


def test_choice_returns_the_option():
    assert contracts.choice("kernel_family", "matern52", ("se", "matern52")) == "matern52"


# ---------------------------------------------------------------------------
# Holes the contract closed: each config used to construct
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: run_config(budget_T=2.5), TypeError, "budget_T must be an integer, got 2.5"),
        (lambda: run_config(n_init=2.5), TypeError, "n_init must be an integer, got 2.5"),
        (lambda: run_config(seed=1.5), TypeError, "seed must be an integer, got 1.5"),
        (lambda: run_config(seed=-1), ValueError, "seed must be >= 0, got -1"),
        (lambda: run_config(kernel_family="bogus"), ValueError,
         "kernel_family must be one of ('se', 'matern52'), got 'bogus'"),
        (lambda: MaximizerConfig(restarts=2.5, max_evals=40), TypeError,
         "restarts must be an integer, got 2.5"),
        (lambda: MaximizerConfig(restarts=4, max_evals=INF), TypeError,
         "max_evals must be an integer, got inf"),
        (lambda: expansion(b=INF, c_min=-INF, c_max=INF, x0_center=0.0), ValueError,
         "b must be finite, got inf"),
        (lambda: expansion(a=-1e308, b=1e308, c_min=-INF, c_max=INF), ValueError,
         "b - a must be finite, got inf"),
        (lambda: expansion(c_min=-INF), ValueError, "c_min must be finite, got [-inf]"),
        (lambda: Objective(fn=sphere, dim=2.5), TypeError, "dim must be an integer, got 2.5"),
        (lambda: HdConfig(lam=1.0, n0=1.5, l_h=0.1), TypeError, "n0 must be an integer, got 1.5"),
        (lambda: SearchBox(center=[0.0], half_side=INF, dim=1), ValueError,
         "half_side must be finite, got inf"),
        (lambda: FitConfig(side_length=INF), ValueError, "side_length must be finite, got inf"),
        (lambda: KernelSpec("se", INF, 1.0), ValueError, "lengthscale must be finite, got inf"),
        (lambda: GpModel(KernelSpec("se", 1.0, 1.0), noise_variance=INF), ValueError,
         "noise_variance must be finite, got inf"),
        # beta_t's tail sqrt(log(4 * dim * s1 / delta)) would be the root of
        # a negative number at t = 1
        (lambda: BetaSchedule(variant="hubo", delta=0.5, dim=1, s1=0.1, a=0.0, b=1.0,
                              alpha=-1.0), ValueError, "s1 must be > delta / (4 * dim), got 0.1"),
        (lambda: HypercubeSet([[0.0], [1.5]], 0.2, SearchBox([0.0], 1.0, 1)), ValueError,
         "centers must lie in the parent box"),
        (lambda: initial_space(BEALE, 0.2, -1), ValueError, "seed must be >= 0, got -1"),
        (lambda: initial_space(BEALE, 0.2, True), TypeError, "seed must be an integer, got True"),
        # X0's side is 9e-300, so center +- 5 * side rounds to the center
        (lambda: initial_space(BEALE, 1e-300, 0), ValueError,
         "fraction 1e-300 gives C_initial no width at its center"),
    ],
    ids=["budget_T", "n_init", "seed-float", "seed-negative", "kernel_family", "restarts",
         "max_evals", "b-inf", "b-a-overflow", "c_min-inf", "Objective-dim", "n0", "half_side",
         "side_length", "lengthscale", "noise_variance", "s1-tail", "cube-center",
         "placement-seed-negative", "placement-seed-bool", "placement-fraction-no-width"],
)
def test_hostile_config_is_rejected_at_construction(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "lower, upper, seed, error, message",
    [
        ([0.0, 0.0], [1.0, 1.0], -1, ValueError, "seed must be >= 0, got -1"),
        ([-INF, 0.0], [1.0, 1.0], 0, ValueError, "lower must be finite, got [-inf   0.]"),
        ([1.0, 0.0], [0.0, 1.0], 0, ValueError,
         "need upper >= lower, got lower=[1. 0.], upper=[0. 1.]"),
        ([-1e308, 0.0], [1e308, 1.0], 0, ValueError, "upper - lower must be finite, got inf"),
    ],
    ids=["seed", "lower-inf", "upper-below-lower", "width-overflow"],
)
def test_random_search_rejects_hostile_arguments(lower, upper, seed, error, message):
    with np.errstate(over="ignore"), pytest.raises(error) as info:
        random_search(Objective(fn=sphere, dim=2), lower, upper, 3, seed)
    assert str(info.value) == message


@pytest.mark.parametrize("b", [1e-300, 1e300, 1e308])
def test_interval_out_of_lengthscale_range_ends_the_run_at_the_first_fit(b):
    # The floor model's lengthscale sqrt(ls_lo * ls_hi) underflows or
    # overflows for a constant objective; the fit fails before any box side
    # can overflow.
    cfg = run_config(
        expansion=expansion(a=0.0, b=b, c_min=0.0, c_max=b),
        beta=BetaSchedule(variant="hubo", delta=0.1, dim=1, a=0.0, b=b, alpha=-1.0),
    )
    trace = run(Objective(fn=lambda x: 1.0, dim=1), cfg)
    assert trace.error.startswith("fit failed at t=1: GpFactorizationError: box side ")
    assert [rec.t for rec in trace.records] == [0, 0]


def test_infinite_beta_ends_the_run():
    # log(dim * t * s2 * side * tail) overflows: beta_t = inf would score
    # every point inf, or NaN where the posterior variance is 0
    cfg = run_config(beta=BetaSchedule(variant="hubo", delta=0.1, dim=1, s2=1e308,
                                       a=0.0, b=1.0, alpha=-1.0))
    trace = run(Objective(fn=sphere, dim=1), cfg)
    assert trace.error == "beta failed at t=1: beta_t is inf"


def hdhubo_config(lam: float, n0: int = 1, budget_T: int = 2, dim: int = 1) -> RunConfig:
    return run_config(
        expansion=expansion(dim=dim), budget_T=budget_T, algorithm="hdhubo",
        beta=BetaSchedule(variant="hdhubo", delta=0.1, dim=dim, l_h=0.1),
        hd=HdConfig(lam=lam, n0=n0, l_h=0.1),
    )


@pytest.mark.parametrize("lam", [1e300, 40.0], ids=["overflow", "past-the-cap"])
def test_cube_count_past_the_cap_is_rejected_at_construction(lam):
    # 2**1e300 overflows float64, and 2**40 cubes are finite but far past
    # MAX_CUBE_VALUES; either way the run is refused before it starts
    with pytest.raises(ValueError) as info:
        hdhubo_config(lam)
    assert str(info.value) == f"lam must keep N_T * dim <= 16777216 at budget_T=2, got {lam}"
    # t = 1 has one cube whatever lam is, and budget_T = 0 draws none
    assert hdhubo_config(lam, budget_T=1).hd.lam == lam
    assert hdhubo_config(lam, budget_T=0).hd.lam == lam


@pytest.mark.parametrize(
    "fields, one_more",
    [
        (dict(lam=0.0, n0=MAX_CUBE_VALUES, budget_T=5), dict(n0=MAX_CUBE_VALUES + 1)),
        (dict(lam=1.0, budget_T=MAX_CUBE_VALUES // 2, dim=2),
         dict(budget_T=MAX_CUBE_VALUES // 2 + 1)),
        # sqrt(2**48 + 1) is 2**24 + 3e-8, which the ceiling makes one cube more
        (dict(lam=0.5, budget_T=2**48), dict(budget_T=2**48 + 1)),
    ],
    ids=["n0", "budget_T", "ceiling"],
)
def test_cube_count_cap_admits_exactly_max_cube_values(fields, one_more):
    # N_T * dim == MAX_CUBE_VALUES builds; one cube more does not
    assert hdhubo_config(**fields).hd.lam == fields["lam"]
    with pytest.raises(ValueError, match=r"^lam must keep N_T \* dim <= 16777216 at budget_T="):
        hdhubo_config(**{**fields, **one_more})


def test_beta_scale_that_underflows_gives_zero_beta():
    # 2 * s2 * l_h * dim * tail * t * t rounds to 0: its log is -inf
    sched = BetaSchedule(variant="hdhubo", delta=0.1, dim=1, s2=1e-300, l_h=1e-300)
    assert beta(1, sched) == 0.0
    cfg = run_config(
        beta=sched, algorithm="hdhubo", hd=HdConfig(lam=1.0, n0=1, l_h=1e-300)
    )
    trace = run(Objective(fn=sphere, dim=1), cfg)
    assert not trace.incomplete
    assert len(trace.records) == 4


# ---------------------------------------------------------------------------
# The property: construct-or-run for every draw
# ---------------------------------------------------------------------------

# Values outside any sensible range; the magnitudes are not capped.
HOSTILE_REALS = [NAN, INF, -INF, 1e300, -1e300, 1e308, 1e-300, 0.0, -1.0]
HOSTILE_COUNTS = [-1, 0, 1.0, 2.5, NAN, INF, True]
# lam values whose cube count passes MAX_CUBE_VALUES from budget_T = 2
HUGE_LAMS = [40.0, 1e300]


def hostile_or(strategy, hostile):
    """A draw of strategy, or one time in sixteen a hostile value, so that
    many examples get far enough to run."""
    return st.tuples(st.integers(0, 15), strategy, st.sampled_from(hostile)).map(
        lambda t: t[2] if t[0] == 15 else t[1]
    )


def reals(low: float, high: float):
    return hostile_or(st.floats(low, high, exclude_min=True, exclude_max=True), HOSTILE_REALS)


def counts(low: int, high: int):
    # the integer fields bound the work, so their valid draws stay small
    return hostile_or(st.integers(low, high), HOSTILE_COUNTS)


def names(valid):
    """A valid name, or a hostile one: None, a number, an unknown name or a
    valid name upper-cased."""
    return hostile_or(st.sampled_from(valid), [None, 3, "bogus", *(v.upper() for v in valid)])


def names_a_field(exc: Exception, names) -> bool:
    """Whether the message names one of the fields."""
    return any(re.search(rf"\b{re.escape(n)}\b", str(exc)) for n in names)


def built(cls, **fields):
    """cls(**fields), or None after checking that the error names a field."""
    try:
        return cls(**fields)
    except (ValueError, TypeError) as exc:
        assert names_a_field(exc, [f.name for f in dataclasses.fields(cls)]), (cls, exc)
        return None


@pytest.mark.filterwarnings("ignore:overflow encountered")  # the objective at huge x
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_every_config_constructs_or_runs(data):
    dim = data.draw(counts(1, 3), "dim")
    # a noiseless constant objective makes the fit take its floor model
    if data.draw(st.booleans(), "constant"):
        obj = built(Objective, fn=lambda x: 1.0, dim=dim)
    else:
        noise_std = data.draw(st.just(0.0) | reals(0.0, 1.0), "noise_std")
        obj = built(Objective, fn=sphere, dim=dim, noise_std=noise_std)
    if obj is not None:
        lower = np.array(data.draw(st.lists(reals(-2.0, 2.0), min_size=dim, max_size=dim)))
        with np.errstate(all="ignore"):
            upper = lower + data.draw(reals(0.0, 5.0), "width")
        T, seed = data.draw(counts(1, 4), "T"), data.draw(counts(0, 2**40), "seed")
        try:
            trace = random_search(obj, lower, upper, T, seed)
        except (ValueError, TypeError) as exc:
            assert names_a_field(exc, ["T", "seed", "lower", "upper"]), exc
        else:
            assert isinstance(trace, RunTrace)

    # an accepted benchmark and placement give a run's geometry
    try:
        bench = make_benchmark(data.draw(names(BENCHMARK_NAMES), "benchmark"),
                               data.draw(st.none() | counts(1, 6), "benchmark dim"))
    except (ValueError, TypeError) as exc:
        assert names_a_field(exc, ["benchmark", "dim"]), exc
        bench = BEALE
    try:
        placed = initial_space(bench, data.draw(reals(0.0, 1.0), "fraction"),
                               data.draw(counts(0, 2**40), "placement seed"))
    except (ValueError, TypeError) as exc:
        assert names_a_field(exc, ["fraction", "seed"]), exc
    else:
        placed.to_expansion(-1.0)

    # the GP's own configs, which run() builds from kernel_family
    family = data.draw(names(KERNEL_FAMILIES), "family")
    built(FitConfig, side_length=data.draw(reals(0.0, 5.0), "side_length"), family=family)
    built(KernelSpec, family=family, lengthscale=data.draw(reals(0.0, 5.0), "lengthscale"),
          signal_variance=data.draw(reals(0.0, 5.0), "signal_variance"))

    a = data.draw(reals(-2.0, 2.0), "a")
    # b - a spans every magnitude, where a constant objective's floor model
    # has a lengthscale out of float64 range
    scale = data.draw(st.sampled_from([1.0, 1.0, 1e300, 1e-300]), "scale")
    b = a + data.draw(reals(0.01, 4.0), "b - a") * scale
    pad = data.draw(reals(0.0, 5.0), "pad") * scale
    exp = built(
        ExpansionConfig, a=a, b=b, alpha=data.draw(reals(-1.0, -0.01), "alpha"),
        c_min=a - pad, c_max=b + pad, dim=dim,
        x0_center=data.draw(hostile_or(st.none(), HOSTILE_REALS), "x0_center"),
    )
    algorithm = data.draw(names(ALGORITHMS), "algorithm")
    l_h = data.draw(reals(0.01, 2.0), "l_h")
    sched = dict(delta=data.draw(reals(0.0, 1.0), "delta"), dim=dim,
                 s1=data.draw(reals(0.5, 3.0), "s1"), s2=data.draw(reals(0.0, 3.0), "s2"),
                 variant=data.draw(names(["hdhubo" if algorithm == "hdhubo" else "hubo"]),
                                   "variant"))
    hd = None
    if algorithm == "hdhubo":
        schedule = built(BetaSchedule, l_h=l_h, **sched)
        # lam and n0 set the cube count n0 * ceil(t**lam), so they bound the
        # work too.  Half the draws are 40 or 1e300 (where t**lam overflows):
        # from budget_T = 2 they put N_T past MAX_CUBE_VALUES, and RunConfig
        # must refuse them
        lam = data.draw(hostile_or(st.floats(0.0, 2.0), [NAN, INF, -INF, -1.0])
                        | st.sampled_from(HUGE_LAMS), "lam")
        hd = built(HdConfig, lam=lam, n0=data.draw(counts(1, 3), "n0"), l_h=l_h)
    else:
        alpha = data.draw(reals(-1.0, -0.01), "beta alpha")
        schedule = built(BetaSchedule, a=a, b=b, alpha=alpha, **sched)
    maximizer = built(MaximizerConfig, restarts=data.draw(counts(1, 5), "restarts"),
                      max_evals=data.draw(counts(1, 50), "max_evals"))
    if None in (exp, schedule, maximizer) or (algorithm == "hdhubo" and hd is None):
        return
    budget_T = data.draw(counts(1, 3), "budget_T")
    cfg = built(
        RunConfig, expansion=exp, beta=schedule, maximizer=maximizer,
        budget_T=budget_T, n_init=data.draw(counts(2, 4), "n_init"),
        seed=data.draw(counts(0, 2**40), "seed"), algorithm=algorithm, hd=hd,
        kernel_family=data.draw(names(KERNEL_FAMILIES), "kernel_family"),
    )
    if hd is not None and hd.lam in HUGE_LAMS and budget_T in (2, 3):
        assert cfg is None
    if obj is not None and cfg is not None:
        assert isinstance(run(obj, cfg), RunTrace)
