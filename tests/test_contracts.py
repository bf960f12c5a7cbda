"""The hostile-config contract.

Every library config either fails to construct, with a ValueError or
TypeError whose message names one of its fields, or `run()` returns a trace,
complete or incomplete.  `random_search` keeps the same contract for its
arguments, and `benchmarks.initial_space` for its own: a placement it
returns gives an `ExpansionConfig` that constructs.  The explicit cases
below are the holes the contract closed.  The property test makes one
field per case hostile and draws the others valid: NaN, ±inf, huge and tiny
finite values, floats in integer fields, negatives and zero for every
field, None, a number, an unknown name and an upper-cased one for every
named choice, and a cube-schedule lam past the cube-count cap.
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
from hubo.benchmarks import BENCHMARK_NAMES, BenchmarkFunction, initial_space, make_benchmark
from hubo.cubes import HdConfig, HypercubeSet
from hubo.driver import (
    ALGORITHMS, MAX_CUBE_VALUES, Objective, RunConfig, RunTrace, compute_regret, random_search,
    run,
)
from hubo.gp import KERNEL_FAMILIES, FitConfig, GpModel, KernelSpec
from hubo.space import ExpansionConfig, InitialSpace, SearchBox

NAN, INF = math.nan, math.inf
BEALE = make_benchmark("beale")


# Valid start geometries in 1-D and 3-D.
EXPANSION = dict(a=0.0, b=1.0, c_min=-3.0, c_max=4.0, dim=1)
START = dict(dim=3, a=0.0, b=1.0, x0_center=[0.5] * 3, c_min=[0.0] * 3, c_max=[1.0] * 3)


def expansion(**kw) -> ExpansionConfig:
    return ExpansionConfig(**{**EXPANSION, "alpha": -1.0, **kw})


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


# id -> (a hostile start geometry, error, message).  InitialSpace owns these
# rules and ExpansionConfig inherits them, so both must give one verdict.
HOSTILE_GEOMETRY = {
    "b-inf": ({**EXPANSION, "b": INF, "c_min": -INF, "c_max": INF, "x0_center": 0.0},
              ValueError, "b must be finite, got inf"),
    "b-a-overflow": ({**EXPANSION, "a": -1e308, "b": 1e308, "c_min": -INF, "c_max": INF},
                     ValueError, "b - a must be finite, got inf"),
    "c_min-inf": ({**EXPANSION, "c_min": -INF}, ValueError, "c_min must be finite, got [-inf]"),
    "InitialSpace-dim-float": ({**START, "dim": 2.5}, TypeError,
                               "dim must be an integer, got 2.5"),
    "InitialSpace-dim-zero": ({**START, "dim": 0}, ValueError, "dim must be >= 1, got 0"),
    "InitialSpace-a-nan": ({**START, "a": NAN}, ValueError, "a must be finite, got nan"),
    "InitialSpace-b-below-a": ({**START, "b": -1.0}, ValueError,
                               "need b > a, got a=0.0, b=-1.0"),
    "InitialSpace-b-nan": ({**START, "b": NAN}, ValueError, "b must be finite, got nan"),
    "InitialSpace-side-overflow": ({**START, "a": -1e308, "b": 1e308}, ValueError,
                                   "b - a must be finite, got inf"),
    "InitialSpace-x0_center-shape": ({**START, "x0_center": [0.5, 0.5]}, ValueError,
                                     "x0_center has shape (2,), expected (3,)"),
    "InitialSpace-c_min-shape": ({**START, "c_min": [[0.0]]}, ValueError,
                                 "c_min has shape (1, 1), expected (3,)"),
    "InitialSpace-c_max-shape": ({**START, "c_max": [1.0, 2.0, 3.0, 4.0]}, ValueError,
                                 "c_max has shape (4,), expected (3,)"),
    # every field is valid on its own; the relation between them is not
    "InitialSpace-c_max-below-c_min": (
        dict(dim=1, a=0.0, b=1.0, x0_center=[5.0], c_min=[1.0], c_max=[0.0]),
        ValueError, "need c_max > c_min in every dimension"),
    "InitialSpace-X0-outside-C_initial": (
        dict(dim=1, a=0.0, b=1.0, x0_center=[5.0], c_min=[0.0], c_max=[1.0]),
        ValueError, "X0 must be contained in [c_min, c_max]^d"),
}


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
        (lambda: Objective(fn=sphere, dim=2.5), TypeError, "dim must be an integer, got 2.5"),
        # a NaN or infinite optimum makes every r_t and log_dist NaN or inf
        (lambda: Objective(fn=sphere, dim=1, optimum_value=NAN), ValueError,
         "optimum_value must be finite, got nan"),
        (lambda: Objective(fn=sphere, dim=1, optimum_value=INF), ValueError,
         "optimum_value must be finite, got inf"),
        (lambda: Objective(fn=sphere, dim=1, optimum_value="3"), TypeError,
         "optimum_value must be a real number, got '3'"),
        (lambda: BenchmarkFunction(1, [-1.0], [1.0], sphere, NAN, [0.0]), ValueError,
         "optimum_value must be finite, got nan"),
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
    ] + [(lambda kw=kw: InitialSpace(**kw), error, message)
         for kw, error, message in HOSTILE_GEOMETRY.values()],
    ids=["budget_T", "n_init", "seed-float", "seed-negative", "kernel_family", "restarts",
         "max_evals", "Objective-dim",
         "Objective-optimum-nan", "Objective-optimum-inf", "Objective-optimum-str",
         "BenchmarkFunction-optimum-nan", "n0", "half_side",
         "side_length", "lengthscale", "noise_variance", "s1-tail", "cube-center",
         "placement-seed-negative", "placement-seed-bool", "placement-fraction-no-width",
         *HOSTILE_GEOMETRY],
)
def test_hostile_config_is_rejected_at_construction(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("kw", [kw for kw, _, _ in HOSTILE_GEOMETRY.values()],
                         ids=list(HOSTILE_GEOMETRY))
def test_both_geometry_constructors_give_one_verdict(kw):
    verdicts = []
    for build in (lambda: InitialSpace(**kw), lambda: ExpansionConfig(**kw, alpha=-1.0)):
        with pytest.raises((ValueError, TypeError)) as info:
            build()
        verdicts.append((type(info.value), str(info.value)))
    assert verdicts[0] == verdicts[1]


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


@pytest.mark.parametrize("value, shape", [([0.0, 1.0], (2,)), ([[0.0, 1.0, 2.0]], (1, 3))],
                         ids=["wrong-length", "2-D"])
@pytest.mark.parametrize("field", ["c_min", "c_max", "x0_center", "lower", "upper"])
def test_vector_of_the_wrong_shape_is_rejected_by_name(field, value, shape):
    # each field must broadcast to (dim,) = (3,), and the error names it
    with pytest.raises(ValueError) as info:
        if field in ("lower", "upper"):
            bounds = {"lower": [0.0] * 3, "upper": [1.0] * 3, field: value}
            random_search(Objective(fn=sphere, dim=3), bounds["lower"], bounds["upper"], 3, 0)
        else:
            ExpansionConfig(**{"a": 0.0, "b": 1.0, "alpha": -1.0, "c_min": -3.0, "c_max": 4.0,
                               "dim": 3, field: value})
    assert str(info.value) == f"{field} has shape {shape}, expected (3,)"


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
    assert beta(1, sched, side=1.0) == 0.0  # the hdhubo schedule ignores side
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


def hostile_names(valid) -> list:
    """None, a number, an unknown name and each valid name upper-cased."""
    return [None, 3, "bogus", *(v.upper() for v in valid)]


# The property's fields, in draw order, each with its hostile pool.
HOSTILE = {
    "dim": HOSTILE_COUNTS,
    "optimum_value": [*HOSTILE_REALS, "3"],
    "noise_std": HOSTILE_REALS,
    "lower": HOSTILE_REALS,
    "width": HOSTILE_REALS,
    "T": HOSTILE_COUNTS,
    "search seed": HOSTILE_COUNTS,
    "benchmark": hostile_names(BENCHMARK_NAMES),
    "benchmark dim": HOSTILE_COUNTS,
    "fraction": HOSTILE_REALS,
    "placement seed": HOSTILE_COUNTS,
    "family": hostile_names(KERNEL_FAMILIES),
    "side_length": HOSTILE_REALS,
    "lengthscale": HOSTILE_REALS,
    "signal_variance": HOSTILE_REALS,
    "a": HOSTILE_REALS,
    "b - a": HOSTILE_REALS,
    "pad": HOSTILE_REALS,
    "alpha": HOSTILE_REALS,
    "x0_center": HOSTILE_REALS,
    "algorithm": hostile_names(ALGORITHMS),
    "delta": HOSTILE_REALS,
    "s1": HOSTILE_REALS,
    "s2": HOSTILE_REALS,
    "hubo variant": hostile_names(["hubo"]),
    "hdhubo variant": hostile_names(["hdhubo"]),
    "l_h": HOSTILE_REALS,
    "lam": [NAN, INF, -INF, -1.0],
    "huge lam": HUGE_LAMS,
    "n0": HOSTILE_COUNTS,
    "beta alpha": HOSTILE_REALS,
    "restarts": HOSTILE_COUNTS,
    "max_evals": HOSTILE_COUNTS,
    "budget_T": HOSTILE_COUNTS,
    "n_init": HOSTILE_COUNTS,
    "seed": HOSTILE_COUNTS,
    "kernel_family": hostile_names(KERNEL_FAMILIES),
}
# Fields only one kind of run reads: an example that makes one of them
# hostile runs that kind.
RUN_KINDS = {"hdhubo variant": ["hdhubo"], "l_h": ["hdhubo"], "lam": ["hdhubo"],
             "huge lam": ["hdhubo"], "n0": ["hdhubo"], "hubo variant": ["hubo", "vol2"],
             "beta alpha": ["hubo", "vol2"]}


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
@pytest.mark.parametrize("hostile", [None, *HOSTILE])
@settings(derandomize=True, deadline=None, max_examples=3)
@given(data=st.data())
def test_every_config_constructs_or_runs(hostile, data):
    # Each case makes at most one field hostile, so that most builds get as
    # far as run(), and each example builds every value of its pool in turn;
    # every other field draws a valid value.
    for value in HOSTILE.get(hostile, [None]):
        construct_or_run(hostile, value, data)


def construct_or_run(hostile, value, data):
    """Build one config, with `value` as field `hostile`, and run it if it builds."""
    def draw(name: str, valid):
        assert name in HOSTILE  # every field the property draws has a hostile pool
        return value if name == hostile else data.draw(valid, name)

    def real(name: str, low: float, high: float, scale: float = 1.0):
        return draw(name, st.floats(low, high, exclude_min=True, exclude_max=True)
                    .map(lambda value: value * scale))

    def counted(name: str, low: int, high: int):
        # the integer fields bound the work, so their valid draws stay small
        return draw(name, st.integers(low, high))

    def named(name: str, valid):
        return draw(name, st.sampled_from(valid))

    dim = counted("dim", 1, 3)
    optimum_value = draw("optimum_value", st.none() | st.floats(-1.0, 2.0))
    # a noiseless constant objective makes the fit take its floor model
    if hostile != "noise_std" and data.draw(st.booleans(), "constant"):
        obj = built(Objective, fn=lambda x: 1.0, dim=dim, optimum_value=optimum_value)
    else:
        noise_std = draw("noise_std", st.just(0.0) | st.floats(0.0, 1.0, exclude_min=True,
                                                                 exclude_max=True))
        obj = built(Objective, fn=sphere, dim=dim, noise_std=noise_std,
                    optimum_value=optimum_value)
    if obj is not None:
        lower = np.array([real("lower", -2.0, 2.0) for _ in range(dim)])
        with np.errstate(all="ignore"):
            upper = lower + real("width", 0.0, 5.0)
        T, seed = counted("T", 1, 4), counted("search seed", 0, 2**40)
        try:
            trace = random_search(obj, lower, upper, T, seed)
        except (ValueError, TypeError) as exc:
            assert names_a_field(exc, ["T", "seed", "lower", "upper"]), exc
        else:
            assert_regret_is_finite(trace, obj)

    # an accepted benchmark and placement give a run's geometry
    try:
        bench = make_benchmark(named("benchmark", BENCHMARK_NAMES),
                               draw("benchmark dim", st.none() | st.integers(1, 6)))
    except (ValueError, TypeError) as exc:
        assert names_a_field(exc, ["benchmark", "dim"]), exc
        bench = BEALE
    try:
        placed = initial_space(bench, real("fraction", 0.0, 1.0),
                               counted("placement seed", 0, 2**40))
    except (ValueError, TypeError) as exc:
        assert names_a_field(exc, ["fraction", "seed"]), exc
    else:
        placed.to_expansion(-1.0)

    # the GP's own configs, which run() builds from kernel_family
    family = named("family", KERNEL_FAMILIES)
    built(FitConfig, side_length=real("side_length", 0.0, 5.0), family=family)
    built(KernelSpec, family=family, lengthscale=real("lengthscale", 0.0, 5.0),
          signal_variance=real("signal_variance", 0.0, 5.0))

    # b - a spans every magnitude, where a constant objective's floor model
    # has a lengthscale out of float64 range
    scale = data.draw(st.sampled_from([1.0, 1.0, 1e300, 1e-300]), "scale")
    a = real("a", -2.0, 2.0, scale)
    b = a + real("b - a", 0.01, 4.0, scale)
    # from 0.01, so that rounding at scale 1e300 keeps X0 inside [c_min, c_max]
    pad = real("pad", 0.01, 5.0, scale)
    alpha = real("alpha", -1.0, -0.01)
    exp = built(
        ExpansionConfig, a=a, b=b, alpha=alpha, c_min=a - pad, c_max=b + pad, dim=dim,
        x0_center=draw("x0_center", st.none()),
    )
    algorithm = named("algorithm", RUN_KINDS.get(hostile, ALGORITHMS))
    sched = dict(delta=real("delta", 0.0, 1.0), dim=dim, s1=real("s1", 0.5, 3.0),
                 s2=real("s2", 0.0, 3.0))
    hd = None
    if algorithm == "hdhubo":
        l_h = real("l_h", 0.01, 2.0)
        schedule = built(BetaSchedule, variant=named("hdhubo variant", ["hdhubo"]), l_h=l_h,
                         **sched)
        # lam and n0 set the cube count n0 * ceil(t**lam), so they bound the
        # work too.  A huge lam, 40 or 1e300 (where t**lam overflows), puts
        # N_T past MAX_CUBE_VALUES from budget_T = 2, and RunConfig must
        # refuse it
        lam = draw("huge lam" if hostile == "huge lam" else "lam", st.floats(0.0, 2.0))
        hd = built(HdConfig, lam=lam, n0=counted("n0", 1, 3), l_h=l_h)
    else:
        # the expansion's alpha, unless this is the hostile field
        schedule = built(BetaSchedule, variant=named("hubo variant", ["hubo"]), a=a, b=b,
                         alpha=draw("beta alpha", st.just(alpha)), **sched)
    # max_evals from 5, the most restarts, so that a valid pair builds
    maximizer = built(MaximizerConfig, restarts=counted("restarts", 1, 5),
                      max_evals=counted("max_evals", 5, 50))
    if None in (exp, schedule, maximizer) or (algorithm == "hdhubo" and hd is None):
        return
    budget_T = counted("budget_T", 1, 3)
    cfg = built(
        RunConfig, expansion=exp, beta=schedule, maximizer=maximizer,
        budget_T=budget_T, n_init=counted("n_init", 2, 4),
        seed=counted("seed", 0, 2**40), algorithm=algorithm, hd=hd,
        kernel_family=named("kernel_family", KERNEL_FAMILIES),
    )
    if hd is not None and hd.lam in HUGE_LAMS and budget_T in (2, 3):
        assert cfg is None
    if obj is not None and cfg is not None:
        assert_regret_is_finite(run(obj, cfg), obj)


def assert_regret_is_finite(trace, obj) -> None:
    """A complete trace of an objective with an optimum has finite regret."""
    assert isinstance(trace, RunTrace)
    if not trace.incomplete and obj.optimum_value is not None:
        compute_regret(trace, obj)
        bo = [rec.r_t for rec in trace.records if rec.t >= 1]
        assert all(map(math.isfinite, bo + [rec.log_dist for rec in trace.records])), obj
