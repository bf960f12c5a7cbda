"""Outer optimisation loops and regret accounting.

One loop, `run`, serves the expand-and-translate algorithm ("hubo"), its
hypercube-restricted high-dimensional variant ("hdhubo") and a doubling
baseline ("vol2") whose box never translates and whose volume doubles every
3d iterations; each BO step binds the fitted posterior into a UCB function
and maximizes it over the step's region.  `random_search` draws uniformly
from a fixed box.  Every random draw comes from a stream derived from the
run seed by a fixed label, so traces are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .acquisition import (
    BetaSchedule,
    MaximizerConfig,
    beta,
    maximize_over_box,
    maximize_over_cubes,
    ucb,
)
from .contracts import choice, count, frozen, real
from .cubes import HdConfig, membership, num_cubes, sample_cubes
from .gp import KERNEL_FAMILIES, Dataset, FitConfig, GpFactorizationError, PosteriorState, fit_mle
from .space import ExpansionConfig, SearchBox, expand, initial_box, translate

__all__ = [
    "ALGORITHMS",
    "MAX_CUBE_VALUES",
    "Objective",
    "RunConfig",
    "IterationRecord",
    "RunTrace",
    "default_n_init",
    "run",
    "random_search",
    "compute_regret",
]

ALGORITHMS = ("hubo", "hdhubo", "vol2")

# The most cube-center values, N_T * dim, an hdhubo run may draw in one step:
# 2**24 float64 values, 128 MiB.  N_t grows with t, so N_T bounds every step.
MAX_CUBE_VALUES = 2**24

# Per-run RNG stream labels; each stream is seeded as [run_seed, label, ...]
# so the streams never collide and adding draws to one cannot shift another.
# benchmarks.initial_space draws from label 4.
_STREAM_NOISE = 0
_STREAM_INIT = 1
_STREAM_CUBES = 2
_STREAM_MAXIMIZER = 3


@dataclass(frozen=True)
class Objective:
    """A maximization target: deterministic f plus a Gaussian noise level.

    The driver evaluates `fn` once per point and adds the observation noise
    itself (y = f(x) + noise_std * z) from its own stream; `fn` must be pure.
    `optimum_value` is optional and only needed for regret.
    """

    fn: Callable[[np.ndarray], float]
    dim: int
    noise_std: float = 0.0
    optimum_value: float | None = None

    def __post_init__(self):
        count("dim", self.dim, 1)
        real("noise_std", self.noise_std, 0.0)
        if self.optimum_value is not None:
            object.__setattr__(self, "optimum_value", real("optimum_value", self.optimum_value))

    def eval(self, x: np.ndarray) -> float:
        return float(self.fn(x))

    @classmethod
    def from_benchmark(cls, bench, noise_std: float = 0.0) -> "Objective":
        return cls(
            fn=bench.eval,
            dim=bench.dim,
            noise_std=noise_std,
            optimum_value=bench.optimum_value,
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs besides the objective."""

    expansion: ExpansionConfig
    beta: BetaSchedule
    maximizer: MaximizerConfig
    budget_T: int
    n_init: int
    seed: int
    algorithm: str
    hd: HdConfig | None = None
    kernel_family: str = "se"

    def __post_init__(self):
        choice("algorithm", self.algorithm, ALGORITHMS)
        count("budget_T", self.budget_T, 0)
        count("n_init", self.n_init, 2)
        count("seed", self.seed, 0)
        choice("kernel_family", self.kernel_family, KERNEL_FAMILIES)
        if (self.hd is not None) != (self.algorithm == "hdhubo"):
            raise ValueError("hd config must be present exactly for hdhubo runs")
        expected_variant = "hdhubo" if self.algorithm == "hdhubo" else "hubo"
        if self.beta.variant != expected_variant:
            raise ValueError(
                f"{self.algorithm} needs beta variant {expected_variant!r}, "
                f"got {self.beta.variant!r}"
            )
        # beta_t reads only the run's side; a, b and alpha are checked copies
        for name in ("dim", "a", "b", "alpha") if self.beta.variant == "hubo" else ("dim",):
            if getattr(self.beta, name) != getattr(self.expansion, name):
                raise ValueError(f"beta schedule and expansion disagree on {name}")
        if self.hd is not None and self.beta.l_h != self.hd.l_h:
            raise ValueError("beta schedule and hd config disagree on l_h")
        if self.hd is not None and self.budget_T >= 1:
            try:
                values = num_cubes(self.budget_T, self.hd) * self.expansion.dim
            except ValueError:  # T**lam overflows float64
                values = math.inf
            if values > MAX_CUBE_VALUES:
                raise ValueError(
                    f"lam must keep N_T * dim <= {MAX_CUBE_VALUES} "
                    f"at budget_T={self.budget_T}, got {self.hd.lam}"
                )


@dataclass
class IterationRecord:
    """One observation y = f + noise of the noiseless value f at x: t = 0
    marks initial-design points, t >= 1 BO steps.  r_t/R_t/log_dist stay None
    until compute_regret fills them.
    """

    t: int
    x: np.ndarray
    f: float
    y: float
    best_y: float
    side: float
    n_cubes: int | None = None
    r_t: float | None = None
    R_t: float | None = None
    log_dist: float | None = None


@dataclass
class RunTrace:
    """Chronological record of a run.  `error` is set when the objective
    failed, a GP factorization broke down, or beta_t was not finite and the
    trace stops early; it names the phase and the step t.  `incomplete` is
    derived from it."""

    records: list[IterationRecord] = field(default_factory=list)
    error: str | None = None

    @property
    def incomplete(self) -> bool:
        return self.error is not None

    def fail(self, phase: str, t: int, message: str) -> "RunTrace":
        """Mark the trace as ended early by `phase` at step t."""
        self.error = f"{phase} failed at t={t}: {message}"
        return self


def default_n_init(dim: int) -> int:
    """Initial-design size max(3, d+1): enough points for a nondegenerate fit."""
    return max(3, dim + 1)


def _derive_seed(*label: int) -> int:
    return int(np.random.SeedSequence(list(label)).generate_state(1, np.uint64)[0])


def observe(
    obj: Objective, x: np.ndarray, rng_noise, trace: RunTrace, t: int, side: float,
    n_cubes: int | None = None,
) -> bool:
    """Observe y = f(x) + noise_std * z, z drawn from rng_noise, as trace's next record.

    The record's best_y is the running maximum of y.  If the objective raises,
    or f or y is not finite, marks `trace` as failed to evaluate at step t and
    returns False, so the caller can stop.
    """
    try:
        f = obj.eval(x)
    except Exception as exc:  # objective failure -> partial trace
        trace.fail("evaluate", t, f"{type(exc).__name__}: {exc}")
        return False
    y = f
    if obj.noise_std > 0.0:
        y = f + obj.noise_std * float(rng_noise.standard_normal())
    if not (math.isfinite(f) and math.isfinite(y)):
        trace.fail("evaluate", t, f"objective returned f={f!r}, y={y!r}")
        return False
    best_y = max(trace.records[-1].best_y, y) if trace.records else y
    trace.records.append(
        IterationRecord(t=t, x=x, f=f, y=y, best_y=best_y, side=side, n_cubes=n_cubes))
    return True


def _design(obj: Objective, lower, upper, seed: int, steps, side: float):
    """Observe one uniform draw from [lower, upper] per entry t of `steps`, as
    step t, until an observation fails.  The points come from the seed's design
    stream; returns the trace and the noise stream, which a BO run goes on using."""
    rng_noise = np.random.default_rng([seed, _STREAM_NOISE])
    X = np.random.default_rng([seed, _STREAM_INIT]).uniform(lower, upper, (len(steps), obj.dim))
    trace = RunTrace()
    for t, x in zip(steps, X):
        if not observe(obj, x.copy(), rng_noise, trace, t, side):
            break
    return trace, rng_noise


def random_search(obj: Objective, lower, upper, T: int, seed: int) -> RunTrace:
    """Uniform random baseline: T draws from the box [lower, upper].

    The trace has one record per draw (t = 1..T).  A BO run draws and observes
    its initial design by the same function, so baselines pair with runs.  As
    in a BO run, an objective that raises or returns a non-finite value ends
    the trace early with incomplete=True and an `error` naming t.
    """
    count("T", T, 1)
    count("seed", seed, 0)
    lower, upper = frozen(lower, (obj.dim,), name="lower"), frozen(upper, (obj.dim,), name="upper")
    if not np.all(upper >= lower):
        raise ValueError(f"need upper >= lower, got lower={lower}, upper={upper}")
    side = real("upper - lower", np.max(upper - lower))
    return _design(obj, lower, upper, seed, range(1, T + 1), side)[0]


def run(obj: Objective, cfg: RunConfig) -> RunTrace:
    """Execute one run: n_init uniform points in X0, then budget_T BO steps.

    Each step refits the GP by MLE, updates the search region per the
    algorithm, maximizes UCB inside it, and observes f plus fresh noise.  If
    the objective raises or returns a non-finite value, the fit or the step's
    posterior raises GpFactorizationError, or beta_t is not finite, the
    partial trace is returned with incomplete=True.
    """
    d = obj.dim
    if cfg.expansion.dim != d:
        raise ValueError(
            f"expansion dim {cfg.expansion.dim} != objective dim {d}"
        )
    rng_cubes = None
    if cfg.algorithm == "hdhubo":
        # SeedSequence pads short entropy with zeros, so the trailing 0 only
        # shows for run seeds >= 2**64; it keeps their cube draws unchanged
        rng_cubes = np.random.default_rng([cfg.seed, _STREAM_CUBES, 0])

    box = initial_box(cfg.expansion)
    trace, rng_noise = _design(obj, box.lower, box.upper, cfg.seed, [0] * cfg.n_init, box.side)
    if trace.incomplete:
        return trace

    for t in range(1, cfg.budget_T + 1):
        records = trace.records
        data = Dataset(np.array([r.x for r in records]), np.array([r.y for r in records]), d)
        try:
            model = fit_mle(data, FitConfig(side_length=box.side, family=cfg.kernel_family))
        except GpFactorizationError as exc:
            return trace.fail("fit", t, f"GpFactorizationError: {exc}")

        if cfg.algorithm == "vol2":
            doublings = t // (3 * d)
            side_t = cfg.expansion.side * 2.0 ** (doublings / d)
            box = SearchBox(cfg.expansion.x0_center, 0.5 * side_t, d)
        else:
            # the incumbent is the earliest observation of the largest y
            incumbent = data.points[np.argmax(data.targets)]
            box = translate(expand(box, t, cfg.expansion), incumbent, cfg.expansion)

        beta_t = beta(t, cfg.beta, side=box.side)  # the hdhubo schedule ignores side
        if not math.isfinite(beta_t):
            return trace.fail("beta", t, f"beta_t is {beta_t}")
        mseed = _derive_seed(cfg.seed, _STREAM_MAXIMIZER, t)
        n_cubes: int | None = None
        try:
            acq = ucb(PosteriorState(model, data), beta_t)
            if cfg.algorithm == "hdhubo":
                cube_set = sample_cubes(box, t, cfg.hd, rng_cubes)
                n_cubes = cube_set.n
                x, _ = maximize_over_cubes(acq, cube_set, cfg.maximizer, mseed)
                inside, region = membership(cube_set, x), "cube union"
            else:
                x, _ = maximize_over_box(acq, box, cfg.maximizer, mseed)
                inside, region = box.contains(x), "search box"
        except GpFactorizationError as exc:  # from the posterior's factorization
            return trace.fail("maximize", t, f"GpFactorizationError: {exc}")
        if not inside:
            raise RuntimeError(f"maximizer left the {region} at t={t}: {x.tolist()}")

        if not observe(obj, x, rng_noise, trace, t, box.side, n_cubes):
            break
    return trace


def compute_regret(trace: RunTrace, obj: Objective) -> RunTrace:
    """Fill regret columns in place (and return the trace).

    r_t and R_t cover BO rows (t >= 1) and read each record's noiseless f;
    log_dist = log10(optimum - best f so far) covers every row, partial
    traces included, and is floored at -12 once the gap reaches 1e-12.
    """
    if obj.optimum_value is None:
        raise ValueError("compute_regret needs obj.optimum_value")
    opt = float(obj.optimum_value)
    best_f = -math.inf
    total = 0.0
    for rec in trace.records:
        best_f = max(best_f, rec.f)
        gap = opt - best_f
        rec.log_dist = -12.0 if gap <= 1e-12 else math.log10(gap)
        if rec.t >= 1:
            r = opt - rec.f
            rec.r_t = r
            total += r
            rec.R_t = total
    return trace

