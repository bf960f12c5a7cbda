"""Synthetic test functions (maximization form) and experiment geometry.

All functions are the standard minimization benchmarks negated, so every
optimum is a maximum.  `initial_space` implements the benchmark protocol:
a small start box X0 dropped uniformly at random inside the function domain,
with the center-translation region C_initial ten times as wide, clipped to
the domain.  It returns a `space.InitialSpace`, which checks the placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contracts import choice, count, frozen, point, real
from .space import InitialSpace

__all__ = [
    "BenchmarkFunction",
    "BENCHMARK_NAMES",
    "fixed_dim",
    "beale",
    "hartmann3",
    "hartmann6",
    "ackley",
    "levy",
    "make_benchmark",
    "initial_space",
]

# Stream label of the run seed for X0 placement; driver.py holds labels 0-3.
_STREAM_PLACEMENT = 4


@dataclass(frozen=True)
class BenchmarkFunction:
    """A maximization test problem on an axis-aligned box domain."""

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    fn: Callable[[np.ndarray], float]
    optimum_value: float
    optimum_point: np.ndarray

    def __post_init__(self):
        dim = count("dim", self.dim, 1)
        object.__setattr__(self, "optimum_value", real("optimum_value", self.optimum_value))
        for key in ("lower", "upper", "optimum_point"):
            object.__setattr__(self, key, frozen(point(getattr(self, key), dim, key), name=key))
        if not np.all(self.upper > self.lower):
            raise ValueError("need upper > lower in every dimension")

    def eval(self, x: np.ndarray) -> float:
        return float(self.fn(point(x, self.dim)))


def beale(x: np.ndarray) -> float:
    """Negated Beale function on [-4.5, 4.5]^2; maximum 0 at (3, 0.5)."""
    x1, x2 = float(x[0]), float(x[1])
    t1 = 1.5 - x1 + x1 * x2
    t2 = 2.25 - x1 + x1 * x2 * x2
    t3 = 2.625 - x1 + x1 * x2 * x2 * x2
    return -(t1 * t1 + t2 * t2 + t3 * t3)


_HARTMANN_COEF = np.array([1.0, 1.2, 3.0, 3.2])

_HARTMANN3_A = np.array(
    [
        [3.0, 10.0, 30.0],
        [0.1, 10.0, 35.0],
        [3.0, 10.0, 30.0],
        [0.1, 10.0, 35.0],
    ]
)
_HARTMANN3_P = np.array(
    [
        [0.3689, 0.1170, 0.2673],
        [0.4699, 0.4387, 0.7470],
        [0.1091, 0.8732, 0.5547],
        [0.0381, 0.5743, 0.8828],
    ]
)

_HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN6_P = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)

# Maximizers of the (negated) Hartmann functions for the coefficient tables
# above, polished to full float64 precision with a dense multistart check.
_HARTMANN3_OPT_POINT = np.array(
    [0.11458887930324516, 0.5556488952654733, 0.8525469855538348]
)
_HARTMANN3_OPT_VALUE = 3.862779787332663
_HARTMANN6_OPT_POINT = np.array(
    [
        0.20168951037794658,
        0.15001069146456325,
        0.4768739733706766,
        0.2753324288543796,
        0.3116516165632252,
        0.6573005308464771,
    ]
)
_HARTMANN6_OPT_VALUE = 3.322368011415515


def _hartmann(x: np.ndarray, A: np.ndarray, P: np.ndarray) -> float:
    inner = np.sum(A * (x[None, :] - P) ** 2, axis=1)
    return float(np.sum(_HARTMANN_COEF * np.exp(-inner)))


def hartmann3(x: np.ndarray) -> float:
    """Hartmann 3-d on [0, 1]^3 in maximization form (already a sum of bumps)."""
    return _hartmann(np.asarray(x, dtype=np.float64), _HARTMANN3_A, _HARTMANN3_P)


def hartmann6(x: np.ndarray) -> float:
    """Hartmann 6-d on [0, 1]^6 in maximization form."""
    return _hartmann(np.asarray(x, dtype=np.float64), _HARTMANN6_A, _HARTMANN6_P)


def ackley(x: np.ndarray) -> float:
    """Negated Ackley (a=20, b=0.2, c=2*pi) on [-32.768, 32.768]^d; max 0 at 0."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    s1 = -20.0 * math.exp(-0.2 * math.sqrt(float(np.sum(x * x)) / d))
    s2 = -math.exp(float(np.sum(np.cos(2.0 * math.pi * x))) / d)
    return -(s1 + s2 + 20.0 + math.e)


def levy(x: np.ndarray) -> float:
    """Negated Levy function on [-10, 10]^d; maximum 0 at (1, ..., 1)."""
    x = np.asarray(x, dtype=np.float64)
    w = 1.0 + (x - 1.0) / 4.0
    head = math.sin(math.pi * w[0]) ** 2
    mid = np.sum((w[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(math.pi * w[:-1] + 1.0) ** 2))
    tail = (w[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w[-1]) ** 2)
    return -float(head + mid + tail)


# name -> (fixed dim or None when scalable, per-coordinate domain bounds,
# function, optimum value, optimum point, a scalar for the scalable ones)
_CATALOGUE = {
    "beale": (2, (-4.5, 4.5), beale, 0.0, (3.0, 0.5)),
    "hartmann3": (3, (0.0, 1.0), hartmann3, _HARTMANN3_OPT_VALUE, _HARTMANN3_OPT_POINT),
    "hartmann6": (6, (0.0, 1.0), hartmann6, _HARTMANN6_OPT_VALUE, _HARTMANN6_OPT_POINT),
    "ackley": (None, (-32.768, 32.768), ackley, 0.0, 0.0),
    "levy": (None, (-10.0, 10.0), levy, 0.0, 1.0),
}

BENCHMARK_NAMES = tuple(_CATALOGUE)


def fixed_dim(name: str) -> int | None:
    """The dimension of a fixed-dimension benchmark; None for a scalable one."""
    return _CATALOGUE[name][0]


def make_benchmark(name: str, dim: int | None = None) -> BenchmarkFunction:
    """Build a benchmark by name, one of BENCHMARK_NAMES exactly.

    `dim` is required for the scalable functions (ackley, levy) and must
    match the fixed dimension of the others when given.
    """
    name = choice("benchmark", name, BENCHMARK_NAMES)
    fixed, (low, high), fn, optimum_value, optimum_point = _CATALOGUE[name]
    if dim is None and fixed is None:
        raise ValueError(f"dim is required for benchmark {name!r}")
    dim = fixed if dim is None else count("dim", dim, 1)
    if fixed is not None and dim != fixed:
        raise ValueError(f"benchmark {name!r} is {fixed}-dimensional, got dim={dim}")
    return BenchmarkFunction(
        dim, np.full(dim, low), np.full(dim, high), fn, optimum_value,
        np.broadcast_to(optimum_point, (dim,)),
    )


def initial_space(bench: BenchmarkFunction, fraction: float, seed: int) -> InitialSpace:
    """Place X0 uniformly inside the benchmark domain.

    X0's side is `fraction` times the domain side; its center is drawn so the
    whole of X0 stays inside the domain.  C_initial is concentric with ten
    times the side, clipped to the domain (which always keeps X0 inside it).
    A fraction whose C_initial rounds to no width at the center is rejected.
    """
    real("fraction", fraction, 0.0, 1.0, "(]")
    widths = bench.upper - bench.lower
    if not np.all(widths == widths[0]):
        raise ValueError("benchmark domain must have equal per-dimension widths")
    side = fraction * float(widths[0])
    rng = np.random.default_rng([count("seed", seed, 0), _STREAM_PLACEMENT])
    center = rng.uniform(bench.lower + 0.5 * side, bench.upper - 0.5 * side)
    c_min = np.maximum(center - 5.0 * side, bench.lower)
    c_max = np.minimum(center + 5.0 * side, bench.upper)
    if not np.all(c_max > c_min):
        raise ValueError(f"fraction {fraction:g} gives C_initial no width at its center")
    return InitialSpace(
        dim=bench.dim, a=0.0, b=side, x0_center=center, c_min=c_min, c_max=c_max
    )
