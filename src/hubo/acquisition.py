"""GP-UCB acquisition: confidence schedules and seeded maximization.

The acquisition value is mean + sqrt(beta_t) * std under the current GP
posterior.  Maximization is derivative-free: uniform multi-start plus
coordinate-wise pattern search with shrinking steps, clamped to the feasible
rectangle, under a hard evaluation budget.  One search serves both
maximizers: it advances K rectangles in lockstep, K clipped cubes for the
cube union and K = 1 for the box, and costs one `predict` call per
(coordinate, sign) per sweep whatever K is, with its bookkeeping done once
per sweep.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import choice, count, real
from .cubes import HypercubeSet
from .gp import Dataset, GpModel, PosteriorState
from .space import SearchBox

__all__ = [
    "BetaSchedule",
    "MaximizerConfig",
    "beta",
    "maximize_over_box",
    "maximize_over_cubes",
]

# A start stops once its relative step falls below this.
_STEP_TOLERANCE = 1e-6

# beta_t's tail is sqrt(log(k * dim * s1 / delta)), with k per variant.
_TAIL_K = {"hubo": 4.0, "hdhubo": 6.0}


@dataclass(frozen=True)
class BetaSchedule:
    """Confidence-width schedule for one of the two algorithm variants.

    The "hubo" variant's beta grows with the run's expanded side, which
    `beta` is given; it carries the initial interval [a, b] and the
    expansion rate alpha, which RunConfig checks equal the expansion's.  The
    "hdhubo" variant needs the cube side l_h instead.
    """

    variant: str
    delta: float
    dim: int
    s1: float = 1.0
    s2: float = 1.0
    a: float | None = None
    b: float | None = None
    alpha: float | None = None
    l_h: float | None = None

    def __post_init__(self):
        choice("variant", self.variant, tuple(_TAIL_K))
        real("delta", self.delta, 0.0, 1.0, "()")
        real("s1", self.s1, 0.0, ends="(]")
        real("s2", self.s2, 0.0, ends="(]")
        count("dim", self.dim, 1)
        k = _TAIL_K[self.variant]  # beta_t's tail is the root of a positive number
        if not k * self.dim * self.s1 > self.delta:
            raise ValueError(f"s1 must be > delta / ({k:g} * dim), got {self.s1}")
        if self.variant == "hubo":  # real() rejects a missing a, b, alpha or l_h
            if not real("b", self.b) > real("a", self.a):
                raise ValueError(f"need b > a, got a={self.a}, b={self.b}")
            real("alpha", self.alpha, -1.0, 0.0, "[)")
        else:
            real("l_h", self.l_h, 0.0, ends="(]")


def beta(t: int, sched: BetaSchedule, side: float) -> float:
    """Confidence multiplier beta_t, clamped below at 0.

    For the "hubo" variant `side` is the run's box side at step t, (b-a)(1 +
    sum j^alpha) when the box expands; the "hdhubo" variant ignores it.
    """
    t = count("t", t, 1)
    d = sched.dim
    tail = math.sqrt(math.log(_TAIL_K[sched.variant] * d * sched.s1 / sched.delta))
    if sched.variant == "hubo":
        pi_t = math.pi**2 * t * t / 6.0
        head, weight = 2.0 * math.log(4.0 * pi_t / sched.delta), 4.0 * d
        scale = d * t * sched.s2 * side * tail
    else:
        head, weight = 2.0 * math.log(math.pi**2 * t * t / sched.delta), 2.0 * d
        scale = 2.0 * sched.s2 * sched.l_h * d * tail * t * t
    # log 0 is -inf, where scale underflows; NaN and inf pass through to the caller
    val = head + weight * (math.log(scale) if scale > 0.0 else -math.inf)
    return max(val, 0.0)


@dataclass(frozen=True)
class MaximizerConfig:
    """Budget for one acquisition maximization."""

    restarts: int = 20
    max_evals: int = 1000

    def __post_init__(self):
        count("restarts", self.restarts, 1)
        if count("max_evals", self.max_evals, 1) < self.restarts:
            raise ValueError(
                f"max_evals ({self.max_evals}) must be >= restarts ({self.restarts})"
            )


def _ucb_batch(state: PosteriorState, beta_t: float):
    root = math.sqrt(beta_t)

    def predict(X: np.ndarray) -> np.ndarray:
        # means + root * sqrt(variances), in the buffers predict returned
        means, sigma = state.predict(X)
        np.sqrt(sigma, out=sigma)
        np.multiply(sigma, root, out=sigma)
        return np.add(means, sigma, out=means)

    return predict


def _search_rect(predict, lo, hi, restarts, max_evals, rng):
    """Multi-start coordinate pattern search over K rectangles in lockstep.

    `lo` and `hi` are (K, d) bounds.  Rectangle k starts from rows
    k * restarts, ..., (k + 1) * restarts - 1 of one draw U = rng.random((K *
    restarts, d)), scaled as lo[k] + (hi - lo)[k] * U, which for K = 1 is
    Generator.uniform(lo, hi) bit for bit.  Its starts thus never depend on
    another rectangle's bounds or on the budget; a larger budget replays the
    same trajectory prefix and can only improve the result.  Each rectangle
    keeps its own budget of `max_evals` evaluations, step sizes and stopping
    rule, and follows the trajectory a search of it alone from those starts
    would; only the `predict` calls are shared: one per (coordinate, sign) per
    sweep, with rows ordered by rectangle, then by start.  The best value
    wins; ties go to the lowest rectangle, then to the lexicographically
    smallest point.  Returns (best point, best value, evaluations used over
    all rectangles).

    Cost: the bookkeeping is per sweep.  Each sweep retires the starts whose
    step fell below the tolerance or whose rectangle's budget is spent,
    gathers the rest, their bounds and their step lengths once, and charges
    each rectangle's budget once: its start of rank r among n active ones,
    with `left` evaluations left, gets a quota of min(2d, ceil((left - r) /
    n)) probes.  Probe j moves the starts whose quota exceeds j, all of them
    while j is below the smallest quota, at the cost of a copy, a clamp, the
    `predict` call and two masked writes.
    """
    K, d = lo.shape
    rect = np.repeat(np.arange(K), restarts)
    width = hi - lo
    X = lo[rect] + width[rect] * rng.random((K * restarts, d))
    vals = predict(X)
    used = np.full(K, restarts)
    steps = np.full(K * restarts, 0.25)
    active = np.ones(K * restarts, dtype=bool)

    while True:
        active &= (steps >= _STEP_TOLERANCE) & (used < max_evals)[rect]
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        # this sweep's active starts, and row i of lo_a, hi_a and step: their
        # bounds and step lengths along coordinate i
        Xa, va, rect_a = X[idx], vals[idx], rect[idx]
        lo_a, hi_a = lo.T[:, rect_a], hi.T[:, rect_a]
        step = steps[idx] * width.T[:, rect_a]
        by_rect = active.reshape(K, restarts)
        n_active, left = by_rect.sum(axis=1), max_evals - used
        rank = (np.cumsum(by_rect, axis=1) - 1).ravel()[idx]
        n_a = n_active[rect_a]
        quota = np.minimum(2 * d, (left[rect_a] - rank + n_a - 1) // n_a)
        used += np.minimum(left, 2 * d * n_active)
        fewest = quota.min()
        improved = np.zeros(len(idx), dtype=bool)
        for j in range(quota.max()):
            i, rows = j // 2, slice(None) if j < fewest else np.flatnonzero(quota > j)
            cand = Xa[rows].copy()
            col = cand[:, i]
            (np.subtract if j % 2 else np.add)(col, step[i, rows], out=col)
            np.minimum(np.maximum(col, lo_a[i, rows], out=col), hi_a[i, rows], out=col)
            cvals = predict(cand)
            better = cvals > va[rows]
            Xa[rows, i] = np.where(better, col, Xa[rows, i])
            va[rows] = np.where(better, cvals, va[rows])
            improved[rows] |= better
        X[idx], vals[idx] = Xa, va
        steps[idx[~improved]] *= 0.5

    best_val = float(np.max(vals))
    tied = np.flatnonzero(vals == best_val)
    tied = tied[rect[tied] == rect[tied[0]]]  # the lowest rectangle's ties
    winner = int(tied[np.lexsort(X[tied].T[::-1])[0]])
    return X[winner].copy(), best_val, int(used.sum())


def _maximize(model, data, beta_t, lo, hi, restarts, max_evals, seed):
    """The best UCB point over the (K, d) rectangles [lo, hi], as (x, value)."""
    predict = _ucb_batch(PosteriorState(model, data), beta_t)
    x, val, _ = _search_rect(predict, lo, hi, restarts, max_evals, np.random.default_rng(seed))
    return x, val


def maximize_over_box(
    model: GpModel,
    data: Dataset,
    beta_t: float,
    box: SearchBox,
    cfg: MaximizerConfig,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Best acquisition point found inside the box within cfg's budget."""
    lo, hi = box.lower.reshape(1, -1), box.upper.reshape(1, -1)
    return _maximize(model, data, beta_t, lo, hi, cfg.restarts, cfg.max_evals, seed)


def maximize_over_cubes(
    model: GpModel,
    data: Dataset,
    beta_t: float,
    cube_set: HypercubeSet,
    cfg: MaximizerConfig,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Best acquisition point over the cube union.

    One lockstep search covers every clipped cube, each with a per-cube share
    r of the budget (floors: 10 evaluations, 1 restart).  Its starts come from
    one uniform draw of default_rng(`seed`): cube ci takes rows ci * r to
    (ci + 1) * r - 1, so its search does not depend on the other cubes'
    bounds.  Ties go to the lower cube index.
    """
    n = cube_set.n
    lo, hi = cube_set.clipped_bounds()
    restarts, max_evals = max(1, cfg.restarts // n), max(10, cfg.max_evals // n)
    return _maximize(model, data, beta_t, lo, hi, restarts, max_evals, seed)
