"""GP-UCB acquisition: confidence schedules and seeded maximization.

The acquisition value is mean + sqrt(beta_t) * std under the current GP
posterior.  Maximization is derivative-free: uniform multi-start plus
coordinate-wise pattern search with shrinking steps, clamped to the feasible
rectangle, under a hard evaluation budget.  One search serves both
maximizers: it advances K rectangles in lockstep, K clipped cubes for the
cube union and K = 1 for the box, and costs one `predict` call per
(coordinate, sign) per sweep whatever K is.  Everything is deterministic
given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series
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


@dataclass(frozen=True)
class BetaSchedule:
    """Confidence-width schedule for one of the two algorithm variants.

    The "hubo" variant needs the initial interval [a, b] and the expansion
    rate alpha (its beta grows with the expanded side); the "hdhubo" variant
    needs the cube side l_h instead.
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
        if self.variant not in ("hubo", "hdhubo"):
            raise ValueError(f"unknown beta variant {self.variant!r}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.s1 <= 0.0 or self.s2 <= 0.0:
            raise ValueError("s1 and s2 must be > 0")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.variant == "hubo":
            if self.a is None or self.b is None or self.alpha is None:
                raise ValueError("hubo beta needs a, b, and alpha")
            if not self.b > self.a:
                raise ValueError(f"need b > a, got a={self.a}, b={self.b}")
            if not (-1.0 <= self.alpha < 0.0):
                raise ValueError(f"alpha must lie in [-1, 0), got {self.alpha}")
        else:
            if self.l_h is None or self.l_h <= 0.0:
                raise ValueError("hdhubo beta needs l_h > 0")


def beta(t: int, sched: BetaSchedule, side: float | None = None) -> float:
    """Confidence multiplier beta_t, clamped below at 0.

    For the "hubo" variant `side` may supply the current expanded side
    (b-a)(1 + sum j^alpha) so callers tracking it incrementally avoid an O(t)
    recomputation; when omitted it is computed from the schedule.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    d = sched.dim
    if sched.variant == "hubo":
        if side is None:
            side = (sched.b - sched.a) * (1.0 + series.partial_sum(sched.alpha, t))
        pi_t = math.pi**2 * t * t / 6.0
        tail = math.sqrt(math.log(4.0 * d * sched.s1 / sched.delta))
        val = 2.0 * math.log(4.0 * pi_t / sched.delta) + 4.0 * d * math.log(
            d * t * sched.s2 * side * tail
        )
    else:
        tail = math.sqrt(math.log(6.0 * d * sched.s1 / sched.delta))
        val = 2.0 * math.log(math.pi**2 * t * t / sched.delta) + 2.0 * d * math.log(
            2.0 * sched.s2 * sched.l_h * d * tail * t * t
        )
    return max(0.0, val)


@dataclass(frozen=True)
class MaximizerConfig:
    """Budget for one acquisition maximization."""

    restarts: int = 20
    max_evals: int = 1000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_evals < self.restarts:
            raise ValueError(
                f"max_evals ({self.max_evals}) must be >= restarts ({self.restarts})"
            )


def _ucb_batch(state: PosteriorState, beta_t: float):
    root = math.sqrt(beta_t)

    def predict(X: np.ndarray) -> np.ndarray:
        means, variances = state.predict(X)
        return means + root * np.sqrt(variances)

    return predict


def _search_rect(predict, lo, hi, restarts, max_evals, rngs):
    """Multi-start coordinate pattern search over K rectangles in lockstep.

    `lo` and `hi` are (K, d) bounds and `rngs` yields one generator per
    rectangle.  Each rectangle draws `restarts` uniform starts from its own
    generator before any truncation, so its start set depends only on that
    generator, never on the budget; a larger budget therefore replays the same
    trajectory prefix and can only improve the result.  Each rectangle keeps
    its own budget of `max_evals` evaluations, step sizes and stopping rule,
    and follows the trajectory a search of it alone would; only the `predict`
    calls are shared: one per (coordinate, sign) per sweep, with rows ordered
    by rectangle, then by start.  The best value wins; ties go to the lowest
    rectangle, then to the lexicographically smallest point.  Returns
    (best point, best value, evaluations used over all rectangles).
    """
    K, d = lo.shape
    n0 = min(restarts, max_evals)
    X = np.concatenate(
        [rng.uniform(l, h, size=(restarts, d))[:n0] for rng, l, h in zip(rngs, lo, hi)]
    )
    vals = predict(X)
    rect = np.repeat(np.arange(K), n0)
    # (d, K * n0): row i holds coordinate i's bounds for every start
    lo_rows = lo.T[:, rect]
    hi_rows = hi.T[:, rect]
    width_rows = hi_rows - lo_rows
    probed = (hi - lo).T != 0.0  # (d, K): zero-width coordinates are skipped
    used = np.full(K, n0)
    steps = np.full(K * n0, 0.25)
    active = np.ones(K * n0, dtype=bool)

    while True:
        by_rect = active.reshape(K, n0)
        n_active = by_rect.sum(axis=1)
        if not np.any((used < max_evals) & (n_active > 0)):
            break
        idx_all = np.flatnonzero(active)
        rank = (np.cumsum(by_rect, axis=1) - 1).ravel()
        improved = np.zeros(K * n0, dtype=bool)
        for i in range(d):
            for sign in (1.0, -1.0):
                # each rectangle probes its first (budget-left) active starts
                take = np.minimum(max_evals - used, n_active) * probed[i]
                if np.array_equal(take, n_active):
                    idx = idx_all
                elif not np.any(take):
                    break
                else:
                    idx = np.flatnonzero(active & (rank < take[rect]))
                cand = X[idx]
                moved = cand[:, i] + sign * steps[idx] * width_rows[i][idx]
                cand[:, i] = np.minimum(np.maximum(moved, lo_rows[i][idx]), hi_rows[i][idx])
                cvals = predict(cand)
                used += take
                better = cvals > vals[idx]
                sel = idx[better]
                X[sel, i] = cand[better, i]
                vals[sel] = cvals[better]
                improved[sel] = True
        stalled = active & ~improved
        steps[stalled] *= 0.5
        active &= steps >= _STEP_TOLERANCE

    best_val = float(np.max(vals))
    tied = np.flatnonzero(vals == best_val)
    tied = tied[rect[tied] == rect[tied[0]]]  # the lowest rectangle's ties
    winner = int(tied[np.lexsort(X[tied].T[::-1])[0]])
    return X[winner].copy(), best_val, int(used.sum())


def maximize_over_box(
    model: GpModel,
    data: Dataset,
    beta_t: float,
    box: SearchBox,
    cfg: MaximizerConfig,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Best acquisition point found inside the box within cfg's budget."""
    state = PosteriorState(model, data)
    predict = _ucb_batch(state, beta_t)
    x, val, _ = _search_rect(
        predict,
        box.lower.reshape(1, -1),
        box.upper.reshape(1, -1),
        cfg.restarts,
        cfg.max_evals,
        [np.random.default_rng(seed)],
    )
    return x, val


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
    of the budget (floors: 10 evaluations, 1 restart) and its own rng stream
    derived from (`seed`, cube index), so the result does not depend on the
    other cubes.  Ties go to the lower cube index.
    """
    state = PosteriorState(model, data)
    predict = _ucb_batch(state, beta_t)
    n = cube_set.n
    lo, hi = cube_set.clipped_bounds()
    # a cube entirely outside the parent is dropped; defensive
    kept = np.flatnonzero(np.all(hi >= lo, axis=1))
    if kept.size == 0:
        raise ValueError("every cube was empty after clipping to the parent box")
    rngs = (
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(ci),)))
        for ci in kept
    )
    x, val, _ = _search_rect(
        predict,
        lo[kept],
        hi[kept],
        max(1, cfg.restarts // n),
        max(10, cfg.max_evals // n),
        rngs,
    )
    return x, val
