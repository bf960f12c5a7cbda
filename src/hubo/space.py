"""Expanding search-box geometry.

A run starts from a hypercube X0 and, once per iteration, grows every face
outward by ((b-a)/2) * t**alpha and re-centers the box at the incumbent
clamped into a fixed finite domain C_initial.  `InitialSpace` owns the start
geometry, X0 and C_initial, and every rule that ties them together;
`ExpansionConfig` is an InitialSpace plus alpha.  The closed-form side
length, the envelope containing every reachable box, and the reachability
horizon diagnostic all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series
from .contracts import count, frozen, point, real

__all__ = [
    "SearchBox",
    "InitialSpace",
    "ExpansionConfig",
    "initial_box",
    "expand",
    "translate",
    "side_length",
    "envelope",
    "coverage_need",
    "reachability_horizon",
    "reachability_horizon_bound",
]


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned hypercube: center +/- half_side in every dimension."""

    center: np.ndarray
    half_side: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", count("dim", self.dim, 1))
        center = frozen(point(self.center, self.dim, "center"), name="center")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_side", real("half_side", self.half_side, 0.0, ends="(]"))

    @property
    def side(self) -> float:
        return 2.0 * self.half_side

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_side

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_side

    def contains(self, x: np.ndarray) -> bool:
        """Closed-box membership: faces count as inside."""
        x = point(x, self.dim)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass(frozen=True, kw_only=True)
class InitialSpace:
    """Start geometry of a run: the box X0 and the region C_initial.

    X0 is the hypercube of side b-a centered at x0_center, which defaults to
    the midpoint of [a, b] in every dimension; [c_min, c_max] is C_initial,
    where the box center may move, and must contain X0.  The vectors may be
    scalars (the plain [a,b]^d case) or per-dimension; benchmark protocol
    places X0 at a random spot of the function domain.
    """

    dim: int
    a: float
    b: float
    x0_center: np.ndarray | None = None
    c_min: np.ndarray
    c_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", real("a", self.a))
        object.__setattr__(self, "b", real("b", self.b))
        object.__setattr__(self, "dim", count("dim", self.dim, 1))
        if not self.b > self.a:
            raise ValueError(f"need b > a, got a={self.a}, b={self.b}")
        real("b - a", self.side)

        shape = (self.dim,)
        c_min = frozen(self.c_min, shape, name="c_min")
        c_max = frozen(self.c_max, shape, name="c_max")
        x0 = 0.5 * (self.a + self.b) if self.x0_center is None else self.x0_center
        x0 = frozen(x0, shape, name="x0_center")
        object.__setattr__(self, "c_min", c_min)
        object.__setattr__(self, "c_max", c_max)
        object.__setattr__(self, "x0_center", x0)

        if not np.all(c_max > c_min):
            raise ValueError("need c_max > c_min in every dimension")
        half0 = 0.5 * self.side
        if np.any(x0 - half0 < c_min - 1e-12) or np.any(x0 + half0 > c_max + 1e-12):
            raise ValueError("X0 must be contained in [c_min, c_max]^d")

    @property
    def side(self) -> float:
        return self.b - self.a

    def to_expansion(self, alpha: float) -> ExpansionConfig:
        return ExpansionConfig(dim=self.dim, a=self.a, b=self.b, x0_center=self.x0_center,
                               c_min=self.c_min, c_max=self.c_max, alpha=alpha)


@dataclass(frozen=True, kw_only=True)
class ExpansionConfig(InitialSpace):
    """A start geometry plus the expansion rate alpha in [-1, 0) of the
    expand-and-translate schedule; the side b-a drives every increment."""

    alpha: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "alpha", real("alpha", self.alpha, -1.0, 0.0, "[)"))


def initial_box(cfg: InitialSpace) -> SearchBox:
    """The box X0 for a run: side b-a centered at cfg.x0_center."""
    return SearchBox(cfg.x0_center, 0.5 * cfg.side, cfg.dim)


def expand(box: SearchBox, t: int, cfg: ExpansionConfig) -> SearchBox:
    """Grow every face of the step-(t-1) box outward by ((b-a)/2) * t**alpha."""
    t = count("t", t, 1)
    increment = 0.5 * (cfg.b - cfg.a) * float(t) ** cfg.alpha
    return SearchBox(box.center, box.half_side + increment, box.dim)


def translate(box: SearchBox, best_x: np.ndarray, cfg: ExpansionConfig) -> SearchBox:
    """Re-center the box at best_x clamped componentwise into [c_min, c_max].

    The componentwise clamp is the Euclidean-closest point of C_initial to
    best_x, so this is "move the center as close to the incumbent as the
    domain allows".
    """
    center = np.clip(point(best_x, box.dim, "best_x"), cfg.c_min, cfg.c_max)
    return SearchBox(center, box.half_side, box.dim)


def side_length(t: int, cfg: ExpansionConfig) -> float:
    """Closed-form side of the box after t expansions: (b-a)(1 + sum j^alpha)."""
    if count("t", t, 0) == 0:
        return cfg.b - cfg.a
    return (cfg.b - cfg.a) * (1.0 + series.partial_sum(cfg.alpha, t))


def envelope(T: int, cfg: ExpansionConfig) -> SearchBox:
    """Hypercube containing every box a run can produce through step T.

    [c_min - side(T)/2, c_max + side(T)/2]^d: any center in C_initial plus the
    largest possible half-side.  Requires C_initial to have equal widths.
    """
    count("T", T, 1)
    widths = cfg.c_max - cfg.c_min
    if not np.all(widths == widths[0]):
        raise ValueError("envelope requires C_initial with equal per-dimension widths")
    center = 0.5 * (cfg.c_min + cfg.c_max)
    half = 0.5 * float(widths[0]) + 0.5 * side_length(T, cfg)
    return SearchBox(center, half, cfg.dim)


def coverage_need(a_g: float, b_g: float, cfg: InitialSpace) -> float:
    """Half-side the box must reach to contain [a_g, b_g]^d from the worst
    admissible center: max over dimensions of max(c_max_i - a_g, b_g - c_min_i).
    [a_g, b_g] is widened to include the C_initial midpoints if needed."""
    a_g, b_g = real("a_g", a_g), real("b_g", b_g)
    if not b_g > a_g:
        raise ValueError(f"need b_g > a_g, got [{a_g}, {b_g}]")
    c0 = 0.5 * (cfg.c_min + cfg.c_max)
    a_g = min(a_g, float(np.min(c0)))
    b_g = max(b_g, float(np.max(c0)))
    gaps = np.maximum(b_g - c0, c0 - a_g)
    return float(np.max(0.5 * (cfg.c_max - cfg.c_min) + gaps))


def reachability_horizon(
    a_g: float, b_g: float, cfg: ExpansionConfig, limit: int = 10**9
) -> int | None:
    """Smallest T0 after which the worst-case box contains [a_g, b_g]^d.

    Worst case means the center pinned at the least favorable point of
    C_initial; T0 is the first t whose half-side (b-a)/2 * (1 + sum j^alpha)
    covers the largest per-dimension gap.  Returns None when T0 would exceed
    `limit` (slow alpha near -1 can push T0 beyond anything enumerable; see
    reachability_horizon_bound for a closed-form certificate instead).  When
    the partial sum's closed-form upper bound at `limit` already falls short,
    it returns None without scanning.
    """
    limit = count("limit", limit, 1)
    need = coverage_need(a_g, b_g, cfg)
    half_side0 = 0.5 * (cfg.b - cfg.a)

    # The slack covers the scan's rounding, about 2**-53 relative per step.
    most = series.partial_sum_upper_bound(cfg.alpha, limit)
    if half_side0 * (1.0 + most) * (1.0 + (limit + 8) * 2.0**-52) < need:
        return None

    total = 0.0  # sum_{j<=t} j^alpha, one term per step keeps the scan O(t)
    for t in range(1, limit + 1):
        total += float(t) ** cfg.alpha
        if half_side0 * (1.0 + total) >= need:
            return t
    return None


def reachability_horizon_bound(a_g: float, b_g: float, cfg: ExpansionConfig) -> int:
    """Closed-form upper bound on reachability_horizon, never enumerating t.

    The smallest t whose partial-sum lower bound (series.partial_sum_lower_bound)
    reaches the sum the target needs, so containment at the returned t is
    certified even when the true horizon is astronomically large.  Raises
    OverflowError when that t passes the float range.
    """
    need = coverage_need(a_g, b_g, cfg)
    half_side0 = 0.5 * (cfg.b - cfg.a)
    required_sum = need / half_side0 - 1.0
    if required_sum <= 1.0:
        return 1  # the first expansion already contributes 1**alpha = 1
    return series.partial_sum_lower_bound_inverse(cfg.alpha, required_sum)
