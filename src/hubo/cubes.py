"""Hypercube-restricted search sets for the high-dimensional variant.

Each iteration samples N_t = n0 * ceil(t**lambda) small hypercubes of side
l_h with centers uniform in the current box X_t; the acquisition is then
maximized over the union of the cubes intersected with X_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import count, frozen, point, real
from .space import SearchBox

__all__ = [
    "HdConfig",
    "HypercubeSet",
    "num_cubes",
    "sample_cubes",
    "membership",
    "nearest_in_set",
]

# t**lam within this distance of an integer is treated as that integer before
# the ceiling, so pow() drift cannot change N_t between platforms.
_NEAR_INT_TOL = 1e-9


@dataclass(frozen=True)
class HdConfig:
    """Cube-schedule parameters: N_t = n0 * ceil(t**lam), cubes of side l_h."""

    lam: float
    n0: int
    l_h: float

    def __post_init__(self):
        object.__setattr__(self, "lam", real("lam", self.lam, 0.0))
        object.__setattr__(self, "n0", count("n0", self.n0, 1))
        object.__setattr__(self, "l_h", real("l_h", self.l_h, 0.0, ends="(]"))


@dataclass(frozen=True)
class HypercubeSet:
    """N >= 1 cubes of side l_h centered in a parent box (faces included);
    membership clips them to the parent, so no clipped cube is empty."""

    centers: np.ndarray
    l_h: float
    parent: SearchBox

    def __post_init__(self):
        centers = frozen(self.centers, name="centers")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "l_h", real("l_h", self.l_h, 0.0, ends="(]"))
        if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] != self.parent.dim:
            raise ValueError(f"centers has shape {centers.shape}, expected (N, {self.parent.dim})")
        if not np.all((centers >= self.parent.lower) & (centers <= self.parent.upper)):
            raise ValueError("centers must lie in the parent box")

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def clipped_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cube (lower, upper) bounds of cube intersect parent, (N, d) each."""
        half = 0.5 * self.l_h
        lo = np.maximum(self.centers - half, self.parent.lower)
        hi = np.minimum(self.centers + half, self.parent.upper)
        return lo, hi


def num_cubes(t: int, cfg: HdConfig) -> int:
    """N_t = n0 * ceil(t**lam), with a near-integer guard on the power.

    Raises ValueError when t**lam overflows float64, so N_t is not a count.
    """
    t = count("t", t, 1)
    try:
        power = float(t) ** cfg.lam
    except OverflowError:
        raise ValueError(f"N_t is not finite at t={t}, lam={cfg.lam:g}") from None
    rounded = round(power)
    if abs(power - rounded) <= _NEAR_INT_TOL:
        ceiling = int(rounded)
    else:
        ceiling = math.ceil(power)
    return cfg.n0 * ceiling


def sample_cubes(
    parent: SearchBox, t: int, cfg: HdConfig, rng: np.random.Generator
) -> HypercubeSet:
    """Draw N_t cube centers i.i.d. uniform over the parent box."""
    n = num_cubes(t, cfg)
    centers = rng.uniform(parent.lower, parent.upper, size=(n, parent.dim))
    return HypercubeSet(centers, cfg.l_h, parent)


def membership(cube_set: HypercubeSet, x: np.ndarray) -> bool:
    """True iff x lies in some cube clipped to the parent box (closed faces).

    Evaluated through the same clipped_bounds expressions the samplers and
    optimizers use, so a point constructed on a cube face stays a member
    instead of failing by one rounding ulp.
    """
    x = point(x, cube_set.parent.dim)
    lo, hi = cube_set.clipped_bounds()
    return bool(np.any(np.all((x >= lo) & (x <= hi), axis=1)))


def nearest_in_set(
    cube_set: HypercubeSet, x_star: np.ndarray
) -> tuple[np.ndarray, float]:
    """Euclidean-closest point of the cube union to x_star, with its distance.

    Per cube the closest point is x_star clamped into the cube clipped to the
    parent; the minimum over cubes wins, ties going to the lowest cube index.
    """
    x_star = point(x_star, cube_set.parent.dim)
    lo, hi = cube_set.clipped_bounds()
    candidates = np.clip(x_star, lo, hi)
    dists = np.sqrt(np.sum((candidates - x_star) ** 2, axis=1))
    idx = int(np.argmin(dists))  # argmin returns the first (lowest-index) tie
    return candidates[idx].copy(), float(dists[idx])

