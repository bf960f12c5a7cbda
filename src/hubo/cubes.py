"""Hypercube-restricted search sets for the high-dimensional variant.

Each iteration samples N_t = n0 * ceil(t**lambda) small hypercubes of side
l_h with centers uniform in the current box X_t; the acquisition is then
maximized over the union of the cubes intersected with X_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import gamma_root
from .space import SearchBox

__all__ = [
    "HdConfig",
    "HypercubeSet",
    "num_cubes",
    "sample_cubes",
    "membership",
    "nearest_in_set",
    "nearest_distance_bound",
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
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "n0", int(self.n0))
        object.__setattr__(self, "l_h", float(self.l_h))
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if not self.l_h > 0.0:
            raise ValueError(f"l_h must be > 0, got {self.l_h}")


@dataclass(frozen=True)
class HypercubeSet:
    """N cubes of side l_h inside a parent box; membership clips to the parent."""

    centers: np.ndarray
    l_h: float
    parent: SearchBox

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64).copy()
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "l_h", float(self.l_h))
        if centers.ndim != 2 or centers.shape[1] != self.parent.dim:
            raise ValueError(
                f"centers must have shape (N, {self.parent.dim}), got {centers.shape}"
            )
        if centers.shape[0] < 1:
            raise ValueError("a HypercubeSet needs at least one cube")

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
    """N_t = n0 * ceil(t**lam), with a near-integer guard on the power."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    power = float(t) ** cfg.lam
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
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cube_set.parent.dim,):
        raise ValueError(
            f"point has shape {x.shape}, expected ({cube_set.parent.dim},)"
        )
    if not cube_set.parent.contains(x):
        return False
    lo, hi = cube_set.clipped_bounds()
    return bool(np.any(np.all((x >= lo) & (x <= hi), axis=1)))


def nearest_in_set(
    cube_set: HypercubeSet, x_star: np.ndarray
) -> tuple[np.ndarray, float]:
    """Euclidean-closest point of the cube union to x_star, with its distance.

    Per cube the closest point is x_star clamped into the cube clipped to the
    parent; the minimum over cubes wins, ties going to the lowest cube index.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.shape != (cube_set.parent.dim,):
        raise ValueError(
            f"point has shape {x_star.shape}, expected ({cube_set.parent.dim},)"
        )
    lo, hi = cube_set.clipped_bounds()
    candidates = np.clip(x_star, lo, hi)
    dists = np.sqrt(np.sum((candidates - x_star) ** 2, axis=1))
    idx = int(np.argmin(dists))  # argmin returns the first (lowest-index) tie
    return candidates[idx].copy(), float(dists[idx])


def nearest_distance_bound(side: float, dim: int, n: int, delta: float) -> float:
    """Radius that n uniform cube centers reach with probability >= 1 - delta.

    For any fixed point of a box with the given side, the Euclidean distance
    to the nearest of n i.i.d. uniform centers is below this radius with
    probability at least 1 - delta:

        (2 * side / sqrt(pi)) * Gamma(d/2 + 1)^(1/d) * (ln(1/delta) / n)^(1/d)

    The factor 2 covers the worst corner position, where only a 2^-d fraction
    of the ball around the point lies inside the box.
    """
    if side <= 0.0:
        raise ValueError(f"side must be > 0, got {side}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return (
        2.0
        * side
        / math.sqrt(math.pi)
        * gamma_root(dim)
        * (math.log(1.0 / delta) / n) ** (1.0 / dim)
    )
