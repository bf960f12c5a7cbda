"""Input contracts: every config and geometry type checks its fields here.

Each helper returns the field in canonical form or raises an error that names
it.  Integers must be true integers (`operator.index`), so a float, even a
whole one, is a TypeError; reals must lie in their range and be finite;
points must have their expected shape.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = ["count", "real", "point", "frozen"]


def count(name: str, value, minimum: int) -> int:
    """value as an int >= minimum; a float, NaN or bool raises TypeError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return n


def real(
    name: str, value, low: float = -math.inf, high: float = math.inf, ends: str = "[]"
) -> float:
    """value as a finite float between low and high.

    `ends` holds the interval's brackets; "(" or ")" excludes that end.  The
    range is checked before finiteness, so NaN reports the range when there is
    one, and ±inf the range when it lies outside.
    """
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    x = float(value)
    above = low < x if ends[0] == "(" else low <= x
    below = x < high if ends[1] == ")" else x <= high
    if not (above and below) and low > -math.inf:
        if high == math.inf:
            rule = f"be {'>' if ends[0] == '(' else '>='} {low:g}"
        else:
            rule = f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}"
        raise ValueError(f"{name} must {rule}, got {x}")
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def point(x, dim: int, name: str = "point") -> np.ndarray:
    """x as a float64 array, which must have shape (dim,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({dim},)")
    return x


def frozen(values, shape: tuple[int, ...] | None = None, name: str | None = None) -> np.ndarray:
    """A read-only float64 copy of values, broadcast to shape when one is
    given; with a field name, every entry must be finite."""
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        arr = np.broadcast_to(arr, shape)
    arr = arr.copy()
    if name is not None and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr
