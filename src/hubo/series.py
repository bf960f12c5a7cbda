"""Hyperharmonic partial sums and their closed-form bounds.

The expansion schedule grows the search box by increments proportional to
j^alpha, so its side length is controlled by partial sums of a hyperharmonic
series.  This module provides those sums, the analytic sandwich bounds used by
the diagnostics, the p-series tail bound, the gamma-root constant, and the
decay factor appearing in the sampled-cover distance bound.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "partial_sum",
    "partial_sums",
    "partial_sum_lower_bound",
    "partial_sum_upper_bound",
    "p_series_bound",
    "gamma_root",
    "nearest_point_decay",
]


def _check_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return int(n)


def _check_alpha_bounded(alpha: float) -> float:
    alpha = float(alpha)
    if not (-1.0 <= alpha < 0.0):
        raise ValueError(f"alpha must lie in [-1, 0), got {alpha}")
    return alpha


def partial_sum(alpha: float, n: int) -> float:
    """Return sum_{j=1}^{n} j**alpha, accumulated left to right."""
    return float(partial_sums(alpha, n)[-1])


def partial_sums(alpha: float, n: int) -> np.ndarray:
    """Return the array of partial sums for j = 1..n (left-to-right order).

    partial_sums(alpha, n)[k-1] == partial_sum(alpha, k); useful for sweeping
    bound checks over every n without O(n^2) work.
    """
    n = _check_n(n)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    terms = np.arange(1, n + 1, dtype=np.float64) ** alpha
    return np.cumsum(terms)


def partial_sum_lower_bound(alpha: float, n: int) -> float:
    """Closed-form strict lower bound on partial_sum(alpha, n) for alpha in [-1, 0).

    ((n+1)^(alpha+1) - 1)/(alpha+1) for -1 < alpha < 0, and ln(n+1) at
    alpha = -1.
    """
    alpha = _check_alpha_bounded(alpha)
    n = _check_n(n)
    if alpha == -1.0:
        return math.log(n + 1)
    return ((n + 1.0) ** (alpha + 1.0) - 1.0) / (alpha + 1.0)


def partial_sum_upper_bound(alpha: float, n: int) -> float:
    """Closed-form upper bound on partial_sum(alpha, n) for alpha in [-1, 0).

    1 + (n^(1+alpha) - 1)/(1+alpha) for -1 < alpha < 0, and 1 + ln(n) at
    alpha = -1.  Strict for n >= 2; equal to the sum at n = 1.
    """
    alpha = _check_alpha_bounded(alpha)
    n = _check_n(n)
    if alpha == -1.0:
        return 1.0 + math.log(n)
    return 1.0 + (float(n) ** (1.0 + alpha) - 1.0) / (1.0 + alpha)


def p_series_bound(p_exponent: float) -> float:
    """Upper bound 1/(p-1) + 1 on every finite sum_{k=1}^{n} k**(-p), p > 1."""
    p = float(p_exponent)
    if p <= 1.0:
        raise ValueError(f"p_exponent must be > 1, got {p}")
    return 1.0 / (p - 1.0) + 1.0


def gamma_root(d: int) -> float:
    """Return Gamma(d/2 + 1)**(1/d), computed through log-gamma.

    Stays strictly below sqrt(d + 2) for 1 <= d <= 200, which is the margin
    the diagnostics rely on.
    """
    if not isinstance(d, (int, np.integer)):
        raise TypeError(f"d must be an integer, got {type(d).__name__}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return math.exp(math.lgamma(d / 2.0 + 1.0) / d)


def nearest_point_decay(alpha: float, lam: float, dim: int, t: float) -> float:
    """Decay factor of the sampled-cover nearest-distance bound.

    (2 + ln t) * t**(-lam/dim) when alpha == -1, else
    2/(alpha+1) * t**(-lam/dim).  Tends to 0 as t grows whenever
    lam > dim*(alpha+1).
    """
    alpha = _check_alpha_bounded(alpha)
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    t = float(t)
    if t < 1.0:
        raise ValueError(f"t must be >= 1, got {t}")
    power = t ** (-lam / dim)
    if alpha == -1.0:
        return (2.0 + math.log(t)) * power
    return 2.0 / (alpha + 1.0) * power
