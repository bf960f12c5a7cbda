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

from .contracts import count, real

__all__ = [
    "partial_sum",
    "partial_sums",
    "partial_sum_lower_bound",
    "partial_sum_upper_bound",
    "partial_sum_lower_bound_inverse",
    "p_series_bound",
    "gamma_root",
    "nearest_point_decay",
]


def partial_sum(alpha: float, n: int) -> float:
    """Return sum_{j=1}^{n} j**alpha, accumulated left to right."""
    return float(partial_sums(alpha, n)[-1])


def partial_sums(alpha: float, n: int) -> np.ndarray:
    """Return the array of partial sums for j = 1..n (left-to-right order).

    partial_sums(alpha, n)[k-1] == partial_sum(alpha, k); useful for sweeping
    bound checks over every n without O(n^2) work.
    """
    n = count("n", n, 1)
    alpha = real("alpha", alpha)
    terms = np.arange(1, n + 1, dtype=np.float64) ** alpha
    return np.cumsum(terms)


def _qlog(u: float, x: float) -> float:
    """ln_u(x) = expm1(u ln x)/u, which does not cancel at small u; ln x at u = 0."""
    return math.log(x) if u == 0.0 else math.expm1(u * math.log(x)) / u


def partial_sum_lower_bound(alpha: float, n: int) -> float:
    """Strict lower bound ln_u(n+1) = ((n+1)^u - 1)/u on partial_sum(alpha, n),
    u = alpha + 1 (ln(n+1) at alpha = -1).

    For alpha in (-1e-9, 0) the sum's rounding can pass its distance to the
    bounds: the computed sum meets this one and the upper one within a
    relative (n + 8)*2**-52.
    """
    alpha = real("alpha", alpha, -1.0, 0.0, "[)")
    return _qlog(alpha + 1.0, float(count("n", n, 1) + 1))


def partial_sum_upper_bound(alpha: float, n: int) -> float:
    """Upper bound 1 + ln_u(n) on partial_sum(alpha, n), u = alpha + 1: strict
    for n >= 2, equal to the sum at n = 1 (see partial_sum_lower_bound)."""
    alpha = real("alpha", alpha, -1.0, 0.0, "[)")
    return 1.0 + _qlog(alpha + 1.0, float(count("n", n, 1)))


def partial_sum_lower_bound_inverse(alpha: float, total: float) -> int:
    """Smallest n >= 1 with partial_sum_lower_bound(alpha, n) >= total >= 0.

    n + 1 = exp(log1p(u*total)/u) in closed form, checked after rounding by
    steps of 1, or of n >> 52 above 2**52, where a float cannot tell n from
    n + 1.  Raises OverflowError when n passes the float range.
    """
    alpha = real("alpha", alpha, -1.0, 0.0, "[)")
    u, total = alpha + 1.0, real("total", total, 0.0)
    log_x = total if u == 0.0 else math.log1p(u * total) / u
    n = max(1, math.ceil(math.exp(log_x) - 1.0))
    step = max(1, n >> 52)
    while n > step and partial_sum_lower_bound(alpha, n - step) >= total:
        n -= step
    while partial_sum_lower_bound(alpha, n) < total:
        n += step
    return n


def p_series_bound(p_exponent: float) -> float:
    """Upper bound 1/(p-1) + 1 on every finite sum_{k=1}^{n} k**(-p), p > 1."""
    p = real("p_exponent", p_exponent, 1.0, ends="(]")
    return 1.0 / (p - 1.0) + 1.0


def gamma_root(d: int) -> float:
    """Return Gamma(d/2 + 1)**(1/d), computed through log-gamma.

    Stays strictly below sqrt(d + 2) for 1 <= d <= 200, which is the margin
    the diagnostics rely on.
    """
    d = count("d", d, 1)
    return math.exp(math.lgamma(d / 2.0 + 1.0) / d)


def nearest_point_decay(alpha: float, lam: float, dim: int, t: float) -> float:
    """Decay factor (2 + ln_u t) * t**(-lam/dim), u = alpha + 1, of the
    sampled-cover nearest-distance bound.

    2 + ln_u t bounds the side's growth 1 + partial_sum(alpha, t) at integer
    t.  The factor tends to 0 as t grows iff lam > dim*(alpha+1).
    """
    alpha = real("alpha", alpha, -1.0, 0.0, "[)")
    lam = real("lam", lam, 0.0)
    dim = count("dim", dim, 1)
    t = real("t", t, 1.0)
    return (2.0 + _qlog(alpha + 1.0, t)) * t ** (-lam / dim)
