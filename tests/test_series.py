"""Tests for hyperharmonic partial sums, their analytic bounds, and helpers.

High-precision reference constants were computed with mpmath at 40 digits
and frozen here; everything else is checked against closed forms evaluated
independently in the test body.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hubo import series


# ---------------------------------------------------------------------------
# partial_sum / partial_sums
# ---------------------------------------------------------------------------


def test_partial_sum_single_term():
    assert series.partial_sum(-1.0, 1) == 1.0


def test_partial_sum_alpha_zero():
    assert series.partial_sum(0.0, 5) == 5.0


def test_partial_sum_harmonic_three_terms():
    assert series.partial_sum(-1.0, 3) == pytest.approx(11.0 / 6.0, rel=1e-15)


def test_partial_sum_frozen_reference():
    # sum_{j=1}^{10} j^(-1/2), mpmath 40-digit value.
    assert series.partial_sum(-0.5, 10) == pytest.approx(
        5.020997899292666, abs=1e-14
    )


def test_partial_sums_prefix_consistency():
    alpha = -0.7
    sums = series.partial_sums(alpha, 50)
    assert sums.shape == (50,)
    for n in (1, 2, 17, 50):
        assert sums[n - 1] == pytest.approx(series.partial_sum(alpha, n), rel=1e-15)


def test_partial_sum_strictly_increasing_in_n():
    for alpha in (-1.0, -0.9, -0.5, -0.1):
        sums = series.partial_sums(alpha, 1000)
        assert np.all(np.diff(sums) > 0.0)


def test_partial_sum_rejects_bad_n():
    with pytest.raises(TypeError):
        series.partial_sum(-1.0, 2.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        series.partial_sum(-1.0, 0)
    with pytest.raises(ValueError):
        series.partial_sums(-1.0, -3)


def test_partial_sum_rejects_non_finite_alpha():
    with pytest.raises(ValueError):
        series.partial_sum(math.inf, 3)
    with pytest.raises(ValueError):
        series.partial_sum(math.nan, 3)


# ---------------------------------------------------------------------------
# lower / upper bounds
# ---------------------------------------------------------------------------


def test_lower_bound_harmonic():
    assert series.partial_sum_lower_bound(-1.0, 10) == pytest.approx(
        math.log(11.0), rel=1e-15
    )


def test_lower_bound_closed_form_half():
    # ((n+1)^(alpha+1) - 1) / (alpha+1) with alpha=-1/2, n=3: (sqrt(4)-1)/0.5.
    assert series.partial_sum_lower_bound(-0.5, 3) == pytest.approx(2.0, rel=1e-15)


def test_lower_bound_below_sum_at_n1():
    lower = series.partial_sum_lower_bound(-1.0, 1)
    assert lower == pytest.approx(math.log(2.0), rel=1e-15)
    assert lower < series.partial_sum(-1.0, 1)


def test_upper_bound_harmonic():
    assert series.partial_sum_upper_bound(-1.0, 10) == pytest.approx(
        1.0 + math.log(10.0), rel=1e-15
    )


def test_upper_bound_boundary_n1():
    # At n=1, alpha=-1 the bound equals the sum exactly; strictness holds
    # from n=2 on (checked in the sandwich sweep below).
    assert series.partial_sum_upper_bound(-1.0, 1) == pytest.approx(1.0, rel=1e-15)
    assert series.partial_sum(-1.0, 1) == 1.0


def test_upper_bound_closed_form_half():
    # 1 + (n^(1+alpha) - 1)/(1+alpha) with alpha=-1/2, n=4: 1 + (2-1)/0.5.
    assert series.partial_sum_upper_bound(-0.5, 4) == pytest.approx(3.0, rel=1e-15)


def test_bounds_reject_alpha_out_of_range():
    for bad in (-1.5, 0.0, 0.3):
        with pytest.raises(ValueError):
            series.partial_sum_lower_bound(bad, 5)
        with pytest.raises(ValueError):
            series.partial_sum_upper_bound(bad, 5)


def test_sandwich_strict_moderate_sweep():
    # Strict lower < sum < upper for n in [2, 2000]; the acceptance suite
    # extends the same check to n = 1e5.
    ns = np.arange(2, 2001)
    for alpha in (-1.0, -0.9, -0.5, -0.1):
        sums = series.partial_sums(alpha, 2000)[1:]
        lower = np.array([series.partial_sum_lower_bound(alpha, int(n)) for n in ns])
        upper = np.array([series.partial_sum_upper_bound(alpha, int(n)) for n in ns])
        assert np.all(lower < sums)
        assert np.all(sums < upper)


# ---------------------------------------------------------------------------
# p_series_bound
# ---------------------------------------------------------------------------


def test_p_series_bound_values():
    assert series.p_series_bound(2.0) == pytest.approx(2.0, rel=1e-15)
    assert series.p_series_bound(1.5) == pytest.approx(3.0, rel=1e-15)


def test_p_series_bound_dominates_partial_sums():
    # For p=2 every partial sum is below pi^2/6 which is below the bound 2.
    n = 10_000
    for p in (1.5, 2.0, 3.0):
        sums = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** (-p))
        assert sums[-1] < series.p_series_bound(p)
    assert np.pi**2 / 6.0 < series.p_series_bound(2.0)


def test_p_series_bound_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        series.p_series_bound(1.0)
    with pytest.raises(ValueError):
        series.p_series_bound(0.5)


# ---------------------------------------------------------------------------
# gamma_root
# ---------------------------------------------------------------------------


def test_gamma_root_small_d():
    assert series.gamma_root(2) == pytest.approx(1.0, rel=1e-14)
    # Gamma(3)^(1/4) = 2^(1/4); Gamma(4)^(1/6) = 6^(1/6); mpmath references.
    assert series.gamma_root(4) == pytest.approx(1.189207115002721, abs=1e-14)
    assert series.gamma_root(6) == pytest.approx(1.3480061545972777, abs=1e-14)


def test_gamma_root_below_sqrt_bound():
    for d in range(1, 201):
        assert series.gamma_root(d) < math.sqrt(d + 2)


def test_gamma_root_rejects_nonpositive():
    with pytest.raises(ValueError):
        series.gamma_root(0)
    with pytest.raises(ValueError):
        series.gamma_root(-3)


# ---------------------------------------------------------------------------
# nearest_point_decay
# ---------------------------------------------------------------------------


def test_nearest_point_decay_log_regime():
    # alpha=-1, lam=1, d=1, t=1: (2 + ln 1) * 1 = 2.
    assert series.nearest_point_decay(-1.0, 1.0, 1, 1) == pytest.approx(2.0)


def test_nearest_point_decay_power_regime():
    # alpha=-1/2, lam=0: 2/(alpha+1) * t^0 = 4 for any t.
    assert series.nearest_point_decay(-0.5, 0.0, 3, 100) == pytest.approx(4.0)


def test_nearest_point_decay_frozen_reference():
    # alpha=-1, lam=2, d=2, t=e: (2+1) * e^(-1) = 3/e, mpmath 40-digit value.
    assert series.nearest_point_decay(-1.0, 2.0, 2, math.e) == pytest.approx(
        1.103638323514327, abs=1e-14
    )


def test_nearest_point_decay_vanishes_when_lam_dominates():
    # Whenever lam > d*(alpha+1) the factor decays; checked as eventual
    # strict monotone decrease on a geometric t-ladder.
    # For alpha=-1 the (2 + ln t) factor can grow before the power wins, so
    # the check is: strictly decreasing after the peak, and eventually small.
    cases = [(-1.0, 0.5, 3), (-1.0, 1.0, 2), (-0.5, 2.0, 3), (-0.9, 0.4, 1)]
    ts = np.geomspace(10, 1e9, 40)
    for alpha, lam, dim in cases:
        assert lam > dim * (alpha + 1.0)
        vals = np.array(
            [series.nearest_point_decay(alpha, lam, dim, t) for t in ts]
        )
        peak = int(np.argmax(vals))
        assert peak < len(vals) - 5
        assert np.all(np.diff(vals[peak:]) < 0.0)
        assert vals[-1] < 0.5 * vals.max()


def test_nearest_point_decay_validation():
    with pytest.raises(ValueError):
        series.nearest_point_decay(0.0, 1.0, 1, 2)
    with pytest.raises(ValueError):
        series.nearest_point_decay(-1.0, -0.1, 1, 2)
    with pytest.raises(ValueError):
        series.nearest_point_decay(-1.0, 1.0, 0, 2)
    with pytest.raises(ValueError):
        series.nearest_point_decay(-1.0, 1.0, 1, 0.5)
    # NaN fails no `x < bound` check, and t = inf gives (2 + inf) * 0 = nan
    with pytest.raises(ValueError, match="lam must be >= 0, got nan"):
        series.nearest_point_decay(-1.0, math.nan, 1, 2)
    with pytest.raises(ValueError, match="t must be >= 1, got nan"):
        series.nearest_point_decay(-1.0, 1.0, 1, math.nan)
    with pytest.raises(ValueError, match="t must be finite, got inf"):
        series.nearest_point_decay(-1.0, 1.0, 1, math.inf)
