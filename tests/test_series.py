"""Tests for hyperharmonic partial sums, their analytic bounds, and helpers.

High-precision reference constants were computed with mpmath at 40 digits
and frozen here; everything else is checked against closed forms evaluated
independently in the test body.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubo import series, space

# alpha in [-1, 0), its edges first: -1 itself, the next float above it,
# just above -1, the edge of the strict regime below, and the float next to 0
ALPHAS = st.one_of(
    st.sampled_from([-1.0, math.nextafter(-1.0, 0.0), -1.0 + 1e-12, -1e-9, -5e-324]),
    st.floats(-1.0, 0.0, exclude_max=True),
)


def rounding_allowance(alpha: float, n: int) -> float:
    """Relative allowance of a bound comparison at n: none for alpha <= -1e-9;
    closer to 0 each term rounds to nearly 1, so the computed sum meets the
    bounds within its own rounding, (n + 8)*2**-52 as in the horizon scan."""
    return 0.0 if alpha <= -1e-9 else (n + 8) * 2.0**-52


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alpha=ALPHAS, n=st.integers(1, 10**5))
def test_sandwich_holds_on_all_of_the_range(alpha, n):
    # strict below the sum, and above it from n = 2 on (equal at n = 1)
    total = series.partial_sum(alpha, n)
    lower = series.partial_sum_lower_bound(alpha, n)
    upper = series.partial_sum_upper_bound(alpha, n)
    slack = 1.0 + rounding_allowance(alpha, n)
    if slack == 1.0:
        assert lower < total <= upper
        assert n == 1 or total < upper
    else:
        assert lower <= total * slack and total <= upper * slack


# ---------------------------------------------------------------------------
# partial_sum_lower_bound_inverse
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(alpha=ALPHAS, total=st.floats(0.0, 800.0))
def test_lower_bound_inverse_is_the_smallest_n(alpha, total):
    try:
        n = series.partial_sum_lower_bound_inverse(alpha, total)
    except OverflowError:
        return
    step = max(1, n >> 52)
    assert series.partial_sum_lower_bound(alpha, n) >= total
    assert n == 1 or series.partial_sum_lower_bound(alpha, n - step) < total


def test_lower_bound_inverse_values():
    assert series.partial_sum_lower_bound_inverse(-1.0, 0.5) == 1
    # ln(n + 1) >= 5 first at n = 148 (e**5 = 148.41)
    assert series.partial_sum_lower_bound_inverse(-1.0, 5.0) == 148
    # 2*(sqrt(n + 1) - 1) >= 2 first at n = 3
    assert series.partial_sum_lower_bound_inverse(-0.5, 2.0) == 3
    # beyond 2**52 it steps by n >> 52: ln(n + 1) >= 201 near e**201
    n = series.partial_sum_lower_bound_inverse(-1.0, 201.0)
    assert n == pytest.approx(math.exp(201.0), rel=1e-12)


def test_lower_bound_inverse_overflow_and_validation():
    with pytest.raises(OverflowError):
        series.partial_sum_lower_bound_inverse(-1.0, 710.0)
    with pytest.raises(OverflowError):
        series.partial_sum_lower_bound_inverse(-0.5, 1e300)
    with pytest.raises(ValueError):
        series.partial_sum_lower_bound_inverse(0.0, 2.0)
    with pytest.raises(ValueError, match="total must be >= 0"):
        series.partial_sum_lower_bound_inverse(-1.0, -1.0)
    with pytest.raises(ValueError, match="total must be finite"):
        series.partial_sum_lower_bound_inverse(-1.0, math.inf)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alpha=ALPHAS, n=st.integers(1, 10**5), share=st.floats(0.0, 1.0))
def test_horizon_bound_certifies_on_all_of_the_range(alpha, n, share):
    # On a = 0, b = 1, C_initial = [0, 1] the target [-w, 1 + w] needs a
    # partial sum of 1 + 2w; a sum up to the lower bound at n keeps the bound
    # near n, where the scan can check it.
    cfg = space.ExpansionConfig(a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=1)
    w = 0.5 * share * max(series.partial_sum_lower_bound(alpha, n) - 1.0, 0.0)
    a_g, b_g = -w, 1.0 + w
    bound = space.reachability_horizon_bound(a_g, b_g, cfg)
    slack = 1.0 + rounding_allowance(alpha, bound)
    scan = space.reachability_horizon(a_g, b_g, cfg, limit=bound + 1)
    assert scan is not None and scan <= (bound if slack == 1.0 else bound + 1)
    # the worst-case box at the bound, centred on either end of C_initial,
    # covers the need; space.coverage_need rounds c0 - a_g, so the box's
    # edges meet the target's within a few ulps of the need
    half = 0.5 * (1.0 + series.partial_sum(alpha, bound)) * slack
    need = space.coverage_need(a_g, b_g, cfg)
    assert half >= need
    for corner in (cfg.c_min, cfg.c_max):
        assert corner - half <= a_g + 2.0**-51 * need
        assert corner + half >= b_g - 2.0**-51 * need


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
    # alpha=-1/2, lam=0: 2 + ln_{1/2}(100) = 2 + (sqrt(100) - 1)/(1/2) = 20.
    assert series.nearest_point_decay(-0.5, 0.0, 3, 100) == pytest.approx(20.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alpha=ALPHAS, lam=st.floats(0.0, 3.0), dim=st.integers(1, 5),
       t=st.integers(1, 10**4))
def test_nearest_point_decay_dominates_the_side_ratio(alpha, lam, dim, t):
    # (2 + ln_u t) * t^(-lam/d) >= side_length(t)/(b-a) * t^(-lam/d)
    cfg = space.ExpansionConfig(a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=dim)
    ratio = space.side_length(t, cfg) / (cfg.b - cfg.a) * t ** (-lam / dim)
    slack = 1.0 + rounding_allowance(alpha, t)
    assert series.nearest_point_decay(alpha, lam, dim, t) * slack >= ratio


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
