"""Tests for the expand-and-translate search-space geometry.

Oracles used here: closed forms evaluated independently, iterated expansion
for the closed-form side, brute-force scans for reachability horizons, and
seeded random trajectories plus a Hypothesis property for the envelope
containment property.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubo import cubes, series, space
from hubo.benchmarks import BenchmarkFunction, make_benchmark
from hubo.cubes import HypercubeSet
from hubo.space import ExpansionConfig, InitialSpace, SearchBox


def unit_cfg(alpha: float = -1.0, dim: int = 1) -> ExpansionConfig:
    """a=0, b=1 inside C_initial=[0,1]^d: the canonical worked instance."""
    return ExpansionConfig(a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=dim)


# ---------------------------------------------------------------------------
# SearchBox basics
# ---------------------------------------------------------------------------


def test_box_geometry_accessors():
    box = SearchBox(center=np.array([1.0, -2.0]), half_side=0.5, dim=2)
    assert box.side == 1.0
    np.testing.assert_allclose(box.lower, [0.5, -2.5])
    np.testing.assert_allclose(box.upper, [1.5, -1.5])


def test_box_contains_center_face_and_outside():
    box = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    assert box.contains(np.zeros(2))
    assert box.contains(np.array([1.0, -1.0]))  # closed faces
    eps = np.spacing(1.0)
    assert not box.contains(np.array([1.0 + 2 * eps, 0.0]))


def test_box_contains_rejects_dim_mismatch():
    box = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    with pytest.raises(ValueError):
        box.contains(np.zeros(3))


def test_box_validation():
    with pytest.raises(ValueError):
        SearchBox(center=np.zeros(2), half_side=0.0, dim=2)
    with pytest.raises(ValueError):
        SearchBox(center=np.zeros(3), half_side=1.0, dim=2)


# ---------------------------------------------------------------------------
# Input contracts owned by contracts.point and contracts.frozen
# ---------------------------------------------------------------------------


def box2() -> SearchBox:
    return SearchBox(center=np.zeros(2), half_side=1.0, dim=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: box2().contains(np.zeros(3)), "point has shape (3,), expected (2,)"),
        (
            lambda: space.translate(box2(), np.zeros((2, 1)), unit_cfg(dim=2)),
            "best_x has shape (2, 1), expected (2,)",
        ),
        (
            lambda: SearchBox(center=np.zeros(3), half_side=1.0, dim=2),
            "center has shape (3,), expected (2,)",
        ),
        (
            lambda: cubes.membership(HypercubeSet([[0.0, 0.0]], 0.4, box2()), np.zeros(1)),
            "point has shape (1,), expected (2,)",
        ),
        (
            lambda: cubes.nearest_in_set(HypercubeSet([[0.0, 0.0]], 0.4, box2()), 0.0),
            "point has shape (), expected (2,)",
        ),
        (
            lambda: make_benchmark("beale").eval(np.zeros(3)),
            "point has shape (3,), expected (2,)",
        ),
    ],
    ids=["contains", "translate", "SearchBox", "membership", "nearest_in_set", "eval"],
)
def test_point_shape_errors_name_the_argument(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_coordinate_arrays_are_read_only_float64_copies():
    center = np.array([1, 2])
    box = SearchBox(center=center, half_side=1.0, dim=2)
    center[0] = 9  # the box keeps its own copy
    scalar_cfg = ExpansionConfig(a=0, b=1, alpha=-1.0, c_min=-1, c_max=2, dim=2)
    x0_cfg = ExpansionConfig(a=0, b=1, alpha=-1.0, c_min=-1, c_max=2, dim=2, x0_center=1)
    cube_set = HypercubeSet([[0, 1], [1, 2]], 0.4, box)
    bench = BenchmarkFunction(2, [0, 0], [1, 1], lambda x: 0.0, 0.0, [0, 0])
    ispace = InitialSpace(dim=2, a=0, b=1, x0_center=[0, 0], c_min=[-1, -1], c_max=[1, 1])
    arrays = {
        "SearchBox.center": (box.center, [1.0, 2.0]),
        "ExpansionConfig.c_min": (scalar_cfg.c_min, [-1.0, -1.0]),
        "ExpansionConfig.c_max": (scalar_cfg.c_max, [2.0, 2.0]),
        "ExpansionConfig.x0_center default": (scalar_cfg.x0_center, [0.5, 0.5]),
        "ExpansionConfig.x0_center": (x0_cfg.x0_center, [1.0, 1.0]),
        "HypercubeSet.centers": (cube_set.centers, [[0.0, 1.0], [1.0, 2.0]]),
        "BenchmarkFunction.lower": (bench.lower, [0.0, 0.0]),
        "BenchmarkFunction.upper": (bench.upper, [1.0, 1.0]),
        "BenchmarkFunction.optimum_point": (bench.optimum_point, [0.0, 0.0]),
        "InitialSpace.x0_center": (ispace.x0_center, [0.0, 0.0]),
        "InitialSpace.c_min": (ispace.c_min, [-1.0, -1.0]),
        "InitialSpace.c_max": (ispace.c_max, [1.0, 1.0]),
    }
    for name, (arr, expected) in arrays.items():
        assert arr.dtype == np.float64, name
        assert not arr.flags.writeable, name
        np.testing.assert_array_equal(arr, expected, err_msg=name)


# ---------------------------------------------------------------------------
# ExpansionConfig validation
# ---------------------------------------------------------------------------


def test_config_defaults_center_to_midpoint():
    cfg = ExpansionConfig(a=2.0, b=4.0, alpha=-1.0, c_min=0.0, c_max=6.0, dim=3)
    np.testing.assert_allclose(cfg.x0_center, [3.0, 3.0, 3.0])
    assert cfg.side == 2.0


def test_config_broadcasts_vector_bounds():
    cfg = ExpansionConfig(
        a=0.0,
        b=1.0,
        alpha=-0.5,
        c_min=np.array([-1.0, 0.0]),
        c_max=np.array([2.0, 1.0]),
        dim=2,
        x0_center=np.array([0.5, 0.5]),
    )
    np.testing.assert_allclose(cfg.c_min, [-1.0, 0.0])
    np.testing.assert_allclose(cfg.c_max, [2.0, 1.0])


def test_config_rejects_bad_interval():
    with pytest.raises(ValueError):
        ExpansionConfig(a=1.0, b=1.0, alpha=-1.0, c_min=0.0, c_max=2.0, dim=1)


def test_config_rejects_alpha_out_of_range():
    for alpha in (0.0, 0.5, -1.5):
        with pytest.raises(ValueError):
            ExpansionConfig(a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=1)


def test_config_rejects_inverted_translation_domain():
    with pytest.raises(ValueError):
        ExpansionConfig(a=0.0, b=1.0, alpha=-1.0, c_min=1.0, c_max=0.0, dim=1)


def test_config_rejects_initial_box_outside_domain():
    # X0 = [0, 4] cannot sit inside C_initial = [0, 1].
    with pytest.raises(ValueError):
        ExpansionConfig(a=0.0, b=4.0, alpha=-1.0, c_min=0.0, c_max=1.0, dim=1)


def test_initial_box():
    cfg = unit_cfg(dim=2)
    box = space.initial_box(cfg)
    assert box.side == pytest.approx(1.0)
    np.testing.assert_allclose(box.center, [0.5, 0.5])


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_first_step_doubles_unit_side():
    cfg = unit_cfg()
    box = space.initial_box(cfg)
    grown = space.expand(box, 1, cfg)
    assert grown.side == pytest.approx(2.0)
    np.testing.assert_allclose(grown.center, box.center)


def test_expand_step_four_harmonic():
    cfg = unit_cfg()
    box = space.initial_box(cfg)
    grown = space.expand(box, 4, cfg)
    # increment per face = (1/2) * 4^-1 = 0.125, so the side grows by 0.25.
    assert grown.side - box.side == pytest.approx(0.25, rel=1e-15)


def test_expand_step_four_sqrt_rate():
    cfg = ExpansionConfig(a=0.0, b=2.0, alpha=-0.5, c_min=0.0, c_max=2.0, dim=1)
    box = space.initial_box(cfg)
    grown = space.expand(box, 4, cfg)
    # increment per face = (2/2) * 4^-0.5 = 0.5, so the side grows by 1.
    assert grown.side - box.side == pytest.approx(1.0, rel=1e-15)


def test_expand_rejects_t_below_one():
    cfg = unit_cfg()
    with pytest.raises(ValueError):
        space.expand(space.initial_box(cfg), 0, cfg)


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------


def test_translate_clamps_outside_point():
    cfg = ExpansionConfig(a=4.0, b=6.0, alpha=-1.0, c_min=0.0, c_max=10.0, dim=2)
    box = space.initial_box(cfg)
    moved = space.translate(box, np.array([12.0, 5.0]), cfg)
    np.testing.assert_allclose(moved.center, [10.0, 5.0])
    assert moved.half_side == box.half_side


def test_translate_identity_inside_domain():
    cfg = ExpansionConfig(a=4.0, b=6.0, alpha=-1.0, c_min=0.0, c_max=10.0, dim=2)
    box = space.initial_box(cfg)
    target = np.array([3.25, 7.5])
    moved = space.translate(box, target, cfg)
    np.testing.assert_allclose(moved.center, target)


def test_translate_clamps_per_dimension():
    cfg = ExpansionConfig(
        a=-0.5, b=0.5, alpha=-1.0, c_min=-1.0, c_max=1.0, dim=3
    )
    box = space.initial_box(cfg)
    moved = space.translate(box, np.array([-3.0, 0.0, 2.0]), cfg)
    np.testing.assert_allclose(moved.center, [-1.0, 0.0, 1.0])


def test_translate_rejects_dim_mismatch():
    cfg = unit_cfg(dim=2)
    with pytest.raises(ValueError):
        space.translate(space.initial_box(cfg), np.zeros(3), cfg)


# ---------------------------------------------------------------------------
# side_length closed form
# ---------------------------------------------------------------------------


def test_side_length_t0_is_initial_side():
    cfg = ExpansionConfig(a=1.0, b=4.0, alpha=-0.5, c_min=0.0, c_max=5.0, dim=1)
    assert space.side_length(0, cfg) == pytest.approx(3.0)


def test_side_length_first_harmonic_step():
    assert space.side_length(1, unit_cfg()) == pytest.approx(2.0)


def test_side_length_t3_matches_iterated_expand():
    cfg = unit_cfg()
    assert space.side_length(3, cfg) == pytest.approx(17.0 / 6.0, rel=1e-15)
    box = space.initial_box(cfg)
    for t in (1, 2, 3):
        box = space.expand(box, t, cfg)
    assert box.side == pytest.approx(space.side_length(3, cfg), rel=1e-14)


def test_side_length_matches_iterated_expand_with_translates():
    # The closed form must hold regardless of interleaved translations.
    rng = np.random.default_rng(101)
    for alpha in (-1.0, -0.5):
        cfg = ExpansionConfig(
            a=0.0, b=1.0, alpha=alpha, c_min=-3.0, c_max=4.0, dim=2,
            x0_center=np.array([0.5, 0.5]),
        )
        box = space.initial_box(cfg)
        for t in range(1, 2001):
            box = space.expand(box, t, cfg)
            if t % 3 == 0:
                box = space.translate(box, rng.uniform(-10, 10, size=2), cfg)
        closed = space.side_length(2000, cfg)
        assert abs(box.side - closed) <= 1e-12 * closed


def test_side_length_rejects_negative_t():
    with pytest.raises(ValueError):
        space.side_length(-1, unit_cfg())


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def test_envelope_first_step_unit_instance():
    cfg = unit_cfg(dim=2)
    env = space.envelope(1, cfg)
    np.testing.assert_allclose(env.lower, [-1.0, -1.0])
    np.testing.assert_allclose(env.upper, [2.0, 2.0])


def test_envelope_nesting():
    cfg = ExpansionConfig(a=0.0, b=1.0, alpha=-0.7, c_min=-2.0, c_max=3.0, dim=2)
    for T in range(2, 30):
        inner = space.envelope(T - 1, cfg)
        outer = space.envelope(T, cfg)
        assert np.all(outer.lower <= inner.lower)
        assert np.all(outer.upper >= inner.upper)


def test_envelope_contains_random_trajectories():
    # 10 seeded expand/translate trajectories stay inside C_T for every t;
    # the acceptance suite repeats this with 100 trajectories.
    T = 50
    for seed in range(10):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(-1.0, -0.1))
        cfg = ExpansionConfig(
            a=0.0, b=1.0, alpha=alpha, c_min=-4.0, c_max=4.0, dim=3,
            x0_center=np.zeros(3),
        )
        env = space.envelope(T, cfg)
        box = space.initial_box(cfg)
        for t in range(1, T + 1):
            box = space.expand(box, t, cfg)
            box = space.translate(box, rng.uniform(-20, 20, size=3), cfg)
            assert np.all(box.lower >= env.lower - 1e-12)
            assert np.all(box.upper <= env.upper + 1e-12)
            assert np.all(box.center >= cfg.c_min) and np.all(
                box.center <= cfg.c_max
            )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 4),
    a=st.floats(-10.0, 10.0),
    width=st.floats(1e-2, 10.0),
    alpha=st.floats(-1.0, -1e-3),
    pads=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
    T=st.integers(1, 60),
    data=st.data(),
)
def test_expand_then_translate_stays_inside_envelope(dim, a, width, alpha, pads, T, data):
    # C_initial = [a - pad_lo, b + pad_hi]^d holds X0 anywhere it fits; each
    # step re-centers on a point of the expanded box, faces included.
    b = a + width
    unit = st.floats(0.0, 1.0)
    frac = np.array(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    c_min, c_max = a - pads[0], b + pads[1]
    x0 = c_min + 0.5 * width + frac * (c_max - c_min - width)
    cfg = ExpansionConfig(a=a, b=b, alpha=alpha, c_min=c_min, c_max=c_max, dim=dim,
                          x0_center=x0)
    env_T = space.envelope(T, cfg)
    box = space.initial_box(cfg)
    for t in range(1, T + 1):
        box = space.expand(box, t, cfg)
        u = np.array(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
        box = space.translate(box, box.lower + u * box.side, cfg)
        for env in (space.envelope(t, cfg), env_T):
            tol = 1e-12 * (1.0 + float(np.max(np.abs([env.lower, env.upper]))))
            assert np.all(box.lower >= env.lower - tol)
            assert np.all(box.upper <= env.upper + tol)


def test_envelope_requires_equal_widths():
    cfg = ExpansionConfig(
        a=0.0, b=1.0, alpha=-1.0,
        c_min=np.array([0.0, 0.0]), c_max=np.array([1.0, 2.0]), dim=2,
        x0_center=np.array([0.5, 0.5]),
    )
    with pytest.raises(ValueError):
        space.envelope(5, cfg)


# ---------------------------------------------------------------------------
# reachability horizon
# ---------------------------------------------------------------------------


def test_horizon_immediate_containment():
    # [0, 1] is already covered by the worst-case box after one expansion.
    assert space.reachability_horizon(0.0, 1.0, unit_cfg()) == 1


def test_horizon_fixed_instance():
    # a=0, b=1, C_initial=[0,1], alpha=-1, target [-2, 3]: the worst-case
    # half-side 0.5*(1 + H_t) must reach 3.0, i.e. H_t >= 5.  The harmonic
    # sum crosses 5 between t=82 (4.9900) and t=83 (5.0021).
    cfg = unit_cfg()
    assert series.partial_sum(-1.0, 82) < 5.0 < series.partial_sum(-1.0, 83)
    assert space.reachability_horizon(-2.0, 3.0, cfg) == 83


def test_horizon_matches_brute_force_scan():
    cfg = ExpansionConfig(a=0.0, b=1.0, alpha=-0.5, c_min=0.0, c_max=1.0, dim=1)
    got = space.reachability_horizon(-2.0, 3.0, cfg)
    # Direct scan: need half-side 3.0, i.e. 1 + sum >= 6.
    t, total = 0, 0.0
    while 0.5 * (1.0 + total) < 3.0:
        t += 1
        total += t**-0.5
    assert got == t == 10


def test_horizon_superlinear_in_target_width():
    # alpha=-1: growth is logarithmic, so doubling the target width much
    # more than doubles the horizon.
    cfg = unit_cfg()
    horizons = [
        space.reachability_horizon(0.5 - w, 0.5 + w, cfg) for w in (1.0, 2.0, 4.0)
    ]
    assert horizons == sorted(horizons)
    assert horizons[1] > 2 * horizons[0]
    assert horizons[2] > 2 * horizons[1]


def test_horizon_respects_limit():
    assert space.reachability_horizon(-2.0, 3.0, unit_cfg(), limit=10) is None


@pytest.mark.parametrize("limit", [0, -5])
def test_horizon_rejects_a_limit_below_one(limit):
    with pytest.raises(ValueError, match=f"^limit must be >= 1, got {limit}$"):
        space.reachability_horizon(-2.0, 3.0, unit_cfg(), limit=limit)


def plain_scan(a_g, b_g, cfg, limit):
    """The step-by-step scan alone: the first t <= limit whose worst-case
    half-side covers the target, or None."""
    need = space.coverage_need(a_g, b_g, cfg)
    half_side0 = 0.5 * (cfg.b - cfg.a)
    total = 0.0
    for t in range(1, limit + 1):
        total += float(t) ** cfg.alpha
        if half_side0 * (1.0 + total) >= need:
            return t
    return None


@pytest.mark.parametrize("alpha", [-1.0, math.nextafter(-1.0, 0.0), -0.9, -0.5, -0.1])
def test_horizon_answers_as_the_plain_scan(alpha):
    # On unit_cfg the target [0.5 - s/2, 0.5 + s/2] needs a partial sum of
    # about s.  Sums at, around and between the partial sum and its
    # closed-form upper bound at each limit put the target on both sides of
    # the early None, and next to the scan's own crossing.
    cfg = unit_cfg(alpha=alpha)
    limits = (1, 2, 3, 10, 1000, 10**5)
    sums = [1e3]
    for limit in limits:
        low = series.partial_sum(alpha, limit)
        high = series.partial_sum_upper_bound(alpha, limit)
        sums += [low * (1 - 1e-12), low, low * (1 + 1e-12), 0.5 * (low + high), high,
                 high * (1 + 1e-9)]
    for s in sums:
        target = (0.5 - 0.5 * s, 0.5 + 0.5 * s)
        first = plain_scan(*target, cfg, max(limits))
        for limit in limits:
            expected = first if first is not None and first <= limit else None
            assert space.reachability_horizon(*target, cfg, limit=limit) == expected


def test_horizon_far_target_at_the_default_limit_is_none_at_once():
    # At alpha = -1 the half-side reachable in 1e9 steps is at most
    # 0.5 * (2 + ln 1e9) = 11.36, against a need of 101: no scan is needed.
    start = time.perf_counter()
    assert space.reachability_horizon(-100.0, 101.0, unit_cfg()) is None
    assert time.perf_counter() - start < 1.0


def test_horizon_corner_pinned_containment():
    # Worst-case guarantee: with the center pinned at either corner of
    # C_initial, the box at the computed horizon contains the target, and
    # the box one step earlier (worst corner) does not.
    cfg = unit_cfg()
    a_g, b_g = -2.0, 3.0
    t0 = space.reachability_horizon(a_g, b_g, cfg)
    for t, expect in ((t0, True), (t0 - 1, False)):
        half = 0.5 * cfg.side * (1.0 + series.partial_sum(cfg.alpha, t))
        contained_everywhere = True
        for corner in (cfg.c_min, cfg.c_max):
            lower = corner - half
            upper = corner + half
            if not (np.all(lower <= a_g) and np.all(upper >= b_g)):
                contained_everywhere = False
        assert contained_everywhere is expect


def test_horizon_bound_certifies_containment():
    # The closed-form bound never undershoots the scanned horizon, and the
    # box at the bound covers the target from the worst corner.
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = float(rng.choice([-1.0, -0.9, -0.5]))
        a = float(rng.uniform(-1, 1))
        b = a + float(rng.uniform(0.5, 2.0))
        c_min = a - float(rng.uniform(0, 1))
        c_max = b + float(rng.uniform(0, 1))
        cfg = ExpansionConfig(a=a, b=b, alpha=alpha, c_min=c_min, c_max=c_max, dim=1)
        a_g = c_min - float(rng.uniform(0.5, 3.0))
        b_g = c_max + float(rng.uniform(0.5, 3.0))
        scan = space.reachability_horizon(a_g, b_g, cfg)
        bound = space.reachability_horizon_bound(a_g, b_g, cfg)
        assert scan is not None
        assert bound >= scan
        half = 0.5 * cfg.side * (
            1.0 + series.partial_sum(alpha, bound)
        )
        for corner in (c_min, c_max):
            assert corner - half <= a_g and corner + half >= b_g


@pytest.mark.parametrize("alpha", [math.nextafter(-1.0, 0.0), -1.0 + 1e-15, -1.0 + 1e-13])
def test_horizon_bound_just_above_minus_one(alpha):
    # the harmonic instance's certificate, ln(t + 1) >= 5 at t = 148, holds
    # as alpha leaves -1; the scan's horizon is 83
    cfg = unit_cfg(alpha=alpha)
    assert space.reachability_horizon(-2.0, 3.0, cfg) == 83
    assert space.reachability_horizon_bound(-2.0, 3.0, cfg) == 148


def test_horizon_bound_trivial_case():
    assert space.reachability_horizon_bound(0.0, 1.0, unit_cfg()) == 1


def test_horizon_bound_far_target_certificate():
    # Target 100 C-widths away: the scan is hopeless (returns None at any
    # enumerable limit) but the closed form certifies a horizon; for
    # alpha=-1 containment needs partial sum >= 201 and ln(T0 + 1) >= 201
    # certifies it.
    cfg = unit_cfg()
    assert space.reachability_horizon(-100.0, 101.0, cfg, limit=10**6) is None
    t0 = space.reachability_horizon_bound(-100.0, 101.0, cfg)
    assert math.log(t0 + 1.0) >= 201.0 - 1e-9
    assert t0 < 1e90


def test_horizon_bound_overflow():
    cfg = unit_cfg()
    with pytest.raises(OverflowError):
        space.reachability_horizon_bound(-1e306, 1e306, cfg)
    cfg_half = unit_cfg(alpha=-0.5)
    with pytest.raises(OverflowError):
        space.reachability_horizon_bound(-1e300, 1e300, cfg_half)
