"""Tests for the hypercube-restricted search set.

Oracles: integer arithmetic for the cube-count schedule (smallest m with
m**q >= t**p when the growth exponent is p/q), a dense grid scan for
nearest-point queries, and Monte-Carlo uniformity for center sampling.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubo import cubes
from hubo.cubes import HdConfig, HypercubeSet
from hubo.space import SearchBox


def unit_parent(half: float = 0.5, dim: int = 2) -> SearchBox:
    return SearchBox(center=np.full(dim, 0.5), half_side=half, dim=dim)


# ---------------------------------------------------------------------------
# HdConfig / HypercubeSet construction
# ---------------------------------------------------------------------------


def test_hdconfig_validation():
    with pytest.raises(ValueError):
        HdConfig(lam=-0.1, n0=1, l_h=0.1)
    with pytest.raises(ValueError):
        HdConfig(lam=1.0, n0=0, l_h=0.1)
    with pytest.raises(ValueError):
        HdConfig(lam=1.0, n0=1, l_h=0.0)


def test_hypercube_set_validation():
    parent = unit_parent()
    with pytest.raises(ValueError):
        HypercubeSet(np.zeros((3, 3)), 0.1, parent)  # wrong dim
    with pytest.raises(ValueError):
        HypercubeSet(np.zeros((0, 2)), 0.1, parent)  # empty


def test_clipped_bounds():
    parent = unit_parent()  # [0, 1]^2
    cube_set = HypercubeSet(np.array([[0.0, 0.5]]), 0.4, parent)
    lo, hi = cube_set.clipped_bounds()
    np.testing.assert_allclose(lo, [[0.0, 0.3]])  # clipped at the parent face
    np.testing.assert_allclose(hi, [[0.2, 0.7]])


# ---------------------------------------------------------------------------
# num_cubes
# ---------------------------------------------------------------------------


def test_num_cubes_linear_schedule():
    cfg = HdConfig(lam=1.0, n0=1, l_h=0.1)
    assert cubes.num_cubes(7, cfg) == 7


def test_num_cubes_sqrt_schedule():
    cfg = HdConfig(lam=0.5, n0=2, l_h=0.1)
    assert cubes.num_cubes(10, cfg) == 8  # 2 * ceil(sqrt(10)) = 2 * 4


def test_num_cubes_first_step_is_n0():
    for lam in (0.0, 0.3, 1.0, 2.5):
        cfg = HdConfig(lam=lam, n0=5, l_h=0.1)
        assert cubes.num_cubes(1, cfg) == 5


def test_num_cubes_near_integer_guard():
    # Exact integer powers must not be bumped up by the ceiling even when
    # the float power drifts (e.g. 125**(1/3) evaluates below 5.0).
    cfg = HdConfig(lam=1.0 / 3.0, n0=1, l_h=0.1)
    assert cubes.num_cubes(125, cfg) == 5
    assert cubes.num_cubes(27, cfg) == 3
    cfg2 = HdConfig(lam=0.5, n0=1, l_h=0.1)
    assert cubes.num_cubes(49, cfg2) == 7
    assert cubes.num_cubes(50, cfg2) == 8


def _int_ceil_root_power(t: int, p: int, q: int) -> int:
    """Smallest m >= 1 with m**q >= t**p, in exact integer arithmetic."""
    target = t**p
    m = max(1, round(target ** (1.0 / q)))
    while m > 1 and (m - 1) ** q >= target:
        m -= 1
    while m**q < target:
        m += 1
    return m


def test_num_cubes_matches_integer_oracle_spot_checks():
    # lam = p/q checked in exact integer arithmetic; the acceptance suite
    # extends the sweep to t = 1e4.
    for lam, p, q in ((0.2, 1, 5), (0.5, 1, 2), (1.0, 1, 1), (2.0, 2, 1)):
        for n0 in (1, 2):
            cfg = HdConfig(lam=lam, n0=n0, l_h=0.1)
            for t in list(range(1, 200)) + [243, 1024, 4096]:
                assert cubes.num_cubes(t, cfg) == n0 * _int_ceil_root_power(t, p, q)


def test_num_cubes_nondecreasing_in_t():
    for lam in (0.0, 0.2, 0.5, 1.0, 2.0):
        cfg = HdConfig(lam=lam, n0=3, l_h=0.1)
        counts = [cubes.num_cubes(t, cfg) for t in range(1, 500)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_num_cubes_rejects_t_below_one():
    with pytest.raises(ValueError):
        cubes.num_cubes(0, HdConfig(lam=1.0, n0=1, l_h=0.1))


# ---------------------------------------------------------------------------
# sample_cubes
# ---------------------------------------------------------------------------


def test_sample_cubes_deterministic():
    parent = unit_parent()
    cfg = HdConfig(lam=1.0, n0=3, l_h=0.1)
    a = cubes.sample_cubes(parent, 5, cfg, np.random.default_rng(42))
    b = cubes.sample_cubes(parent, 5, cfg, np.random.default_rng(42))
    assert np.array_equal(a.centers, b.centers)
    assert a.n == 15


def test_sample_cubes_centers_inside_parent():
    parent = SearchBox(center=np.array([1.0, -1.0, 0.0]), half_side=2.0, dim=3)
    cfg = HdConfig(lam=1.0, n0=10, l_h=0.5)
    cs = cubes.sample_cubes(parent, 30, cfg, np.random.default_rng(0))
    assert np.all(cs.centers >= parent.lower)
    assert np.all(cs.centers <= parent.upper)


def test_sample_cubes_uniformity():
    parent = unit_parent()  # [0, 1]^2
    cfg = HdConfig(lam=1.0, n0=100_000, l_h=0.1)
    cs = cubes.sample_cubes(parent, 1, cfg, np.random.default_rng(2024))
    means = cs.centers.mean(axis=0)
    assert np.all(np.abs(means - 0.5) < 0.01)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_at_center():
    parent = unit_parent()
    cs = HypercubeSet(np.array([[0.5, 0.5]]), 0.4, parent)
    assert cubes.membership(cs, np.array([0.5, 0.5]))


def test_membership_closed_cube_face():
    parent = unit_parent()
    cs = HypercubeSet(np.array([[0.5, 0.5]]), 0.4, parent)
    assert cubes.membership(cs, np.array([0.7, 0.5]))  # L-inf gap exactly l_h/2
    assert not cubes.membership(cs, np.array([0.7 + 1e-9, 0.5]))


def test_membership_clipped_by_parent():
    # The cube straddles the parent face; the straddling part is cut off.
    parent = unit_parent()
    cs = HypercubeSet(np.array([[1.0, 0.5]]), 0.4, parent)
    assert cubes.membership(cs, np.array([1.0, 0.5]))  # on the parent face
    assert not cubes.membership(cs, np.array([1.1, 0.5]))  # in cube, out of parent


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    t=st.integers(1, 6),
    center=st.floats(-1e3, 1e3),
    half_side=st.floats(1e-3, 1e3),
    l_h_ratio=st.floats(1e-3, 3.0),
    data=st.data(),
)
def test_point_on_clipped_cube_face_is_member(seed, dim, t, center, half_side, l_h_ratio, data):
    # Each coordinate is the clipped cube's lower face, its upper face, or an
    # arbitrary float clamped into [lo, hi] the way acquisition._search_rect
    # clamps a moved coordinate.  driver.run raises RuntimeError for a chosen
    # point that fails membership.
    parent = SearchBox(np.full(dim, center), half_side, dim)
    hd = HdConfig(lam=1.0, n0=1, l_h=l_h_ratio * parent.side)
    cs = cubes.sample_cubes(parent, t, hd, np.random.default_rng(seed))
    lo, hi = cs.clipped_bounds()
    k = data.draw(st.integers(0, cs.n - 1), label="cube")
    x = np.empty(dim)
    for i in range(dim):
        kind = data.draw(st.sampled_from(["lo", "hi", "clamped"]), label=f"kind {i}")
        if kind == "lo":
            x[i] = lo[k, i]
        elif kind == "hi":
            x[i] = hi[k, i]
        else:
            moved = data.draw(st.floats(allow_nan=False, allow_infinity=False), label=f"x {i}")
            x[i] = np.minimum(np.maximum(moved, lo[k, i]), hi[k, i])
    assert cubes.membership(cs, x)


def test_membership_dim_mismatch():
    parent = unit_parent()
    cs = HypercubeSet(np.array([[0.5, 0.5]]), 0.4, parent)
    with pytest.raises(ValueError):
        cubes.membership(cs, np.zeros(3))


# ---------------------------------------------------------------------------
# nearest_in_set
# ---------------------------------------------------------------------------


def test_nearest_inside_cube_is_zero():
    parent = unit_parent()
    cs = HypercubeSet(np.array([[0.5, 0.5]]), 0.4, parent)
    x_star = np.array([0.6, 0.4])
    point, dist = cubes.nearest_in_set(cs, x_star)
    assert dist == 0.0
    np.testing.assert_allclose(point, x_star)


def test_nearest_zero_iff_member():
    parent = unit_parent()
    cs = HypercubeSet(np.array([[0.2, 0.2], [0.8, 0.8]]), 0.2, parent)
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = rng.uniform(-0.5, 1.5, size=2)
        _, dist = cubes.nearest_in_set(cs, x)
        assert (dist == 0.0) == cubes.membership(cs, x)


def test_nearest_single_cube_axis_clamp():
    parent = unit_parent()
    cs = HypercubeSet(np.array([[0.5, 0.5]]), 0.4, parent)
    point, dist = cubes.nearest_in_set(cs, np.array([0.9, 0.5]))
    np.testing.assert_allclose(point, [0.7, 0.5])
    assert dist == pytest.approx(0.2, rel=1e-12)


def test_nearest_diagonal_corner():
    parent = unit_parent()
    cs = HypercubeSet(np.array([[0.5, 0.5]]), 0.4, parent)
    point, dist = cubes.nearest_in_set(cs, np.array([2.0, 2.0]))
    np.testing.assert_allclose(point, [0.7, 0.7])
    assert dist == pytest.approx(1.3 * math.sqrt(2.0), rel=1e-12)


def test_nearest_ties_take_lowest_cube_index():
    # Two cubes symmetric about the query: the returned point must come from
    # the first cube.
    parent = SearchBox(center=np.zeros(1), half_side=1.0, dim=1)
    cs = HypercubeSet(np.array([[-0.5], [0.5]]), 0.2, parent)
    point, dist = cubes.nearest_in_set(cs, np.array([0.0]))
    assert dist == pytest.approx(0.4, rel=1e-12)
    np.testing.assert_allclose(point, [-0.4])


def test_nearest_matches_dense_grid_oracle():
    # 20 random cubes in d=2 vs a 1000x1000 grid scan over the parent box.
    parent = SearchBox(center=np.zeros(2), half_side=2.0, dim=2)
    rng = np.random.default_rng(99)
    cfg = HdConfig(lam=1.0, n0=1, l_h=0.4)
    cs = cubes.sample_cubes(parent, 20, cfg, rng)
    x_star = rng.uniform(-3.0, 3.0, size=2)

    n_side = 1000
    axis = np.linspace(-2.0, 2.0, n_side)
    spacing = axis[1] - axis[0]
    gx, gy = np.meshgrid(axis, axis)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    lo, hi = cs.clipped_bounds()
    member = np.zeros(len(grid), dtype=bool)
    for ci in range(cs.n):
        member |= np.all((grid >= lo[ci]) & (grid <= hi[ci]), axis=1)
    assert member.any()
    grid_dist = float(np.min(np.linalg.norm(grid[member] - x_star, axis=1)))

    point, dist = cubes.nearest_in_set(cs, x_star)
    assert cubes.membership(cs, point)
    assert dist == pytest.approx(float(np.linalg.norm(point - x_star)), rel=1e-12)
    # The exact minimum can only undercut the grid minimum, and by at most
    # one grid diagonal.
    assert dist <= grid_dist + 1e-12
    assert grid_dist - dist <= math.sqrt(2.0) * spacing
