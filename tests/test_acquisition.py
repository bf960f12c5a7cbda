"""Tests for the UCB acquisition: confidence schedules and maximizers.

Schedule values are pinned against mpmath 40-digit evaluations of the two
closed-form formulas; maximizer results are checked against dense grid
scans computed in the tests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hubo import acquisition, gp, space
from hubo.acquisition import BetaSchedule, MaximizerConfig
from hubo.cubes import HdConfig, HypercubeSet, membership, sample_cubes
from hubo.gp import Dataset, GpModel, KernelSpec, PosteriorState
from hubo.space import ExpansionConfig, SearchBox


def se_model(ell=1.0, sv=1.0, nv=0.0, mean=0.0) -> GpModel:
    return GpModel(KernelSpec("se", ell, sv), noise_variance=nv, prior_mean=mean)


def ucb_at(model: GpModel, data: Dataset, beta_t: float, x: np.ndarray) -> float:
    """The acquisition value the maximizers score, at the single point x."""
    return float(acquisition._ucb_batch(PosteriorState(model, data), beta_t)(x[None])[0])


def mean_at(model: GpModel, data: Dataset, x: np.ndarray) -> float:
    return float(PosteriorState(model, data).predict(x[None])[0][0])


# ---------------------------------------------------------------------------
# BetaSchedule validation
# ---------------------------------------------------------------------------


def test_schedule_requires_variant_fields():
    with pytest.raises(TypeError, match="b must be a real number, got None"):
        BetaSchedule(variant="hubo", delta=0.1, dim=1)  # missing a, b, alpha
    with pytest.raises(TypeError, match="alpha must be a real number, got None"):
        BetaSchedule(variant="hubo", delta=0.1, dim=1, a=0.0, b=1.0)
    with pytest.raises(TypeError, match="l_h must be a real number, got None"):
        BetaSchedule(variant="hdhubo", delta=0.1, dim=1)
    with pytest.raises(ValueError):
        BetaSchedule(variant="other", delta=0.1, dim=1, l_h=0.1)


def test_schedule_rejects_bad_delta_and_scales():
    with pytest.raises(ValueError):
        BetaSchedule(variant="hdhubo", delta=0.0, dim=1, l_h=0.1)
    with pytest.raises(ValueError):
        BetaSchedule(variant="hdhubo", delta=1.0, dim=1, l_h=0.1)
    with pytest.raises(ValueError):
        BetaSchedule(variant="hdhubo", delta=0.1, dim=1, l_h=0.1, s1=0.0)


def test_schedule_rejects_bad_interval():
    with pytest.raises(ValueError):
        BetaSchedule(variant="hubo", delta=0.1, dim=1, a=1.0, b=0.0, alpha=-1.0)
    with pytest.raises(ValueError):
        BetaSchedule(variant="hubo", delta=0.1, dim=1, a=0.0, b=1.0, alpha=0.5)


# ---------------------------------------------------------------------------
# beta values
# ---------------------------------------------------------------------------


def hubo_sched(**kw) -> BetaSchedule:
    base = dict(variant="hubo", delta=0.1, dim=1, a=0.0, b=1.0, alpha=-1.0)
    base.update(kw)
    return BetaSchedule(**base)


def side_at(t: int, sched: BetaSchedule) -> float:
    """The box side at step t of a run whose expansion matches sched."""
    exp = ExpansionConfig(a=sched.a, b=sched.b, alpha=sched.alpha, c_min=sched.a,
                          c_max=sched.b, dim=sched.dim)
    return space.side_length(t, exp)


def test_beta_hubo_frozen_reference():
    # d=1, t=1, delta=0.1, s1=s2=1, side (b-a)(1+1) = 2:
    # 2 ln(4 (pi^2/6) / 0.1) + 4 ln(2 sqrt(ln 40)); mpmath 40-digit value.
    sched = hubo_sched()
    expected = 2.0 * math.log(4.0 * (math.pi**2 / 6.0) / 0.1) + 4.0 * math.log(
        2.0 * math.sqrt(math.log(40.0))
    )
    got = acquisition.beta(1, sched, side=side_at(1, sched))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(13.756393717335618, abs=1e-12)


def test_beta_hubo_frozen_reference_multidim():
    # d=3, t=7, delta=0.05, s1=1.5, s2=2, a=-1, b=1.5, alpha=-0.5;
    # mpmath 40-digit value.
    sched = BetaSchedule(
        variant="hubo", delta=0.05, dim=3, s1=1.5, s2=2.0, a=-1.0, b=1.5,
        alpha=-0.5,
    )
    assert acquisition.beta(7, sched, side=side_at(7, sched)) == pytest.approx(
        103.38228317492137, abs=1e-11
    )


def test_beta_hubo_reads_only_the_given_side():
    # a, b and alpha are copies RunConfig checks; beta_t reads the side
    sched = hubo_sched()
    other = hubo_sched(a=-3.0, b=5.0, alpha=-0.2)
    for t, side in ((1, 2.0), (7, 13.5)):
        assert acquisition.beta(t, sched, side=side) == acquisition.beta(t, other, side=side)
    assert acquisition.beta(7, sched, side=13.5) > acquisition.beta(7, sched, side=2.0)


def test_beta_hdhubo_frozen_reference():
    # d=2, t=1, delta=0.1, s1=s2=1, l_h=0.1:
    # 2 ln(pi^2/0.1) + 4 ln(0.4 sqrt(ln 120)); mpmath 40-digit value.
    sched = BetaSchedule(variant="hdhubo", delta=0.1, dim=2, l_h=0.1)
    expected = 2.0 * math.log(math.pi**2 / 0.1) + 4.0 * math.log(
        0.4 * math.sqrt(math.log(120.0))
    )
    got = acquisition.beta(1, sched, side=1.0)  # the hdhubo schedule ignores side
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(8.650940061409097, abs=1e-12)


def test_beta_hdhubo_frozen_reference_high_dim():
    # d=10, t=5, delta=0.1, s1=2, s2=0.5, l_h=0.37; mpmath 40-digit value.
    sched = BetaSchedule(
        variant="hdhubo", delta=0.1, dim=10, s1=2.0, s2=0.5, l_h=0.37
    )
    assert acquisition.beta(5, sched, side=1.0) == pytest.approx(
        125.75297604638244, abs=1e-11
    )


def test_beta_clamped_at_zero():
    # Tiny l_h with large delta drives the formula negative; the clamp
    # returns 0 instead.
    sched = BetaSchedule(variant="hdhubo", delta=0.9, dim=1, l_h=1e-9)
    assert acquisition.beta(1, sched, side=1.0) == 0.0


def test_beta_hubo_nondecreasing_in_t():
    sched = hubo_sched()
    vals = [acquisition.beta(t, sched, side=side_at(t, sched)) for t in range(1, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_beta_hubo_increases_with_initial_side():
    narrow = hubo_sched(a=0.0, b=1.0)
    wide = hubo_sched(a=0.0, b=3.0)
    for t in (1, 5, 50):
        assert (acquisition.beta(t, wide, side=side_at(t, wide))
                > acquisition.beta(t, narrow, side=side_at(t, narrow)))


def test_beta_rejects_t_below_one():
    with pytest.raises(ValueError):
        acquisition.beta(0, hubo_sched(), side=1.0)


# ---------------------------------------------------------------------------
# UCB values (_ucb_batch)
# ---------------------------------------------------------------------------


def test_ucb_zero_beta_is_posterior_mean():
    model = se_model(nv=0.01)
    data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]), 1)
    x = np.array([0.3])
    assert ucb_at(model, data, 0.0, x) == pytest.approx(mean_at(model, data, x), rel=1e-12)


def test_ucb_on_prior():
    model = se_model()
    assert ucb_at(model, Dataset.empty(1), 4.0, np.array([0.7])) == (
        pytest.approx(2.0, rel=1e-12)
    )


def test_ucb_two_point_dense_oracle():
    model = se_model(ell=0.9, sv=1.3, nv=0.05, mean=0.4)
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, -1.0])
    data = Dataset(X, y, 1)
    x = np.array([0.25])
    K = gp.kernel_matrix(model.kernel, X) + 0.05 * np.eye(2)
    K_inv = np.linalg.inv(K)
    ks = gp.kernel_matrix(model.kernel, x.reshape(1, -1), X)[0]
    mean = float(ks @ K_inv @ (y - 0.4) + 0.4)
    var = float(1.3 - ks @ K_inv @ ks)
    expected = mean + math.sqrt(2.5) * math.sqrt(var)
    got = ucb_at(model, data, 2.5, x)
    assert got == pytest.approx(expected, rel=1e-10)


def test_ucb_never_below_posterior_mean():
    rng = np.random.default_rng(17)
    model = se_model(ell=0.6, nv=0.1)
    data = Dataset(rng.uniform(-1, 1, (6, 2)), rng.normal(size=6), 2)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, 2)
        assert ucb_at(model, data, 3.0, x) >= mean_at(model, data, x) - 1e-12


def random_states(seed: int):
    """(state, query) pairs: the prior, SE and Matern posteriors, jittered
    factors, one query row and many, C- and Fortran-ordered queries."""
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(24):
        d, t = int(rng.integers(1, 7)), 0 if trial == 0 else int(rng.integers(1, 40))
        kernel = KernelSpec(
            "se" if trial % 2 else "matern52",
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.5, 3.0)),
        )
        model = GpModel(kernel, float(rng.choice([0.0, 1e-6, 0.1])), float(rng.normal()))
        X = rng.uniform(-1.0, 1.0, (t, d))
        if trial % 5 == 0 and t > 1:
            X[-1] = X[0]  # a duplicate point forces jitter when noiseless
        state = PosteriorState(model, Dataset(X, rng.normal(size=t), d))
        Xq = rng.uniform(-1.5, 1.5, (int(rng.choice([1, 2, 20, 257])), d))
        cases.append((state, np.asfortranarray(Xq) if trial % 3 == 0 else Xq))
    return cases


def test_ucb_batch_is_mean_plus_root_beta_sigma_bit_for_bit():
    # _ucb_batch works in the buffers predict returns; it must give the
    # formula's value from a separate predict of the same rows, in every bit.
    for k, (state, X) in enumerate(random_states(41)):
        b = (0.0, 0.3, 4.0, 37.5)[k % 4]
        m, v = state.predict(X)
        expected = m + math.sqrt(b) * np.sqrt(v)
        assert acquisition._ucb_batch(state, b)(X).tobytes() == expected.tobytes(), k


def test_repeated_predict_leaves_query_and_posterior_unchanged():
    # predict overwrites its own kernel block, never its query, the factor
    # or the weights, and each call returns fresh buffers.
    for k, (state, X) in enumerate(random_states(43)):
        before = [a.copy() for a in (X, state._L, state._weights) if a is not None]
        m1, v1 = state.predict(X)
        expected = m1.tobytes(), v1.tobytes()
        m1 += 1.0
        v1 *= 2.0
        for _ in range(3):
            m2, v2 = state.predict(X)
            acquisition._ucb_batch(state, 2.0)(X)
            assert (m2.tobytes(), v2.tobytes()) == expected, k
        after = [a for a in (X, state._L, state._weights) if a is not None]
        assert [a.tobytes() for a in after] == [a.tobytes() for a in before], k


# ---------------------------------------------------------------------------
# MaximizerConfig
# ---------------------------------------------------------------------------


def test_maximizer_config_validation():
    with pytest.raises(ValueError):
        MaximizerConfig(restarts=0)
    with pytest.raises(ValueError):
        MaximizerConfig(restarts=10, max_evals=5)


# ---------------------------------------------------------------------------
# maximize_over_box
# ---------------------------------------------------------------------------


def test_box_maximizer_flat_surface():
    model = se_model(mean=1.25)
    box = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    x, val = acquisition.maximize_over_box(
        model, Dataset.empty(2), 0.0, box, MaximizerConfig(), 0
    )
    assert box.contains(x)
    assert val == pytest.approx(1.25, rel=1e-12)


def test_box_maximizer_beats_dense_grid():
    # Single observation bumps the surface; a 1e5-point grid scan provides
    # the reference maximum.
    model = se_model(ell=0.6, sv=1.5, nv=1e-4)
    data = Dataset(np.array([[0.3]]), np.array([1.2]), 1)
    box = SearchBox(center=np.zeros(1), half_side=2.0, dim=1)
    x, val = acquisition.maximize_over_box(model, data, 4.0, box, MaximizerConfig(), 11)
    assert box.contains(x)

    grid = np.linspace(-2.0, 2.0, 100_001).reshape(-1, 1)
    means, variances = PosteriorState(model, data).predict(grid)
    grid_best = float(np.max(means + 2.0 * np.sqrt(variances)))
    assert val >= grid_best - 1e-3
    assert val == pytest.approx(
        ucb_at(model, data, 4.0, x), rel=1e-10
    )


def test_box_maximizer_deterministic():
    rng = np.random.default_rng(23)
    model = se_model(ell=0.5, nv=0.01)
    data = Dataset(rng.uniform(-1, 1, (5, 2)), rng.normal(size=5), 2)
    box = SearchBox(center=np.zeros(2), half_side=1.5, dim=2)
    cfg = MaximizerConfig()
    x1, v1 = acquisition.maximize_over_box(model, data, 2.0, box, cfg, 77)
    x2, v2 = acquisition.maximize_over_box(model, data, 2.0, box, cfg, 77)
    assert np.array_equal(x1, x2)
    assert v1 == v2


def test_box_maximizer_monotone_in_budget():
    # Doubling max_evals must never return a strictly worse value: starts
    # are drawn before truncation, so the small budget's starts are a prefix
    # of the large budget's.
    rng = np.random.default_rng(5)
    model = se_model(ell=0.4, nv=0.05)
    for trial in range(30):
        data = Dataset(rng.uniform(-1, 1, (6, 2)), rng.normal(size=6), 2)
        box = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
        seed = int(rng.integers(0, 2**31))
        _, v_small = acquisition.maximize_over_box(
            model, data, 3.0, box, MaximizerConfig(restarts=4, max_evals=120), seed
        )
        _, v_large = acquisition.maximize_over_box(
            model, data, 3.0, box, MaximizerConfig(restarts=4, max_evals=240), seed
        )
        assert v_large >= v_small - 1e-12


def test_box_maximizer_stays_in_box():
    rng = np.random.default_rng(31)
    model = se_model(ell=0.3, nv=0.01)
    for _ in range(10):
        data = Dataset(rng.uniform(-2, 2, (6, 3)), rng.normal(size=6), 3)
        center = rng.uniform(-1, 1, 3)
        box = SearchBox(center=center, half_side=float(rng.uniform(0.2, 2.0)), dim=3)
        x, _ = acquisition.maximize_over_box(
            model, data, 2.0, box, MaximizerConfig(), int(rng.integers(1 << 30))
        )
        assert box.contains(x)


# ---------------------------------------------------------------------------
# maximize_over_cubes
# ---------------------------------------------------------------------------


def test_cube_maximizer_single_cube_equals_box_search():
    model = se_model(ell=0.5, nv=0.01)
    data = Dataset(np.array([[0.2, 0.2]]), np.array([1.0]), 2)
    parent = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    cs = HypercubeSet(np.array([[0.1, 0.1]]), 0.6, parent)
    cfg = MaximizerConfig()
    x_c, v_c = acquisition.maximize_over_cubes(model, data, 1.5, cs, cfg, 9)

    lo, hi = cs.clipped_bounds()
    clipped = SearchBox(
        center=0.5 * (lo[0] + hi[0]), half_side=0.5 * float(hi[0][0] - lo[0][0]),
        dim=2,
    )
    # One cube draws its starts from the box search's stream, but the clipped
    # box's bounds may round differently; assert agreement on the value level.
    assert membership(cs, x_c)
    assert v_c == pytest.approx(
        ucb_at(model, data, 1.5, x_c), rel=1e-10
    )
    x_b, v_b = acquisition.maximize_over_box(model, data, 1.5, clipped, cfg, 9)
    assert abs(v_c - v_b) <= 1e-6 * (1.0 + abs(v_b))


def test_cube_maximizer_flat_surface():
    model = se_model(mean=-0.75)
    parent = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    cs = sample_cubes(
        parent, 5, HdConfig(lam=1.0, n0=1, l_h=0.3), np.random.default_rng(1)
    )
    x, val = acquisition.maximize_over_cubes(
        model, Dataset.empty(2), 0.0, cs, MaximizerConfig(), 2
    )
    assert membership(cs, x)
    assert val == pytest.approx(-0.75, rel=1e-12)


def test_cube_maximizer_finds_better_cube_matches_grid():
    # Cube 2 sits near the high observation; the dense grid over the cube
    # union localizes the max there.
    model = se_model(ell=0.4, nv=1e-4)
    data = Dataset(
        np.array([[0.8, 0.8], [-0.5, -0.5]]), np.array([2.0, -1.0]), 2
    )
    parent = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    cs = HypercubeSet(np.array([[-0.6, -0.6], [0.7, 0.7]]), 0.5, parent)
    x, val = acquisition.maximize_over_cubes(model, data, 1.0, cs, MaximizerConfig(), 3)
    assert membership(cs, x)

    # Grid oracle over each clipped cube.
    state = PosteriorState(model, data)
    lo, hi = cs.clipped_bounds()
    best_grid = -math.inf
    best_cube = -1
    for ci in range(cs.n):
        ax = np.linspace(lo[ci][0], hi[ci][0], 400)
        ay = np.linspace(lo[ci][1], hi[ci][1], 400)
        gx, gy = np.meshgrid(ax, ay)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        means, variances = state.predict(pts)
        cube_best = float(np.max(means + np.sqrt(variances)))
        if cube_best > best_grid:
            best_grid = cube_best
            best_cube = ci
    assert best_cube == 1
    assert np.all(x >= lo[1]) and np.all(x <= hi[1])
    assert val >= best_grid - 1e-3


def test_cube_maximizer_deterministic():
    model = se_model(ell=0.5, nv=0.01)
    rng = np.random.default_rng(6)
    data = Dataset(rng.uniform(-1, 1, (4, 2)), rng.normal(size=4), 2)
    parent = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    cs = sample_cubes(
        parent, 7, HdConfig(lam=1.0, n0=1, l_h=0.25), np.random.default_rng(8)
    )
    cfg = MaximizerConfig()
    x1, v1 = acquisition.maximize_over_cubes(model, data, 2.0, cs, cfg, 123)
    x2, v2 = acquisition.maximize_over_cubes(model, data, 2.0, cs, cfg, 123)
    assert np.array_equal(x1, x2)
    assert v1 == v2


# ---------------------------------------------------------------------------
# Lockstep search against the one-rectangle-at-a-time reference
# ---------------------------------------------------------------------------


def reference_search_rect(predict, lo, hi, starts, max_evals, tol):
    """The single-rectangle pattern search that the lockstep search replaced,
    from the given start rows."""
    d = len(lo)
    widths = hi - lo
    n0 = min(len(starts), max_evals)
    X = starts[:n0].copy()
    vals = predict(X)
    used = n0
    steps = np.full(n0, 0.25)
    active = np.ones(n0, dtype=bool)

    while used < max_evals and np.any(active):
        improved = np.zeros(n0, dtype=bool)
        for i in range(d):
            if used >= max_evals:
                break
            for sign in (1.0, -1.0):
                idx = np.flatnonzero(active)
                if idx.size == 0 or used >= max_evals:
                    break
                idx = idx[: max_evals - used]
                cand = X[idx].copy()
                cand[:, i] = np.clip(
                    cand[:, i] + sign * steps[idx] * widths[i], lo[i], hi[i]
                )
                cvals = predict(cand)
                used += len(idx)
                better = cvals > vals[idx]
                sel = idx[better]
                X[sel, i] = cand[better, i]
                vals[sel] = cvals[better]
                improved[sel] = True
        stalled = active & ~improved
        steps[stalled] *= 0.5
        active &= steps >= tol

    best_val = float(np.max(vals))
    tied = np.flatnonzero(vals == best_val)
    if len(tied) > 1:
        order = np.lexsort(X[tied].T[::-1])
        winner = int(tied[order[0]])
    else:
        winner = int(tied[0])
    return X[winner].copy(), best_val, used


def cube_starts(cube_set: HypercubeSet, cfg: MaximizerConfig, seed: int):
    """Each cube's start rows: cube ci scales rows ci * r ... (ci + 1) * r - 1
    of one uniform draw into its clipped bounds."""
    n, r = cube_set.n, max(1, cfg.restarts // cube_set.n)
    U = np.random.default_rng(seed).random((n * r, cube_set.parent.dim))
    lo, hi = cube_set.clipped_bounds()
    return [lo[ci] + (hi[ci] - lo[ci]) * U[ci * r:(ci + 1) * r] for ci in range(n)]


def reference_maximize_over_cubes(
    predict, cube_set: HypercubeSet, cfg: MaximizerConfig, seed: int
):
    """One reference search per cube; a strictly better cube replaces the best."""
    n = cube_set.n
    lo_all, hi_all = cube_set.clipped_bounds()
    best_x, best_val = None, -math.inf
    for ci, starts in enumerate(cube_starts(cube_set, cfg, seed)):
        x, val, _ = reference_search_rect(
            predict, lo_all[ci], hi_all[ci], starts, max(10, cfg.max_evals // n),
            acquisition._STEP_TOLERANCE,
        )
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val


def sines(d: int, seed: int, quantum: float = 0.0):
    """A batch-invariant surface: each row's value uses only that row's entries.

    With quantum > 0 values are rounded to multiples of it, so many ties."""
    rng = np.random.default_rng(seed)
    freq = rng.uniform(1.0, 6.0, d)
    phase = rng.uniform(0.0, 2.0 * math.pi, d)

    def predict(X: np.ndarray) -> np.ndarray:
        out = np.zeros(len(X))
        for j in range(d):  # column by column: no reduction across rows
            out += np.sin(freq[j] * X[:, j] + phase[j])
        return np.round(out / quantum) * quantum if quantum > 0.0 else out

    return predict


def counted(predict):
    """predict plus a record of how many rows each call asked for."""
    sizes: list[int] = []

    def wrapped(X):
        sizes.append(len(X))
        return predict(X)

    return wrapped, sizes


def cube_corpus():
    """(name, cube set, cfg, seed): budget truncation, floors, clipping, many cubes."""
    parent = SearchBox(center=np.zeros(3), half_side=1.0, dim=3)
    rng = np.random.default_rng(42)
    edge = np.array([[0.95, 0.0, -0.2], [-1.0, 0.9, 0.3], [0.0, 0.0, 1.0]])  # two on a face
    return [
        ("one cube", HypercubeSet(np.array([[0.1, -0.2, 0.3]]), 0.6, parent),
         MaximizerConfig(restarts=20, max_evals=1000), 1),
        ("budget not a multiple of restarts", HypercubeSet(rng.uniform(-1, 1, (3, 3)), 0.4, parent),
         MaximizerConfig(restarts=7, max_evals=53), 2),
        ("floors, more cubes than restarts", HypercubeSet(rng.uniform(-1, 1, (30, 3)), 0.2, parent),
         MaximizerConfig(restarts=20, max_evals=100), 3),
        ("clipped by the parent", HypercubeSet(edge, 0.5, parent),
         MaximizerConfig(restarts=9, max_evals=200), 4),
        ("sampled as in hdhubo", sample_cubes(parent, 12, HdConfig(lam=1.0, n0=1, l_h=0.3), rng),
         MaximizerConfig(restarts=20, max_evals=1000), 6),
        # 5 + 3 * 30 evaluations in three whole sweeps, then 2 in the fourth
        ("budget runs out mid-sweep", HypercubeSet(np.array([[0.2, -0.1, 0.4]]), 0.8, parent),
         MaximizerConfig(restarts=5, max_evals=97), 9),
        # starts stop at the step tolerance at different sweeps, so on the
        # unrounded surface one cube's budget runs out in sweep 21 while the
        # other's covers a 22nd
        ("cubes retire at different sweeps",
         HypercubeSet(np.array([[0.3, -0.2, 0.1], [-0.5, 0.4, -0.3]]), 0.5, parent),
         MaximizerConfig(restarts=6, max_evals=760), 10),
    ]


def zero_width_case():
    # Floats near 1e17 are 16 apart, so the parent's first side rounds to
    # zero width there and so does every cube's; the search probes that
    # coordinate like any other, as the reference does.
    parent = SearchBox(center=np.array([1e17, 0.0, 0.0]), half_side=1.0, dim=3)
    centers = np.array([[1e17, 0.1, -0.3], [1e17, -0.4, 0.5], [1e17, 0.7, 0.0]])
    return ("zero-width coordinate", HypercubeSet(centers, 0.5, parent),
            MaximizerConfig(restarts=6, max_evals=90), 8)


@pytest.mark.parametrize("quantum", [0.0, 0.25])
@pytest.mark.parametrize("case", cube_corpus() + [zero_width_case()], ids=lambda c: c[0])
def test_cube_maximizer_equals_per_cube_reference(case, quantum, monkeypatch):
    _, cs, cfg, seed = case
    predict = sines(3, seed=seed, quantum=quantum)
    monkeypatch.setattr(acquisition, "_ucb_batch", lambda state, beta_t: predict)
    x, val = acquisition.maximize_over_cubes(se_model(), Dataset.empty(3), 1.0, cs, cfg, seed)
    x_ref, val_ref = reference_maximize_over_cubes(predict, cs, cfg, seed)
    assert np.array_equal(x, x_ref)
    assert val == val_ref


def test_cube_maximizer_ties_go_to_lowest_cube_then_smallest_point(monkeypatch):
    # A flat surface ties every start; the first cube's smallest point wins,
    # though the second cube holds smaller points.
    parent = SearchBox(center=np.zeros(2), half_side=1.0, dim=2)
    cs = HypercubeSet(np.array([[0.5, 0.5], [-0.5, -0.5], [1.0, 1.0]]), 0.4, parent)
    cfg = MaximizerConfig(restarts=6, max_evals=60)
    flat = lambda X: np.zeros(len(X))  # noqa: E731
    monkeypatch.setattr(acquisition, "_ucb_batch", lambda state, beta_t: flat)
    x, _ = acquisition.maximize_over_cubes(se_model(), Dataset.empty(2), 1.0, cs, cfg, 7)
    x_ref, _ = reference_maximize_over_cubes(flat, cs, cfg, 7)
    assert np.array_equal(x, x_ref)
    assert np.all(np.abs(x - 0.5) <= 0.2)


def test_cube_maximizer_matches_reference_with_gp_surface():
    # GP predictions are not batch-invariant in the last bits (BLAS
    # blocking), so the value may move by an ulp; the point must not.
    rng = np.random.default_rng(12)
    parent = SearchBox(center=np.zeros(4), half_side=1.0, dim=4)
    for trial in range(8):
        model = se_model(ell=float(rng.uniform(0.2, 1.0)), nv=1e-3)
        data = Dataset(rng.uniform(-1, 1, (15, 4)), rng.normal(size=15), 4)
        cs = sample_cubes(
            parent, int(rng.integers(1, 40)), HdConfig(lam=1.0, n0=1, l_h=0.3), rng
        )
        cfg, seed = MaximizerConfig(), int(rng.integers(1 << 30))
        x, val = acquisition.maximize_over_cubes(model, data, 2.0, cs, cfg, seed)
        ref_predict = acquisition._ucb_batch(PosteriorState(model, data), 2.0)
        x_ref, val_ref = reference_maximize_over_cubes(ref_predict, cs, cfg, seed)
        assert np.array_equal(x, x_ref)
        assert val == pytest.approx(val_ref, rel=1e-12, abs=0.0)


def test_box_maximizer_bit_equal_to_reference():
    rng = np.random.default_rng(21)
    # the last case runs four whole sweeps, then its budget runs out mid-sweep
    cases = [(1, 3, 20, 1000), (2, 30, 7, 53), (6, 60, 20, 1000), (3, 10, 1, 10), (2, 20, 5, 97)]
    for d, t, restarts, max_evals in cases:
        model = se_model(ell=0.5, nv=1e-3)
        data = Dataset(rng.uniform(-1, 1, (t, d)), rng.normal(size=t), d)
        box = SearchBox(center=rng.uniform(-0.5, 0.5, d), half_side=0.8, dim=d)
        cfg, seed = MaximizerConfig(restarts=restarts, max_evals=max_evals), int(rng.integers(1 << 30))
        x, val = acquisition.maximize_over_box(model, data, 3.0, box, cfg, seed)
        # starts from Generator.uniform: the box search's scaled unit draw
        # must reproduce them bit for bit
        starts = np.random.default_rng(seed).uniform(box.lower, box.upper, (restarts, d))
        x_ref, val_ref, _ = reference_search_rect(
            acquisition._ucb_batch(PosteriorState(model, data), 3.0),
            box.lower, box.upper, starts, max_evals, acquisition._STEP_TOLERANCE,
        )
        assert np.array_equal(x, x_ref)
        assert val == val_ref


@pytest.mark.parametrize("case", cube_corpus() + [zero_width_case()], ids=lambda c: c[0])
def test_lockstep_search_batches_every_cube_into_each_call(case, monkeypatch):
    # Calls: as many as the longest single-cube search makes.  Rows: the sum
    # over cubes.  A per-cube loop would make the sum of the calls instead.
    _, cs, cfg, seed = case
    surface = sines(3, seed=seed)
    predict, sizes = counted(surface)
    monkeypatch.setattr(acquisition, "_ucb_batch", lambda state, beta_t: predict)
    acquisition.maximize_over_cubes(se_model(), Dataset.empty(3), 1.0, cs, cfg, seed)

    n = cs.n
    lo, hi = cs.clipped_bounds()
    alone = []
    for ci, starts in enumerate(cube_starts(cs, cfg, seed)):
        one, one_sizes = counted(surface)
        reference_search_rect(
            one, lo[ci], hi[ci], starts, max(10, cfg.max_evals // n),
            acquisition._STEP_TOLERANCE,
        )
        alone.append(one_sizes)
    assert sum(sizes) == sum(sum(s) for s in alone)
    assert len(sizes) == max(len(s) for s in alone)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    center=st.floats(-1e300, 1e300),
    half_side=st.floats(0.0, 1e300, exclude_min=True),
    dim=st.integers(1, 4),
    restarts=st.integers(1, 25),
    seed=st.integers(0, 2**64 - 1),
)
@example(center=1e17, half_side=1.0, dim=3, restarts=6, seed=8)  # zero-width sides
def test_scaled_unit_draw_equals_generator_uniform(center, half_side, dim, restarts, seed):
    # The search's starts lo + (hi - lo) * U are Generator.uniform's own
    # arithmetic, so the box search's starts equal uniform(lo, hi)'s.
    centers = np.linspace(center, 0.5 * center, dim)
    box = SearchBox(center=centers, half_side=half_side, dim=dim)
    lo, hi = box.lower, box.upper
    assume(np.all(np.isfinite(hi - lo)))  # uniform() rejects an infinite range
    scaled = lo + (hi - lo) * np.random.default_rng(seed).random((restarts, dim))
    drawn = np.random.default_rng(seed).uniform(lo, hi, (restarts, dim))
    assert scaled.tobytes() == drawn.tobytes()
