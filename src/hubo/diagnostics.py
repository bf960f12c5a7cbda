"""Analytic self-checks behind `hubo diagnostics`: a pass/fail report.

Each check re-derives one of the paper's guarantees numerically: the
hyperharmonic partial-sum sandwich, the p-series bound, the gamma-root
growth constant, the nearest-cube distance decay and its Monte-Carlo bound,
and reachability of a target cube by the expanding box.  Each check appends
one line per verdict, prefixed PASS or FAIL; the last line counts them.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import series
from .cubes import HdConfig, nearest_in_set, sample_cubes
from .space import (
    ExpansionConfig,
    SearchBox,
    coverage_need,
    expand,
    initial_box,
    reachability_horizon,
    reachability_horizon_bound,
    side_length,
    translate,
)

__all__ = ["diagnostics"]


def _check_sandwich(lines: list[str]) -> None:
    """Partial-sum bounds: lower < sum (< upper for n >= 2) on a dense sweep."""
    ns = np.unique(np.concatenate([
        np.arange(1, 1001),
        np.geomspace(1000, 100_000, 200).astype(np.int64),
    ]))
    for alpha in (-1.0, -0.9, -0.5, -0.1):
        sums = series.partial_sums(alpha, int(ns[-1]))[ns - 1]
        lower = np.array([series.partial_sum_lower_bound(alpha, int(n)) for n in ns])
        upper = np.array([series.partial_sum_upper_bound(alpha, int(n)) for n in ns])
        lower_margin = float(np.min(sums - lower))
        strict = ns >= 2
        upper_margin = float(np.min(upper[strict] - sums[strict]))
        passed = lower_margin > 0.0 and upper_margin > 0.0 and bool(
            np.all(upper[~strict] - sums[~strict] >= 0.0)
        )
        lines.append(
            f"{'PASS' if passed else 'FAIL'} partial-sum sandwich alpha={alpha} "
            f"n<=1e5 min_lower_margin={lower_margin:.3e} "
            f"min_upper_margin={upper_margin:.3e}"
        )


def _check_p_series(lines: list[str]) -> None:
    for p in (1.5, 2.0, 3.0):
        bound = series.p_series_bound(p)
        total = float(np.sum(np.arange(1, 1_000_001, dtype=np.float64) ** (-p)))
        passed = total < bound
        lines.append(
            f"{'PASS' if passed else 'FAIL'} p-series p={p} "
            f"sum(1e6 terms)={total:.6f} < bound={bound:.6f}"
        )


def _check_gamma_root(lines: list[str]) -> None:
    margins = [
        math.sqrt(d + 2) - series.gamma_root(d) for d in range(1, 201)
    ]
    margin = min(margins)
    passed = margin > 0.0
    lines.append(
        f"{'PASS' if passed else 'FAIL'} gamma-root bound d<=200 "
        f"min_margin={margin:.3e}"
    )


def _nearest_distances(
    t: int, alpha: float, lam: float, dim: int, l_h: float, n_seeds: int, base: int
) -> np.ndarray:
    """Nearest-cube distance to a uniform target in the step-t box, per seed.

    Seed s samples the cubes and the target from the stream [base + t, s].
    """
    side = side_length(t, _unit_expansion(alpha, dim))
    box = SearchBox(np.zeros(dim), 0.5 * side, dim)
    hd = HdConfig(lam=lam, n0=1, l_h=l_h)
    dists = np.empty(n_seeds)
    for s in range(n_seeds):
        rng = np.random.default_rng([base + t, s])
        cube_set = sample_cubes(box, t, hd, rng)
        x_star = rng.uniform(box.lower, box.upper)
        _, dists[s] = nearest_in_set(cube_set, x_star)
    return dists


def _median_distance(t: int, alpha: float, lam: float) -> float:
    return float(np.median(_nearest_distances(t, alpha, lam, 2, 0.1, 100, 40_000)))


def _unit_expansion(alpha: float, dim: int) -> ExpansionConfig:
    return ExpansionConfig(
        a=0.0, b=1.0, alpha=alpha, c_min=0.0, c_max=1.0, dim=dim
    )


def _check_decay_regimes(lines: list[str]) -> None:
    # shrinking regime: lambda > d(alpha+1)
    ts = (20, 80, 320)
    medians = [_median_distance(t, -1.0, 1.0) for t in ts]
    shrinking = medians[0] > medians[1] > medians[2]
    lines.append(
        f"{'PASS' if shrinking else 'FAIL'} nearest-distance decay "
        f"(alpha=-1, lambda=1, d=2): medians at t={ts} = "
        f"{', '.join(f'{m:.4f}' for m in medians)} strictly decreasing"
    )
    # violated regime: lambda = 0 < d(alpha+1) = 1 -> expected non-decreasing
    medians = [_median_distance(t, -0.5, 0.0) for t in ts]
    flagged = not (medians[0] > medians[1] > medians[2])
    lines.append(
        f"{'PASS' if flagged else 'FAIL'} regime flag (alpha=-0.5, lambda=0, "
        f"d=2, lambda <= d(alpha+1)): medians at t={ts} = "
        f"{', '.join(f'{m:.4f}' for m in medians)} flagged non-decreasing "
        f"(expected)"
    )


def _check_reachability(lines: list[str]) -> None:
    cfg = _unit_expansion(-1.0, 2)
    target = (-2.0, 3.0)
    t0 = reachability_horizon(target[0], target[1], cfg)
    contained_at_t0 = t0 is not None and _corner_containment(target, cfg, t0)
    contained_before = t0 is not None and _corner_containment(target, cfg, t0 - 1)
    passed = t0 is not None and contained_at_t0 and not contained_before
    lines.append(
        f"{'PASS' if passed else 'FAIL'} reachability simulation target="
        f"[{target[0]}, {target[1]}]^2 alpha=-1: T0={t0}, adversarial-corner "
        f"containment at T0: {contained_at_t0}, at T0-1: {contained_before}"
    )

    # A target ~100 initial sides away at alpha=-1: the horizon is beyond any
    # enumerable range, so certify it in closed form via the partial-sum
    # lower bound instead of simulating.
    far = (-100.0, 101.0)
    t_cert = reachability_horizon_bound(far[0], far[1], cfg)
    need = coverage_need(far[0], far[1], cfg)
    required = need / (0.5 * (cfg.b - cfg.a)) - 1.0
    lower = series.partial_sum_lower_bound(cfg.alpha, t_cert)
    certified = lower >= required
    simulated = reachability_horizon(far[0], far[1], cfg, limit=10**6)
    lines.append(
        f"{'PASS' if certified and simulated is None else 'FAIL'} reachability "
        f"closed form target=[{far[0]}, {far[1]}]^2 alpha=-1: certified "
        f"T0<={t_cert:.3e}, containment guaranteed by the partial-sum lower "
        f"bound ln(T0+1)={lower:.3f} >= required sum "
        f"{required:.3f}; simulation within 1e6 steps correctly returns None"
    )


def _corner_containment(
    target: tuple[float, float], cfg: ExpansionConfig, t_steps: int
) -> bool:
    """Simulate t_steps expansions with the center adversarially pinned at a
    corner of C_initial; True iff the final box contains the target cube."""
    if t_steps < 1:
        return False
    for corner in (cfg.c_min, cfg.c_max):
        box = initial_box(cfg)
        for t in range(1, t_steps + 1):
            box = translate(expand(box, t, cfg), corner, cfg)
        lo_ok = bool(np.all(box.lower <= target[0]))
        hi_ok = bool(np.all(box.upper >= target[1]))
        if not (lo_ok and hi_ok):
            return False
    return True


def _check_mc_bound(lines: list[str]) -> None:
    """Empirical violation rate of the nearest-distance bound vs its delta."""
    delta = 0.2
    dim = 2
    lam = 1.0
    alpha = -1.0
    l_h = 0.1
    n_seeds = 200
    for t in (50, 100, 400):
        m_t = series.nearest_point_decay(alpha, lam, dim, t)
        bound = (
            2.0
            / math.sqrt(math.pi)
            * series.gamma_root(dim)
            * math.log(1.0 / delta) ** (1.0 / dim)
            * m_t
        )
        dists = _nearest_distances(t, alpha, lam, dim, l_h, n_seeds, 50_000)
        violations = int(np.sum(~(dists < bound)))
        rate = violations / n_seeds
        passed = rate <= delta
        lines.append(
            f"{'PASS' if passed else 'FAIL'} nearest-distance bound t={t} "
            f"d=2 lambda=1 delta={delta}: violation rate {rate:.3f} <= {delta} "
            f"(bound={bound:.4f})"
        )


def diagnostics(out_dir: str) -> str:
    """Run every analytic self-check and write report.txt; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    lines: list[str] = []
    for check in (_check_sandwich, _check_p_series, _check_gamma_root,
                  _check_decay_regimes, _check_reachability, _check_mc_bound):
        check(lines)
    n_pass = sum(1 for line in lines if line.startswith("PASS"))
    lines.append(
        f"{'ALL CHECKS PASSED' if n_pass == len(lines) else 'CHECK FAILURES'} "
        f"({n_pass}/{len(lines)} passed)"
    )
    path = os.path.join(out_dir, "report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
