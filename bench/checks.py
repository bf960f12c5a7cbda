"""Correctness checks on hubo's outputs that do not trust hubo.

The test functions, the kernels, the log marginal likelihood and the
posterior are re-implemented here from their textbook definitions; the other
checks are properties of the method (running maxima, the hyperharmonic side
schedule, region membership, the cube-count schedule, the CLI's file and
summary contracts).  Every check raises CheckError with the row or file it
rejected.
"""

from __future__ import annotations

import csv
import math
import os
from fractions import Fraction

import numpy as np


class CheckError(Exception):
    """An output of hubo broke a property the benchmark checks."""


def ackley(x: np.ndarray) -> float:
    """Ackley (a=20, b=0.2, c=2*pi), negated: maximum 0 at the origin."""
    d = len(x)
    mean_sq = math.fsum(v * v for v in x) / d
    mean_cos = math.fsum(math.cos(2.0 * math.pi * v) for v in x) / d
    return 20.0 * math.exp(-0.2 * math.sqrt(mean_sq)) + math.exp(mean_cos) - 20.0 - math.e


_H6_ALPHA = (1.0, 1.2, 3.0, 3.2)
_H6_A = (
    (10.0, 3.0, 17.0, 3.5, 1.7, 8.0),
    (0.05, 10.0, 17.0, 0.1, 8.0, 14.0),
    (3.0, 3.5, 1.7, 10.0, 17.0, 8.0),
    (17.0, 8.0, 0.05, 10.0, 0.1, 14.0),
)
_H6_P = (
    (1312, 1696, 5569, 124, 8283, 5886),
    (2329, 4135, 8307, 3736, 1004, 9991),
    (2348, 1451, 3522, 2883, 3047, 6650),
    (4047, 8828, 8732, 5743, 1091, 381),
)


def hartmann6(x: np.ndarray) -> float:
    """Hartmann 6-D on [0, 1]^6 (a sum of bumps, maximised)."""
    total = []
    for alpha, a_row, p_row in zip(_H6_ALPHA, _H6_A, _H6_P):
        inner = math.fsum(a * (v - p * 1e-4) ** 2 for a, v, p in zip(a_row, x, p_row))
        total.append(alpha * math.exp(-inner))
    return math.fsum(total)


# Published maxima: Ackley 0 exactly; Hartmann-6 3.32237, given to 5 decimals.
REFERENCE = {"ackley": (ackley, 0.0, 1e-12), "hartmann6": (hartmann6, 3.32237, 6e-6)}

# Tolerances for values hubo computes by another arithmetic route than ours.
_REL = 1e-9
# Points built by clipping to a face are compared with this relative slack.
_FACE = 1e-12


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def read_trace(path: str) -> list[dict]:
    """Rows of a trace CSV with typed cells; empty cells become None."""

    def num(cell):
        return None if cell == "" else float(cell)

    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "t": int(row["t"]),
                "x": np.array([float(v) for v in row["x"].split(";")]),
                "y": float(row["y"]),
                "best_y": float(row["best_y"]),
                "r_t": num(row["r_t"]),
                "R_t": num(row["R_t"]),
                "log_dist": num(row["log_dist"]),
                "side": float(row["side"]),
                "n_cubes": None if row["n_cubes"] == "" else int(row["n_cubes"]),
            })
    return rows


def cubes_at(t: int, lam: float, n0: int) -> int:
    """n0 * ceil(t**lam) in integer arithmetic, lam taken as an exact fraction."""
    frac = Fraction(lam).limit_denominator(1000)
    p, q = frac.numerator, frac.denominator
    target = t**p  # ceil(t**(p/q)) is the least m with m**q >= t**p
    m = max(1, int(round(t ** float(frac))) - 1)
    while m**q < target:
        m += 1
    while m > 1 and (m - 1) ** q >= target:
        m -= 1
    return n0 * m


def check_geometry(geo: dict, fraction: float) -> None:
    """X0 inside the domain, and C_initial ten X0 sides wide, clipped to it."""
    lower = np.array(geo["domain_lower"])
    upper = np.array(geo["domain_upper"])
    side0 = geo["b"] - geo["a"]
    if not _close(side0, fraction * float(upper[0] - lower[0]), 1e-12):
        raise CheckError(f"X0 side {side0} is not {fraction} of the domain side")
    x0 = np.array(geo["x0_center"])
    if np.any(x0 - 0.5 * side0 < lower - 1e-12) or np.any(x0 + 0.5 * side0 > upper + 1e-12):
        raise CheckError("X0 leaves the function domain")
    c_min = np.maximum(x0 - 5.0 * side0, lower)
    c_max = np.minimum(x0 + 5.0 * side0, upper)
    if not (np.allclose(c_min, geo["c_min"], rtol=0, atol=1e-12)
            and np.allclose(c_max, geo["c_max"], rtol=0, atol=1e-12)):
        raise CheckError("C_initial is not the 10x box around X0 clipped to the domain")


def _inside(x, lo, hi) -> bool:
    slack = _FACE * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    return bool(np.all(x >= lo - slack) and np.all(x <= hi + slack))


def check_trace(rows: list[dict], *, algorithm: str, benchmark: str, budget: int,
                n_init: int, geo: dict, alpha: float, noiseless: bool,
                hd: dict | None = None, cubes: list[dict] | None = None) -> dict:
    """Check one trace; returns R_T, the best gap and the noise residuals."""
    fn, published, opt_tol = REFERENCE[benchmark]
    dim = len(geo["x0_center"])
    random = algorithm == "random"
    expect_t = list(range(1, n_init + budget + 1)) if random else (
        [0] * n_init + list(range(1, budget + 1)))
    if [r["t"] for r in rows] != expect_t:
        raise CheckError(f"{algorithm}: t column is not {n_init} initial rows then 1..{budget}")
    f = [fn(r["x"]) for r in rows]
    if any(len(r["x"]) != dim for r in rows):
        raise CheckError(f"{algorithm}: a point does not have {dim} coordinates")

    best = -math.inf
    for k, r in enumerate(rows):
        if noiseless and not _close(r["y"], f[k], _REL):
            raise CheckError(f"{algorithm}: y at row {k} is {r['y']}, the function gives {f[k]}")
        best = max(best, r["y"])
        if r["best_y"] != best:
            raise CheckError(f"{algorithm}: best_y at row {k} is not the running maximum of y")

    bo = [k for k, r in enumerate(rows) if r["t"] >= 1]
    offsets = [rows[k]["r_t"] + f[k] for k in bo]  # r_t = optimum - f(x_t)
    opt = offsets[0]
    if any(not _close(o, opt, _REL) for o in offsets):
        raise CheckError(f"{algorithm}: r_t is not one optimum minus f(x_t) on every row")
    if abs(opt - published) > opt_tol:
        raise CheckError(f"{algorithm}: r_t implies optimum {opt}, published {published}")
    regrets = [rows[k]["r_t"] for k in bo]
    for i, k in enumerate(bo):
        if not _close(rows[k]["R_t"], math.fsum(regrets[: i + 1]), _REL):
            raise CheckError(f"{algorithm}: R_t at t={rows[k]['t']} is not the sum of r_1..r_t")
    gap = max(opt - max(f), 1e-12)
    if gap >= 1e-6 and not math.isclose(rows[-1]["log_dist"], math.log10(gap), abs_tol=1e-6):
        raise CheckError(f"{algorithm}: final log_dist disagrees with the best point's gap")

    x0 = np.array(geo["x0_center"])
    side0 = geo["b"] - geo["a"]
    if random:
        for k, r in enumerate(rows):
            if not _inside(r["x"], np.array(geo["c_min"]), np.array(geo["c_max"])):
                raise CheckError(f"random: row {k} lies outside C_initial")
    else:
        _check_regions(rows, algorithm, n_init, x0, side0, geo, alpha, dim, hd, cubes)
    return {
        "R_T": rows[-1]["R_t"],
        "gap": gap,
        "residuals": [r["y"] - fk for r, fk in zip(rows, f)],
    }


def _check_regions(rows, algorithm, n_init, x0, side0, geo, alpha, dim, hd, cubes):
    c_min, c_max = np.array(geo["c_min"]), np.array(geo["c_max"])
    for k in range(n_init):
        if not _inside(rows[k]["x"], x0 - 0.5 * side0, x0 + 0.5 * side0):
            raise CheckError(f"{algorithm}: initial point {k} lies outside X0")
    increments = []
    for k in range(n_init, len(rows)):
        t = rows[k]["t"]
        if algorithm == "vol2":
            side = side0 * 2.0 ** ((t // (3 * dim)) / dim)
            centre = x0
        else:
            increments.append(float(t) ** alpha)
            side = side0 * (1.0 + math.fsum(increments))
            ys = [r["y"] for r in rows[:k]]
            incumbent = rows[ys.index(max(ys))]["x"]  # the first point to reach it
            centre = np.clip(incumbent, c_min, c_max)
        if not _close(rows[k]["side"], side, 1e-12):
            raise CheckError(f"{algorithm}: box side at t={t} is {rows[k]['side']}, expected {side}")
        lo, hi = centre - 0.5 * side, centre + 0.5 * side
        x = rows[k]["x"]
        if not _inside(x, lo, hi):
            raise CheckError(f"{algorithm}: x at t={t} lies outside its search box")
        if algorithm != "hdhubo":
            continue
        n = cubes_at(t, hd["lam"], hd["n0"])
        if rows[k]["n_cubes"] != n:
            raise CheckError(f"hdhubo: n_cubes at t={t} is {rows[k]['n_cubes']}, expected {n}")
        cube_set = cubes[t - 1]
        centers = np.array(cube_set["centers"])
        if cube_set["t"] != t or len(centers) != n:
            raise CheckError(f"hdhubo: the maximizer searched {len(centers)} cubes at t={t}")
        if not (np.allclose(cube_set["lower"], lo, rtol=1e-12, atol=1e-12)
                and np.allclose(cube_set["upper"], hi, rtol=1e-12, atol=1e-12)):
            raise CheckError(f"hdhubo: cubes at t={t} were drawn in another box")
        half = 0.5 * cube_set["l_h"]
        c_lo = np.maximum(centers - half, lo)
        c_hi = np.minimum(centers + half, hi)
        slack = _FACE * (1.0 + np.maximum(np.abs(c_lo), np.abs(c_hi)))
        if not np.any(np.all((x >= c_lo - slack) & (x <= c_hi + slack), axis=1)):
            raise CheckError(f"hdhubo: x at t={t} lies in none of its cubes")


def check_noise(residuals: list[float], noise_std: float) -> None:
    """Noisy observations: y - f(x) has mean 0 and the configured spread."""
    n = len(residuals)
    mean = math.fsum(residuals) / n
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in residuals) / (n - 1))
    if abs(mean) > 5.0 * noise_std / math.sqrt(n) or not 0.8 <= std / noise_std <= 1.2:
        raise CheckError(
            f"noise residuals have mean {mean:.3g} and std {std:.3g}, "
            f"configured std {noise_std}"
        )


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def check_cli_outputs(out_dir: str, manifest: dict, algorithms: list[str],
                      repeats: int, traces: dict) -> None:
    """The manifest, the run statuses and the summary files of one `hubo run`.

    `traces` maps each (algorithm, repeat) to its parsed trace rows.
    """
    written = sorted(os.listdir(out_dir))
    if sorted(manifest["files"]) != written or len(set(written)) != len(manifest["files"]):
        raise CheckError(
            f"manifest lists {sorted(manifest['files'])}, the directory holds {written}"
        )
    runs = manifest["runs"]
    pairs = sorted((r["algorithm"], r["repeat"]) for r in runs)
    if pairs != sorted((a, i) for a in algorithms for i in range(repeats)):
        raise CheckError("manifest runs are not every (algorithm, repeat) pair once")
    for r in runs:
        if r["status"] != "ok":
            raise CheckError(f"run {r['algorithm']} r{r['repeat']} has status {r['status']}")
        if r["file"] not in written:
            raise CheckError(f"run {r['algorithm']} r{r['repeat']} names a missing file")
    for algo in algorithms:
        path = os.path.join(out_dir, f"{algo}_summary.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        columns = [traces[(algo, i)] for i in range(repeats)]
        if len(summary) != len(columns[0]):
            raise CheckError(f"{algo}_summary.csv has {len(summary)} rows")
        for i, row in enumerate(summary):
            best = [rows[i]["best_y"] for rows in columns]
            mean, std = _mean_std(best)
            if int(row["t"]) != columns[0][i]["t"]:
                raise CheckError(f"{algo}_summary.csv row {i} has the wrong t")
            if not (_close(float(row["mean_best_y"]), mean, 1e-12)
                    and _close(float(row["std_best_y"]), std, _REL)):
                raise CheckError(f"{algo}_summary.csv row {i}: best_y statistics disagree")
            log_mean, _ = _mean_std([rows[i]["log_dist"] for rows in columns])
            if not _close(float(row["mean_log_dist"]), log_mean, 1e-12):
                raise CheckError(f"{algo}_summary.csv row {i}: mean_log_dist disagrees")
        with open(os.path.join(out_dir, f"{algo}_log_distance.csv"), encoding="utf-8") as fh:
            plotted = list(csv.DictReader(fh))
        if [(r["t"], r["mean_log_dist"], r["stderr_log_dist"]) for r in plotted] != [
            (r["t"], r["mean_log_dist"], r["stderr_log_dist"]) for r in summary
        ]:
            raise CheckError(f"{algo}_log_distance.csv does not repeat the summary")


def kernel(A: np.ndarray, B: np.ndarray, family: str, ls: float, sf: float) -> np.ndarray:
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)
    if family == "se":
        return sf * np.exp(-0.5 * d2 / (ls * ls))
    z = math.sqrt(5.0) * np.sqrt(d2) / ls  # Matern nu = 5/2
    return sf * (1.0 + z + z * z / 3.0) * np.exp(-z)


def log_marginal_likelihood(X, y, family, ls, sf, nv, mean) -> float:
    """Gaussian LML by a dense Cholesky; -inf where K + nv*I is not PD."""
    K = kernel(X, X, family, ls, sf) + nv * np.eye(len(X))
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return -math.inf
    v = np.linalg.solve(L, y - mean)
    return float(-0.5 * v @ v - np.sum(np.log(np.diag(L))) - 0.5 * len(y) * math.log(2 * math.pi))


# Points per axis of the coarse grid the fitted model must beat.
GRID_POINTS = 5


def check_final_fit(final: dict, X: np.ndarray, y: np.ndarray, family: str) -> None:
    """The fitted hyperparameters beat a coarse grid, and the posterior is exact.

    The ranges are hubo's documented fit ranges: lengthscale in
    [0.01, 10] x the box side, signal variance in [1e-3, 1e3] x var(y),
    noise variance in [1e-6, 1] x var(y), prior mean = mean(y).
    """
    side = final["side"]
    mean, var_y = float(np.mean(y)), float(np.var(y))
    ranges = [(1e-2 * side, 10.0 * side), (1e-3 * var_y, 1e3 * var_y), (1e-6 * var_y, var_y)]
    params = (final["lengthscale"], final["signal_variance"], final["noise_variance"])
    for value, (lo, hi) in zip(params, ranges):
        if not lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12):
            raise CheckError(f"fitted hyperparameter {value} is outside [{lo}, {hi}]")
    if not _close(final["prior_mean"], mean, 1e-12):
        raise CheckError("fitted prior mean is not the mean of the targets")
    fitted = log_marginal_likelihood(X, y, family, *params, mean)
    grids = [np.geomspace(lo, hi, GRID_POINTS) for lo, hi in ranges]
    best_grid = max(
        log_marginal_likelihood(X, y, family, ls, sf, nv, mean)
        for ls in grids[0] for sf in grids[1] for nv in grids[2]
    )
    if not fitted >= best_grid - 1e-6 * max(1.0, abs(best_grid)):
        raise CheckError(f"fitted LML {fitted:.6f} is below the grid's best {best_grid:.6f}")

    ls, sf, nv = params
    K = kernel(X, X, family, ls, sf) + (nv + final["jitter"]) * np.eye(len(X))
    Q = np.array(final["query"])
    Ks = kernel(Q, X, family, ls, sf)
    means = Ks @ np.linalg.solve(K, y - mean) + mean
    variances = np.maximum(sf - np.sum(Ks * np.linalg.solve(K, Ks.T).T, axis=1), 0.0)
    scale = 1.0 + float(np.max(np.abs(y - mean)))
    if np.max(np.abs(means - final["means"])) > 1e-6 * scale:
        raise CheckError("PosteriorState.predict means disagree with a dense solve")
    if np.max(np.abs(variances - final["variances"])) > 1e-6 * sf:
        raise CheckError("PosteriorState.predict variances disagree with a dense solve")
