"""Gaussian-process regression surrogate.

Provides the squared-exponential and Matern-5/2 kernels, exact posterior
mean/variance through a Cholesky factorization with jitter escalation, and
a deterministic grid + coordinate descent MLE fit of (lengthscale,
signal_variance, noise_variance).  The fit scores its grid from one
tridiagonal reduction (LAPACK dsytrd) per grid lengthscale, never an
eigendecomposition, and its descent probes by one Cholesky factorization
per distinct (lengthscale, noise-to-signal ratio), not per probe point.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh  # noqa: F401  bench/hooks.py wraps gp.eigh
from scipy.linalg.lapack import dpotrf, dsytrd, dtrtrs
from scipy.spatial.distance import cdist

from .contracts import choice, count, frozen, real

__all__ = [
    "KernelSpec",
    "Dataset",
    "GpModel",
    "FitConfig",
    "GpFactorizationError",
    "kernel_matrix",
    "PosteriorState",
    "fit_mle",
]

KERNEL_FAMILIES = ("se", "matern52")

# Jitter escalation: first try the matrix as given, then add
# _JITTER_BASE * signal_variance to the diagonal, escalating tenfold per
# failure at most _JITTER_ESCALATIONS times.
_JITTER_BASE = 1e-10
_JITTER_ESCALATIONS = 6

# MLE fit: points per axis of the log-uniform (ls, sf, nv) grid, the cap on
# coordinate-descent sweeps, and the variance of the constant-target model.
_GRID_SIZE = 8
_REFINE_SWEEPS = 20
_VARIANCE_FLOOR = 1e-12
# Unit kernels the descent keeps: a sweep's lengthscale, its two probes and the last sweep's two.
_DESCENT_KERNELS = 5


class GpFactorizationError(RuntimeError):
    """Kernel matrix stayed non-positive-definite through all jitter levels."""


@dataclass(frozen=True)
class KernelSpec:
    """Stationary isotropic kernel: family, lengthscale, signal variance."""

    family: str
    lengthscale: float
    signal_variance: float

    def __post_init__(self):
        choice("family", self.family, KERNEL_FAMILIES)
        for name in ("lengthscale", "signal_variance"):
            object.__setattr__(self, name, real(name, getattr(self, name), 0.0, ends="(]"))


@dataclass(frozen=True)
class Dataset:
    """Immutable observation set: points (t, d) and targets (t,)."""

    points: np.ndarray
    targets: np.ndarray
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", count("dim", self.dim, 1))
        points = frozen(self.points, name="points")
        targets = frozen(np.reshape(self.targets, -1), name="targets")
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points must have shape (n, {self.dim}), got {points.shape}")
        if len(points) != len(targets):
            raise ValueError(
                f"{len(points)} points vs {len(targets)} targets"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class GpModel:
    """Kernel plus observation-noise variance and a constant prior mean."""

    kernel: KernelSpec
    noise_variance: float
    prior_mean: float = 0.0

    def __post_init__(self):
        noise_variance = real("noise_variance", self.noise_variance, 0.0)
        object.__setattr__(self, "noise_variance", noise_variance)
        object.__setattr__(self, "prior_mean", real("prior_mean", self.prior_mean))


def _unit_kernel_from_sqdist(d2: np.ndarray, family: str, ell: float) -> np.ndarray:
    """Unit-signal kernel values from squared distances."""
    if family == "se":
        return np.exp(d2 / (-2.0 * ell * ell))
    r = np.sqrt(d2)
    z = (math.sqrt(5.0) / ell) * r
    return (1.0 + z + z * z / 3.0) * np.exp(-z)


def kernel_matrix(
    kernel: KernelSpec, X: np.ndarray, X2: np.ndarray | None = None
) -> np.ndarray:
    """Kernel matrix between the rows of X and of X2 (X itself when omitted)."""
    d2 = cdist(X, X if X2 is None else X2, "sqeuclidean")
    K = _unit_kernel_from_sqdist(d2, kernel.family, kernel.lengthscale)
    return np.multiply(K, kernel.signal_variance, out=K)


def cholesky(K: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of K by LAPACK dpotrf, or None if K is not
    positive definite.  A Fortran-ordered float64 K is factorized in place."""
    L, info = dpotrf(K, lower=1, clean=1, overwrite_a=1)
    return L if info == 0 else None


def _solve_lower(L: np.ndarray, b: np.ndarray, trans: int = 0, overwrite_b: int = 0) -> np.ndarray:
    """L^-1 b, or L^-T b with trans=1, by LAPACK dtrtrs on the lower factor L;
    with overwrite_b=1 a Fortran-ordered float64 b holds the result."""
    x, info = dtrtrs(L, b, lower=1, trans=trans, overwrite_b=overwrite_b)
    if info != 0:
        raise GpFactorizationError(f"triangular solve failed (LAPACK info {info})")
    return x


def _add_to_diagonal(K: np.ndarray, value: float) -> None:
    """K += value * I for a contiguous square K, through a strided view."""
    K.ravel(order="K")[:: len(K) + 1] += value


def _chol_with_jitter(K_noisy: np.ndarray, signal_variance: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K_noisy, escalating diagonal jitter on failure;
    a failed attempt leaves K_noisy, C-ordered from kernel_matrix, intact."""
    jitter = 0.0
    for _ in range(_JITTER_ESCALATIONS + 1):
        L = cholesky(K_noisy if jitter == 0.0 else K_noisy + jitter * np.eye(len(K_noisy)))
        if L is not None:
            return L, jitter
        jitter = _JITTER_BASE * signal_variance if jitter == 0.0 else jitter * 10.0
    raise GpFactorizationError(f"factorization failed at maximum jitter {jitter / 10.0:g}")


class PosteriorState:
    """Factorize (K + noise*I) once, then answer posterior queries cheaply.

    The optimisation loop asks for hundreds of posterior values per fitted
    model; refactorizing per query would be O(t^3) each.  `data` must hold
    at least one point.
    """

    def __init__(self, model: GpModel, data: Dataset):
        if len(data) == 0:
            raise ValueError("PosteriorState needs at least 1 observed point, got 0")
        self.model = model
        self.data = data
        K = kernel_matrix(model.kernel, data.points)
        _add_to_diagonal(K, model.noise_variance)
        self._L, self.jitter = _chol_with_jitter(K, model.kernel.signal_variance)
        v = _solve_lower(self._L, data.targets - model.prior_mean)
        self._weights = _solve_lower(self._L, v, trans=1)

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each row of X, shape (m, d).

        Both are fresh arrays the caller may overwrite.  Cost: one (m, t)
        kernel block, scaled in place, one matrix-vector product and one
        triangular solve that overwrites the block; the variances are squared,
        summed and clamped without another (m, t) temporary."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.data.dim:
            raise ValueError(
                f"query must have shape (m, {self.data.dim}), got {X.shape}"
            )
        sv = self.model.kernel.signal_variance
        Ks = kernel_matrix(self.model.kernel, X, self.data.points)
        means = Ks @ self._weights
        means += self.model.prior_mean
        # Ks.T is Fortran-ordered, so the solve overwrites Ks with L^-1 Ks^T
        v = _solve_lower(self._L, Ks.T, overwrite_b=1)
        np.multiply(v, v, out=v)
        variances = np.add.reduce(v, axis=0)
        np.subtract(sv, variances, out=variances)
        # roundoff can push variances a hair below zero; never return negative
        return means, np.maximum(variances, 0.0, out=variances)


def _unit_factor(
    Ku: np.ndarray, rho: float, z: np.ndarray, buf: np.ndarray
) -> tuple[float, float] | None:
    """(q, h) for the lower Cholesky factor L of Ku + rho*I: q = z^T (Ku +
    rho*I)^-1 z and h = sum log L_ii; None where Ku + rho*I is not positive
    definite.  Ku is only read: the symmetric Ku's transpose is copied into
    the Fortran-ordered (t, t) buf, which LAPACK factorizes in place."""
    np.copyto(buf, Ku.T)
    _add_to_diagonal(buf, rho)
    L = cholesky(buf)
    if L is None:
        return None
    v = _solve_lower(L, z)
    return float(v @ v), float(np.add.reduce(np.log(L.diagonal())))


def _scaled_lml(factor: tuple[float, float] | None, sf: float, t: int) -> float:
    """Gaussian LML of z, length t, under sf*(Ku + rho*I), from _unit_factor's
    (q, h) of Ku + rho*I; -inf for None.  That matrix has factor sqrt(sf)*L,
    so quadratic form q/sf and half log-determinant t/2 log sf + h
    (Rasmussen & Williams 2006, eq. 5.8)."""
    if factor is None:
        return -math.inf
    q, h = factor
    return -0.5 * q / sf - 0.5 * t * math.log(sf) - h - 0.5 * t * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FitConfig:
    """MLE search space: grids are keyed to the current box side and var(y)."""

    side_length: float
    family: str = "se"

    def __post_init__(self):
        side_length = real("side_length", self.side_length, 0.0, ends="(]")
        object.__setattr__(self, "side_length", side_length)
        choice("family", self.family, KERNEL_FAMILIES)


def _grid_lml(
    unit_kernel: Callable[[float], np.ndarray], grids: list[np.ndarray], z: np.ndarray
) -> np.ndarray:
    """LML, less its constant -t/2 log(2 pi), of z under sf*Ku + nv*I at every
    point (ls, sf, nv) of grids, shape (len(ls), len(sf), len(nv)); -inf where
    that matrix is not positive definite.  unit_kernel(ls) returns a fresh Ku.

    A Householder reflector P maps z to -+|z| e1, and LAPACK dsytrd reduces
    P Ku P = H T H^T with H e1 = e1, so z^T (sf Ku + nv I)^-1 z =
    |z|^2 [(sf T + nv I)^-1]_11 and both matrices share their determinant.
    The pivots p of sf T + nv I = U D U^T (U unit upper bidiagonal), taken
    bottom-up, give both: |z|^2 / p_0 and sum log p_i (the LML is Rasmussen
    & Williams 2006, eq. 5.8; the reduction Golub & Van Loan, section 8.3).
    Cost: one O(t^3) dsytrd per lengthscale, no eigenvectors, and one O(t)
    recurrence vectorized over the whole grid.
    """
    t = len(z)
    zz = float(z @ z)
    v = z.copy()  # P = I - beta v v^T
    v[0] += math.copysign(math.sqrt(zz), z[0])
    beta = 2.0 / float(v @ v)
    ls_grid, sf_grid, nv_grid = grids
    diags, offs = np.empty((t, len(ls_grid))), np.empty((t - 1, len(ls_grid)))
    for k, ls in enumerate(ls_grid):
        Ku = unit_kernel(float(ls))
        w = beta * (Ku @ v)
        q = w - (0.5 * beta * float(w @ v)) * v
        vq = np.outer(v, q)
        vq += vq.T
        Ku -= vq  # P Ku P, a rank-2 update
        # Ku is symmetric, so its transpose is the Fortran-ordered matrix itself
        _, diags[:, k], offs[:, k], _, info = dsytrd(Ku.T, lower=1, overwrite_a=1)
        if info != 0:
            raise GpFactorizationError(f"tridiagonal reduction failed (LAPACK info {info})")
    piv = np.multiply.outer(diags, sf_grid)[..., None] + nv_grid
    n_ls_sf = len(ls_grid) * len(sf_grid)
    # b2 does not depend on nv: one column per (ls, sf), broadcast over nv rows
    b2 = np.multiply.outer(offs * offs, sf_grid * sf_grid).reshape(t - 1, n_ls_sf, 1)
    # piv[i] = a[i] - b2[i] / piv[i + 1], in place on rows over the whole grid
    rows = list(piv.reshape(t, n_ls_sf, len(nv_grid)))
    quot = np.empty(rows[0].shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(t - 2, -1, -1):
            np.subtract(rows[i], np.divide(b2[i], rows[i + 1], out=quot), out=rows[i])
        positive = np.all(piv > 0.0, axis=0)  # also False for NaN pivots
        scores = -0.5 * zz / piv[0]
        scores -= 0.5 * np.sum(np.log(piv, out=piv), axis=0)
    scores[~positive] = -math.inf
    return scores


def fit_mle(data: Dataset, search: FitConfig) -> GpModel:
    """Maximize the LML over (lengthscale, signal_variance, noise_variance).

    Deterministic, on standardized targets: an 8x8x8 log-uniform grid scanned
    in ascending, lexicographic order (ties keep the first, i.e. smallest,
    parameters), then coordinate descent with multiplicative probes for at
    most 20 sweeps.  The grid is scored by `_grid_lml`: one Householder
    reflector and one LAPACK dsytrd tridiagonal reduction per grid
    lengthscale, then one pivot recurrence over all 512 points.  The descent
    scores the grid winner and each probe by a Cholesky LML: sf*Ku + nv*I =
    sf*(Ku + rho*I) with rho = nv/sf, so one factorization of Ku + rho*I,
    memoized by (ls, rho) as exact floats, scores every point that shares
    them in O(1).  Its unit kernels come from a cache of the 5 lengthscales
    it used last.  Cost: 8 dsytrd calls, one O(512*t) recurrence and no
    eigendecomposition, plus per distinct (ls, rho) one LAPACK
    factorization, one O(t^2) copy and one triangular solve, at most
    1 + 6*20 = 121 of each, and one O(t^2) unit kernel per factorization
    whose lengthscale the cache does not hold.  Constant
    targets return a floor-variance model; a target variance that overflows,
    or a fitted variance that underflows to a subnormal or zero, raises
    GpFactorizationError.
    """
    t = len(data)
    if t < 2:
        raise ValueError(f"fit_mle needs at least 2 observations, got {t}")
    mean = float(np.mean(data.targets))
    resid = data.targets - mean
    spread = float(np.max(np.abs(resid)))
    # z_std is 0 for constant targets, also when their mean does not round
    # back to the value and every residual is the same tiny nonzero number
    z_std = float(np.std(resid / spread)) if spread > 0.0 else 0.0
    ls_lo, ls_hi = 1e-2 * search.side_length, 10.0 * search.side_length
    if not 0.0 < ls_lo * ls_hi < math.inf:  # the floor model's lengthscale is its root
        raise GpFactorizationError(
            f"box side {search.side_length:g} puts the lengthscales out of float64 range"
        )
    if z_std == 0.0:
        kernel = KernelSpec(search.family, math.sqrt(ls_lo * ls_hi), _VARIANCE_FLOOR)
        return GpModel(kernel, _VARIANCE_FLOOR, mean)
    var_y = spread * z_std * (spread * z_std)  # inf, not OverflowError, past 1e308
    if not math.isfinite(var_y):
        raise GpFactorizationError(
            f"target variance is not finite in float64 (max |y - mean| = {spread:g})"
        )

    z = resid / spread / z_std
    bounds = [(ls_lo, ls_hi), (1e-3, 1e3), (1e-6, 1.0)]  # variances in units of var(y)
    grids = [np.geomspace(lo, hi, _GRID_SIZE) for lo, hi in bounds]
    d2 = cdist(data.points, data.points, "sqeuclidean")

    def unit_kernel(ls: float) -> np.ndarray:
        return _unit_kernel_from_sqdist(d2, search.family, ls)

    # argmax keeps the first maximum in (ls, sf, nv) order: ties go to the smallest.
    scores = _grid_lml(unit_kernel, grids, z)
    best = np.unravel_index(int(np.argmax(scores)), scores.shape)
    if scores[best] == -math.inf:
        raise GpFactorizationError("no grid point has a finite log marginal likelihood")
    params = [float(grid[i]) for grid, i in zip(grids, best)]

    # sf*Ku + nv*I = sf*(Ku + rho*I), so every point with the same lengthscale
    # and noise-to-signal ratio rho = nv/sf is scored from one factorization,
    # made in place in one Fortran-ordered buffer.  The keys are exact floats.
    buf = np.empty((t, t), order="F")
    kernel = functools.lru_cache(maxsize=_DESCENT_KERNELS)(unit_kernel)

    @functools.cache
    def factorize(ls: float, rho: float) -> tuple[float, float] | None:
        return _unit_factor(kernel(ls), rho, z, buf)

    def lml(ls: float, sf: float, nv: float) -> float:
        return _scaled_lml(factorize(ls, nv / sf), sf, t)

    # Coordinate descent around the grid winner, multiplicative steps starting
    # at half a grid cell (in log space) and shrinking when a sweep stalls.
    # lml is a pure function of the point, cheap once its (ls, rho) is
    # factorized.  A probe only wins on a strict gain, so every point scored
    # so far is at most best_val: a revisit never wins.
    best_val = lml(*params)
    steps = [(hi / lo) ** (0.5 / (_GRID_SIZE - 1)) for lo, hi in bounds]
    for _ in range(_REFINE_SWEEPS):
        moved = False
        for i in range(3):
            cand_best, cand_val = None, best_val
            for factor in (steps[i], 1.0 / steps[i]):
                trial = list(params)
                trial[i] = min(max(params[i] * factor, bounds[i][0]), bounds[i][1])
                val = lml(*trial)
                if val > cand_val:
                    cand_best, cand_val = trial[i], val
            if cand_best is not None:
                params[i], best_val, moved = cand_best, cand_val, True
        if not moved:
            steps = [math.sqrt(s) for s in steps]
            if max(steps) < 1.0005:
                break

    signal_var, noise_var = params[1] * var_y, params[2] * var_y
    if min(signal_var, noise_var) < np.finfo(float).tiny:
        raise GpFactorizationError(
            f"fitted variances underflow float64 (signal {signal_var:g}, noise {noise_var:g})"
        )
    kernel = KernelSpec(search.family, params[0], signal_var)
    return GpModel(kernel, noise_var, mean)
