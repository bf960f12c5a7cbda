"""Gaussian-process regression surrogate.

Provides the squared-exponential and Matern-5/2 kernels, exact posterior
mean/variance through a Cholesky factorization with jitter escalation, the
Gaussian log marginal likelihood, and a deterministic grid + coordinate
descent MLE fit of (lengthscale, signal_variance, noise_variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigh, solve_triangular
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import cdist, pdist, squareform

__all__ = [
    "KernelSpec",
    "Dataset",
    "GpModel",
    "FitConfig",
    "GpFactorizationError",
    "kernel_matrix",
    "PosteriorState",
    "log_marginal_likelihood",
    "fit_mle",
]

KERNEL_FAMILIES = ("se", "matern52")

# Jitter escalation: first try the matrix as given, then add
# _JITTER_BASE * signal_variance to the diagonal, escalating tenfold per
# failure at most _JITTER_ESCALATIONS times.
_JITTER_BASE = 1e-10
_JITTER_ESCALATIONS = 6


class GpFactorizationError(RuntimeError):
    """Kernel matrix stayed non-positive-definite through all jitter levels."""


@dataclass(frozen=True)
class KernelSpec:
    """Stationary isotropic kernel: family, lengthscale, signal variance."""

    family: str
    lengthscale: float
    signal_variance: float

    def __post_init__(self):
        object.__setattr__(self, "lengthscale", float(self.lengthscale))
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        if not self.lengthscale > 0.0:
            raise ValueError(f"lengthscale must be > 0, got {self.lengthscale}")
        if not self.signal_variance > 0.0:
            raise ValueError(
                f"signal_variance must be > 0, got {self.signal_variance}"
            )


@dataclass(frozen=True)
class Dataset:
    """Immutable observation set: points (t, d) and targets (t,)."""

    points: np.ndarray
    targets: np.ndarray
    dim: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, self.dim).copy()
        targets = np.asarray(self.targets, dtype=np.float64).reshape(-1).copy()
        points.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "dim", int(self.dim))
        if len(points) != len(targets):
            raise ValueError(
                f"{len(points)} points vs {len(targets)} targets"
            )
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(targets)):
            raise ValueError("points and targets must be finite")

    def __len__(self) -> int:
        return len(self.targets)

    @classmethod
    def empty(cls, dim: int) -> "Dataset":
        return cls(np.empty((0, dim)), np.empty(0), dim)

    def append(self, x: np.ndarray, y: float) -> "Dataset":
        x = np.asarray(x, dtype=np.float64).reshape(1, self.dim)
        return Dataset(
            np.vstack([self.points, x]),
            np.append(self.targets, float(y)),
            self.dim,
        )


@dataclass(frozen=True)
class GpModel:
    """Kernel plus observation-noise variance and a constant prior mean."""

    kernel: KernelSpec
    noise_variance: float
    prior_mean: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        object.__setattr__(self, "prior_mean", float(self.prior_mean))
        if self.noise_variance < 0.0:
            raise ValueError(
                f"noise_variance must be >= 0, got {self.noise_variance}"
            )


def _unit_kernel_from_sqdist(d2: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Unit-signal kernel values from squared distances."""
    ell = kernel.lengthscale
    if kernel.family == "se":
        return np.exp(d2 / (-2.0 * ell * ell))
    r = np.sqrt(d2)
    z = (math.sqrt(5.0) / ell) * r
    return (1.0 + z + z * z / 3.0) * np.exp(-z)


def kernel_matrix(
    kernel: KernelSpec, X: np.ndarray, X2: np.ndarray | None = None
) -> np.ndarray:
    """Kernel matrix; the symmetric case computes each pair once and mirrors."""
    X = np.asarray(X, dtype=np.float64)
    if X2 is None:
        if len(X) == 0:
            return np.empty((0, 0))
        d2 = squareform(pdist(X, "sqeuclidean"))
        return kernel.signal_variance * _unit_kernel_from_sqdist(d2, kernel)
    X2 = np.asarray(X2, dtype=np.float64)
    if len(X) == 0 or len(X2) == 0:
        return np.empty((len(X), len(X2)))
    d2 = cdist(X, X2, "sqeuclidean")
    return kernel.signal_variance * _unit_kernel_from_sqdist(d2, kernel)


def _chol_with_jitter(
    K_noisy: np.ndarray, signal_variance: float
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K_noisy, escalating diagonal jitter on failure."""
    jitter = 0.0
    for _ in range(_JITTER_ESCALATIONS + 1):
        try:
            if jitter == 0.0:
                L = cholesky(K_noisy, lower=True, check_finite=False)
            else:
                L = cholesky(
                    K_noisy + jitter * np.eye(len(K_noisy)),
                    lower=True,
                    check_finite=False,
                )
            return L, jitter
        except LinAlgError:
            jitter = _JITTER_BASE * signal_variance if jitter == 0.0 else jitter * 10.0
    raise GpFactorizationError(
        f"factorization failed at maximum jitter {jitter / 10.0:g}"
    )


class PosteriorState:
    """Factorize (K + noise*I) once, then answer posterior queries cheaply.

    The optimisation loop asks for hundreds of posterior values per fitted
    model; refactorizing per query would be O(t^3) each.
    """

    def __init__(self, model: GpModel, data: Dataset):
        self.model = model
        self.data = data
        self.jitter = 0.0
        if len(data) == 0:
            self._L = None
            self._weights = None
            return
        K = kernel_matrix(model.kernel, data.points)
        K[np.diag_indices_from(K)] += model.noise_variance
        self._L, self.jitter = _chol_with_jitter(K, model.kernel.signal_variance)
        resid = data.targets - model.prior_mean
        v = solve_triangular(self._L, resid, lower=True, check_finite=False)
        self._weights = solve_triangular(
            self._L.T, v, lower=False, check_finite=False
        )

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each row of X, shape (m, d)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.data.dim:
            raise ValueError(
                f"query must have shape (m, {self.data.dim}), got {X.shape}"
            )
        sv = self.model.kernel.signal_variance
        if self._L is None:
            return (
                np.full(len(X), self.model.prior_mean),
                np.full(len(X), sv),
            )
        Ks = kernel_matrix(self.model.kernel, X, self.data.points)
        means = Ks @ self._weights + self.model.prior_mean
        # the LAPACK routine solve_triangular wraps for a Fortran-ordered
        # float64 L, called directly: same bits, without the per-call checks
        v, info = dtrtrs(self._L, Ks.T, lower=1)
        if info != 0:
            raise GpFactorizationError(f"triangular solve failed (LAPACK info {info})")
        variances = sv - np.sum(v * v, axis=0)
        # roundoff can push variances a hair below zero; never return negative
        return means, np.maximum(variances, 0.0)


def log_marginal_likelihood(model: GpModel, data: Dataset) -> float:
    """Gaussian LML of the data under the model, targets centered by prior_mean."""
    if len(data) == 0:
        raise ValueError("log_marginal_likelihood needs a nonempty dataset")
    K = kernel_matrix(model.kernel, data.points)
    K[np.diag_indices_from(K)] += model.noise_variance
    L, _ = _chol_with_jitter(K, model.kernel.signal_variance)
    return _lml_from_cholesky(L, data.targets - model.prior_mean)


def _lml_from_cholesky(L: np.ndarray, resid: np.ndarray) -> float:
    """Gaussian LML of resid given the lower Cholesky factor L of its covariance."""
    v = solve_triangular(L, resid, lower=True, check_finite=False)
    return float(
        -0.5 * v @ v - np.sum(np.log(np.diag(L))) - 0.5 * len(resid) * math.log(2.0 * math.pi)
    )


@dataclass(frozen=True)
class FitConfig:
    """MLE search space: grids are keyed to the current box side and var(y)."""

    side_length: float
    family: str = "se"
    grid_size: int = 8
    refine_sweeps: int = 20
    variance_floor: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "side_length", float(self.side_length))
        if not self.side_length > 0.0:
            raise ValueError(f"side_length must be > 0, got {self.side_length}")
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")


def fit_mle(data: Dataset, search: FitConfig) -> GpModel:
    """Maximize the LML over (lengthscale, signal_variance, noise_variance).

    Deterministic, on standardized targets: an 8x8x8 log-uniform grid scanned
    in ascending, lexicographic order (ties keep the first, i.e. smallest,
    parameters), then coordinate descent with multiplicative probes for at
    most `refine_sweeps` sweeps.  The grid is spectral: K + nv*I =
    Q diag(sf*w + nv) Q^T, so one `eigh` per grid lengthscale scores its whole
    (sf, nv) sub-grid.  The descent scores the grid winner and each probe by a
    Cholesky LML.  Cost: `grid_size` eigh calls plus at most 6*`refine_sweeps`
    Cholesky probes.  Constant targets return a floor-variance model; a
    target variance that overflows, or a fitted variance that underflows to
    a subnormal or zero, raises GpFactorizationError.
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
    if z_std == 0.0:
        kernel = KernelSpec(
            search.family, math.sqrt(ls_lo * ls_hi), search.variance_floor
        )
        return GpModel(kernel, search.variance_floor, mean)
    var_y = spread * z_std * (spread * z_std)  # inf, not OverflowError, past 1e308
    if not math.isfinite(var_y):
        raise GpFactorizationError(
            f"target variance is not finite in float64 (max |y - mean| = {spread:g})"
        )

    z = resid / spread / z_std
    bounds = [(ls_lo, ls_hi), (1e-3, 1e3), (1e-6, 1.0)]  # variances in units of var(y)
    grids = [np.geomspace(lo, hi, search.grid_size) for lo, hi in bounds]
    d2 = squareform(pdist(data.points, "sqeuclidean"))

    def unit_kernel(ls: float) -> np.ndarray:
        return _unit_kernel_from_sqdist(d2, KernelSpec(search.family, ls, 1.0))

    def sub_grid(ls: float) -> np.ndarray:
        """LML up to a constant at (ls, sf_i, nv_j) for every grid (sf, nv), from one eigh."""
        w, Q = eigh(unit_kernel(ls), check_finite=False)
        proj = Q.T @ z
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = grids[1][:, None, None] * w + grids[2][None, :, None]
            vals = -0.5 * np.sum(proj * proj / lam, axis=-1) - 0.5 * np.sum(np.log(lam), axis=-1)
        vals[np.isnan(vals) | (lam[..., 0] <= 0.0)] = -math.inf  # ascending w
        return vals

    # argmax keeps the first maximum in (ls, sf, nv) order: ties go to the smallest.
    scores = np.stack([sub_grid(float(ls)) for ls in grids[0]])
    best = np.unravel_index(int(np.argmax(scores)), scores.shape)
    if scores[best] == -math.inf:
        raise GpFactorizationError("no grid point has a finite log marginal likelihood")
    params = [float(grid[i]) for grid, i in zip(grids, best)]

    def score(Ku: np.ndarray, sf: float, nv: float) -> float:
        K = np.multiply(Ku, sf, order="F")  # Fortran order: factorized in place
        K[np.diag_indices_from(K)] += nv
        try:
            L = cholesky(K, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError:
            return -math.inf
        return _lml_from_cholesky(L, z)

    # Coordinate descent around the grid winner, multiplicative steps starting
    # at half a grid cell (in log space) and shrinking when a sweep stalls.
    Ku = unit_kernel(params[0])
    best_val = score(Ku, params[1], params[2])
    steps = [
        (hi / lo) ** (0.5 / (search.grid_size - 1)) for lo, hi in bounds
    ]
    for _ in range(search.refine_sweeps):
        moved = False
        for i in range(3):
            cand_best = None
            cand_val = best_val
            for factor in (steps[i], 1.0 / steps[i]):
                cand = min(max(params[i] * factor, bounds[i][0]), bounds[i][1])
                if cand == params[i]:
                    continue
                trial = list(params)
                trial[i] = cand
                Ku_c = unit_kernel(cand) if i == 0 else Ku
                val = score(Ku_c, trial[1], trial[2])
                if val > cand_val:
                    cand_val = val
                    cand_best = (cand, Ku_c)
            if cand_best is not None:
                params[i], Ku = cand_best
                best_val = cand_val
                moved = True
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
