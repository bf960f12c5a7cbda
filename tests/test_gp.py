"""Tests for the GP surrogate: kernels, posterior, LML, and the MLE fit.

The main oracle is a naive dense implementation (explicit matrix inverse)
written in the tests; closed-form scalar cases and frozen mpmath constants
cover the kernels.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eigh, solve_triangular
from scipy.linalg import cholesky as scipy_cholesky
from scipy.spatial.distance import pdist, squareform

from hubo import gp
from hubo.gp import (
    Dataset,
    FitConfig,
    GpFactorizationError,
    GpModel,
    KernelSpec,
    PosteriorState,
)


def se_model(
    lengthscale: float = 1.0,
    signal_variance: float = 1.0,
    noise_variance: float = 0.0,
    prior_mean: float = 0.0,
) -> GpModel:
    return GpModel(
        kernel=KernelSpec("se", lengthscale, signal_variance),
        noise_variance=noise_variance,
        prior_mean=prior_mean,
    )


def kernel_at(k: KernelSpec, x: np.ndarray, x2: np.ndarray) -> float:
    """k(x, x2) for two single points, through the batch kernel_matrix."""
    return float(gp.kernel_matrix(k, x[None], x2[None])[0, 0])


def posterior_at(model: GpModel, data: Dataset, x: np.ndarray) -> tuple[float, float]:
    """Posterior (mean, variance) at a single point, through the batch predict."""
    means, variances = PosteriorState(model, data).predict(x[None])
    return float(means[0]), float(variances[0])


def dense_posterior(model: GpModel, X, y, Xq):
    """Naive dense-inverse GP posterior: the oracle the library must match."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Xq = np.asarray(Xq, dtype=np.float64)
    K = gp.kernel_matrix(model.kernel, X) + model.noise_variance * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    Ks = gp.kernel_matrix(model.kernel, Xq, X)
    means = Ks @ K_inv @ (y - model.prior_mean) + model.prior_mean
    variances = model.kernel.signal_variance - np.sum((Ks @ K_inv) * Ks, axis=1)
    return means, variances


# ---------------------------------------------------------------------------
# KernelSpec / Dataset / GpModel validation
# ---------------------------------------------------------------------------


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", 1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec("se", 0.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec("se", 1.0, -1.0)


def test_gp_model_rejects_negative_noise():
    with pytest.raises(ValueError):
        GpModel(kernel=KernelSpec("se", 1.0, 1.0), noise_variance=-1e-3)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.zeros(3), 1)  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.array([[math.nan]]), np.array([0.0]), 1)


@pytest.mark.parametrize(
    "points", [np.arange(6.0).reshape(2, 3), np.arange(6.0), np.zeros((3, 2, 1)), np.zeros((3, 1))]
)
def test_dataset_rejects_points_of_the_wrong_shape(points):
    # e.g. two 3-D points must not be read as the three 2-D points
    # [[0, 1], [2, 3], [4, 5]]
    with pytest.raises(ValueError, match=r"points must have shape \(n, 2\)"):
        Dataset(points, np.zeros(3), 2)


# ---------------------------------------------------------------------------
# kernel_matrix
# ---------------------------------------------------------------------------


def test_se_kernel_at_same_point():
    k = KernelSpec("se", 1.0, 1.0)
    x = np.array([0.3, -1.2])
    assert kernel_at(k, x, x) == pytest.approx(1.0)


def test_se_kernel_unit_distance():
    # exp(-1/2), mpmath 40-digit value.
    k = KernelSpec("se", 1.0, 1.0)
    assert kernel_at(k, np.array([0.0]), np.array([1.0])) == pytest.approx(
        0.6065306597126334, abs=1e-14
    )


def test_matern_kernel_at_same_point():
    k = KernelSpec("matern52", 0.7, 2.5)
    x = np.array([1.0, 2.0, 3.0])
    assert kernel_at(k, x, x) == pytest.approx(2.5)


def test_matern_kernel_closed_form():
    # sv * (1 + z + z^2/3) * exp(-z), z = sqrt(5) r / ell.
    ell, sv, r = 0.7, 2.5, 1.3
    k = KernelSpec("matern52", ell, sv)
    z = math.sqrt(5.0) * r / ell
    expected = sv * (1.0 + z + z * z / 3.0) * math.exp(-z)
    got = kernel_at(k, np.array([0.0]), np.array([r]))
    assert got == pytest.approx(expected, rel=1e-14)


def test_matern_kernel_decays_to_zero():
    k = KernelSpec("matern52", 1.0, 1.0)
    assert kernel_at(k, np.array([0.0]), np.array([100.0])) < 1e-10


def test_kernel_never_exceeds_signal_variance():
    rng = np.random.default_rng(5)
    for family in ("se", "matern52"):
        k = KernelSpec(family, 0.8, 1.7)
        X = rng.normal(size=(40, 3))
        K = gp.kernel_matrix(k, X)
        assert np.all(K <= 1.7 + 1e-12)
        assert np.allclose(np.diag(K), 1.7)


def test_kernel_matrix_exactly_symmetric():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 4))
    for family in ("se", "matern52"):
        K = gp.kernel_matrix(KernelSpec(family, 1.1, 0.9), X)
        assert np.array_equal(K, K.T)


@pytest.mark.parametrize("family", ["se", "matern52"])
def test_kernel_matrix_symmetric_case_is_the_cross_case(family):
    rng = np.random.default_rng(10)
    k = KernelSpec(family, 0.7, 1.3)
    for t, d in [(1, 1), (2, 3), (17, 6), (60, 10)]:
        X = rng.normal(size=(t, d))
        K = gp.kernel_matrix(k, X)
        assert np.array_equal(K, gp.kernel_matrix(k, X, X))
        assert np.array_equal(K, K.T)
    X = rng.normal(size=(4, 3))
    empty = np.empty((0, 3))
    assert gp.kernel_matrix(k, empty).shape == (0, 0)
    assert gp.kernel_matrix(k, empty, X).shape == (0, 4)
    assert gp.kernel_matrix(k, X, empty).shape == (4, 0)


def test_kernel_matrix_cross_matches_eval():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 2))
    X2 = rng.normal(size=(4, 2))
    k = KernelSpec("se", 0.5, 2.0)
    K = gp.kernel_matrix(k, X, X2)
    assert K.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            r2 = float(np.sum((X[i] - X2[j]) ** 2))
            assert K[i, j] == pytest.approx(2.0 * math.exp(-r2 / 0.5), rel=1e-14)


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------


def test_posterior_refuses_empty_data():
    # a posterior is built only from observed points; none is a caller's error
    data = Dataset(np.empty((0, 3)), np.empty(0), 3)
    with pytest.raises(ValueError, match="PosteriorState needs at least 1 observed point, got 0"):
        PosteriorState(se_model(), data)


def test_posterior_noiseless_interpolation():
    model = se_model(lengthscale=0.7)
    data = Dataset(np.array([[0.4]]), np.array([2.0]), 1)
    mean, var = posterior_at(model, data, np.array([0.4]))
    assert mean == pytest.approx(2.0, abs=1e-8)
    assert 0.0 <= var <= 1e-8


def test_posterior_two_point_dense_oracle():
    model = se_model(lengthscale=0.9, signal_variance=1.3, noise_variance=0.05,
                     prior_mean=0.4)
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, -1.0])
    data = Dataset(X, y, 1)
    xq = np.array([0.25])
    mean, var = posterior_at(model, data, xq)
    om, ov = dense_posterior(model, X, y, xq.reshape(1, -1))
    assert mean == pytest.approx(float(om[0]), rel=1e-12)
    assert var == pytest.approx(float(ov[0]), rel=1e-12)


def test_posterior_matches_dense_oracle_on_random_instances():
    # 30 random instances here; the acceptance suite runs 200.
    rng = np.random.default_rng(20240501)
    for _ in range(30):
        t = int(rng.integers(1, 21))
        d = int(rng.integers(1, 7))
        family = "se" if rng.random() < 0.5 else "matern52"
        model = GpModel(
            kernel=KernelSpec(
                family,
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(0.5, 3.0)),
            ),
            noise_variance=float(rng.uniform(1e-4, 0.5)),
            prior_mean=float(rng.normal()),
        )
        X = rng.uniform(-2, 2, size=(t, d))
        y = rng.normal(size=t)
        Xq = rng.uniform(-2, 2, size=(5, d))
        means, variances = PosteriorState(model, Dataset(X, y, d)).predict(Xq)
        om, ov = dense_posterior(model, X, y, Xq)
        assert np.allclose(means, om, rtol=1e-8, atol=1e-10)
        assert np.allclose(variances, np.maximum(ov, 0.0), rtol=1e-8, atol=1e-10)


def test_predict_matches_solve_triangular_bit_for_bit():
    # predict calls LAPACK's dtrtrs directly; solve_triangular wraps the same
    # routine, and the two must agree in every bit, jittered factors included.
    rng = np.random.default_rng(99)
    for trial in range(40):
        t = int(rng.integers(1, 60))
        d = int(rng.integers(1, 8))
        model = GpModel(
            kernel=KernelSpec(
                "se" if trial % 2 else "matern52",
                float(rng.uniform(0.2, 2.0)),
                float(rng.uniform(0.5, 3.0)),
            ),
            noise_variance=float(rng.choice([0.0, 1e-6, 0.1])),
            prior_mean=float(rng.normal()),
        )
        X = rng.uniform(-1, 1, size=(t, d))
        if trial % 5 == 0:
            X[-1] = X[0]  # a duplicate point forces jitter when noiseless
        state = PosteriorState(model, Dataset(X, rng.normal(size=t), d))
        Xq = rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 300)), d))
        means, variances = state.predict(Xq)

        Ks = gp.kernel_matrix(model.kernel, Xq, X)
        v = solve_triangular(state._L, Ks.T, lower=True, check_finite=False)
        expected = model.kernel.signal_variance - np.sum(v * v, axis=0)
        assert np.array_equal(variances, np.maximum(expected, 0.0))
        assert np.array_equal(means, Ks @ state._weights + model.prior_mean)


def test_predict_raises_on_singular_factor():
    state = PosteriorState(se_model(), Dataset(np.array([[0.0], [1.0]]), np.zeros(2), 1))
    state._L = np.asfortranarray(np.diag([1.0, 0.0]))
    with pytest.raises(GpFactorizationError):
        state.predict(np.array([[0.5]]))


def test_posterior_variance_never_negative():
    # Duplicated points with zero noise drive the true variance to exactly 0;
    # roundoff must never surface as a negative number.
    model = se_model(lengthscale=0.5)
    X = np.array([[0.1], [0.1], [0.9]])
    data = Dataset(X, np.array([1.0, 1.0, 0.0]), 1)
    _, variances = PosteriorState(model, data).predict(
        np.linspace(0, 1, 101).reshape(-1, 1)
    )
    assert np.all(variances >= 0.0)


def test_posterior_variance_decreases_with_more_data():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        model = GpModel(
            kernel=KernelSpec("se", float(rng.uniform(0.4, 1.5)), 1.0),
            noise_variance=float(rng.uniform(0.01, 0.3)),
        )
        t = int(rng.integers(2, 10))
        X = rng.uniform(-1, 1, size=(t + 1, d))
        y = rng.normal(size=t + 1)
        data = Dataset(X[:t], y[:t], d)
        grown = Dataset(X, y, d)  # data plus one more observation
        Xq = rng.uniform(-1, 1, size=(8, d))
        _, var_before = PosteriorState(model, data).predict(Xq)
        _, var_after = PosteriorState(model, grown).predict(Xq)
        assert np.all(var_after <= var_before + 1e-8)


def test_posterior_query_shape_validation():
    model = se_model()
    state = PosteriorState(model, Dataset(np.zeros((1, 2)), np.zeros(1), 2))
    with pytest.raises(ValueError):
        state.predict(np.zeros((3, 3)))


def test_factorization_error_after_escalation():
    # A matrix with a large negative eigenvalue defeats every jitter level.
    K = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(GpFactorizationError):
        gp._chol_with_jitter(K, 1.0)


def test_jitter_rescues_mildly_indefinite_matrix():
    K = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])  # eigenvalue ~ -5e-13
    L, jitter = gp._chol_with_jitter(K, 1.0)
    assert jitter > 0.0
    assert np.all(np.isfinite(L))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_cholesky_factors_positive_definite_and_rejects_indefinite(seed, n):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))

    def with_eigenvalues(w):
        A = (Q * w) @ Q.T
        return 0.5 * (A + A.T)

    w = rng.uniform(0.1, 10.0, size=n)
    A = with_eigenvalues(w)
    expected = np.linalg.cholesky(A)  # before gp.cholesky: a 1x1 A is Fortran-ordered
    L = gp.cholesky(A)
    assert L is not None and not np.any(np.triu(L, 1))
    np.testing.assert_allclose(L, expected, rtol=1e-10, atol=1e-12)
    w[int(rng.integers(n))] = -rng.uniform(1e-3, 10.0)
    B = with_eigenvalues(w)
    assert gp.cholesky(B) is None
    assert gp.cholesky(np.asfortranarray(B)) is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), rank=st.integers(1, 30))
def test_jitter_escalates_past_an_indefinite_matrix(seed, n, rank):
    # A singular Gram matrix pushed 1e-12 below zero: the plain factorization
    # fails, the first jitter level (1e-10 * signal variance) succeeds, and
    # the caller's matrix is left as it was.
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, min(rank, n - 1))) / math.sqrt(n)
    K = B @ B.T - 1e-12 * np.eye(n)
    before = K.copy()
    assert gp.cholesky(K) is None
    L, jitter = gp._chol_with_jitter(K, 1.0)
    assert jitter == gp._JITTER_BASE
    assert np.array_equal(K, before)
    np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(n), rtol=0, atol=1e-12)


def random_well_conditioned(rng, t: int, d: int, family: str):
    """A model whose noise keeps cond(K + nv*I) below about 1e4, and data."""
    sv = float(rng.uniform(0.5, 3.0))
    model = GpModel(
        kernel=KernelSpec(family, float(rng.uniform(0.2, 2.0)), sv),
        noise_variance=float(rng.uniform(0.01, 0.5)) * sv,
        prior_mean=float(rng.normal()),
    )
    X = rng.uniform(-1.0, 1.0, size=(t, d))
    return model, Dataset(X, rng.normal(size=t), d)


def slogdet_lml(model: GpModel, data: Dataset) -> float:
    """Gaussian LML of the data under the model by dense solve and slogdet."""
    t = len(data)
    K = gp.kernel_matrix(model.kernel, data.points) + model.noise_variance * np.eye(t)
    resid = data.targets - model.prior_mean
    sign, logdet = np.linalg.slogdet(K)
    assert sign == 1.0
    return float(
        -0.5 * resid @ np.linalg.solve(K, resid) - 0.5 * logdet - 0.5 * t * math.log(2 * math.pi)
    )


def cholesky_lml(K: np.ndarray, resid: np.ndarray) -> float:
    """The fit's LML scorer on one Cholesky factor of the covariance K."""
    L = gp.cholesky(K.copy())
    assert L is not None
    return gp._lml_from_cholesky(L, resid)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 40),
    d=st.integers(1, 6),
    family=st.sampled_from(["se", "matern52"]),
)
def test_predict_matches_dense_solve_oracle(seed, t, d, family):
    rng = np.random.default_rng(seed)
    model, data = random_well_conditioned(rng, t, d, family)
    Xq = rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 20)), d))
    K = gp.kernel_matrix(model.kernel, data.points) + model.noise_variance * np.eye(t)
    Ks = gp.kernel_matrix(model.kernel, Xq, data.points)
    mean = Ks @ np.linalg.solve(K, data.targets - model.prior_mean) + model.prior_mean
    var = model.kernel.signal_variance - np.sum(Ks * np.linalg.solve(K, Ks.T).T, axis=1)
    means, variances = PosteriorState(model, data).predict(Xq)
    np.testing.assert_allclose(means, mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(variances, np.maximum(var, 0.0), rtol=1e-9, atol=1e-9)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 40),
    d=st.integers(1, 6),
    family=st.sampled_from(["se", "matern52"]),
)
def test_lml_matches_dense_slogdet_oracle(seed, t, d, family):
    rng = np.random.default_rng(seed)
    model, data = random_well_conditioned(rng, t, d, family)
    K = gp.kernel_matrix(model.kernel, data.points) + model.noise_variance * np.eye(t)
    got = cholesky_lml(K, data.targets - model.prior_mean)
    assert got == pytest.approx(slogdet_lml(model, data), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# _lml_from_cholesky, the fit's LML scorer
# ---------------------------------------------------------------------------


def test_lml_scalar_case():
    model = se_model(signal_variance=1.3, noise_variance=0.2, prior_mean=0.5)
    c = 1.3 + 0.2
    v = 1.7 - 0.5
    expected = -v * v / (2 * c) - 0.5 * math.log(c) - 0.5 * math.log(2 * math.pi)
    K = gp.kernel_matrix(model.kernel, np.array([[0.0]])) + 0.2 * np.eye(1)
    assert cholesky_lml(K, np.array([1.7 - model.prior_mean])) == pytest.approx(
        expected, rel=1e-12
    )


def test_lml_two_point_dense_oracle():
    model = se_model(lengthscale=0.8, signal_variance=1.1, noise_variance=0.3,
                     prior_mean=-0.2)
    X = np.array([[0.0], [0.7]])
    y = np.array([0.5, 1.5])
    K = gp.kernel_matrix(model.kernel, X) + 0.3 * np.eye(2)
    resid = y - model.prior_mean
    expected = float(
        -0.5 * resid @ np.linalg.inv(K) @ resid
        - 0.5 * math.log(np.linalg.det(K))
        - math.log(2 * math.pi)
    )
    got = cholesky_lml(K, resid)
    assert got == pytest.approx(expected, rel=1e-12)


def test_lml_zero_residuals_drop_quadratic_term():
    model = se_model(noise_variance=0.1, prior_mean=2.0)
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.full(3, 2.0)  # targets equal the prior mean
    K = gp.kernel_matrix(model.kernel, X) + 0.1 * np.eye(3)
    expected = float(
        -0.5 * math.log(np.linalg.det(K)) - 1.5 * math.log(2 * math.pi)
    )
    assert cholesky_lml(K, y - model.prior_mean) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# fit_mle
# ---------------------------------------------------------------------------


def test_fit_recovers_known_lengthscale():
    # Data drawn from a GP with ell=0.5; the fit must land within a factor
    # of 2 of the truth (measured: 0.488).
    rng = np.random.default_rng(42)
    X = np.sort(rng.uniform(0.0, 5.0, size=40)).reshape(-1, 1)
    true_kernel = KernelSpec("se", 0.5, 2.0)
    K = gp.kernel_matrix(true_kernel, X) + 1e-4 * np.eye(40)
    y = np.linalg.cholesky(K) @ rng.standard_normal(40)
    data = Dataset(X, y, 1)

    model = gp.fit_mle(data, FitConfig(side_length=5.0))
    assert 0.25 <= model.kernel.lengthscale <= 1.0
    assert model.prior_mean == pytest.approx(float(np.mean(y)))


def test_fit_beats_grid_corner_models():
    rng = np.random.default_rng(42)
    X = np.sort(rng.uniform(0.0, 5.0, size=40)).reshape(-1, 1)
    K = gp.kernel_matrix(KernelSpec("se", 0.5, 2.0), X) + 1e-4 * np.eye(40)
    y = np.linalg.cholesky(K) @ rng.standard_normal(40)
    data = Dataset(X, y, 1)

    fitted = gp.fit_mle(data, FitConfig(side_length=5.0))
    best = slogdet_lml(fitted, data)
    vy = float(np.var(y))
    mean_y = float(np.mean(y))
    for ell in (1e-2 * 5.0, 10.0 * 5.0):
        for sf in (1e-3 * vy, 1e3 * vy):
            for nv in (1e-6 * vy, vy):
                corner = GpModel(
                    kernel=KernelSpec("se", ell, sf),
                    noise_variance=nv,
                    prior_mean=mean_y,
                )
                assert best >= slogdet_lml(corner, data) - 1e-9


def test_fit_degenerate_targets_hit_variance_floor():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([3.0, 3.0]), 1)
    cfg = FitConfig(side_length=1.0)
    model = gp.fit_mle(data, cfg)
    assert model.kernel.signal_variance == pytest.approx(gp._VARIANCE_FLOOR)
    assert model.prior_mean == pytest.approx(3.0)


def test_fit_constant_targets_with_inexact_mean_hit_variance_floor():
    # mean([0.1, 0.1, 0.1]) is 0.10000000000000002, so every residual is the
    # same tiny nonzero number; the targets are still constant.
    data = Dataset(np.array([[0.0], [0.5], [1.0]]), np.array([0.1, 0.1, 0.1]), 1)
    cfg = FitConfig(side_length=1.0)
    model = gp.fit_mle(data, cfg)
    assert model.kernel.signal_variance == gp._VARIANCE_FLOOR
    assert model.noise_variance == gp._VARIANCE_FLOOR
    assert model.prior_mean == pytest.approx(0.1)


def test_fit_requires_two_points():
    data = Dataset(np.array([[0.0]]), np.array([1.0]), 1)
    with pytest.raises(ValueError):
        gp.fit_mle(data, FitConfig(side_length=1.0))


def test_fit_is_deterministic():
    rng = np.random.default_rng(12)
    X = rng.uniform(-1, 1, size=(15, 2))
    y = rng.normal(size=15)
    data = Dataset(X, y, 2)
    cfg = FitConfig(side_length=2.0)
    m1 = gp.fit_mle(data, cfg)
    m2 = gp.fit_mle(data, cfg)
    assert m1.kernel.lengthscale == m2.kernel.lengthscale
    assert m1.kernel.signal_variance == m2.kernel.signal_variance
    assert m1.noise_variance == m2.noise_variance


def test_fit_matern_family_passthrough():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(12, 1))
    y = np.sin(3 * X[:, 0]) + 0.05 * rng.normal(size=12)
    model = gp.fit_mle(Dataset(X, y, 1), FitConfig(side_length=2.0, family="matern52"))
    assert model.kernel.family == "matern52"


def test_fit_large_scale_targets_raise_factorization_error():
    # Targets of order 1e200: var(y) overflows float64.
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(6, 2))
    data = Dataset(X, 1e200 * rng.normal(size=6), 2)
    with pytest.raises(GpFactorizationError, match="not finite"):
        gp.fit_mle(data, FitConfig(side_length=2.0))


@pytest.mark.parametrize("scale", [1e-160, 1e-200])
def test_fit_tiny_scale_targets_raise_factorization_error(scale):
    # Smooth targets: at 1e-160 the fitted variances would be subnormal; at
    # 1e-200 var(y) underflows to 0, which is not a constant target.
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(10, 2))
    y = scale * (np.sin(3.0 * X[:, 0]) + np.cos(2.0 * X[:, 1]))
    with pytest.raises(GpFactorizationError, match="underflow"):
        gp.fit_mle(Dataset(X, y, 2), FitConfig(side_length=2.0))


def test_fit_makes_one_tridiagonal_reduction_per_grid_lengthscale(monkeypatch):
    # The grid needs no eigenvectors: one dsytrd per grid lengthscale scores
    # its whole (signal, noise) sub-grid, nothing calls eigh, and every
    # coordinate-descent probe is a Cholesky.
    calls = {"dsytrd": 0, "eigh": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gp, "dsytrd", counting("dsytrd", gp.dsytrd))
    monkeypatch.setattr(gp, "eigh", counting("eigh", gp.eigh))
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(30, 2))
    data = Dataset(X, np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1]), 2)
    gp.fit_mle(data, FitConfig(side_length=2.0))
    assert calls == {"dsytrd": gp._GRID_SIZE, "eigh": 0}


# ---------------------------------------------------------------------------
# fit_mle against the previous, all-spectral fit
# ---------------------------------------------------------------------------


def reference_fit_mle(data: Dataset, search: FitConfig) -> GpModel:
    """The all-spectral fit that fit_mle replaced: every grid point and every
    coordinate-descent probe is scored from an eigendecomposition of the unit
    kernel, on raw (unstandardized) targets with var(y)-keyed bounds."""
    t = len(data)
    y = data.targets
    mean = float(np.mean(y))
    var_y = float(np.var(y))
    ls_lo, ls_hi = 1e-2 * search.side_length, 10.0 * search.side_length
    resid = y - mean
    bounds = [(ls_lo, ls_hi), (1e-3 * var_y, 1e3 * var_y), (1e-6 * var_y, var_y)]
    grids = [np.geomspace(lo, hi, gp._GRID_SIZE) for lo, hi in bounds]
    d2 = squareform(pdist(data.points, "sqeuclidean"))
    const = -0.5 * t * math.log(2.0 * math.pi)

    def spectrum(ls):
        Ku = gp._unit_kernel_from_sqdist(d2, search.family, ls)
        w, Q = eigh(Ku, check_finite=False)
        return w, Q.T @ resid

    def lml(w, proj, sf, nv):
        lam = sf * w + nv
        if lam[0] <= 0.0:
            return -math.inf
        return float(-0.5 * np.sum(proj * proj / lam) - 0.5 * np.sum(np.log(lam)) + const)

    best_val, best, best_spec = -math.inf, None, None
    for ls in grids[0]:
        w, proj = spectrum(float(ls))
        for sf in grids[1]:
            for nv in grids[2]:
                val = lml(w, proj, float(sf), float(nv))
                if val > best_val:
                    best_val, best, best_spec = val, [float(ls), float(sf), float(nv)], (w, proj)
    params = list(best)
    w, proj = best_spec
    steps = [(hi / lo) ** (0.5 / (gp._GRID_SIZE - 1)) for lo, hi in bounds]
    for _ in range(gp._REFINE_SWEEPS):
        moved = False
        for i in range(3):
            cand_best, cand_val = None, best_val
            for factor in (steps[i], 1.0 / steps[i]):
                cand = min(max(params[i] * factor, bounds[i][0]), bounds[i][1])
                if cand == params[i]:
                    continue
                trial = list(params)
                trial[i] = cand
                spec = spectrum(cand) if i == 0 else (w, proj)
                val = lml(*spec, trial[1], trial[2])
                if val > cand_val:
                    cand_val, cand_best = val, (cand, spec)
            if cand_best is not None:
                params[i], (w, proj) = cand_best
                best_val = cand_val
                moved = True
        if not moved:
            steps = [math.sqrt(s) for s in steps]
            if max(steps) < 1.0005:
                break
    kernel = KernelSpec(search.family, params[0], params[1])
    return GpModel(kernel, params[2], mean)


def dense_lml(model: GpModel, data: Dataset) -> float:
    """LML by a plain dense Cholesky without jitter; -inf where not PD."""
    K = gp.kernel_matrix(model.kernel, data.points) + model.noise_variance * np.eye(len(data))
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return -math.inf
    v = np.linalg.solve(L, data.targets - model.prior_mean)
    return float(-0.5 * v @ v - np.sum(np.log(np.diag(L))) - 0.5 * len(data) * math.log(2 * math.pi))


def fit_corpus():
    """(id, data, side, family) over d x t x kernel x noise, plus duplicates."""
    cases = []
    for d in (1, 2, 6, 10):
        for t in (5, 40, 150):
            for family in ("se", "matern52"):
                for noisy in (False, True):
                    rng = np.random.default_rng([d, t, noisy, family == "se"])
                    X = rng.uniform(-1.0, 1.0, size=(t, d))
                    y = np.sin(3.0 * X[:, 0]) + 0.5 * np.sum(X * X, axis=1)
                    if noisy:
                        y = y + 0.1 * rng.standard_normal(t)
                    cases.append((f"d{d}-t{t}-{family}-{'noisy' if noisy else 'clean'}",
                                  Dataset(X, y, d), 2.0, family))
    rng = np.random.default_rng(99)
    X = rng.uniform(-1.0, 1.0, size=(12, 2))
    X = np.vstack([X, X[:6]])  # six points observed twice
    y = np.cos(2.0 * X[:, 0]) - X[:, 1] + 0.05 * rng.standard_normal(18)
    cases.append(("d2-t18-se-duplicates", Dataset(X, y, 2), 2.0, "se"))
    return cases


def test_fit_never_worse_than_reference_fit():
    worse = []
    for name, data, side, family in fit_corpus():
        cfg = FitConfig(side_length=side, family=family)
        new = dense_lml(gp.fit_mle(data, cfg), data)
        ref = dense_lml(reference_fit_mle(data, cfg), data)
        if not new >= ref - 1e-9 * max(1.0, abs(ref)):
            worse.append((name, new, ref))
    assert not worse, worse


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    t=st.integers(3, 25),
    a=st.floats(1e-3, 1e3).flatmap(lambda m: st.sampled_from([m, -m])),
    b=st.floats(-100.0, 100.0),
)
def test_fit_is_invariant_to_affine_target_maps(seed, t, a, b):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(t, 2))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(t)
    cfg = FitConfig(side_length=2.0)
    base = gp.fit_mle(Dataset(X, y, 2), cfg)
    mapped = gp.fit_mle(Dataset(X, a * y + b, 2), cfg)
    assert mapped.kernel.lengthscale == pytest.approx(base.kernel.lengthscale, rel=1e-9)
    assert mapped.kernel.signal_variance == pytest.approx(
        a * a * base.kernel.signal_variance, rel=1e-9
    )
    assert mapped.noise_variance == pytest.approx(a * a * base.noise_variance, rel=1e-9)


# ---------------------------------------------------------------------------
# fit_mle against the eigh-grid, SciPy-wrapper, unmemoized Cholesky fit it
# replaced.  The two grids round differently, so the descent is compared
# exactly from fit_mle's own grid winner, and the winners may differ only
# on a tie within 1e-12.
# ---------------------------------------------------------------------------


def grid_inputs(data: Dataset, search: FitConfig):
    """fit_mle's unit-kernel function, (ls, sf, nv) grids and standardized
    targets z, for targets that are neither constant nor overflowing."""
    resid = data.targets - float(np.mean(data.targets))
    spread = float(np.max(np.abs(resid)))
    z = resid / spread / float(np.std(resid / spread))
    side = search.side_length
    bounds = [(1e-2 * side, 10.0 * side), (1e-3, 1e3), (1e-6, 1.0)]
    grids = [np.geomspace(lo, hi, gp._GRID_SIZE) for lo, hi in bounds]
    d2 = squareform(pdist(data.points, "sqeuclidean"))

    def unit_kernel(ls: float) -> np.ndarray:
        return gp._unit_kernel_from_sqdist(d2, search.family, ls)

    return unit_kernel, grids, z


def eigh_grid_lml(unit_kernel, grids, z) -> np.ndarray:
    """The grid fit_mle scored before: one eigh per lengthscale,
    Ku = Q diag(w) Q^T, so sf*Ku + nv*I has eigenvalues sf*w + nv."""
    def sub_grid(ls: float) -> np.ndarray:
        w, Q = eigh(unit_kernel(ls), check_finite=False)
        proj = Q.T @ z
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = grids[1][:, None, None] * w + grids[2][None, :, None]
            vals = -0.5 * np.sum(proj * proj / lam, axis=-1) - 0.5 * np.sum(np.log(lam), axis=-1)
        vals[np.isnan(vals) | (lam[..., 0] <= 0.0)] = -math.inf
        return vals

    return np.stack([sub_grid(float(ls)) for ls in grids[0]])


def grid_winner(data: Dataset, search: FitConfig) -> tuple:
    """Index of fit_mle's grid winner, checked against the eigh grid's: where
    the two differ, each grid scores them within 1e-12 of each other."""
    unit_kernel, grids, z = grid_inputs(data, search)
    new = gp._grid_lml(unit_kernel, grids, z)
    ref = eigh_grid_lml(unit_kernel, grids, z)
    new_best = np.unravel_index(int(np.argmax(new)), new.shape)
    ref_best = np.unravel_index(int(np.argmax(ref)), ref.shape)
    if new_best != ref_best:
        for scores, win, lose in ((new, new_best, ref_best), (ref, ref_best, new_best)):
            assert scores[win] - scores[lose] <= 1e-12 * max(1.0, abs(scores[win])), (
                new_best, ref_best, scores[win], scores[lose]
            )
    return new_best


def scipy_cholesky_fit_mle(
    data: Dataset, search: FitConfig, probes=None, start=None
) -> GpModel:
    """fit_mle as it was before the direct-LAPACK, memoized descent: the eigh
    grid, SciPy's `cholesky` and `solve_triangular`, and every probe scored
    anew.  The descent starts from the grid index `start` when given, else
    from the eigh grid's winner.  Appends each descent point it scores to
    `probes`, the grid winner first."""
    mean = float(np.mean(data.targets))
    resid = data.targets - mean
    spread = float(np.max(np.abs(resid)))
    z_std = float(np.std(resid / spread)) if spread > 0.0 else 0.0
    ls_lo, ls_hi = 1e-2 * search.side_length, 10.0 * search.side_length
    if z_std == 0.0:
        kernel = KernelSpec(search.family, math.sqrt(ls_lo * ls_hi), gp._VARIANCE_FLOOR)
        return GpModel(kernel, gp._VARIANCE_FLOOR, mean)
    var_y = spread * z_std * (spread * z_std)
    if not math.isfinite(var_y):
        raise GpFactorizationError(
            f"target variance is not finite in float64 (max |y - mean| = {spread:g})"
        )

    unit_kernel, grids, z = grid_inputs(data, search)
    bounds = [(ls_lo, ls_hi), (1e-3, 1e3), (1e-6, 1.0)]
    if start is None:
        scores = eigh_grid_lml(unit_kernel, grids, z)
        start = np.unravel_index(int(np.argmax(scores)), scores.shape)
        if scores[start] == -math.inf:
            raise GpFactorizationError("no grid point has a finite log marginal likelihood")
    params = [float(grid[i]) for grid, i in zip(grids, start)]

    def score(Ku: np.ndarray, ls: float, sf: float, nv: float) -> float:
        if probes is not None:
            probes.append((ls, sf, nv))
        K = np.multiply(Ku, sf, order="F")
        K[np.diag_indices_from(K)] += nv
        try:
            L = scipy_cholesky(K, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError:
            return -math.inf
        v = solve_triangular(L, z, lower=True, check_finite=False)
        return float(
            -0.5 * v @ v - np.sum(np.log(np.diag(L))) - 0.5 * len(z) * math.log(2.0 * math.pi)
        )

    Ku = unit_kernel(params[0])
    best_val = score(Ku, *params)
    steps = [(hi / lo) ** (0.5 / (gp._GRID_SIZE - 1)) for lo, hi in bounds]
    for _ in range(gp._REFINE_SWEEPS):
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
                val = score(Ku_c, *trial)
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


def assert_fit_equals_reference_descent(data: Dataset, cfg: FitConfig) -> None:
    start = grid_winner(data, cfg)
    assert gp.fit_mle(data, cfg) == scipy_cholesky_fit_mle(data, cfg, start=start)


def test_fit_equals_scipy_cholesky_fit_on_corpus():
    for name, data, side, family in fit_corpus():
        cfg = FitConfig(side_length=side, family=family)
        assert_fit_equals_reference_descent(data, cfg)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    t=st.integers(3, 25),
    a=st.floats(1e-3, 1e3).flatmap(lambda m: st.sampled_from([m, -m])),
    b=st.floats(-100.0, 100.0),
)
def test_fit_equals_scipy_cholesky_fit_on_affine_maps(seed, t, a, b):
    # the examples of test_fit_is_invariant_to_affine_target_maps
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(t, 2))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(t)
    cfg = FitConfig(side_length=2.0)
    for targets in (y, a * y + b):
        assert_fit_equals_reference_descent(Dataset(X, targets, 2), cfg)


def test_fit_factorizes_each_distinct_probe_once(monkeypatch):
    calls = {"n": 0}
    real = gp.cholesky

    def counting_cholesky(K):
        calls["n"] += 1
        return real(K)

    monkeypatch.setattr(gp, "cholesky", counting_cholesky)
    saved = 0
    for name, data, side, family in fit_corpus():
        cfg = FitConfig(side_length=side, family=family)
        probes: list = []
        scipy_cholesky_fit_mle(data, cfg, probes, start=grid_winner(data, cfg))
        calls["n"] = 0
        gp.fit_mle(data, cfg)
        assert calls["n"] == len(set(probes)), name
        saved += len(probes) - calls["n"]
    assert saved > 0


def test_fit_reuses_lengthscale_kernels(monkeypatch):
    # The reference descent builds a unit kernel right before each
    # lengthscale probe it scores; fit_mle scores the first visit to each
    # point only, so its lengthscale probes are the points first scored just
    # after a kernel build.  Taking the last sweep's kernels, fit_mle builds
    # fewer kernels in its descent than that.
    real = gp._unit_kernel_from_sqdist
    log: list = []

    def logging_kernel(d2, family, ell):
        log.append("kernel")
        return real(d2, family, ell)

    monkeypatch.setattr(gp, "_unit_kernel_from_sqdist", logging_kernel)
    probes = built = 0
    for name, data, side, family in fit_corpus():
        cfg = FitConfig(side_length=side, family=family)
        start = grid_winner(data, cfg)
        log.clear()
        scipy_cholesky_fit_mle(data, cfg, log, start=start)
        seen = {log[1]}  # the grid winner, scored after its own kernel build
        for prev, point in zip(log[1:], log[2:]):
            if point != "kernel" and point not in seen:
                seen.add(point)
                probes += prev == "kernel"
        log.clear()
        gp.fit_mle(data, cfg)
        built += log.count("kernel") - gp._GRID_SIZE - 1  # less the grid and the winner
    assert 0 < built < probes, (built, probes)


# ---------------------------------------------------------------------------
# _grid_lml against a dense Cholesky LML at every grid point
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    t=st.integers(2, 40),
    d=st.integers(1, 4),
    family=st.sampled_from(gp.KERNEL_FAMILIES),
    n_dup=st.integers(0, 20),
    spacing=st.sampled_from([1.0, 1e4]),
)
def test_grid_lml_matches_dense_cholesky_lml(seed, t, d, family, n_dup, spacing):
    # spacing 1e4 puts every pair of distinct points so far apart that Ku
    # rounds to I, up to the 1s that duplicate rows keep off the diagonal.
    rng = np.random.default_rng(seed)
    X = spacing * rng.uniform(-1.0, 1.0, size=(t, d))
    n_dup = min(n_dup, t // 2)
    X[t - n_dup:] = X[:n_dup]
    y = np.sin(3.0 * X[:, 0] / spacing) + 0.1 * rng.standard_normal(t)
    unit_kernel, grids, z = grid_inputs(Dataset(X, y, d), FitConfig(side_length=2.0, family=family))
    scores = gp._grid_lml(unit_kernel, grids, z)
    const = -0.5 * t * math.log(2.0 * math.pi)
    for i, ls in enumerate(grids[0]):
        Ku = unit_kernel(float(ls))
        for (j, k), score in np.ndenumerate(scores[i]):
            L = np.linalg.cholesky(grids[1][j] * Ku + grids[2][k] * np.eye(t))
            v = solve_triangular(L, z, lower=True)
            dense = float(-0.5 * v @ v - np.sum(np.log(np.diag(L)))) + const
            assert abs(score + const - dense) <= 1e-5 * max(1.0, abs(dense)), (i, j, k)


def test_grid_lml_is_minus_inf_exactly_where_not_positive_definite():
    # An indefinite "unit kernel" with smallest eigenvalue -1e-3: sf*Ku + nv*I
    # is positive definite iff nv > 1e-3 * sf.  Grid points within 10% of
    # that boundary are left out.
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    w = np.concatenate([[-1e-3], np.geomspace(1e-2, 5.0, 11)])
    Ku = (Q * w) @ Q.T
    Ku = 0.5 * (Ku + Ku.T)
    grids = [np.array([1.0, 2.0]), np.geomspace(1e-3, 1e3, 8), np.geomspace(1e-6, 1.0, 8)]
    z = rng.standard_normal(12)
    scores = gp._grid_lml(lambda ls: Ku.copy(), grids, z)
    ratio = grids[2][None, :] / (1e-3 * grids[1][:, None])
    clear = np.abs(np.log(ratio)) > math.log(1.1)
    for sub in scores:
        assert np.all(np.isneginf(sub[clear & (ratio < 1.0)]))
        assert np.all(np.isfinite(sub[clear & (ratio > 1.0)]))
