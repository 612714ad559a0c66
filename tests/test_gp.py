"""Gaussian-process regression correctness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import linalg as sla

from repro.core.gp import JITTER, GaussianProcess
from repro.core.kernels import RBF, Matern32, Matern52


def test_prior_prediction_without_fit():
    gp = GaussianProcess("rbf", dim=2)
    mean, std = gp.predict(np.array([[0.5, 0.5]]))
    assert mean[0] == pytest.approx(0.0)
    assert std[0] > 0


def test_interpolates_training_points_with_small_noise(rng):
    X = rng.random((10, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    gp = GaussianProcess("matern52", dim=2, noise=1e-6, fit_noise=False)
    gp.fit(X, y, optimize_hyperparams=True, rng=rng)
    mean, std = gp.predict(X)
    assert np.allclose(mean, y, atol=1e-2)
    assert (std < 0.15).all()


def test_uncertainty_grows_away_from_data(rng):
    X = np.array([[0.5, 0.5]])
    y = np.array([1.0])
    gp = GaussianProcess("rbf", dim=2, noise=1e-4, fit_noise=False)
    gp.fit(X, y, optimize_hyperparams=False)
    _, std_near = gp.predict(np.array([[0.5, 0.51]]))
    _, std_far = gp.predict(np.array([[0.0, 0.0]]))
    assert std_far[0] > std_near[0]


def test_posterior_mean_reverts_to_prior_far_away(rng):
    X = np.array([[0.5]])
    y = np.array([5.0])
    gp = GaussianProcess("rbf", dim=1, noise=1e-4, fit_noise=False, normalize_y=False)
    gp.kernel.theta = np.array([0.0, np.log(0.02)])
    gp.fit(X, y, optimize_hyperparams=False)
    mean, _ = gp.predict(np.array([[0.99]]))
    assert abs(mean[0]) < 0.1  # prior mean is 0 without normalization


def test_y_normalization_restores_scale(rng):
    X = rng.random((20, 1))
    y = 1e6 + 1e5 * np.sin(6 * X[:, 0])
    gp = GaussianProcess("matern52", dim=1, noise=1e-4)
    gp.fit(X, y, rng=rng)
    mean, _ = gp.predict(X)
    assert np.corrcoef(mean, y)[0, 1] > 0.99
    assert abs(np.mean(mean) - np.mean(y)) / np.mean(y) < 0.01


def test_lml_gradient_matches_finite_differences(rng):
    X = rng.random((12, 2))
    y = np.cos(4 * X[:, 0]) * X[:, 1]
    gp = GaussianProcess("rbf", dim=2, noise=1e-2, fit_noise=True)
    z = (y - y.mean()) / y.std()
    theta = gp._pack_theta() + rng.normal(0, 0.1, size=len(gp._pack_theta()))
    _, grad = gp._neg_lml_and_grad(theta, X, z)
    eps = 1e-6
    for j in range(len(theta)):
        t_hi = theta.copy()
        t_hi[j] += eps
        t_lo = theta.copy()
        t_lo[j] -= eps
        f_hi, _ = gp._neg_lml_and_grad(t_hi, X, z)
        f_lo, _ = gp._neg_lml_and_grad(t_lo, X, z)
        fd = (f_hi - f_lo) / (2 * eps)
        assert grad[j] == pytest.approx(fd, rel=1e-3, abs=1e-5)


def test_hyperparameter_optimization_improves_lml(rng):
    X = rng.random((25, 2))
    y = np.sin(5 * X[:, 0]) + 0.1 * rng.normal(size=25)
    gp_fixed = GaussianProcess("matern52", dim=2, noise=1e-2)
    gp_fixed.fit(X, y, optimize_hyperparams=False)
    lml_fixed = gp_fixed.log_marginal_likelihood()
    gp_opt = GaussianProcess("matern52", dim=2, noise=1e-2)
    gp_opt.fit(X, y, optimize_hyperparams=True, n_restarts=2, rng=rng)
    assert gp_opt.log_marginal_likelihood() >= lml_fixed - 1e-6


def test_noise_fitting_detects_noisy_targets(rng):
    X = rng.random((40, 1))
    y = rng.normal(0, 1.0, size=40)  # pure noise
    gp = GaussianProcess("rbf", dim=1, noise=1e-3, fit_noise=True)
    gp.fit(X, y, optimize_hyperparams=True, n_restarts=2, rng=rng)
    assert gp.noise > 1e-3  # learned a larger nugget


def test_predict_shape_checks(rng):
    gp = GaussianProcess("rbf", dim=2)
    gp.fit(rng.random((5, 2)), rng.random(5), optimize_hyperparams=False)
    with pytest.raises(ValueError):
        gp.predict(rng.random((3, 4)))


def test_fit_validates_inputs(rng):
    gp = GaussianProcess("rbf", dim=2)
    with pytest.raises(ValueError):
        gp.fit(rng.random((4, 2)), rng.random(5))
    with pytest.raises(ValueError):
        gp.fit(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        gp.fit(rng.random((4, 3)), rng.random(4))


def test_sample_posterior_matches_moments(rng):
    X = rng.random((8, 1))
    y = np.sin(4 * X[:, 0])
    gp = GaussianProcess("rbf", dim=1, noise=1e-4, fit_noise=False)
    gp.fit(X, y, rng=rng)
    Xs = np.array([[0.25], [0.75]])
    samples = gp.sample_posterior(Xs, 4000, rng)
    mean, std = gp.predict(Xs)
    assert np.allclose(samples.mean(axis=0), mean, atol=0.05)
    assert np.allclose(samples.std(axis=0), std, atol=0.08)


def test_constant_targets_do_not_crash(rng):
    X = rng.random((6, 2))
    y = np.full(6, 3.0)
    gp = GaussianProcess("matern52", dim=2)
    gp.fit(X, y, rng=rng)
    mean, std = gp.predict(rng.random((4, 2)))
    assert np.allclose(mean, 3.0, atol=0.2)


def test_duplicate_inputs_with_different_targets(rng):
    """Noisy duplicates must not break the Cholesky factorization."""
    X = np.vstack([np.full((5, 1), 0.5), rng.random((5, 1))])
    y = np.concatenate([[1.0, 1.2, 0.8, 1.1, 0.9], rng.random(5)])
    gp = GaussianProcess("rbf", dim=1, noise=1e-2)
    gp.fit(X, y, rng=rng)
    mean, _ = gp.predict(np.array([[0.5]]))
    assert 0.5 < mean[0] < 1.5


def test_requires_dim_with_named_kernel():
    with pytest.raises(ValueError):
        GaussianProcess("rbf")


def test_n_observations_tracking(rng):
    gp = GaussianProcess("rbf", dim=1)
    assert gp.n_observations == 0
    gp.fit(rng.random((7, 1)), rng.random(7), optimize_hyperparams=False)
    assert gp.n_observations == 7
    assert gp.is_fitted


# ----------------------------------------------------------------------
# Non-finite inputs are rejected at every public entry point
# ----------------------------------------------------------------------
BAD_VALUES = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("optimize", [True, False])
def test_fit_rejects_non_finite_X(rng, bad, optimize):
    X = rng.random((6, 2))
    X[3, 1] = bad
    gp = GaussianProcess("matern52", dim=2)
    with pytest.raises(ValueError):
        gp.fit(X, rng.random(6), optimize_hyperparams=optimize, rng=rng)


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("optimize", [True, False])
def test_fit_rejects_non_finite_y(rng, bad, optimize):
    y = rng.random(6)
    y[2] = bad
    gp = GaussianProcess("matern52", dim=2)
    with pytest.raises(ValueError):
        gp.fit(rng.random((6, 2)), y, optimize_hyperparams=optimize, rng=rng)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_fit_rejects_non_finite_y_err(rng, bad):
    y_err = np.zeros(6)
    y_err[1] = bad
    gp = GaussianProcess("matern52", dim=2)
    with pytest.raises(ValueError):
        gp.fit(rng.random((6, 2)), rng.random(6), rng=rng, y_err=y_err)


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("optimize", [True, False])
def test_update_rejects_non_finite_inputs(rng, bad, optimize):
    gp = GaussianProcess("matern52", dim=2)
    gp.fit(rng.random((6, 2)), rng.random(6), optimize_hyperparams=optimize, rng=rng)
    x = np.array([0.4, bad])
    with pytest.raises(ValueError):
        gp.update(x, 0.5)
    with pytest.raises(ValueError):
        gp.update(np.array([0.4, 0.6]), bad)
    assert gp.n_observations == 6
    assert gp.n_incremental_updates == 0


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("optimize", [True, False])
def test_predict_rejects_non_finite_inputs(rng, bad, optimize):
    gp = GaussianProcess("matern52", dim=2)
    X = rng.random((4, 2))
    X[1, 0] = bad
    with pytest.raises(ValueError):
        gp.predict(X)  # prior
    gp.fit(rng.random((6, 2)), rng.random(6), optimize_hyperparams=optimize, rng=rng)
    with pytest.raises(ValueError):
        gp.predict(X)
    with pytest.raises(ValueError):
        gp.predict(X, return_std=False)


# ----------------------------------------------------------------------
# Bit-identity oracle: the two-pass objective the fused one replaced
# ----------------------------------------------------------------------
def _oracle_shape_and_radial(kernel, sq):
    """Unit shape and radial factor, each from its own sqrt/exp pass."""
    if isinstance(kernel, RBF):
        return np.exp(-0.5 * sq), np.exp(-0.5 * sq)
    if isinstance(kernel, Matern52):
        r = np.sqrt(sq)
        s = math.sqrt(5.0) * r
        shape = (1.0 + s + s**2 / 3.0) * np.exp(-s)
        r = np.sqrt(sq)
        s = math.sqrt(5.0) * r
        return shape, (5.0 / 3.0) * (1.0 + s) * np.exp(-s)
    assert isinstance(kernel, Matern32)
    s = math.sqrt(3.0) * np.sqrt(sq)
    shape = (1.0 + s) * np.exp(-s)
    s = math.sqrt(3.0) * np.sqrt(sq)
    return shape, 3.0 * np.exp(-s)


def _oracle_sq_dists(X, lengthscales):
    A = X / lengthscales
    B = X / lengthscales
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.maximum(sq, 0.0)


def _oracle_grad_dot(kernel, X, W):
    A = X / kernel.lengthscales
    sq = _oracle_sq_dists(X, kernel.lengthscales)
    shape, radial = _oracle_shape_and_radial(kernel, sq)
    K = kernel.variance * shape
    out = np.empty(kernel.n_hyperparameters)
    out[0] = float(np.sum(W * K))
    M = W * (kernel.variance * radial)
    if kernel.ard:
        A_sq = A**2
        row = M.sum(axis=1)
        col = M.sum(axis=0)
        MA = M @ A
        out[1:] = row @ A_sq + col @ A_sq - 2.0 * np.einsum("id,id->d", A, MA)
    else:
        out[1] = float(np.sum(M * sq))
    return out


def _oracle_neg_lml_and_grad(gp, theta, X, z):
    gp._unpack_theta(theta)
    n = X.shape[0]
    sq = _oracle_sq_dists(X, gp.kernel.lengthscales)
    K = gp.kernel.variance * _oracle_shape_and_radial(gp.kernel, sq)[0]
    Kn = K + (gp.noise + JITTER) * np.eye(n)
    if gp._y_err is not None:
        Kn = Kn + np.diag(gp._y_err)
    try:
        L = sla.cholesky(Kn, lower=True)
    except sla.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = sla.cho_solve((L, True), z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    Kinv = sla.cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grad = 0.5 * _oracle_grad_dot(gp.kernel, X, W)
    if gp.fit_noise:
        grad_noise = 0.5 * float(np.trace(W)) * gp.noise
        grad = np.concatenate((grad, [grad_noise]))
    return -lml, -grad


ORACLE_CASES = [
    (kernel, ard, fit_noise, with_y_err)
    for kernel in ("rbf", "matern32", "matern52")
    for ard in (True, False)
    for fit_noise in (True, False)
    for with_y_err in (False, True)
]


def _oracle_problem(seed, with_y_err):
    rng = np.random.default_rng(seed)
    X = rng.random((23, 4))
    y = np.sin(5.0 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.normal(size=23)
    y_err = rng.random(23) * 0.3 if with_y_err else None
    return X, y, y_err


@pytest.mark.parametrize("kernel,ard,fit_noise,with_y_err", ORACLE_CASES)
def test_objective_bit_identical_to_two_pass_oracle(
    kernel, ard, fit_noise, with_y_err
):
    X, y, y_err = _oracle_problem(8, with_y_err)
    gp = GaussianProcess(kernel, dim=4, ard=ard, fit_noise=fit_noise)
    gp.fit(X, y, optimize_hyperparams=False, y_err=y_err)
    z = gp._posterior.y
    lo = np.array([b[0] for b in gp._theta_bounds()])
    hi = np.array([b[1] for b in gp._theta_bounds()])
    rng = np.random.default_rng(1)
    for theta in [gp._pack_theta()] + [lo + rng.random(len(lo)) * (hi - lo) for _ in range(6)]:
        value, grad = gp._neg_lml_and_grad(theta, X, z)
        want_value, want_grad = _oracle_neg_lml_and_grad(gp, theta, X, z)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("kernel,ard,fit_noise,with_y_err", ORACLE_CASES)
def test_fit_lands_on_oracle_hyperparameters(kernel, ard, fit_noise, with_y_err):
    X, y, y_err = _oracle_problem(9, with_y_err)
    fused = GaussianProcess(kernel, dim=4, ard=ard, fit_noise=fit_noise)
    oracle = GaussianProcess(kernel, dim=4, ard=ard, fit_noise=fit_noise)
    oracle._neg_lml_and_grad = lambda theta, Xo, zo: _oracle_neg_lml_and_grad(
        oracle, theta, Xo, zo
    )
    fused.fit(X, y, rng=np.random.default_rng(2), y_err=y_err)
    oracle.fit(X, y, rng=np.random.default_rng(2), y_err=y_err)
    assert np.array_equal(fused.kernel.theta, oracle.kernel.theta)
    assert fused._log_noise == oracle._log_noise
    assert np.array_equal(fused._posterior.alpha, oracle._posterior.alpha)


def test_objective_reports_cholesky_failure_sentinel():
    """A non-positive-definite covariance gives the 1e25 sentinel."""
    X = np.full((4, 1), 0.5)
    gp = GaussianProcess("rbf", dim=1, fit_noise=True)
    gp._y_err = -np.ones(4)  # drives the diagonal negative
    theta = gp._pack_theta()
    value, grad = gp._neg_lml_and_grad(theta, X, np.zeros(4))
    assert value == 1e25
    assert np.array_equal(grad, np.zeros_like(theta))
