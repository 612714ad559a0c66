"""Acquisition functions and acquisition optimization."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.acquisition import (
    AcquisitionOptimizer,
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.core.gp import GaussianProcess
from repro.core.parameters import FloatParameter, IntParameter, ParameterSpace


class TestExpectedImprovement:
    def test_nonnegative(self, rng):
        mean = rng.normal(size=100)
        std = rng.random(100)
        ei = expected_improvement(mean, std, best=0.5)
        assert (ei >= 0).all()

    def test_zero_std_uses_plain_improvement(self):
        ei = expected_improvement(
            np.array([2.0, 0.0]), np.array([0.0, 0.0]), best=1.0
        )
        assert ei[0] == pytest.approx(1.0)
        assert ei[1] == pytest.approx(0.0)

    def test_increases_with_mean(self):
        std = np.array([1.0, 1.0])
        ei = expected_improvement(np.array([0.0, 2.0]), std, best=1.0)
        assert ei[1] > ei[0]

    def test_increases_with_std_at_equal_mean(self):
        mean = np.array([1.0, 1.0])
        ei = expected_improvement(mean, np.array([0.1, 2.0]), best=1.0)
        assert ei[1] > ei[0]

    def test_known_value_at_mean_equals_best(self):
        # improvement = 0, z = 0: EI = sigma * phi(0) = sigma / sqrt(2 pi)
        ei = expected_improvement(np.array([1.0]), np.array([2.0]), best=1.0)
        assert ei[0] == pytest.approx(2.0 / np.sqrt(2 * np.pi))

    def test_xi_shifts_threshold(self):
        ei_lo = expected_improvement(np.array([1.5]), np.array([1.0]), 1.0, xi=0.0)
        ei_hi = expected_improvement(np.array([1.5]), np.array([1.0]), 1.0, xi=1.0)
        assert ei_hi[0] < ei_lo[0]


class TestProbabilityOfImprovement:
    def test_bounds(self, rng):
        pi = probability_of_improvement(
            rng.normal(size=50), rng.random(50) + 0.01, best=0.0
        )
        assert ((pi >= 0) & (pi <= 1)).all()

    def test_half_at_mean_equals_best(self):
        pi = probability_of_improvement(np.array([1.0]), np.array([1.0]), best=1.0)
        assert pi[0] == pytest.approx(0.5)

    def test_zero_std(self):
        pi = probability_of_improvement(
            np.array([2.0, 0.5]), np.array([0.0, 0.0]), best=1.0
        )
        assert pi[0] == 1.0 and pi[1] == 0.0


def test_normal_cdf_pdf_bit_identical_to_scipy_stats():
    """EI/PI's direct ndtr / exp forms equal ``stats.norm`` bitwise."""
    from scipy import special

    from repro.core.acquisition import _norm_pdf

    z = np.concatenate(
        [
            np.random.default_rng(0).normal(0.0, 4.0, size=1_000_000),
            np.linspace(-40.0, 40.0, 20_001),
            [0.0, -0.0, 40.0, -40.0, 1e-300, -1e-300, np.inf, -np.inf],
        ]
    )
    assert np.array_equal(special.ndtr(z), stats.norm.cdf(z))
    assert np.array_equal(_norm_pdf(z), stats.norm.pdf(z))


def test_ei_pi_bit_identical_to_scipy_stats_formulas(rng):
    mean = rng.normal(size=5000)
    std = np.abs(rng.normal(size=5000))
    std[::7] = 0.0
    improvement = mean - 0.3
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = np.maximum(
        np.where(
            std > 0,
            improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z),
            np.maximum(improvement, 0.0),
        ),
        0.0,
    )
    pi = np.where(std > 0, stats.norm.cdf(z), (improvement > 0).astype(float))
    assert np.array_equal(expected_improvement(mean, std, best=0.3), ei)
    assert np.array_equal(probability_of_improvement(mean, std, best=0.3), pi)


class TestUCB:
    def test_linear_in_std(self):
        ucb = upper_confidence_bound(np.array([1.0]), np.array([2.0]), kappa=2.0)
        assert ucb[0] == pytest.approx(5.0)


class TestAcquisitionOptimizer:
    def fitted_gp(self, rng, dim=2):
        X = rng.random((15, dim))
        y = -np.sum((X - 0.7) ** 2, axis=1)  # peak at 0.7
        gp = GaussianProcess("matern52", dim=dim, noise=1e-4, fit_noise=False)
        gp.fit(X, y, rng=rng)
        return gp, X, y

    def test_unknown_acquisition_raises(self):
        with pytest.raises(ValueError):
            AcquisitionOptimizer(acquisition="magic")

    def test_proposal_in_unit_cube(self, rng):
        gp, X, y = self.fitted_gp(rng)
        space = ParameterSpace(
            [FloatParameter("a", 0, 1), FloatParameter("b", 0, 1)]
        )
        opt = AcquisitionOptimizer(n_candidates=128)
        prop = opt.propose(gp, space, X[np.argmax(y)], float(y.max()), rng)
        assert prop.x.shape == (2,)
        assert ((prop.x >= 0) & (prop.x <= 1)).all()
        assert prop.acquisition_value >= 0

    def test_proposal_snaps_to_integer_grid(self, rng):
        gp, X, y = self.fitted_gp(rng)
        space = ParameterSpace([IntParameter("a", 1, 5), IntParameter("b", 1, 5)])
        opt = AcquisitionOptimizer(n_candidates=64)
        prop = opt.propose(gp, space, None, float(y.max()), rng)
        decoded = space.decode(prop.x)
        assert decoded["a"] in range(1, 6)
        assert decoded["b"] in range(1, 6)

    def test_proposes_near_optimum_when_confident(self, rng):
        """With dense data on a smooth bowl, EI proposes near the peak."""
        X = rng.random((120, 2))
        y = -np.sum((X - 0.7) ** 2, axis=1)
        gp = GaussianProcess("rbf", dim=2, noise=1e-5, fit_noise=False)
        gp.fit(X, y, rng=rng)
        space = ParameterSpace(
            [FloatParameter("a", 0, 1), FloatParameter("b", 0, 1)]
        )
        opt = AcquisitionOptimizer(n_candidates=512, n_refine=3)
        prop = opt.propose(gp, space, X[np.argmax(y)], float(y.max()), rng)
        assert np.linalg.norm(prop.x - 0.7) < 0.35

    def test_neighbourhood_moves_are_valid_grid_points(self, rng):
        space = ParameterSpace([IntParameter("a", 1, 9), IntParameter("b", 1, 9)])
        opt = AcquisitionOptimizer()
        best = space.encode({"a": 5, "b": 5})
        moves = opt._neighbourhood(space, best, rng)
        for row in moves:
            decoded = space.decode(row)
            assert 1 <= decoded["a"] <= 9
            assert 1 <= decoded["b"] <= 9
        # The +/- 1 coordinate moves must be present.
        decoded_set = {tuple(space.decode(r).values()) for r in moves}
        assert (4, 5) in decoded_set and (6, 5) in decoded_set
        assert (5, 4) in decoded_set and (5, 6) in decoded_set

    def test_score_matches_direct_computation(self, rng):
        gp, X, y = self.fitted_gp(rng)
        opt = AcquisitionOptimizer(acquisition="ei")
        pts = rng.random((10, 2))
        scores = opt.score(gp, pts, float(y.max()))
        mean, std = gp.predict(pts)
        expected = expected_improvement(mean, std, float(y.max()))
        assert np.allclose(scores, expected)
