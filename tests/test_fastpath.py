"""Regression tests for the suggest fast path and tuning-loop fixes.

Covers the bugfix PR: patience accounting in :class:`TuningLoop`,
stable per-cell seeding in the experiment runner, PSD-safe posterior
sampling, the rank-1 incremental GP update (equivalence with a full
refactorization), and evaluation memoization in
:class:`StormObjective`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import Optimizer
from repro.core.gp import GaussianProcess
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import (
    FloatParameter,
    IntParameter,
    ParameterSpace,
)
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG
from repro.experiments.runner import cell_seed
from repro.storm.cluster import paper_cluster
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import make_topology


class _Scripted(Optimizer):
    """Plays back a fixed value sequence; config carries the step index."""

    def __init__(self, n: int) -> None:
        self.i = 0
        self.n = n
        self.told: list[float] = []

    def ask(self) -> dict[str, object]:
        return {"step": self.i}

    def tell(self, config, value) -> None:
        self.told.append(float(value))
        self.i += 1

    @property
    def done(self) -> bool:
        return self.i >= self.n

    def best(self):
        best = int(np.argmax(self.told))
        return {"step": best}, self.told[best]


def _run_patience(values, patience, min_improvement):
    optimizer = _Scripted(len(values))
    loop = TuningLoop(
        lambda config: values[config["step"]],
        optimizer,
        max_steps=len(values),
        patience=patience,
        min_improvement=min_improvement,
    )
    return loop.run()


class TestPatienceAccounting:
    def test_subthreshold_gains_do_not_reset_patience(self):
        # Each step gains < 10%, so the run is stale from step 1 on and
        # must stop after `patience` stale steps.  The pre-fix loop left
        # best_seen at 100, so the cumulative drift eventually cleared
        # the threshold and wrongly reset the counter.
        values = [100.0, 105.0, 110.0, 116.0, 130.0, 140.0]
        result = _run_patience(values, patience=3, min_improvement=0.1)
        assert result.n_steps == 4
        assert result.metadata["stopped_early"] is True
        # best_value still tracks the true running max, not the last
        # above-threshold jump.
        assert result.best_value == 116.0

    def test_real_improvement_resets_patience(self):
        values = [100.0, 90.0, 95.0, 180.0, 100.0, 101.0, 102.0, 103.0]
        result = _run_patience(values, patience=3, min_improvement=0.1)
        assert result.n_steps == 7
        assert result.best_value == 180.0

    def test_no_patience_runs_full_budget(self):
        values = [5.0, 4.0, 3.0, 2.0, 1.0]
        result = _run_patience(values, patience=None, min_improvement=0.1)
        assert result.n_steps == 5
        assert result.best_value == 5.0


class TestCellSeed:
    def test_deterministic_and_pinned(self):
        # blake2b-based, so stable across processes and PYTHONHASHSEED.
        assert cell_seed(0, "baseline", "small", "bo") == 10476002521655852643
        assert cell_seed(7, "sine", "large", "pla") == 16222665189167647651

    def test_distinct_across_grid_and_passes(self):
        conditions = ["baseline", "sine", "spike"]
        sizes = ["small", "large"]
        strategies = ["bo", "ibo", "pla", "ipla"]
        seeds = set()
        for condition in conditions:
            for size in sizes:
                for strategy in strategies:
                    base = cell_seed(0, condition, size, strategy)
                    for pass_idx in range(2):
                        seeds.add(base + pass_idx)
        assert len(seeds) == len(conditions) * len(sizes) * len(strategies) * 2

    def test_base_seed_separates_repetitions(self):
        assert cell_seed(0, "baseline", "small", "bo") != cell_seed(
            1, "baseline", "small", "bo"
        )


class TestGaussianProcessFastPath:
    def _toy_data(self, n=14, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((n, dim))
        y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * X[:, 2]
        return X, y

    def test_incremental_update_matches_full_refactorization(self):
        X, y = self._toy_data()
        gp = GaussianProcess("matern52", 3)
        gp.fit(X[:9], y[:9], optimize_hyperparams=True)
        for i in range(9, len(y)):
            gp.update(X[i], y[i])
        assert gp.n_incremental_updates == len(y) - 9
        assert gp.n_observations == len(y)

        reference = GaussianProcess(gp.kernel.clone(), normalize_y=False)
        reference._log_noise = gp._log_noise
        reference._y_mean, reference._y_std = gp._y_mean, gp._y_std
        reference._refresh_posterior(X, (y - gp._y_mean) / gp._y_std)

        probes = np.random.default_rng(1).random((32, 3))
        mean_inc, std_inc = gp.predict(probes)
        mean_ref, std_ref = reference.predict(probes)
        np.testing.assert_allclose(mean_inc, mean_ref, atol=1e-8, rtol=0)
        np.testing.assert_allclose(std_inc, std_ref, atol=1e-8, rtol=0)

    def test_update_on_unfitted_gp_falls_back_to_fit(self):
        gp = GaussianProcess("rbf", 2)
        gp.update(np.array([0.5, 0.5]), 1.0)
        assert gp.is_fitted
        assert gp.n_observations == 1

    def test_update_with_duplicate_point_stays_finite(self):
        X, y = self._toy_data(n=8, dim=3)
        gp = GaussianProcess("matern52", 3)
        gp.fit(X, y, optimize_hyperparams=False)
        gp.update(X[0], y[0])  # exact duplicate: degenerate extension
        mean, std = gp.predict(X)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        assert gp.n_observations == len(y) + 1

    def test_predict_mean_only(self):
        X, y = self._toy_data(n=10, dim=3)
        gp = GaussianProcess("matern52", 3)
        gp.fit(X, y, optimize_hyperparams=False)
        probes = np.random.default_rng(2).random((5, 3))
        mean_only = gp.predict(probes, return_std=False)
        mean, _ = gp.predict(probes)
        assert isinstance(mean_only, np.ndarray)
        np.testing.assert_allclose(mean_only, mean)

    def test_predict_mean_only_unfitted(self):
        gp = GaussianProcess("rbf", 2)
        mean = gp.predict(np.zeros((3, 2)), return_std=False)
        assert mean.shape == (3,)

    def test_sample_posterior_near_duplicate_inputs(self):
        # Near-duplicate rows push the conditional covariance slightly
        # indefinite; sampling must clamp instead of raising.
        X = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-12], [0.2, 0.8]])
        y = np.array([1.0, 1.0, 2.0])
        gp = GaussianProcess("rbf", 2)
        gp.fit(X, y, optimize_hyperparams=False)
        probes = np.vstack([X, X])
        samples = gp.sample_posterior(probes, 16, np.random.default_rng(0))
        assert samples.shape == (16, 6)
        assert np.all(np.isfinite(samples))


class TestOptimizerRefitSchedule:
    def _space(self):
        return ParameterSpace(
            [
                IntParameter("a", 1, 32),
                FloatParameter("b", 0.0, 1.0),
                IntParameter("c", 1, 8),
            ]
        )

    @staticmethod
    def _value(config) -> float:
        return float(config["a"]) - (config["b"] - 0.3) ** 2 + config["c"]

    def test_schedule_mixes_refits_and_updates(self):
        optimizer = BayesianOptimizer(
            self._space(), seed=0, init_points=4, refit_every=4
        )
        for _ in range(16):
            config = optimizer.ask()
            optimizer.tell(config, self._value(config))
        telemetry = optimizer.telemetry
        assert telemetry["gp_incremental_updates"] > 0
        assert telemetry["gp_full_refits"] > 0
        assert optimizer.gp.n_observations == optimizer.n_observed
        assert telemetry["acq_pool_size_last"] > 0

    def test_refit_every_one_never_updates_incrementally(self):
        optimizer = BayesianOptimizer(
            self._space(), seed=0, init_points=4, refit_every=1
        )
        for _ in range(10):
            config = optimizer.ask()
            optimizer.tell(config, self._value(config))
        assert optimizer.telemetry["gp_incremental_updates"] == 0

    def test_resume_mid_cycle_is_deterministic(self):
        def advance(opt, steps):
            configs = []
            for _ in range(steps):
                config = opt.ask()
                opt.tell(config, self._value(config))
                configs.append(config)
            return configs

        optimizer = BayesianOptimizer(
            self._space(), seed=3, init_points=4, refit_every=5
        )
        advance(optimizer, 12)  # stop mid refit cycle
        state = optimizer.state_dict()
        resumed = BayesianOptimizer.from_state_dict(state)
        assert advance(optimizer, 4) == advance(resumed, 4)


class TestObjectiveMemoization:
    def _objective(self, **kwargs):
        topology = make_topology("small")
        cluster = paper_cluster()
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        return StormObjective(topology, cluster, codec, **kwargs), codec

    def test_deterministic_objective_memoizes(self):
        objective, codec = self._objective()
        assert objective.memoize
        params = codec.space.decode(
            codec.space.latin_hypercube(1, np.random.default_rng(0))[0]
        )
        first = objective(params)
        second = objective(params)
        assert first == second
        assert objective.n_evaluations == 2
        assert objective.n_engine_evaluations == 1
        info = objective.cache_info()
        assert info == {
            "enabled": True,
            "hits": 1,
            "misses": 1,
            "size": 1,
            "evictions": 0,
            "max_entries": 50_000,
        }

    def test_noisy_objective_does_not_memoize(self):
        objective, codec = self._objective(noise=GaussianNoise(0.05), seed=1)
        assert not objective.memoize
        params = codec.space.decode(
            codec.space.latin_hypercube(1, np.random.default_rng(0))[0]
        )
        objective(params)
        objective(params)
        assert objective.n_engine_evaluations == 2
        assert objective.cache_info()["enabled"] is False

    def test_explicit_override_wins(self):
        objective, _ = self._objective(noise=GaussianNoise(0.05), memoize=True)
        assert objective.memoize
        objective, _ = self._objective(memoize=False)
        assert not objective.memoize

    def test_measure_config_bypasses_cache(self):
        objective, codec = self._objective()
        params = codec.space.decode(
            codec.space.latin_hypercube(1, np.random.default_rng(0))[0]
        )
        objective(params)
        config = codec.decode(params)
        objective.measure_config(config)
        objective.measure_config(config)
        assert objective.n_engine_evaluations == 3
        assert objective.cache_info()["size"] == 1

    def test_loop_threads_telemetry_into_metadata(self):
        objective, codec = self._objective()
        optimizer = BayesianOptimizer(codec.space, seed=0, init_points=4)
        result = TuningLoop(
            objective, optimizer, max_steps=8, repeat_best=2
        ).run()
        telemetry = result.metadata["optimizer_telemetry"]
        assert telemetry["gp_full_refits"] > 0
        cache = result.metadata["objective_cache"]
        assert cache["enabled"] is True
        assert cache["misses"] >= result.n_steps


@pytest.mark.parametrize("kernel", ["rbf", "matern32", "matern52"])
@pytest.mark.parametrize("ard", [True, False])
def test_grad_dot_matches_materialized_gradients(kernel, ard):
    """The fused inner-product path equals sum(W * dK) per hyperparameter."""
    from repro.core.kernels import make_kernel

    rng = np.random.default_rng(4)
    X = rng.random((11, 4))
    W = rng.standard_normal((11, 11))
    k = make_kernel(kernel, 4, ard=ard)
    k.theta = rng.normal(0.0, 0.3, size=k.n_hyperparameters)
    _, grads = k.value_and_grads(X)
    expected = np.array([float(np.sum(W * g)) for g in grads])
    np.testing.assert_allclose(
        k.grad_dot(k.training_cov(X), W), expected, atol=1e-10
    )
