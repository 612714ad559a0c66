"""Fault injection: determinism, rates, engine integration.

The fault plan's headline guarantee is that fault decisions are a pure
function of (plan seed, evaluation identity) — never of scheduling —
so a ``batch_size=4`` run replays the serial run fault-for-fault.
"""

from __future__ import annotations

import pytest

from repro.core.executor import ThreadPoolExecutor
from repro.core.loop import TuningLoop
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.storm.faults import (
    NO_FAULTS,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    inject_faults,
)
from repro.storm.metrics import MeasuredRun
from repro.storm.objective import StormObjective
from repro.topology_gen.suite import make_topology


def _objective(faults=None, seed=0, fidelity="analytic"):
    topology = make_topology("small")
    cluster = default_cluster()
    _, codec = make_synthetic_optimizer(
        "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
    )
    return StormObjective(
        topology,
        cluster,
        codec,
        fidelity=fidelity,
        faults=faults,
        seed=seed,
    )


class TestFaultSpec:
    def test_inactive_by_default(self):
        assert not FaultSpec().active
        assert FaultSpec(crash_rate=0.1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": 1.5},
            {"hang_rate": -0.1},
            {"straggler_slowdown": 0.0},
            {"tuple_loss_fraction": 1.0},
            {"hang_seconds": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_chaos_splits_budget(self):
        spec = FaultSpec.chaos(0.2, seed=7)
        assert spec.crash_rate == pytest.approx(0.05)
        assert spec.straggler_rate == pytest.approx(0.05)
        assert spec.tuple_loss_rate == pytest.approx(0.05)
        assert spec.hang_rate == pytest.approx(0.05)
        assert spec.hang_seconds == 0.0
        assert spec.seed == 7
        assert spec.active


class TestFaultDecision:
    def test_no_faults_shared_instance(self):
        assert not NO_FAULTS.any
        assert NO_FAULTS.labels() == []

    def test_labels_severity_order(self):
        decision = FaultDecision(
            crash=True, straggler_factor=0.5, replay_fraction=0.1, hang=True
        )
        assert decision.labels() == [
            "measurement_window_hang",
            "worker_crash",
            "straggler",
            "tuple_loss",
        ]
        assert decision.any


class TestDecide:
    def test_pure_function_of_seed(self):
        plan = FaultPlan(FaultSpec.chaos(0.5, seed=3))
        for seed in range(50):
            assert plan.decide(seed) == plan.decide(seed)

    def test_plan_seed_changes_stream(self):
        a = FaultPlan(FaultSpec.chaos(0.5, seed=0))
        b = FaultPlan(FaultSpec.chaos(0.5, seed=1))
        decisions_a = [a.decide(s) for s in range(200)]
        decisions_b = [b.decide(s) for s in range(200)]
        assert decisions_a != decisions_b

    def test_inactive_spec_never_faults(self):
        plan = FaultPlan(FaultSpec())
        assert not plan.active
        assert plan.decide(123) is NO_FAULTS

    def test_statistical_rates(self):
        plan = FaultPlan(FaultSpec(crash_rate=0.2, seed=11))
        n = 2000
        crashes = sum(plan.decide(s).crash for s in range(n))
        assert 0.15 < crashes / n < 0.25

    def test_hang_preempts_crash(self):
        plan = FaultPlan(FaultSpec(crash_rate=1.0, hang_rate=1.0))
        decision = plan.decide(0)
        assert decision.hang and not decision.crash


class TestPreemptAndDegrade:
    def test_crash_preempts(self):
        plan = FaultPlan(FaultSpec(crash_rate=1.0))
        run = plan.preempt(plan.decide(0))
        assert run is not None and run.failed
        assert run.failure_reason.startswith("worker_crash")

    def test_hang_preempts(self):
        plan = FaultPlan(FaultSpec(hang_rate=1.0, hang_seconds=0.0))
        run = plan.preempt(plan.decide(0))
        assert run is not None and run.failed
        assert run.failure_reason.startswith("measurement_window_hang")

    def test_no_preempt_without_fault(self):
        plan = FaultPlan(FaultSpec(straggler_rate=1.0))
        assert plan.preempt(plan.decide(0)) is None

    def test_degrade_composes_multiplicatively(self):
        plan = FaultPlan(
            FaultSpec(
                straggler_rate=1.0,
                straggler_slowdown=0.5,
                tuple_loss_rate=1.0,
                tuple_loss_fraction=0.1,
            )
        )
        decision = plan.decide(0)
        run = MeasuredRun(throughput_tps=1000.0)
        degraded = plan.degrade(run, decision)
        assert degraded.throughput_tps == pytest.approx(1000.0 * 0.5 * 0.9)
        assert degraded.details["injected_faults"] == ["straggler", "tuple_loss"]
        assert degraded.details["fault_factor"] == pytest.approx(0.45)

    def test_degrade_passes_failed_run_through(self):
        plan = FaultPlan(FaultSpec(straggler_rate=1.0))
        failed = MeasuredRun.failure("scheduling: no capacity")
        assert plan.degrade(failed, plan.decide(0)) is failed


class TestInjectFaults:
    class _Tracer:
        def __init__(self):
            self.events = []

        def event(self, name, **attrs):
            self.events.append((name, attrs))

    def test_none_plan_is_passthrough(self):
        run = MeasuredRun(throughput_tps=5.0)
        out = inject_faults(
            None,
            lambda: run,
            seed=0,
            tracer=self._Tracer(),
            engine="analytic",
        )
        assert out is run

    def test_preempting_fault_skips_mechanics(self):
        plan = FaultPlan(FaultSpec(crash_rate=1.0))
        tracer = self._Tracer()

        def boom():
            raise AssertionError("mechanics must not run on a crash")

        out = inject_faults(
            plan, boom, seed=0, tracer=tracer, engine="analytic"
        )
        assert out.failed
        names = [name for name, _ in tracer.events]
        assert "engine.fault_injected" in names
        assert "engine.failure" in names


class TestEngineIntegration:
    @pytest.mark.parametrize("fidelity", ["analytic", "des"])
    def test_crash_surfaces_as_failed_run(self, fidelity):
        plan = FaultPlan(FaultSpec(crash_rate=1.0))
        objective = _objective(faults=plan, fidelity=fidelity)
        run = objective.measure({"uniform_hint": 2}, seed=0)
        assert run.failed
        assert run.failure_reason.startswith("worker_crash")

    @pytest.mark.parametrize("fidelity", ["analytic", "des"])
    def test_straggler_degrades_throughput(self, fidelity):
        plan = FaultPlan(
            FaultSpec(straggler_rate=1.0, straggler_slowdown=0.35)
        )
        clean = _objective(fidelity=fidelity)
        faulty = _objective(faults=plan, fidelity=fidelity)
        # hint 6 is feasible under both engines (the DES hits its batch
        # timeout below 4, which is a *persistent* failure, not a fault)
        base = clean.measure({"uniform_hint": 6}, seed=0)
        degraded = faulty.measure({"uniform_hint": 6}, seed=0)
        assert not base.failed
        assert degraded.throughput_tps == pytest.approx(
            base.throughput_tps * 0.35
        )
        assert degraded.details["injected_faults"] == ["straggler"]

    def test_active_faults_disable_memoization(self):
        assert _objective().memoize
        assert not _objective(faults=FaultPlan(FaultSpec.chaos(0.5))).memoize
        assert _objective(faults=FaultPlan(FaultSpec())).memoize

    def test_faults_keyed_by_eval_seed(self):
        plan = FaultPlan(FaultSpec(crash_rate=0.5, seed=5))
        objective = _objective(faults=plan)
        config = {"uniform_hint": 2}
        outcomes = [
            objective.measure(config, seed=s).failed for s in range(40)
        ]
        assert any(outcomes) and not all(outcomes)
        replay = [objective.measure(config, seed=s).failed for s in range(40)]
        assert outcomes == replay


class TestBatchDeterminism:
    def _observations(self, *, workers: int):
        topology = make_topology("small")
        cluster = default_cluster()
        optimizer, codec = make_synthetic_optimizer(
            "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
        )
        objective = StormObjective(
            topology,
            cluster,
            codec,
            fidelity="analytic",
            faults=FaultPlan(FaultSpec.chaos(0.5, seed=9)),
        )
        executor = (
            ThreadPoolExecutor(objective, max_workers=workers)
            if workers > 1
            else None
        )
        try:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=8,
                strategy_name="pla",
                executor=executor,
                batch_size=workers if workers > 1 else None,
                seed=1234,
            )
            result = loop.run()
        finally:
            if executor is not None:
                executor.close()
        return {
            (tuple(sorted(o.config.items())), o.value, o.failed)
            for o in result.observations
        }

    def test_serial_and_batch4_fault_identically(self):
        assert self._observations(workers=1) == self._observations(workers=4)
