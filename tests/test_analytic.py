"""Analytic performance model: mechanisms, caps, and failure modes."""

from __future__ import annotations

import pytest

from repro.core.seeding import derive_seed
from repro.storm.analytic import AnalyticPerformanceModel, CalibrationParams
from repro.storm.cluster import ClusterSpec, MachineSpec
from repro.storm.config import TopologyConfig
from repro.storm.faults import FaultPlan, FaultSpec
from repro.storm.noise import GaussianNoise
from repro.storm.simulation import DiscreteEventSimulator
from repro.storm.topology import TopologyBuilder, linear_topology


def quiet_calibration(**overrides) -> CalibrationParams:
    """Calibration with overheads disabled for clean hand calculations."""
    defaults = dict(
        batch_overhead_ms=0.0,
        context_switch_kappa=0.0,
        per_task_cpu_overhead=0.0,
        pool_oversubscription_weight=0.0,
        ack_cost_units=1e-9,
        batch_timeout_ms=1e12,
        stage_overhead_ms=0.0,
    )
    defaults.update(overrides)
    return CalibrationParams(**defaults)


@pytest.fixture
def big_cluster():
    return ClusterSpec(
        n_machines=10,
        machine=MachineSpec(cores=4, memory_mb=8192),
        max_executors_per_worker=50,
    )


class TestHandComputedThroughput:
    def test_single_stage_rate(self, big_cluster):
        """One spout at cost 10 with n tasks: rate = n / 10 tuples/ms."""
        builder = TopologyBuilder("solo")
        builder.spout("s", cost=10.0)
        builder.bolt("sink", inputs=["s"], cost=1e-9)
        topo = builder.build()
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={"s": 4, "sink": 40},
            batch_size=100,
            batch_parallelism=100,  # pipeline never binds
            ackers=0,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        # stage cap: 4 tasks / 10 units = 0.4 tuples/ms = 400 tuples/s
        assert run.throughput_tps == pytest.approx(400.0, rel=1e-6)
        assert run.details["limiting_cap"] == "bottleneck_stage"

    def test_cpu_saturation_cap(self, big_cluster):
        """With abundant tasks the 40-core budget bounds throughput."""
        topo = linear_topology("chain", 1, cost=10.0, spout_cost=10.0)
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={n: 100 for n in topo},
            batch_size=100,
            batch_parallelism=100,
            ackers=0,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        # 40 cores / 20 units per tuple = 2 tuples/ms = 2000 tuples/s
        assert run.throughput_tps == pytest.approx(2000.0, rel=1e-6)
        assert run.details["limiting_cap"] == "cpu_saturation"

    def test_pipeline_fill_cap(self, big_cluster):
        """With P=1 the batch rate is 1 / latency."""
        topo = linear_topology("chain", 1, cost=10.0, spout_cost=10.0)
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={n: 1 for n in topo},
            batch_size=100,
            batch_parallelism=1,
            ackers=0,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        # Each stage: 100 tuples * 10 units / 1 task = 1000 ms; latency
        # 2000 ms; rate = 1 batch / 2 s -> 50 tuples/s.
        assert run.batch_latency_ms == pytest.approx(2000.0)
        assert run.throughput_tps == pytest.approx(50.0, rel=1e-6)
        assert run.details["limiting_cap"] == "pipeline_fill"

    def test_batch_overhead_amortized_by_batch_size(self, big_cluster):
        topo = linear_topology("chain", 1, cost=1.0, spout_cost=1.0)
        cal = quiet_calibration(batch_overhead_ms=100.0)
        model = AnalyticPerformanceModel(topo, big_cluster, cal)

        def tput(batch_size):
            config = TopologyConfig(
                parallelism_hints={n: 4 for n in topo},
                batch_size=batch_size,
                batch_parallelism=1,
                ackers=0,
                num_workers=10,
            )
            return model.evaluate_noise_free(config).throughput_tps

        # Larger batches amortize the fixed 100 ms overhead.
        assert tput(2000) > 1.5 * tput(200)


class TestContention:
    def make_model(self, big_cluster, contentious):
        builder = TopologyBuilder("cont")
        builder.spout("s", cost=1.0)
        builder.bolt("db", inputs=["s"], cost=10.0, contentious=contentious)
        return AnalyticPerformanceModel(
            builder.build(), big_cluster, quiet_calibration()
        )

    def config(self, db_tasks):
        return TopologyConfig(
            parallelism_hints={"s": 20, "db": db_tasks},
            batch_size=100,
            batch_parallelism=100,
            ackers=0,
            num_workers=10,
        )

    def test_parallelism_helps_normal_bolt(self, big_cluster):
        model = self.make_model(big_cluster, contentious=False)
        t1 = model.evaluate_noise_free(self.config(1)).throughput_tps
        t4 = model.evaluate_noise_free(self.config(4)).throughput_tps
        assert t4 == pytest.approx(4 * t1, rel=1e-6)

    def test_parallelism_negated_for_contentious_bolt(self, big_cluster):
        """§IV-B2: more tasks on a contentious bolt do not raise throughput."""
        model = self.make_model(big_cluster, contentious=True)
        t1 = model.evaluate_noise_free(self.config(1)).throughput_tps
        t4 = model.evaluate_noise_free(self.config(4)).throughput_tps
        assert t4 == pytest.approx(t1, rel=1e-6)

    def test_contentious_tasks_still_burn_cpu(self, big_cluster):
        """Extra contentious tasks consume CPU budget without benefit."""
        model = self.make_model(big_cluster, contentious=True)
        run1 = model.evaluate_noise_free(self.config(1))
        run8 = model.evaluate_noise_free(self.config(8))
        assert (
            run8.details["total_work_ms"] > 4 * run1.details["total_work_ms"]
        )


class TestFailures:
    def test_executor_capacity_failure(self, big_cluster):
        topo = linear_topology("chain", 1)
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={n: 300 for n in topo}, ackers=0, num_workers=10
        )
        run = model.evaluate_noise_free(config)
        assert run.failed
        assert run.throughput_tps == 0.0
        assert "executors" in run.failure_reason

    def test_batch_timeout_failure(self, big_cluster):
        topo = linear_topology("chain", 1, cost=100.0, spout_cost=100.0)
        cal = quiet_calibration(batch_timeout_ms=1000.0)
        model = AnalyticPerformanceModel(topo, big_cluster, cal)
        config = TopologyConfig(
            parallelism_hints={n: 1 for n in topo},
            batch_size=1000,
            ackers=0,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        assert run.failed
        assert "timeout" in run.failure_reason

    def test_memory_failure_on_huge_batches(self, big_cluster):
        topo = linear_topology("chain", 1)
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={n: 1 for n in topo},
            batch_size=10_000_000,
            batch_parallelism=32,
            ackers=0,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        assert run.failed
        assert "memory" in run.failure_reason

    def test_max_tasks_normalization_avoids_capacity_failure(self, big_cluster):
        topo = linear_topology("chain", 1)
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={n: 300 for n in topo},
            max_tasks=100,
            ackers=0,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        assert not run.failed


class TestOverheads:
    def test_context_switch_penalty_kicks_in(self, big_cluster):
        topo = linear_topology("chain", 1, cost=1e-6, spout_cost=1e-6)
        cal = quiet_calibration(context_switch_kappa=0.5)
        model = AnalyticPerformanceModel(topo, big_cluster, cal)
        lean = TopologyConfig(
            parallelism_hints={n: 2 for n in topo}, ackers=0, num_workers=10
        )
        bloated = TopologyConfig(
            parallelism_hints={n: 200 for n in topo},
            max_tasks=400,
            ackers=0,
            num_workers=10,
        )
        eta_lean = model.evaluate_noise_free(lean).details["eta"]
        eta_bloated = model.evaluate_noise_free(bloated).details["eta"]
        assert eta_bloated < eta_lean

    def test_per_task_overhead_reduces_efficiency(self, big_cluster):
        topo = linear_topology("chain", 1)
        cal = quiet_calibration(per_task_cpu_overhead=0.05)
        model = AnalyticPerformanceModel(topo, big_cluster, cal)
        small = TopologyConfig(
            parallelism_hints={n: 1 for n in topo}, ackers=0, num_workers=10
        )
        large = TopologyConfig(
            parallelism_hints={n: 100 for n in topo},
            max_tasks=200,
            ackers=0,
            num_workers=10,
        )
        assert (
            model.evaluate_noise_free(large).details["eta"]
            < model.evaluate_noise_free(small).details["eta"]
        )

    def test_worker_threads_limit_usable_cores(self, big_cluster):
        topo = linear_topology("chain", 1, cost=10.0, spout_cost=10.0)
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())

        def tput(worker_threads):
            config = TopologyConfig(
                parallelism_hints={n: 100 for n in topo},
                batch_size=100,
                batch_parallelism=100,
                worker_threads=worker_threads,
                ackers=0,
                num_workers=10,
            )
            return model.evaluate_noise_free(config).throughput_tps

        assert tput(1) == pytest.approx(tput(4) / 4, rel=1e-6)
        assert tput(8) == pytest.approx(tput(4), rel=1e-6)  # capped by cores

    def test_acker_capacity_can_bind(self, big_cluster):
        topo = linear_topology("chain", 1, cost=0.001, spout_cost=0.001)
        cal = quiet_calibration(ack_cost_units=0.5)
        model = AnalyticPerformanceModel(topo, big_cluster, cal)
        config = TopologyConfig(
            parallelism_hints={n: 20 for n in topo},
            batch_size=1000,
            batch_parallelism=50,
            ackers=1,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        assert run.details["limiting_cap"] == "acker"


class TestNetworkAccounting:
    def test_single_machine_has_no_remote_traffic(self):
        cluster = ClusterSpec(n_machines=1, machine=MachineSpec(cores=4))
        topo = linear_topology("chain", 2)
        model = AnalyticPerformanceModel(topo, cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={n: 2 for n in topo}, ackers=0, num_workers=1
        )
        run = model.evaluate_noise_free(config)
        # Only source-ingest bytes remain.
        remote, remote_bytes, ingest = model._network_demand(
            float(config.batch_size), config.normalized_hints(topo)
        )
        assert remote == 0.0 and remote_bytes == 0.0 and ingest > 0

    def test_network_load_scales_with_tuple_bytes(self, big_cluster):
        def run_with_bytes(nbytes):
            builder = TopologyBuilder("net")
            builder.spout("s", cost=1.0, tuple_bytes=nbytes)
            builder.bolt("b", inputs=["s"], cost=1.0, tuple_bytes=nbytes)
            topo = builder.build()
            model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
            config = TopologyConfig(
                parallelism_hints={"s": 4, "b": 4}, ackers=0, num_workers=10
            )
            return model.evaluate_noise_free(config)

        small = run_with_bytes(100)
        large = run_with_bytes(10_000)
        assert large.network_mb_per_worker_s > 50 * small.network_mb_per_worker_s

    def test_nic_cap_binds_for_fat_tuples(self, big_cluster):
        builder = TopologyBuilder("fat")
        builder.spout("s", cost=0.001, tuple_bytes=1_000_000)
        builder.bolt("b", inputs=["s"], cost=0.001, tuple_bytes=1_000_000)
        topo = builder.build()
        model = AnalyticPerformanceModel(topo, big_cluster, quiet_calibration())
        config = TopologyConfig(
            parallelism_hints={"s": 10, "b": 10},
            batch_size=10,
            batch_parallelism=50,
            ackers=0,
            num_workers=10,
        )
        run = model.evaluate_noise_free(config)
        assert run.details["limiting_cap"] in ("nic", "receiver")


class TestNoiseIntegration:
    def test_noise_free_is_deterministic(self, big_cluster):
        topo = linear_topology("chain", 1)
        model = AnalyticPerformanceModel(topo, big_cluster)
        config = TopologyConfig(
            parallelism_hints={n: 2 for n in topo}, ackers=0, num_workers=10
        )
        a = model.evaluate_noise_free(config).throughput_tps
        b = model.evaluate_noise_free(config).throughput_tps
        assert a == b

    def test_noisy_evaluations_vary(self, big_cluster):
        topo = linear_topology("chain", 1)
        model = AnalyticPerformanceModel(
            topo, big_cluster, noise=GaussianNoise(0.05), seed=1
        )
        config = TopologyConfig(
            parallelism_hints={n: 2 for n in topo}, ackers=0, num_workers=10
        )
        values = {model.evaluate(config).throughput_tps for _ in range(5)}
        assert len(values) > 1

    @pytest.mark.parametrize(
        "engine_cls", [AnalyticPerformanceModel, DiscreteEventSimulator]
    )
    def test_unseeded_calls_take_the_engines_next_eval_seed(
        self, big_cluster, engine_cls
    ):
        """The n-th unseeded evaluation equals an explicit
        ``derive_seed(engine seed, "eval", n)`` one — noise and faults."""
        topo = linear_topology("chain", 1)
        configs = [
            TopologyConfig(
                parallelism_hints={n: h for n in topo}, ackers=0, num_workers=10
            )
            for h in (1, 2, 3, 2, 1, 2, 3, 2)
        ]

        def engine():
            return engine_cls(
                topo,
                big_cluster,
                noise=GaussianNoise(0.05),
                seed=7,
                faults=FaultPlan(FaultSpec.chaos(0.5, seed=1)),
            )

        unseeded = engine()
        seeded = engine()
        implicit = [unseeded.evaluate(c) for c in configs]
        explicit = [
            seeded.evaluate(c, seed=derive_seed(7, "eval", n))
            for n, c in enumerate(configs)
        ]
        assert implicit == explicit
        assert any(run.failed for run in implicit)
        assert len({run.throughput_tps for run in implicit}) > 2
        if engine_cls is AnalyticPerformanceModel:
            batch = engine().evaluate_batch(configs)
            assert batch == explicit

    def test_callable_interface(self, big_cluster):
        topo = linear_topology("chain", 1)
        model = AnalyticPerformanceModel(topo, big_cluster)
        config = TopologyConfig(
            parallelism_hints={n: 2 for n in topo}, ackers=0, num_workers=10
        )
        assert model(config) > 0
