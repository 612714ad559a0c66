#!/usr/bin/env python
"""What-if capacity planning: re-tune the same topology as the cluster grows.

The paper tunes one fixed 80-machine cluster; because our substrate is a
simulator, the same machinery answers a question the authors could not:
how do the *optimal configuration* and the achievable throughput change
with cluster size?  This example re-runs Bayesian Optimization on the
medium imbalanced topology for 10/20/40/80-machine clusters and shows
how the winning parallelism budget scales.

Run:  python examples/cluster_whatif.py
"""

from repro.core import BayesianOptimizer, TuningLoop
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG
from repro.experiments.report import render_table
from repro.storm import StormObjective
from repro.storm.cluster import ClusterSpec, MachineSpec
from repro.storm.noise import GaussianNoise
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import TopologyCondition, make_topology

STEPS = 30


def tune_on(n_machines: int, topology):
    cluster = ClusterSpec(
        n_machines=n_machines,
        machine=MachineSpec(cores=4, memory_mb=8192),
        max_executors_per_worker=50,
    )
    base = SYNTHETIC_BASE_CONFIG.replace(num_workers=cluster.total_workers)
    codec = ParallelismCodec(topology, cluster, base)
    objective = StormObjective(
        topology, cluster, codec, noise=GaussianNoise(0.05)
    )
    optimizer = BayesianOptimizer(codec.space, seed=7)
    result = TuningLoop(
        objective, optimizer, max_steps=STEPS, repeat_best=8, seed=n_machines
    ).run()
    best = codec.decode(result.best_config)
    return result, sum(best.normalized_hints(topology).values()), cluster


def main():
    topology = make_topology(
        "medium", TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    )
    print(f"topology: {topology.stats()}")
    rows = []
    previous = None
    for n_machines in (10, 20, 40, 80):
        result, total_tasks, cluster = tune_on(n_machines, topology)
        mean, lo, hi = result.rerun_summary()
        scaling = f"{mean / previous:.2f}x" if previous is not None else "-"
        previous = mean
        rows.append(
            {
                "machines": n_machines,
                "cores": cluster.total_cores,
                "tuples/s": round(mean, 1),
                "min": round(lo, 1),
                "max": round(hi, 1),
                "tuned total tasks": total_tasks,
                "vs previous": scaling,
            }
        )
    print(render_table(rows))
    print(
        "\nthe tuned task budget grows with the hardware while per-step "
        "scaling stays below 2x — coordination overheads (ackers, batch "
        "commits, timeouts) absorb part of each doubling, which is why "
        "re-tuning per deployment matters"
    )


if __name__ == "__main__":
    main()
