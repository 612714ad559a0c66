#!/usr/bin/env python
"""Tune generated synthetic topologies — the paper's §V-A experiment.

Generates a layer-by-layer topology (GGen method), applies the paper's
workload perturbations (time-complexity imbalance, resource contention),
and compares all four strategies: pla, bo, ipla, ibo.

Run:  python examples/tune_synthetic.py [small|medium|large]
"""

import sys

from repro.core import (
    BayesianOptimizer,
    ParallelLinearAscent,
    TuningLoop,
    base_parallelism_weights,
)
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.report import render_table
from repro.storm import StormObjective
from repro.storm.noise import GaussianNoise
from repro.storm.spaces import (
    InformedMultiplierCodec,
    ParallelismCodec,
    UniformHintCodec,
)
from repro.topology_gen.suite import TopologyCondition, make_topology

STEPS_BASELINE = 60
STEPS_BO = 30


def run_strategy(name, topology, cluster, seed=0):
    base = SYNTHETIC_BASE_CONFIG
    if name == "pla":
        codec = UniformHintCodec(topology, cluster, base)
        optimizer = ParallelLinearAscent(
            "uniform_hint", codec.ascent_values(STEPS_BASELINE)
        )
        steps = STEPS_BASELINE
    elif name == "ipla":
        codec = InformedMultiplierCodec(topology, cluster, base)
        optimizer = ParallelLinearAscent(
            "multiplier", codec.ascent_values(STEPS_BASELINE)
        )
        steps = STEPS_BASELINE
    elif name == "bo":
        codec = ParallelismCodec(topology, cluster, base)
        optimizer = BayesianOptimizer(codec.space, seed=seed)
        steps = STEPS_BO
    elif name == "ibo":
        codec = InformedMultiplierCodec(topology, cluster, base)
        optimizer = BayesianOptimizer(codec.space, seed=seed)
        steps = STEPS_BO
    else:
        raise ValueError(name)
    objective = StormObjective(topology, cluster, codec, noise=GaussianNoise(0.03))
    result = TuningLoop(
        objective,
        optimizer,
        max_steps=steps,
        repeat_best=10,
        strategy_name=name,
        seed=seed + 100,
    ).run()
    return result


def main():
    size = sys.argv[1] if len(sys.argv) > 1 else "small"
    condition = TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    topology = make_topology(size, condition)
    cluster = default_cluster()

    print(f"generated topology: {topology.stats()}")
    weights = base_parallelism_weights(topology)
    heaviest = max(weights, key=lambda n: weights[n])
    print(
        f"base parallelism weights: spouts 1.0, heaviest operator "
        f"{heaviest} at {weights[heaviest]:.1f}"
    )

    rows = []
    for strategy in ("pla", "bo", "ipla", "ibo"):
        result = run_strategy(strategy, topology, cluster)
        mean, lo, hi = result.rerun_summary()
        rows.append(
            {
                "Strategy": strategy,
                "tuples/s": round(mean, 1),
                "min": round(lo, 1),
                "max": round(hi, 1),
                "best step": result.best_step,
                "steps run": result.n_steps,
            }
        )
    print()
    print(render_table(rows))
    print(
        "\nexpected shape (paper Figure 4, 100% TiIm row): informed "
        "strategies (ipla/ibo) lead; bo partially compensates for the "
        "missing topology information relative to pla"
    )


if __name__ == "__main__":
    main()
