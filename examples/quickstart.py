#!/usr/bin/env python
"""Quickstart: tune a Storm topology's parallelism with Bayesian Optimization.

This is the paper's core loop in ~60 lines:

1. build a stream-processing topology (spouts, bolts, groupings),
2. wrap it in a simulated cluster deployment (the black-box objective),
3. let the Bayesian optimizer choose parallelism hints,
4. compare against the paper's parallel-linear-ascent baseline.

Run:  python examples/quickstart.py
"""

from repro.core import BayesianOptimizer, ParallelLinearAscent, TuningLoop
from repro.storm import StormObjective, TopologyBuilder, TopologyConfig
from repro.storm.cluster import paper_cluster
from repro.storm.noise import GaussianNoise
from repro.storm.spaces import ParallelismCodec, UniformHintCodec


def build_topology():
    """A small ETL pipeline: ingest -> parse -> enrich -> two outputs.

    The enrich bolt calls a shared external service, so adding tasks to
    it only adds contention (paper §IV-B2).
    """
    builder = TopologyBuilder("etl")
    builder.spout("ingest", cost=2.0, tuple_bytes=512)
    builder.bolt("parse", inputs=["ingest"], cost=8.0)
    builder.bolt("enrich", inputs=["parse"], cost=6.0, contentious=True)
    builder.bolt("aggregate", inputs=["parse"], cost=12.0)
    builder.bolt("store", inputs=["enrich", "aggregate"], cost=4.0)
    return builder.build()


def main():
    topology = build_topology()
    cluster = paper_cluster()  # the paper's 80-machine / 320-core testbed
    base = TopologyConfig(batch_size=500, batch_parallelism=8, num_workers=80)

    # --- baseline: parallel linear ascent (same hint everywhere) -------
    uniform = UniformHintCodec(topology, cluster, base)
    pla = ParallelLinearAscent("uniform_hint", uniform.ascent_values(60))
    pla_objective = StormObjective(
        topology, cluster, uniform, noise=GaussianNoise(0.03)
    )
    pla_result = TuningLoop(
        pla_objective, pla, max_steps=60, repeat_best=10, strategy_name="pla", seed=1
    ).run()

    # --- Bayesian Optimization over per-operator hints ------------------
    codec = ParallelismCodec(topology, cluster, base)
    objective = StormObjective(topology, cluster, codec, noise=GaussianNoise(0.03))
    bo = BayesianOptimizer(codec.space, acquisition="ei", seed=0)
    bo_result = TuningLoop(
        objective, bo, max_steps=40, repeat_best=10, strategy_name="bo", seed=2
    ).run()

    print(f"topology: {topology.name} with operators {list(topology)}")
    for result in (pla_result, bo_result):
        mean, lo, hi = result.rerun_summary()
        print(
            f"{result.strategy:>4}: best {mean:8.1f} tuples/s "
            f"[{lo:.1f}, {hi:.1f}] found at step {result.best_step}"
        )
    hints = codec.decode(bo_result.best_config).normalized_hints(topology)
    print("bo's chosen hints:", hints)
    print(
        f"the contentious 'enrich' bolt got {hints['enrich']} tasks, "
        f"'aggregate' (the heavy parallelizable bolt) {hints['aggregate']}"
    )


if __name__ == "__main__":
    main()
