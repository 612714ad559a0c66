#!/usr/bin/env python
"""Tune a Linear Road-style tolling topology.

Linear Road (Arasu et al., VLDB 2004) is the classic stream-processing
benchmark the paper's Table III cites twice: vehicles on a simulated
expressway emit position reports; the system computes segment
statistics, detects accidents, and issues dynamic toll notifications.
This example builds a Linear Road-shaped Storm topology — position
ingest fanning into segment-statistics, accident-detection and
account-balance branches that join at toll assessment — and tunes it
with Bayesian Optimization against the parallel linear ascent.

The accident-detection branch queries a shared historical store, making
it contention-limited: the optimizer must learn to starve it of tasks
while feeding the embarrassingly parallel statistics branch.

Run:  python examples/linear_road.py
"""

from repro.core import BayesianOptimizer, ParallelLinearAscent, TuningLoop
from repro.experiments.report import render_table
from repro.storm import StormObjective, TopologyBuilder, TopologyConfig
from repro.storm.cluster import paper_cluster
from repro.storm.noise import GaussianNoise
from repro.storm.spaces import ParallelismCodec, UniformHintCodec


def linear_road_topology():
    builder = TopologyBuilder("linear-road")
    # Position reports: one tuple per vehicle per 30s (L=1 expressway).
    builder.spout("position_reports", cost=0.5, tuple_bytes=64)
    # Dispatch by report type (99% position, 1% account queries).
    builder.bolt("dispatch", inputs=["position_reports"], cost=0.5)
    # Segment statistics: per-segment vehicle counts and average speed.
    builder.bolt("segment_stats", inputs=["dispatch"], cost=6.0, selectivity=1.0)
    # Accident detection needs the last 4 reports of every stopped car —
    # a shared historical table, so parallelism only adds contention.
    builder.bolt(
        "accident_detect",
        inputs=["dispatch"],
        cost=3.0,
        contentious=True,
        selectivity=0.05,
    )
    # Toll calculation joins statistics and accident alerts.
    builder.bolt("toll_calc", inputs=["segment_stats", "accident_detect"], cost=4.0)
    # Balance updates and notifications.
    builder.bolt("balance_update", inputs=["toll_calc"], cost=2.0)
    builder.bolt("notify", inputs=["toll_calc"], cost=1.0, tuple_bytes=128)
    return builder.build()


def main():
    topology = linear_road_topology()
    cluster = paper_cluster()
    base = TopologyConfig(batch_size=2_000, batch_parallelism=8, num_workers=80)

    print(f"topology: {topology.stats()}")
    rows = []

    uniform = UniformHintCodec(topology, cluster, base)
    pla = ParallelLinearAscent("uniform_hint", uniform.ascent_values(60))
    pla_result = TuningLoop(
        StormObjective(topology, cluster, uniform, noise=GaussianNoise(0.05)),
        pla,
        max_steps=60,
        repeat_best=10,
        strategy_name="pla",
        seed=1,
    ).run()
    mean, lo, hi = pla_result.rerun_summary()
    rows.append(
        {"Strategy": "pla", "tuples/s": round(mean), "min": round(lo), "max": round(hi)}
    )

    codec = ParallelismCodec(topology, cluster, base)
    bo = BayesianOptimizer(codec.space, seed=0)
    bo_result = TuningLoop(
        StormObjective(topology, cluster, codec, noise=GaussianNoise(0.05)),
        bo,
        max_steps=40,
        repeat_best=10,
        strategy_name="bo",
        seed=2,
    ).run()
    mean, lo, hi = bo_result.rerun_summary()
    rows.append(
        {"Strategy": "bo", "tuples/s": round(mean), "min": round(lo), "max": round(hi)}
    )

    print(render_table(rows))
    best = codec.decode(bo_result.best_config)
    hints = best.normalized_hints(topology)
    print("\nbo's hints:", hints)

    # Demonstrate §IV-B2 on the tuned deployment: the accident detector
    # is gated on a shared store, so its parallelism is pure waste —
    # collapsing it to one task costs nothing (and saves executors).
    from repro.storm import AnalyticPerformanceModel

    model = AnalyticPerformanceModel(topology, cluster)
    tuned = model.evaluate_noise_free(best).throughput_tps
    starved = model.evaluate_noise_free(
        best.with_hints({"accident_detect": 1})
    ).throughput_tps
    print(
        f"throughput with accident_detect at {hints['accident_detect']} tasks: "
        f"{tuned:.0f} tuples/s; at 1 task: {starved:.0f} tuples/s — "
        f"parallelism on the contended branch buys nothing (paper §IV-B2)"
    )


if __name__ == "__main__":
    main()
