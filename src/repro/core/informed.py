"""Informed optimization: base parallelism weights (paper §V-A).

For the synthetic topologies the authors also ran *informed* optimizers
that exploit topological information: every spout gets a base weight of
1 and every bolt's base weight is the sum of its parents' weights — a
structural proxy for the tuple volume each operator must absorb.  The
optimizer then only chooses a single multiplier for these weights
(a float, which is why the informed Bayesian optimizer pays slightly
more per step than the integer-space one, §V-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # import only for annotations: repro.storm imports
    # repro.core.informed at runtime, so the reverse import here must
    # stay type-checking-only to avoid a cycle.
    from repro.storm.topology import Topology


def base_parallelism_weights(topology: Topology) -> dict[str, float]:
    """Recursive base weights: spouts 1.0, bolts sum their parents.

    Computed in topological order so each parent is resolved before its
    children (the topology is a DAG by construction).
    """
    weights: dict[str, float] = {}
    for name in topology.topological_order():
        parents = topology.parents(name)
        if not parents:
            weights[name] = 1.0
        else:
            weights[name] = sum(weights[p] for p in parents)
    return weights


class InformedParallelismCodec:
    """Translate a single multiplier into per-operator parallelism hints.

    ``hints[o] = max(1, round(weight[o] * multiplier))``.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.weights = base_parallelism_weights(topology)
        self.total_weight = sum(self.weights.values())

    def hints_for(self, multiplier: float) -> dict[str, int]:
        row = self.hints_matrix([multiplier])[0]
        return dict(zip(self.weights, row.tolist()))

    def hints_matrix(self, multipliers: np.ndarray) -> np.ndarray:
        """``(N,)`` multipliers -> ``(N, O)`` hints, topological order.

        ``np.rint`` rounds ties to even, like Python's ``round``.
        """
        m = np.asarray(multipliers, dtype=float)
        if not (m > 0).all():
            raise ValueError("multiplier must be > 0")
        w = np.fromiter(self.weights.values(), dtype=float, count=len(self.weights))
        return np.maximum(1, np.rint(m[:, None] * w)).astype(np.int64)

    def multiplier_step(self) -> float:
        """Ascent step for the informed parallel linear ascent.

        Chosen so one step adds roughly one task per operator — the same
        granularity as the uninformed ascent's hint increment — keeping
        ipla and pla trajectories comparable.
        """
        return len(self.weights) / self.total_weight

    def multiplier_for_total_tasks(self, total_tasks: int) -> float:
        """Multiplier at which the weighted hints sum to ``total_tasks``."""
        if total_tasks < len(self.weights):
            raise ValueError("total_tasks below one task per operator")
        return total_tasks / self.total_weight


def informed_hint_table(
    topology: Topology, multipliers: Mapping[str, float] | list[float]
) -> dict[float, dict[str, int]]:
    """Hints for several multipliers at once (inspection helper)."""
    codec = InformedParallelismCodec(topology)
    if isinstance(multipliers, Mapping):
        values = list(multipliers.values())
    else:
        values = list(multipliers)
    return {float(m): codec.hints_for(float(m)) for m in values}
