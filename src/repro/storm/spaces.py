"""Codecs: map optimizer parameter dicts to :class:`TopologyConfig`.

Optimizers (``repro.core``) speak flat dictionaries over a
:class:`~repro.core.parameters.ParameterSpace`; the execution engines
speak :class:`~repro.storm.config.TopologyConfig`.  A codec owns both
sides: it declares the searchable space for one of the paper's
experiment setups and decodes proposals into deployable configurations.

The provided codecs correspond to the paper's parameter sets:

* :class:`ParallelismCodec` — one integer hint per operator plus the
  max-tasks cap (the bo runs of §V-A);
* :class:`UniformHintCodec` — a single uniform hint (pla);
* :class:`InformedMultiplierCodec` — one float multiplier over the base
  parallelism weights (ipla / ibo);
* :class:`SundogParameterCodec` — Figure 8's parameter sets ``h``,
  ``h+bs+bp`` and ``bs+bp+cc`` via its ``include`` flags.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Mapping

import numpy as np

from repro.core.informed import InformedParallelismCodec
from repro.core.parameters import FloatParameter, IntParameter, Parameter, ParameterSpace
from repro.storm.analytic_batch import ConfigArrays
from repro.storm.cluster import ClusterSpec
from repro.storm.config import TopologyConfig
from repro.storm.topology import Topology

#: Prefix used for per-operator hint parameters in flat dicts.
HINT_PREFIX = "hint__"


class ConfigCodec(abc.ABC):
    """Translates flat parameter dicts into topology configurations."""

    space: ParameterSpace

    @abc.abstractmethod
    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        """Build the deployable configuration for one proposal."""

    @abc.abstractmethod
    def decode_matrix(self, U: np.ndarray) -> ConfigArrays:
        """Decode an ``(N, dim)`` unit-cube matrix in one array pass.

        Row ``i`` equals ``decode(space.decode(U[i]))`` as
        :meth:`ConfigArrays.from_configs` would lay it out.
        """


def default_max_hint(topology: Topology, cluster: ClusterSpec) -> int:
    """Per-operator hint ceiling for the searchable space.

    Sized so a topology-wide setting of the ceiling oversubscribes the
    cluster's cores several times — large enough that skewed operators
    can get the parallelism they need (and over-parallelization is
    reachable, and punishable), small enough that the integer grid
    stays meaningful for the GP.
    """
    per_op = math.ceil(6.0 * cluster.total_cores / len(topology))
    return max(8, min(64, per_op))


class ParallelismCodec(ConfigCodec):
    """One hint per operator plus the max-tasks cap (paper §V-A)."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig | None = None,
        *,
        max_hint: int | None = None,
        include_max_tasks: bool = True,
    ) -> None:
        self.topology = topology
        self.base_config = base_config or TopologyConfig(
            num_workers=cluster.total_workers
        )
        self.max_hint = max_hint or default_max_hint(topology, cluster)
        self.include_max_tasks = include_max_tasks
        params: list[Parameter] = [
            IntParameter(f"{HINT_PREFIX}{name}", 1, self.max_hint)
            for name in topology.topological_order()
        ]
        if include_max_tasks:
            n_ops = len(topology)
            cap = max(n_ops + 1, cluster.max_total_executors)
            params.append(IntParameter("max_tasks", n_ops, cap))
        self.space = ParameterSpace(params)

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        hints = {
            name: int(params[f"{HINT_PREFIX}{name}"])  # type: ignore[arg-type]
            for name in self.topology.topological_order()
        }
        max_tasks = (
            int(params["max_tasks"])  # type: ignore[arg-type]
            if self.include_max_tasks
            else self.base_config.max_tasks
        )
        return self.base_config.replace(
            parallelism_hints=hints, max_tasks=max_tasks
        )

    def decode_matrix(self, U: np.ndarray) -> ConfigArrays:
        values = self.space.decode_matrix(U).astype(np.int64)
        n, n_ops = len(values), len(self.topology)
        arrays = ConfigArrays.broadcast(self.base_config, self.topology, n)
        if self.include_max_tasks:
            arrays = arrays._replace(
                max_tasks=values[:, n_ops], has_cap=np.ones(n, dtype=bool)
            )
        return arrays._replace(hints=values[:, :n_ops])


class UniformHintCodec(ConfigCodec):
    """A single ``uniform_hint`` knob — the pla baseline's view."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig | None = None,
        *,
        max_hint: int | None = None,
    ) -> None:
        self.topology = topology
        self.base_config = base_config or TopologyConfig(
            num_workers=cluster.total_workers
        )
        self.max_hint = max_hint or default_max_hint(topology, cluster)
        self.space = ParameterSpace([IntParameter("uniform_hint", 1, self.max_hint)])

    def ascent_values(self, max_steps: int = 60) -> list[int]:
        """The pla schedule: hints 1, 2, 3, ... up to the budget."""
        return list(range(1, min(self.max_hint, max_steps) + 1))

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        hint = int(params["uniform_hint"])  # type: ignore[arg-type]
        hints = {name: hint for name in self.topology}
        return self.base_config.replace(parallelism_hints=hints, max_tasks=None)

    def decode_matrix(self, U: np.ndarray) -> ConfigArrays:
        hint = self.space.decode_matrix(U)[:, 0].astype(np.int64)
        uncapped = self.base_config.replace(max_tasks=None)
        arrays = ConfigArrays.broadcast(uncapped, self.topology, len(hint))
        return arrays._replace(
            hints=np.repeat(hint[:, None], len(self.topology), axis=1)
        )


class InformedMultiplierCodec(ConfigCodec):
    """One float multiplier over base parallelism weights (ipla / ibo)."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig | None = None,
        *,
        max_multiplier: float | None = None,
    ) -> None:
        self.topology = topology
        self.base_config = base_config or TopologyConfig(
            num_workers=cluster.total_workers
        )
        self.informed = InformedParallelismCodec(topology)
        if max_multiplier is None:
            # Reach slightly beyond the executor capacity so the informed
            # ascent can also run into the failure wall.
            cap_tasks = cluster.max_total_executors
            max_multiplier = 1.2 * cap_tasks / self.informed.total_weight
        self.max_multiplier = max(max_multiplier, 10.0 * self.informed.multiplier_step())
        low = min(self.informed.multiplier_step() / 4.0, self.max_multiplier / 100.0)
        self.space = ParameterSpace(
            [FloatParameter("multiplier", low, self.max_multiplier)]
        )

    def ascent_values(self, max_steps: int = 60) -> list[float]:
        """The ipla schedule: multiplier raised by one step per run."""
        step = self.informed.multiplier_step()
        return [step * i for i in range(1, max_steps + 1)]

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        multiplier = float(params["multiplier"])  # type: ignore[arg-type]
        hints = self.informed.hints_for(multiplier)
        return self.base_config.replace(parallelism_hints=hints, max_tasks=None)

    def decode_matrix(self, U: np.ndarray) -> ConfigArrays:
        hints = self.informed.hints_matrix(self.space.decode_matrix(U)[:, 0])
        uncapped = self.base_config.replace(max_tasks=None)
        arrays = ConfigArrays.broadcast(uncapped, self.topology, len(hints))
        return arrays._replace(hints=hints)


class SundogParameterCodec(ConfigCodec):
    """Figure 8's parameter sets over the Sundog topology.

    ``include`` selects parameter groups:

    * ``"h"`` — per-operator parallelism hints (plus max-tasks),
    * ``"bs"`` / ``"bp"`` — Trident batch size and batch parallelism,
    * ``"cc"`` — concurrency parameters (worker threads, receiver
      threads, ackers).

    Groups not included stay at the ``base_config`` values (the Sundog
    developers' manual settings); for the ``bs bp cc`` experiment the
    paper fixes every hint to the best pla value via ``fixed_hint``.
    """

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig,
        *,
        include: Iterable[str] = ("h",),
        fixed_hint: int | None = None,
        max_hint: int | None = None,
        batch_size_bounds: tuple[int, int] = (1_000, 500_000),
        batch_parallelism_bounds: tuple[int, int] = (1, 32),
    ) -> None:
        include_set = set(include)
        unknown = include_set - {"h", "bs", "bp", "cc"}
        if unknown:
            raise ValueError(f"unknown parameter groups: {sorted(unknown)}")
        if not include_set:
            raise ValueError("at least one parameter group required")
        self.topology = topology
        self.base_config = base_config
        self.include = include_set
        self.fixed_hint = fixed_hint
        self.max_hint = max_hint or default_max_hint(topology, cluster)

        params: list[Parameter] = []
        if "h" in include_set:
            params.extend(
                IntParameter(f"{HINT_PREFIX}{name}", 1, self.max_hint)
                for name in topology.topological_order()
            )
            n_ops = len(topology)
            cap = max(n_ops + 1, cluster.max_total_executors)
            params.append(IntParameter("max_tasks", n_ops, cap))
        if "bs" in include_set:
            params.append(
                IntParameter("batch_size", *batch_size_bounds, log=True)
            )
        if "bp" in include_set:
            params.append(IntParameter("batch_parallelism", *batch_parallelism_bounds))
        if "cc" in include_set:
            params.append(IntParameter("worker_threads", 1, 32))
            params.append(IntParameter("receiver_threads", 1, 8))
            params.append(IntParameter("ackers", 1, 4 * cluster.total_workers))
        self.space = ParameterSpace(params)

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        config = self.base_config
        if "h" in self.include:
            hints = {
                name: int(params[f"{HINT_PREFIX}{name}"])  # type: ignore[arg-type]
                for name in self.topology.topological_order()
            }
            config = config.replace(
                parallelism_hints=hints,
                max_tasks=int(params["max_tasks"]),  # type: ignore[arg-type]
            )
        elif self.fixed_hint is not None:
            hints = {name: self.fixed_hint for name in self.topology}
            config = config.replace(parallelism_hints=hints, max_tasks=None)
        if "bs" in self.include:
            config = config.replace(batch_size=int(params["batch_size"]))  # type: ignore[arg-type]
        if "bp" in self.include:
            config = config.replace(
                batch_parallelism=int(params["batch_parallelism"])  # type: ignore[arg-type]
            )
        if "cc" in self.include:
            config = config.replace(
                worker_threads=int(params["worker_threads"]),  # type: ignore[arg-type]
                receiver_threads=int(params["receiver_threads"]),  # type: ignore[arg-type]
                ackers=int(params["ackers"]),  # type: ignore[arg-type]
            )
        return config

    def decode_matrix(self, U: np.ndarray) -> ConfigArrays:
        values = self.space.decode_matrix(U).astype(np.int64)
        n = len(values)
        column = dict(zip(self.space.names, values.T))
        config = self.base_config
        changes: dict[str, np.ndarray] = {}
        if "h" in self.include:
            changes.update(
                hints=values[:, : len(self.topology)],
                max_tasks=column["max_tasks"],
                has_cap=np.ones(n, dtype=bool),
            )
        elif self.fixed_hint is not None:
            hints = {name: self.fixed_hint for name in self.topology}
            config = config.replace(parallelism_hints=hints, max_tasks=None)
        if "bs" in self.include:
            changes["batch_size"] = column["batch_size"]
        if "bp" in self.include:
            changes["batch_parallelism"] = column["batch_parallelism"]
        if "cc" in self.include:
            changes.update(
                worker_threads=column["worker_threads"],
                receiver_threads=column["receiver_threads"],
                n_ackers=column["ackers"],
            )
        return ConfigArrays.broadcast(config, self.topology, n)._replace(**changes)
