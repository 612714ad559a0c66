"""Measurement noise models.

The paper's runs were noisy: the testbed machines were student
workstations that could be in interactive use during evaluations
(§IV-C1), and two-minute windows sample a stochastic system.  The
optimizer explicitly assumes Gaussian observation noise (§III-C), so the
default model is multiplicative Gaussian jitter; an interference model
adds the occasional "a student sat down at the iMac" slowdown.  Every
observation draws from its own per-evaluation seed
(:func:`draw_observation`); there is no shared noise stream.
"""

from __future__ import annotations

import abc

import numpy as np


def draw_observation(noise: "NoiseModel", value: float, seed: int) -> float:
    """Apply ``noise`` to ``value`` from the stream named by ``seed``.

    Every draw gets a one-shot ``Generator`` of its own, so the observed
    value is a pure function of (value, seed): the order evaluations run
    or complete in can never change what any of them observes.
    """
    return noise(value, np.random.default_rng(seed))


class NoiseModel(abc.ABC):
    """Perturbs a noise-free throughput measurement."""

    @abc.abstractmethod
    def apply(self, value: float, rng: np.random.Generator) -> float:
        """Return the observed value for true value ``value``."""

    def __call__(self, value: float, rng: np.random.Generator) -> float:
        if value < 0:
            raise ValueError("value must be >= 0")
        if value == 0.0:
            return 0.0  # failed runs are observed as exactly zero
        return max(0.0, self.apply(value, rng))


class NoNoise(NoiseModel):
    """Deterministic observations (useful in tests)."""

    def apply(self, value: float, rng: np.random.Generator) -> float:
        return value


class GaussianNoise(NoiseModel):
    """Multiplicative Gaussian jitter: ``observed = value * N(1, sigma)``."""

    def __init__(self, sigma: float = 0.03) -> None:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.sigma = sigma

    def apply(self, value: float, rng: np.random.Generator) -> float:
        return value * rng.normal(1.0, self.sigma)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"GaussianNoise(sigma={self.sigma})"


class InterferenceNoise(NoiseModel):
    """Gaussian jitter plus occasional co-tenant interference bursts.

    With probability ``p_interference`` a measurement window overlaps
    interactive use of some machines, multiplying throughput by
    ``slowdown`` (< 1).  Matches the paper's caveat that student use of
    the iMacs could not be excluded.
    """

    def __init__(
        self,
        sigma: float = 0.03,
        p_interference: float = 0.05,
        slowdown: float = 0.7,
    ) -> None:
        if not 0.0 <= p_interference <= 1.0:
            raise ValueError("p_interference must be in [0, 1]")
        if not 0.0 < slowdown <= 1.0:
            raise ValueError("slowdown must be in (0, 1]")
        self.gaussian = GaussianNoise(sigma)
        self.p_interference = p_interference
        self.slowdown = slowdown

    def apply(self, value: float, rng: np.random.Generator) -> float:
        observed = self.gaussian.apply(value, rng)
        if rng.random() < self.p_interference:
            observed *= self.slowdown
        return observed

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InterferenceNoise(sigma={self.gaussian.sigma}, "
            f"p={self.p_interference}, slowdown={self.slowdown})"
        )
