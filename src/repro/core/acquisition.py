"""Acquisition functions and their optimizer.

The acquisition function trades off *exploration* (high posterior
variance) against *exploitation* (high posterior mean).  The paper uses
Mockus' Expected Improvement — Spearmint's default — and we also provide
Probability of Improvement and GP-UCB for the ablation benches
(DESIGN.md §6, A1).

All functions are phrased for **maximization** of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize as sopt
from scipy import special

from repro.core.gp import GaussianProcess
from repro.core.parameters import ParameterSpace


_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, bit-identical to ``scipy.stats.norm.pdf``
    without its ``rv_continuous`` argument handling."""
    return np.exp(-(z**2) / 2.0) / _SQRT_2PI


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """Mockus' Expected Improvement over the incumbent ``best``.

    ``EI(x) = E[max(0, f(x) - best - xi)]`` which for a Gaussian
    posterior has the closed form ``s * (z Phi(z) + phi(z))`` with
    ``z = (mu - best - xi) / s`` (paper §III-C).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = mean - best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = np.where(
        std > 0,
        improvement * special.ndtr(z) + std * _norm_pdf(z),
        np.maximum(improvement, 0.0),
    )
    return np.maximum(ei, 0.0)


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """P(f(x) > best + xi) under the Gaussian posterior."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = mean - best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    return np.where(std > 0, special.ndtr(z), (improvement > 0).astype(float))


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, best: float = 0.0, kappa: float = 2.0
) -> np.ndarray:
    """GP-UCB: ``mu + kappa * sigma`` (``best`` accepted for uniformity)."""
    return np.asarray(mean, dtype=float) + kappa * np.asarray(std, dtype=float)


ACQUISITIONS = {
    "ei": expected_improvement,
    "pi": probability_of_improvement,
    "ucb": upper_confidence_bound,
}


@dataclass
class Proposal:
    """The acquisition optimizer's chosen next sample."""

    x: np.ndarray  # unit-cube point, snapped to the space's grid
    acquisition_value: float
    n_candidates: int = 0  # size of the scored candidate pool
    n_refined: int = 0  # top candidates handed to L-BFGS-B refinement
    refine_iterations: int = 0  # total L-BFGS-B iterations across them
    n_screened_out: int = 0  # candidates the feasibility screener rejected


class AcquisitionOptimizer:
    """Maximize an acquisition function over a parameter space.

    Strategy (Spearmint-like):

    1. score a large batch of candidates — Latin-hypercube samples plus
       Gaussian perturbations of the incumbent (local exploitation);
    2. for spaces with continuous dimensions, refine the top candidates
       with L-BFGS-B on the acquisition surface (numeric gradients) and
       snap back onto the representable grid.

    Integer-only spaces skip the continuous refinement, mirroring how
    Spearmint treated pure integer problems; this is also why the
    informed optimizer (one float dimension) pays more per step than
    the plain one (paper Figure 7's bo-vs-ibo gap).
    """

    def __init__(
        self,
        acquisition: str = "ei",
        n_candidates: int = 1024,
        n_refine: int = 5,
        xi: float = 0.0,
        screen: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        if acquisition not in ACQUISITIONS:
            raise ValueError(
                f"unknown acquisition {acquisition!r}; available: "
                f"{sorted(ACQUISITIONS)}"
            )
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        self.acquisition = acquisition
        self.n_candidates = n_candidates
        self.n_refine = n_refine
        self.xi = xi
        #: Optional feasibility screen: ``(M, dim)`` unit-cube candidate
        #: matrix -> boolean keep-mask.  Screened-out candidates are
        #: dropped from the acquisition ranking (and from gradient
        #: refinement) *before* any is chosen — cheap model-side
        #: screening of known-infeasible configurations, e.g.
        #: :func:`repro.storm.analytic_batch.make_analytic_screener`.
        #: Opt-in: ``None`` (the default) leaves proposals untouched.
        self.screen = screen
        #: Optional trust region ``(center, radius)`` in unit-cube
        #: coordinates: every candidate is clipped into the box
        #: ``[center - radius, center + radius]`` (intersected with the
        #: cube) before scoring, and gradient refinement is bounded to
        #: the same box.  The continuous-tuning loop sets this around
        #: the incumbent after a drift detection so re-tuning explores
        #: conservatively (docs/DRIFT.md); ``None`` disables it.
        self.trust_region: tuple[np.ndarray, float] | None = None

    # ------------------------------------------------------------------
    def score(
        self, gp: GaussianProcess, X: np.ndarray, best: float
    ) -> np.ndarray:
        mean, std = gp.predict(X)
        fn = ACQUISITIONS[self.acquisition]
        if self.acquisition == "ucb":
            return fn(mean, std, best)
        return fn(mean, std, best, self.xi)

    def propose(
        self,
        gp: GaussianProcess,
        space: ParameterSpace,
        best_x: np.ndarray | None,
        best_y: float,
        rng: np.random.Generator,
    ) -> Proposal:
        candidates = [space.latin_hypercube(self.n_candidates, rng)]
        # Diagonal line: all-coordinates-equal points sweep the "uniform
        # configuration" ridge, which is a strong direction in
        # parallelism spaces (and cheap to cover exhaustively).
        diag = np.linspace(0.0, 1.0, 33)[:, None] * np.ones((1, space.dim))
        candidates.append(space.round_trip_batch(diag))
        if best_x is not None:
            local = best_x[None, :] + rng.normal(
                0.0, 0.05, size=(max(8, self.n_candidates // 8), space.dim)
            )
            candidates.append(space.round_trip_batch(np.clip(local, 0.0, 1.0)))
            candidates.append(self._neighbourhood(space, best_x, rng))
        candidates = np.vstack(candidates)
        if self.trust_region is not None:
            lo, hi = self._trust_bounds(space.dim)
            candidates = space.round_trip_batch(np.clip(candidates, lo, hi))
        scores = self.score(gp, candidates, best_y)
        n_screened_out = 0
        if self.screen is not None:
            keep = np.asarray(self.screen(candidates), dtype=bool)
            # Only apply a usable verdict: if the screen rejects the
            # entire pool the ranking falls back to unscreened scores
            # (the optimizer must still propose *something*).
            if keep.shape == (candidates.shape[0],) and bool(keep.any()):
                n_screened_out = int((~keep).sum())
                scores = np.where(keep, scores, -np.inf)
        order = np.argsort(scores)[::-1]
        best_idx = int(order[0])
        best_point = candidates[best_idx]
        best_score = float(scores[best_idx])

        has_continuous = any(not p.is_discrete for p in space.parameters)
        n_refined = 0
        refine_iterations = 0
        if has_continuous and self.n_refine > 0 and gp.is_fitted:
            for idx in order[: self.n_refine]:
                if not np.isfinite(scores[int(idx)]):
                    continue  # screened out — don't refine from it
                refined, value, iterations = self._refine(
                    gp, space, candidates[int(idx)], best_y
                )
                n_refined += 1
                refine_iterations += iterations
                if value > best_score:
                    best_score = value
                    best_point = refined
        return Proposal(
            x=best_point,
            acquisition_value=best_score,
            n_candidates=candidates.shape[0],
            n_refined=n_refined,
            refine_iterations=refine_iterations,
            n_screened_out=n_screened_out,
        )

    def _trust_bounds(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The trust-region box intersected with the unit cube."""
        assert self.trust_region is not None
        center, radius = self.trust_region
        center = np.asarray(center, dtype=float).ravel()
        if center.shape[0] != dim:
            raise ValueError(
                f"trust-region center has dim {center.shape[0]}, space has {dim}"
            )
        lo = np.clip(center - radius, 0.0, 1.0)
        hi = np.clip(center + radius, 0.0, 1.0)
        return lo, hi

    def _neighbourhood(
        self,
        space: ParameterSpace,
        best_x: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Single-coordinate and diagonal-shift neighbours of the incumbent.

        For discrete dimensions this is the +/- one grid-step move set; a
        few whole-vector shifts ("raise/lower everything") are added
        because parallelism responses are strongly monotone along that
        direction.  Capped so very high-dimensional spaces stay cheap.
        """
        moves: list[np.ndarray] = []
        dims = list(range(space.dim))
        if space.dim > 128:
            dims = list(rng.choice(space.dim, size=128, replace=False))
        for d in dims:
            param = space.parameters[d]
            step = 1.0 / getattr(param, "n_values", 32)
            for sign in (-1.0, 1.0):
                x = best_x.copy()
                x[d] = min(1.0, max(0.0, x[d] + sign * step))
                moves.append(x)
        for shift in (-0.1, -0.05, 0.05, 0.1):
            moves.append(np.clip(best_x + shift, 0.0, 1.0))
        return space.round_trip_batch(np.array(moves))

    def _refine(
        self,
        gp: GaussianProcess,
        space: ParameterSpace,
        x0: np.ndarray,
        best_y: float,
    ) -> tuple[np.ndarray, float, int]:
        # Central-difference gradient evaluated as ONE batched posterior
        # predict per L-BFGS iteration (2 dim + 1 points), instead of
        # letting scipy probe the acquisition one point per coordinate.
        dim = space.dim
        eps = 1e-5
        eye = np.eye(dim) * eps

        def neg_acq_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            pts = np.vstack([x[None, :], x[None, :] + eye, x[None, :] - eye])
            values = self.score(gp, np.clip(pts, 0.0, 1.0), best_y)
            grad = (values[1 : 1 + dim] - values[1 + dim :]) / (2.0 * eps)
            return -float(values[0]), -grad

        if self.trust_region is not None:
            lo, hi = self._trust_bounds(dim)
            bounds = list(zip(lo.tolist(), hi.tolist()))
            x0 = np.clip(x0, lo, hi)
        else:
            bounds = [(0.0, 1.0)] * dim
        result = sopt.minimize(
            neg_acq_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 30},
        )
        snapped = space.round_trip(np.clip(result.x, 0.0, 1.0))
        score = float(self.score(gp, snapped[None, :], best_y)[0])
        return snapped, score, int(getattr(result, "nit", 0))
