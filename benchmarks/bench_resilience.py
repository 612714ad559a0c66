"""Acceptance bench for the robustness layer: chaos, retries, resume.

Three claims are checked (docs/ROBUSTNESS.md):

* **Completion under chaos** — with a 10% injected-failure rate
  (:meth:`FaultSpec.chaos`: crashes, hangs, stragglers, tuple loss)
  and the resilient evaluation policy, every BO campaign finishes its
  full step budget: zero aborted runs over 10 seeds.
* **Quality under chaos** — the mean best-found throughput across the
  chaos campaigns stays within 5% of the fault-free campaigns'.
* **Crash-safe resume** — a checkpointing campaign killed with
  ``SIGKILL`` mid-run and resumed from its checkpoint reproduces the
  uninterrupted run's observation history *byte-identically*
  (:func:`repro.core.checkpoint.canonical_history`).

Run as a script for the CI chaos-smoke check (``--smoke`` scales the
seed count and budgets down), or under pytest for the full acceptance
numbers:

    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -v
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.checkpoint import (
    FileCheckpointSlot,
    canonical_history,
    load_checkpoint,
)
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.resilience import ReplicatedObjective, RetryPolicy
from repro.core.seeding import derive_seed
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.storm.faults import FaultPlan, FaultSpec
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import make_topology

#: Full-bench knobs (the acceptance configuration).
FAULT_RATE = 0.10
N_SEEDS = 10
STEPS = 20
QUALITY_MARGIN = 0.05
RESUME_STEPS = 16
VALIDATE_TOP_K = 3
VALIDATE_REPEATS = 3

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _objective(plan_seed: int | None) -> StormObjective:
    """Analytic small-topology objective, optionally under chaos faults.

    Deterministic given (config, evaluation seed): no measurement
    noise, and fault decisions derive from the per-evaluation seed —
    which is what makes the kill-and-resume comparison byte-exact.
    """
    topology = make_topology("small")
    cluster = default_cluster()
    codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
    faults = (
        FaultPlan(FaultSpec.chaos(FAULT_RATE, seed=plan_seed))
        if plan_seed is not None
        else None
    )
    return StormObjective(
        topology, cluster, codec, fidelity="analytic", faults=faults
    )


def _policy() -> RetryPolicy:
    """The chaos policy: 2 retries, no real backoff (keeps CI fast)."""
    return RetryPolicy(
        max_retries=2, backoff_base_seconds=0.0, breaker_threshold=3
    )


def _select_winner(objective, result, seed: int) -> dict[str, object]:
    """Repeat-best validation: pick the winner among the top candidates.

    The paper re-runs each candidate winner on the cluster before
    declaring it best (§V-A) — a single straggler-degraded (or lucky)
    measurement window must not decide the campaign.  Each of the top
    ``VALIDATE_TOP_K`` observed configs is re-measured
    ``VALIDATE_REPEATS`` times with fresh seeds *on the campaign's own
    (possibly faulty) substrate*, and the best median wins.
    """
    ranked = sorted(
        (o for o in result.observations if not o.failed),
        key=lambda o: o.value,
        reverse=True,
    )
    candidates: list[dict] = []
    seen: set[tuple] = set()
    for obs in ranked:
        key = tuple(sorted(obs.config.items()))
        if key in seen:
            continue
        seen.add(key)
        candidates.append(obs.config)
        if len(candidates) == VALIDATE_TOP_K:
            break
    if not candidates:
        return result.best_config

    def median_tps(idx: int, config: dict) -> float:
        values = []
        for rep in range(VALIDATE_REPEATS):
            run = objective.measure(
                config, seed=derive_seed(seed, "validate", idx, rep)
            )
            if not run.failed:
                values.append(float(run.throughput_tps))
        if not values:
            return float("-inf")
        values.sort()
        return values[len(values) // 2]

    scored = [
        (median_tps(idx, config), idx, config)
        for idx, config in enumerate(candidates)
    ]
    return max(scored)[2]


def _run_campaign(seed: int, *, chaos: bool, steps: int) -> dict[str, object]:
    """One BO pass; returns best config/value, steps, resilience stats.

    ``best`` is the validated winner (:func:`_select_winner`)
    re-measured on a clean substrate — under chaos the *recorded* best
    value can be a degraded observation of a genuinely good
    configuration, so comparing raw observed maxima would conflate
    tuning quality with measurement luck.

    The chaos arm measures through :class:`ReplicatedObjective`
    (median of 3 windows): silent straggler/tuple-loss degradation
    is invisible to the retry layer, and a single degraded window
    early in a campaign reliably re-rolls the whole BO trajectory.
    """
    objective = _objective(seed if chaos else None)
    target = ReplicatedObjective(objective, replicates=3) if chaos else objective
    optimizer = BayesianOptimizer(objective.codec.space, seed=seed)
    loop = TuningLoop(
        target,
        optimizer,
        max_steps=steps,
        seed=derive_seed(seed, "bench", "loop"),
        resilience=_policy() if chaos else None,
    )
    result = loop.run()
    winner = _select_winner(objective, result, seed)
    clean = _objective(None)
    rerun = clean.measure(winner)
    return {
        "best": float(rerun.throughput_tps),
        "steps": result.n_steps,
        "resilience": result.metadata.get("resilience", {}),
    }


def run_chaos(
    n_seeds: int = N_SEEDS, steps: int = STEPS
) -> dict[str, float]:
    """Fault-free vs 10%-chaos campaigns over ``n_seeds`` seeds."""
    clean_best: list[float] = []
    chaos_best: list[float] = []
    aborted = 0
    retries = 0
    transients = 0
    for seed in range(n_seeds):
        clean_best.append(float(_run_campaign(seed, chaos=False, steps=steps)["best"]))
        try:
            report = _run_campaign(seed, chaos=True, steps=steps)
        except Exception as exc:  # noqa: BLE001 - an abort is the failure mode
            aborted += 1
            print(f"seed {seed}: ABORTED ({type(exc).__name__}: {exc})")
            continue
        assert report["steps"] == steps, (
            f"seed {seed}: chaos campaign stopped at {report['steps']}/{steps}"
        )
        chaos_best.append(float(report["best"]))
        stats = report["resilience"]
        retries += int(stats.get("retries", 0))
        transients += int(stats.get("transient_failures", 0))
    clean_mean = sum(clean_best) / len(clean_best)
    chaos_mean = sum(chaos_best) / max(1, len(chaos_best))
    shortfall = (clean_mean - chaos_mean) / clean_mean
    print(
        f"chaos bench ({n_seeds} seeds x {steps} steps, "
        f"{FAULT_RATE:.0%} fault rate): aborted {aborted}, "
        f"transient failures {transients}, retries {retries}, "
        f"fault-free mean best {clean_mean:.0f} tps, "
        f"chaos mean best {chaos_mean:.0f} tps "
        f"(shortfall {shortfall:+.2%})"
    )
    return {
        "aborted": float(aborted),
        "retries": float(retries),
        "transient_failures": float(transients),
        "clean_mean": clean_mean,
        "chaos_mean": chaos_mean,
        "shortfall": shortfall,
    }


# ----------------------------------------------------------------------
# Kill -9 and resume
# ----------------------------------------------------------------------
def _resume_loop(
    checkpoint_path: str | Path | None, *, window_seconds: float = 0.0
) -> TuningLoop:
    """The resume bench's campaign (chaos faults + checkpointing).

    ``window_seconds`` simulates the paper's measurement window so the
    child process reliably dies mid-run; the sleep never affects the
    observed values, which are a pure function of (config, seed).
    """
    objective = _objective(plan_seed=0)
    if window_seconds > 0:
        inner_measure = objective.measure

        class _Slow:
            codec = objective.codec

            @staticmethod
            def measure(params, *, seed=None):
                time.sleep(window_seconds)
                return inner_measure(params, seed=seed)

        target = _Slow()
    else:
        target = objective
    optimizer = BayesianOptimizer(objective.codec.space, seed=3)
    return TuningLoop(
        target,
        optimizer,
        max_steps=RESUME_STEPS,
        seed=11,
        resilience=_policy(),
        checkpoint=(
            FileCheckpointSlot(checkpoint_path)
            if checkpoint_path is not None
            else None
        ),
    )


def run_kill_resume(workdir: str | Path | None = None) -> dict[str, object]:
    """SIGKILL a checkpointing campaign, resume, compare histories."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        ckpt = Path(tmp) / "killed.jsonl"
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(ckpt)],
            cwd=_REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                loaded = load_checkpoint(ckpt)
                if loaded is not None and loaded.completed >= 3:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.kill()
        finally:
            proc.wait()
        killed = load_checkpoint(ckpt)
        assert killed is not None, "child never wrote a checkpoint"
        assert 0 < killed.completed < RESUME_STEPS, (
            f"child finished {killed.completed} steps; the kill must land "
            f"mid-run for the bench to mean anything"
        )
        reference = _resume_loop(None).run()
        resumed = _resume_loop(ckpt).run()
    identical = canonical_history(resumed.observations) == canonical_history(
        reference.observations
    )
    print(
        f"kill/resume bench: killed at step {killed.completed}/{RESUME_STEPS}, "
        f"resumed {resumed.metadata.get('resumed_steps')} steps from "
        f"checkpoint, histories byte-identical: {identical}"
    )
    assert identical, "resumed history diverged from the uninterrupted run"
    return {"killed_at": killed.completed, "identical": identical}


# ----------------------------------------------------------------------
# pytest entry points (full acceptance numbers)
# ----------------------------------------------------------------------
def test_chaos_campaigns_finish_and_stay_close() -> None:
    """10% fault rate: zero aborts, mean best within 5% of fault-free."""
    report = run_chaos()
    assert report["aborted"] == 0, f"{report['aborted']:.0f} campaigns aborted"
    assert report["transient_failures"] > 0, "chaos never actually fired"
    assert report["retries"] > 0, "the retry path was never exercised"
    assert report["shortfall"] < QUALITY_MARGIN, (
        f"chaos campaigns lost {report['shortfall']:.2%} of best throughput "
        f"(allowed {QUALITY_MARGIN:.0%})"
    )


def test_sigkill_resume_is_byte_identical() -> None:
    report = run_kill_resume()
    assert report["identical"]


# ----------------------------------------------------------------------
# Script entry point (CI chaos smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down chaos exercise for CI (seconds, not minutes)",
    )
    parser.add_argument(
        "--child",
        metavar="CKPT",
        default=None,
        help="internal: run the checkpointing child campaign",
    )
    from _harness import add_harness_args, emit, make_metric

    add_harness_args(parser)
    args = parser.parse_args(argv)
    if args.child:
        _resume_loop(args.child, window_seconds=0.1).run()
        return 0
    if args.smoke:
        report = run_chaos(n_seeds=3, steps=10)
        assert report["aborted"] == 0, "a smoke chaos campaign aborted"
        run_kill_resume()
        print("chaos smoke ok")
    else:
        report = run_chaos()
        assert report["aborted"] == 0
        assert report["shortfall"] < QUALITY_MARGIN
        run_kill_resume()
    emit(
        "bench_resilience",
        smoke=args.smoke,
        metrics={
            "aborted": make_metric(report["aborted"], higher_is_better=False),
            "shortfall": make_metric(
                report["shortfall"], higher_is_better=False
            ),
            "retries": make_metric(report["retries"], higher_is_better=False),
        },
        meta={
            "clean_mean": report["clean_mean"],
            "chaos_mean": report["chaos_mean"],
            "transient_failures": report["transient_failures"],
        },
        json_path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
