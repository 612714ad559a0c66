"""The benchmark's workloads, each a `CampaignSpec` built from a seed.

All three run the analytic engine.  The seed goes into
``CampaignSpec.seed`` and nowhere else, so a workload's inputs are a
pure function of ``(name, seed)``.

* ``fig45-grid`` — Figure 4/5 synthetic grid: 4 conditions x
  {small, medium} x {pla, bo, ipla, ibo}, 1 pass at 20 BO / 60
  baseline steps, serial pool, no store.  Screener-heavy: the BO
  candidate pools are decoded row by row and screened by the batch
  analytic model.
* ``sundog-arms`` — the seven Figure 8 arms over Sundog at the paper's
  60/180-step budget, 1 pass, serial pool, no store.  GP-heavy, no
  screener; tunes batch-size and concurrency parameters too.
* ``fleet-sqlite`` — the paper's baselines (pla, ipla) over 4
  conditions x {small, medium, large}, 2 passes, 30 re-runs, as a
  2-worker fleet over one SQLite store.  Store, lease and scalar
  evaluation costs; no GP, no screener.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("fig45-grid", "sundog-arms", "fleet-sqlite")

#: Worker processes of the fleet workload (the benchmark host has 2 cores).
FLEET_WORKERS = 2


def build_spec(name: str, seed: int, work_dir: Path):
    """The campaign spec of workload ``name`` at ``seed``.

    ``work_dir`` holds the workload's store, if it has one.
    """
    from repro.experiments.presets import Budget
    from repro.service.campaign import CampaignSpec
    from repro.topology_gen.suite import CONDITIONS

    if name == "fig45-grid":
        return CampaignSpec.synthetic(
            budget=Budget(
                steps=20, steps_extended=60, baseline_steps=60,
                passes=1, repeat_best=10,
            ),
            seed=seed,
            conditions=CONDITIONS,
            sizes=("small", "medium"),
            strategies=("pla", "bo", "ipla", "ibo"),
        )
    if name == "sundog-arms":
        return CampaignSpec.sundog(
            budget=Budget(
                steps=60, steps_extended=180, baseline_steps=60,
                passes=1, repeat_best=30,
            ),
            seed=seed,
        )
    if name == "fleet-sqlite":
        return CampaignSpec.synthetic(
            budget=Budget(
                steps=20, steps_extended=60, baseline_steps=60,
                passes=2, repeat_best=30,
            ),
            seed=seed,
            conditions=CONDITIONS,
            sizes=("small", "medium", "large"),
            strategies=("pla", "ipla"),
            mode="fleet",
            workers=FLEET_WORKERS,
            store=str(work_dir / "campaign.db"),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
