"""Kill-fuzzer acceptance bench for crash-safe fleet campaigns.

The claim under test (docs/ROBUSTNESS.md): a campaign executed by N
independent ``repro-experiments campaign workers`` processes — with
workers SIGKILLed at seed-deterministic store operations — finishes
with per-cell observation histories *byte-identical* to a serial,
unkilled run of the same spec.  Zero observations lost, zero
duplicated, every dead worker's lease reclaimed within one heartbeat
timeout.

Kill points are injected through the store's ``REPRO_STORE_KILL``
environment hook (``<op>:<n>`` — SIGKILL self on the n-th operation of
that kind) and cover the three distinct failure windows:

* ``checkpoint_write`` — mid-cell, between observations; the next
  claimant resumes from the per-observation checkpoint;
* ``lease_renew`` — mid-heartbeat, leaving an expired lease for the
  fleet to reclaim with a bumped fencing token;
* ``result_write`` — *between commit phases*: results persisted, lease
  never committed (a torn commit the next claimant repairs without
  re-running the cell).

Run as a script for the CI ``fleet-smoke`` job, or under pytest for
the full acceptance numbers:

    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py -v
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.checkpoint import canonical_history
from repro.experiments.presets import Budget
from repro.service.campaign import (
    CAMPAIGN_STATE_NAME,
    CampaignRunner,
    CampaignSpec,
    store_cell_label,
)
from repro.store import open_store
from repro.store.base import KILL_ENV, TERMINAL_LEASE_STATUSES
from repro.topology_gen.suite import CONDITIONS

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Lease heartbeat timeout: the reclaim-latency budget the bench holds
#: the fleet to.  Generous enough that a busy surviving worker can
#: finish its current cell and still reclaim a dead worker's lease
#: inside one timeout.
TTL_SECONDS = 3.0

#: Overall wall-clock ceiling — a stuck fleet fails loudly, not by hang.
SUPERVISE_TIMEOUT = 420.0


def _spec(smoke: bool, store_spec: str, workers: int) -> CampaignSpec:
    if smoke:
        budget = Budget(
            steps=4, steps_extended=5, baseline_steps=6, passes=1,
            repeat_best=2,
        )
        conditions, strategies = CONDITIONS[:1], ("pla", "bo")
    else:
        budget = Budget(
            steps=6, steps_extended=8, baseline_steps=8, passes=2,
            repeat_best=2,
        )
        conditions, strategies = CONDITIONS[:2], ("pla", "bo", "ibo")
    return CampaignSpec(
        study="synthetic",
        budget=budget,
        seed=7,
        workers=workers,
        store=store_spec,
        mode="fleet",
        lease_ttl_seconds=TTL_SECONDS,
        max_claim_attempts=10,
        conditions=conditions,
        sizes=("small",),
        strategies=strategies,
    )


def _kill_plan(rng: np.random.Generator, smoke: bool) -> list[str | None]:
    """Per-initial-worker kill specs (``None`` = clean worker).

    Smoke: 2 workers, one killed; the clean worker starts only once
    the armed one holds a lease (:func:`_await_claim`), so the kill
    point is always reached.  Full: 4 workers over 6 cells, three
    killed at the three distinct failure windows (shuffled across
    worker slots), all started together; the last worker stays clean
    so reclaim never waits on a process respawn.
    """
    if smoke:
        op = ("checkpoint_write", "result_write")[int(rng.integers(2))]
        return [f"{op}:1", None]
    kills = [
        f"checkpoint_write:{int(rng.integers(1, 4))}",
        "lease_renew:1",
        "result_write:1",
    ]
    rng.shuffle(kills)
    return [*kills, None]


def _spawn_worker(
    store_spec: str | Path,
    owner: str,
    kill: str | None,
    log_dir: Path | None,
) -> subprocess.Popen:
    env = {
        "PYTHONPATH": "src",
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    }
    if kill:
        env[KILL_ENV] = kill
    if log_dir is not None:
        out = (log_dir / f"{owner}.log").open("w")
    else:
        out = subprocess.DEVNULL
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "campaign", "workers",
            str(store_spec), "-n", "1", "--owner", owner,
        ],
        cwd=_REPO_ROOT,
        env=env,
        stdout=out,
        stderr=subprocess.STDOUT if log_dir is not None else subprocess.DEVNULL,
    )


def _await_claim(
    watcher, study: str, cells: list[str], owner: str, proc: subprocess.Popen
) -> None:
    """Block until ``owner`` holds (or held) a lease, or has exited.

    A kill armed on an operation of a worker that never claims a cell
    would never fire: with no clean worker running yet, the armed
    worker is sure to claim one, and to checkpoint and write results
    for it."""
    deadline = time.time() + SUPERVISE_TIMEOUT
    while proc.poll() is None:
        assert time.time() < deadline, f"{owner} never claimed a cell"
        if any(
            lease is not None and lease.owner == owner
            for lease in (watcher.read_lease(study, cell) for cell in cells)
        ):
            return
        time.sleep(0.02)


def run_fleet_fuzz(
    backend: str,
    *,
    smoke: bool = True,
    seed: int = 0,
    workdir: str | Path | None = None,
    artifacts: str | Path | None = None,
) -> dict[str, object]:
    """Fuzz one backend; returns the bench report (asserts on the way)."""
    assert backend in ("jsonl", "sqlite"), backend
    workers = 2 if smoke else 4
    rng = np.random.default_rng(seed)
    plan = _kill_plan(rng, smoke)
    suffix = ".db" if backend == "sqlite" else ""
    log_dir = None
    if artifacts is not None:
        log_dir = Path(artifacts)
        log_dir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        fleet_store = Path(tmp) / f"fleet{suffix}"
        serial_store = Path(tmp) / f"serial{suffix}"
        spec = _spec(smoke, str(fleet_store), workers)
        serial_spec = dataclasses.replace(
            spec, store=str(serial_store), mode="pool", workers=None, n_jobs=1
        )

        # Serial, unkilled reference — store-backed like the fleet so
        # both draw identical per-evaluation seeds.
        reference = CampaignRunner(serial_spec).run()

        runner = CampaignRunner(spec)
        _specs, labels, _fn = runner.cell_specs()
        cells = [store_cell_label(spec.study, label) for label in labels]
        with open_store(str(fleet_store)) as store:
            store.save_state(
                spec.study, "", CAMPAIGN_STATE_NAME,
                {"version": 1, "spec": spec.as_dict()},
            )

        procs: list[tuple[str, subprocess.Popen]] = []
        kills_observed = 0
        expired_seen: dict[tuple[str, int], float] = {}  # -> lease deadline
        reclaim_latency: dict[tuple[str, int], float] = {}

        watcher = open_store(str(fleet_store))
        try:
            for i, kill in enumerate(plan):
                owner = f"fuzz-w{i}"
                proc = _spawn_worker(fleet_store, owner, kill, log_dir)
                procs.append((owner, proc))
                if smoke and kill:
                    # The smoke's one clean worker could otherwise run
                    # both cells before the armed worker claims one.
                    _await_claim(watcher, spec.study, cells, owner, proc)
            spawned = len(procs)
            deadline_wall = time.time() + SUPERVISE_TIMEOUT
            while True:
                assert time.time() < deadline_wall, (
                    f"fleet did not finish within {SUPERVISE_TIMEOUT}s "
                    f"({backend})"
                )
                alive = []
                for owner, proc in procs:
                    if proc.poll() is None:
                        alive.append((owner, proc))
                    elif proc.returncode < 0:
                        kills_observed += 1
                procs = alive

                now = time.time()
                pending = False
                for cell in cells:
                    lease = watcher.read_lease(spec.study, cell)
                    if lease is None:
                        pending = True
                        continue
                    for (seen_cell, seen_token), dl in expired_seen.items():
                        if seen_cell != cell:
                            continue
                        if (seen_cell, seen_token) in reclaim_latency:
                            continue
                        if (
                            lease.token > seen_token
                            or lease.status in TERMINAL_LEASE_STATUSES
                        ):
                            reclaim_latency[(seen_cell, seen_token)] = now - dl
                    if lease.status in TERMINAL_LEASE_STATUSES:
                        continue
                    pending = True
                    if lease.status == "leased" and lease.expired(now):
                        expired_seen.setdefault(
                            (cell, lease.token), lease.deadline
                        )
                if not pending:
                    break
                # Keep the fleet at strength: respawn clean workers for
                # the ones the fuzzer killed.
                while len(procs) < workers:
                    owner = f"fuzz-w{spawned}"
                    spawned += 1
                    assert spawned <= 4 * workers + 8, "respawn runaway"
                    procs.append(
                        (owner, _spawn_worker(fleet_store, owner, None, log_dir))
                    )
                time.sleep(0.05)

            for _owner, proc in procs:
                proc.wait(timeout=60)

            statuses = {
                cell: watcher.read_lease(spec.study, cell).status
                for cell in cells
            }
            assert all(s == "committed" for s in statuses.values()), statuses
            unreclaimed = set(expired_seen) - set(reclaim_latency)
            assert not unreclaimed, (
                f"expired leases never reclaimed: {unreclaimed}"
            )
            identical = True
            for label, cell in zip(labels, cells):
                fleet_passes = watcher.load_results(spec.study, cell)
                ref_passes = reference[label]
                assert fleet_passes is not None and len(fleet_passes) == len(
                    ref_passes
                ), label
                for a, b in zip(fleet_passes, ref_passes):
                    if canonical_history(a.observations) != canonical_history(
                        b.observations
                    ):
                        identical = False
        finally:
            for _owner, proc in procs:
                if proc.poll() is None:
                    proc.kill()
            watcher.close()

        if log_dir is not None:
            target = log_dir / f"fleet-{backend}{suffix or '-store'}"
            if fleet_store.is_dir():
                shutil.copytree(fleet_store, target, dirs_exist_ok=True)
            else:
                shutil.copy(fleet_store, target)

    expected_kills = 1 if smoke else 2
    assert kills_observed >= expected_kills, (
        f"only {kills_observed} worker(s) died; the fuzz needs at least "
        f"{expected_kills} ({backend}, plan {plan})"
    )
    max_reclaim = max(reclaim_latency.values(), default=0.0)
    assert max_reclaim <= TTL_SECONDS, (
        f"reclaim took {max_reclaim:.2f}s, over the {TTL_SECONDS:g}s "
        f"heartbeat timeout ({backend})"
    )
    report = {
        "backend": backend,
        "cells": len(cells),
        "kill_plan": [k for k in plan if k],
        "kills_observed": kills_observed,
        "workers_spawned": spawned,
        "expired_reclaims": len(reclaim_latency),
        "reclaim_seconds_max": max_reclaim,
        "histories_identical": identical,
    }
    print(
        f"fleet fuzz [{backend}]: {len(cells)} cell(s), "
        f"{kills_observed} SIGKILL(s) of {spawned} worker(s), "
        f"{len(reclaim_latency)} expired lease(s) reclaimed "
        f"(max {max_reclaim:.2f}s), histories identical: {identical}"
    )
    assert identical, (
        f"fleet history diverged from the serial unkilled run ({backend})"
    )
    if log_dir is not None:
        (log_dir / f"fuzz-{backend}.json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    return report


# ----------------------------------------------------------------------
# pytest entry points (full acceptance numbers)
# ----------------------------------------------------------------------
def test_fleet_kill_fuzz_jsonl_is_byte_identical() -> None:
    report = run_fleet_fuzz("jsonl", smoke=False)
    assert report["histories_identical"]


def test_fleet_kill_fuzz_sqlite_is_byte_identical() -> None:
    report = run_fleet_fuzz("sqlite", smoke=False)
    assert report["histories_identical"]


# ----------------------------------------------------------------------
# Script entry point (CI fleet smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend", choices=["both", "jsonl", "sqlite"], default="both"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="keep worker logs, the fleet store, and fuzz reports here",
    )
    from _harness import add_harness_args, emit, make_metric

    add_harness_args(parser)
    args = parser.parse_args(argv)
    backends = (
        ["jsonl", "sqlite"] if args.backend == "both" else [args.backend]
    )
    reports = [
        run_fleet_fuzz(
            backend, smoke=args.smoke, seed=args.seed,
            artifacts=args.artifacts,
        )
        for backend in backends
    ]
    emit(
        "bench_fleet",
        smoke=args.smoke,
        metrics={
            "histories_identical": make_metric(
                float(all(r["histories_identical"] for r in reports)),
                higher_is_better=True,
            ),
            "kills_injected": make_metric(
                float(sum(r["kills_observed"] for r in reports)),
                higher_is_better=True,
            ),
            "reclaim_seconds_max": make_metric(
                max(float(r["reclaim_seconds_max"]) for r in reports),
                higher_is_better=False,
                unit="s",
            ),
        },
        meta={r["backend"]: r for r in reports},
        json_path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
