"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/campaign_rep.py --workload NAME --seed N \
        --work DIR --out FILE --spawned-at T [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports,
and spec/runner/store construction.  The campaign then runs once
through ``CampaignRunner.run()``; its outputs are checked and
fingerprinted, and a JSON record is written to ``--out``.  With
``--trace`` every layer is wrapped (see ``tracing.py``) and the record
carries per-layer metrics and one layer table per process.

Run it through ``perfbench/run.py``, which sets ``PYTHONPATH``.
"""

from __future__ import annotations

import os

#: Pinned before numpy is imported: one BLAS/OpenMP thread per process,
#: so fleet workers never put more threads on the cores than there are.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def install_worker_hook(work: Path, rec) -> None:
    """Have each fleet worker report its peak memory (and spans) at exit.

    Fleet workers are forked from this process, so the wrapper around
    ``run_worker`` installed here is what they run.
    """
    import repro.service.queue as queue

    original = queue.run_worker

    def run_worker(*args, **kwargs):
        fn = original
        if rec is not None:
            import threading

            from tracing import WORKER_ROOT, span_wrapper

            rec.restart_if_forked()
            fn = span_wrapper(rec, WORKER_ROOT, original)
            # The worker's poll waits, while every remaining cell is
            # leased to another worker, are its idle time.
            threading.Event.wait = span_wrapper(
                rec, "worker.idle", threading.Event.wait
            )
        try:
            return fn(*args, **kwargs)
        finally:
            report = {
                "pid": os.getpid(),
                "maxrss_mb": _maxrss_mb(resource.RUSAGE_SELF),
                "spans": rec.spans if rec is not None else [],
            }
            (work / f"worker-{os.getpid()}.json").write_text(json.dumps(report))

    queue.run_worker = run_worker


def check_results(spec, results: dict) -> dict:
    """Correctness checks, the behaviour fingerprint and the outcome metrics."""
    from repro.core.checkpoint import canonical_history
    from repro.core.history import best_of

    problems: list[str] = []
    runs = 0
    bad_runs = 0
    evaluations = 0
    failed_evals = 0
    suggest: list[float] = []
    suggest_source = "all steps"
    best_means: list[float] = []
    digest = hashlib.blake2b(digest_size=16)
    _specs, labels, _fn = _cell_specs(spec)
    missing = sorted(set(labels) - set(results))
    if missing:
        problems.append(f"{len(missing)} cells missing, e.g. {missing[0]}")
    bayes_steps: list[float] = []
    for label in sorted(results):
        cell = results[label]
        if len(cell) != spec.budget.passes:
            problems.append(f"{label}: {len(cell)} results, want {spec.budget.passes}")
        for result in cell:
            runs += 1
            values = [o.value for o in result.observations] + list(
                result.best_rerun_values
            )
            ok = bool(result.observations) and all(math.isfinite(v) for v in values)
            if not ok or all(o.failed for o in result.observations):
                bad_runs += 1
                problems.append(f"{label}: empty, non-finite or all-failed run")
            evaluations += len(result.observations) + len(result.best_rerun_values)
            failed_evals += sum(1 for o in result.observations if o.failed)
            steps = [o.suggest_seconds for o in result.observations]
            suggest.extend(steps)
            telemetry = result.metadata.get("optimizer_telemetry") or {}
            n_prop = int(telemetry.get("n_proposals", 0) or 0)
            if n_prop:
                bayes_steps.extend(steps[-n_prop:])
            digest.update(label.encode())
            digest.update(canonical_history(result.observations))
            digest.update(repr(list(result.best_rerun_values)).encode())
        if cell:
            best_means.append(best_of(cell).rerun_summary()[0])
    if bayes_steps:
        suggest, suggest_source = bayes_steps, "acquisition steps of BO runs"
    n_obs = sum(len(r.observations) for cell in results.values() for r in cell)
    positive = [v for v in best_means if v > 0]
    if len(positive) != len(best_means):
        problems.append("a cell's best configuration re-measured at 0 tuples/s")
    gmean = (
        math.exp(sum(math.log(v) for v in positive) / len(positive))
        if positive
        else float("nan")
    )
    return {
        "problems": problems,
        "runs_expected": len(labels) * spec.budget.passes,
        "runs": runs,
        "bad_runs": bad_runs,
        "digest": digest.hexdigest(),
        "evaluations": evaluations,
        "observations": n_obs,
        "failed_evaluations": failed_evals,
        "eval_ok_share": (n_obs - failed_evals) / n_obs if n_obs else float("nan"),
        "best_tps_gmean": gmean,
        "suggest_seconds": suggest,
        "suggest_source": suggest_source,
    }


def _cell_specs(spec):
    from repro.service.campaign import CampaignRunner

    return CampaignRunner(spec).cell_specs()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # ---- set-up: imports, spec, runner and store construction -------
    from workloads import build_spec

    from repro.service.campaign import CampaignRunner, StudyError
    from repro.store import open_store

    args.work.mkdir(parents=True, exist_ok=True)
    spec = build_spec(args.workload, args.seed, args.work)
    if spec.store:
        open_store(spec.store).close()
    runner = CampaignRunner(spec)
    runner.cell_specs()  # imports the strategy layer the cells run
    setup_s = time.perf_counter() - args.spawned_at
    record: dict = {"setup_s": setup_s}
    if args.setup_only:
        args.out.write_text(json.dumps(record))
        return

    rec = None
    if args.trace:
        from tracing import Recorder, instrument

        rec = Recorder()
        instrument(rec)
    install_worker_hook(args.work, rec)

    # ---- the measured campaign --------------------------------------
    error = None
    t0 = time.perf_counter()
    try:
        results = runner.run()
    except StudyError as exc:
        results, error = dict(runner.results), f"StudyError: {exc}"
    campaign_s = time.perf_counter() - t0

    workers = [
        json.loads(path.read_text()) for path in sorted(args.work.glob("worker-*.json"))
    ]
    checked = check_results(spec, results)
    if error is not None:
        checked["problems"].insert(0, error)
    record.update(
        campaign_s=campaign_s,
        peak_rss_mb=_maxrss_mb(resource.RUSAGE_SELF)
        + sum(w["maxrss_mb"] for w in workers),
        n_workers=len(workers),
        **checked,
    )
    if rec is not None:
        from tracing import (
            CAMPAIGN_ROOT,
            WORKER_ROOT,
            layer_metrics,
            layer_table,
            root_seconds,
        )

        processes = [rec.spans] + [w["spans"] for w in workers]
        record["layers"] = layer_metrics(processes)
        record["tables"] = [
            {
                "process": "campaign" if i == 0 else f"worker pid {workers[i - 1]['pid']}",
                "seconds": root_seconds(spans, CAMPAIGN_ROOT if i == 0 else WORKER_ROOT),
                "rows": layer_table(spans, CAMPAIGN_ROOT if i == 0 else WORKER_ROOT),
            }
            for i, spans in enumerate(processes)
        ]
        spans_path = args.out.with_suffix(".spans.json")
        spans_path.write_text(
            json.dumps({"processes": [{"spans": spans} for spans in processes]})
        )
        record["spans_file"] = spans_path.name
    args.out.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
