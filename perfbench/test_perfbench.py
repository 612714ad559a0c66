"""Tests of the campaign benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from campaign_rep import check_results  # noqa: E402
from workloads import build_spec  # noqa: E402

from repro.core.checkpoint import canonical_history  # noqa: E402
from repro.core.history import Observation, TuningResult  # noqa: E402
from repro.experiments.presets import Budget  # noqa: E402
from repro.service.campaign import CampaignRunner, CampaignSpec  # noqa: E402
from repro.topology_gen.suite import CONDITIONS  # noqa: E402


# ----------------------------------------------------------------------
# Recorder and wrappers
# ----------------------------------------------------------------------
def _nested(rec: tracing.Recorder):
    def leaf(x):
        return x + 1

    leafw = tracing.leaf_wrapper(rec, "leaf", leaf)

    def inner():
        return sum(leafw(i) for i in range(5))

    innerw = tracing.span_wrapper(rec, "inner", inner)

    def outer():
        return innerw() + innerw()

    return tracing.span_wrapper(rec, tracing.CAMPAIGN_ROOT, outer)


def test_spans_nest_and_the_table_adds_up_to_the_root():
    rec = tracing.Recorder()
    assert _nested(rec)() == 30
    names = [s[tracing.NAME] for s in rec.spans]
    assert names == ["inner", "inner", tracing.CAMPAIGN_ROOT]
    root = rec.spans[-1]
    assert all(s[tracing.PARENT] == root[tracing.ID] for s in rec.spans[:2])
    assert rec.spans[0][tracing.LEAVES]["leaf"][0] == 5
    rows = dict(tracing.layer_table(rec.spans, tracing.CAMPAIGN_ROOT))
    assert set(rows) == {"inner", "unattributed"}
    wall = tracing.root_seconds(rec.spans, tracing.CAMPAIGN_ROOT)
    assert math.isclose(sum(rows.values()), wall, rel_tol=1e-9, abs_tol=1e-12)


def test_a_layer_reentering_itself_counts_once():
    rec = tracing.Recorder()

    def tell(n):
        return tellw(n - 1) if n else 0

    tellw = tracing.span_wrapper(rec, "optimizer.tell", tell)
    tellw(3)
    assert [s[tracing.NAME] for s in rec.spans] == ["optimizer.tell"]


def test_spans_of_other_threads_stay_out_of_the_table():
    rec = tracing.Recorder()
    side = tracing.span_wrapper(rec, "lease.renew", lambda: None)

    def root():
        t = threading.Thread(target=side)
        t.start()
        t.join()

    tracing.span_wrapper(rec, tracing.CAMPAIGN_ROOT, root)()
    renew = [s for s in rec.spans if s[tracing.NAME] == "lease.renew"]
    assert renew and renew[0][tracing.PARENT] == 0
    rows = dict(tracing.layer_table(rec.spans, tracing.CAMPAIGN_ROOT))
    assert "lease.renew" not in rows


def test_a_forked_recorder_starts_empty_with_its_own_ids():
    rec = tracing.Recorder()
    tracing.span_wrapper(rec, "x", lambda: None)()
    rec.pid = -1  # as seen from a forked child
    rec.restart_if_forked()
    assert rec.spans == [] and rec.pid == os.getpid()
    tracing.span_wrapper(rec, "x", lambda: None)()
    assert rec.spans[0][tracing.ID] >> 32 == os.getpid()


def test_instrument_restores_every_entry_point():
    from repro.core.gp import GaussianProcess
    from repro.storm import analytic_batch

    fit, factory = GaussianProcess.fit, analytic_batch.make_analytic_screener
    patcher = tracing.instrument(tracing.Recorder())
    assert GaussianProcess.fit is not fit
    patcher.restore()
    assert GaussianProcess.fit is fit
    assert analytic_batch.make_analytic_screener is factory


def test_a_traced_campaign_explains_its_wall_clock():
    spec = CampaignSpec.synthetic(
        budget=Budget(steps=14, steps_extended=14, baseline_steps=8, passes=1, repeat_best=2),
        conditions=CONDITIONS[:1],
        sizes=("small",),
        strategies=("bo", "pla"),
    )
    rec = tracing.Recorder()
    patcher = tracing.instrument(rec)
    try:
        CampaignRunner(spec).run()
    finally:
        patcher.restore()
    layers = tracing.layer_metrics([rec.spans])
    assert layers["loop.runs"] == 2
    assert layers["screen.rows"] > 0
    assert 0.0 < layers["screen.keep_ratio"] <= 1.0
    assert layers["gp.fit_n"] > 0 and layers["optimizer.ask_n"] >= 16
    assert layers["codec.decode_n"] >= layers["screen.rows"]
    rows = tracing.layer_table(rec.spans, tracing.CAMPAIGN_ROOT)
    wall = tracing.root_seconds(rec.spans, tracing.CAMPAIGN_ROOT)
    assert math.isclose(sum(s for _, s in rows), wall, rel_tol=1e-9)
    assert dict(rows)["unattributed"] == pytest.approx(layers["unattributed_s"])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _result(values, reruns=(5.0, 6.0)):
    obs = [Observation(step=i, config={"h": i}, value=v) for i, v in enumerate(values)]
    return TuningResult(strategy="pla", observations=obs, best_rerun_values=list(reruns))


def _tiny_spec():
    return CampaignSpec.synthetic(
        budget=Budget(steps=2, steps_extended=2, baseline_steps=2, passes=1, repeat_best=2),
        conditions=CONDITIONS[:1],
        sizes=("small",),
        strategies=("pla", "ipla"),
    )


def test_checks_accept_good_results_and_fingerprint_them():
    spec = _tiny_spec()
    _s, labels, _f = CampaignRunner(spec).cell_specs()
    good = check_results(spec, {label: [_result([1.0, 2.0])] for label in labels})
    assert good["problems"] == [] and good["runs"] == good["runs_expected"] == 2
    assert good["best_tps_gmean"] == pytest.approx(5.5)
    changed = check_results(spec, {label: [_result([1.0, 2.5])] for label in labels})
    assert changed["digest"] != good["digest"]


def test_checks_reject_missing_cells_and_non_finite_values():
    spec = _tiny_spec()
    _s, labels, _f = CampaignRunner(spec).cell_specs()
    missing = check_results(spec, {labels[0]: [_result([1.0])]})
    assert any("missing" in p for p in missing["problems"])
    bad = check_results(spec, {label: [_result([1.0, math.nan])] for label in labels})
    assert bad["bad_runs"] == 2 and bad["problems"]


# ----------------------------------------------------------------------
# Workload behaviour
# ----------------------------------------------------------------------
def test_fleet_histories_equal_a_serial_pool_run_over_sqlite(tmp_path):
    fleet = build_spec("fleet-sqlite", 3, tmp_path / "fleet")
    (tmp_path / "fleet").mkdir()
    pool = dataclasses.replace(
        fleet, mode="pool", workers=None, n_jobs=1, store=str(tmp_path / "pool.db")
    )
    by_fleet = CampaignRunner(fleet).run()
    by_pool = CampaignRunner(pool).run()
    assert sorted(by_fleet) == sorted(by_pool)
    for label, results in by_pool.items():
        assert len(results) == len(by_fleet[label]) == fleet.budget.passes
        for a, b in zip(results, by_fleet[label]):
            assert canonical_history(a.observations) == canonical_history(b.observations)
            assert a.best_rerun_values == b.best_rerun_values


def test_the_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig45-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
