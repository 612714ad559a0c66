"""Campaign specs, worker-budget splitting, and the runner facade."""

from __future__ import annotations

import pytest

from repro.experiments.presets import Budget
from repro.core.resilience import RetryPolicy
from repro.experiments.runner import SyntheticStudy
from repro.service.campaign import (
    CampaignRunner,
    CampaignSpec,
    split_worker_budget,
    store_cell_label,
)
from repro.topology_gen.suite import CONDITIONS


class TestSplitWorkerBudget:
    def test_workers_zero_raises(self):
        with pytest.raises(ValueError, match="workers"):
            split_worker_budget(0, 4)

    def test_workers_negative_raises(self):
        with pytest.raises(ValueError, match="workers"):
            split_worker_budget(-3, 4)

    def test_workers_one_is_fully_serial(self):
        assert split_worker_budget(1, 24) == (1, 1)
        assert split_worker_budget(1, 1) == (1, 1)

    def test_more_cells_than_workers_spends_budget_on_processes(self):
        assert split_worker_budget(8, 24) == (8, 1)

    def test_fewer_cells_than_workers_spends_remainder_in_loop(self):
        assert split_worker_budget(8, 2) == (2, 4)

    def test_zero_cells_still_yields_one_job(self):
        n_jobs, loop_workers = split_worker_budget(4, 0)
        assert n_jobs == 1
        assert loop_workers == 4


class TestCampaignSpec:
    def test_unknown_study_kind_is_rejected(self):
        with pytest.raises(ValueError, match="study"):
            CampaignSpec(study="mystery")

    def test_synthetic_defaults_cover_the_paper_grid(self):
        spec = CampaignSpec.synthetic()
        assert spec.conditions == CONDITIONS
        assert spec.n_cells == (
            len(spec.conditions) * len(spec.sizes) * len(spec.strategies)
        )

    def test_sundog_defaults_cover_figure8_arms(self):
        spec = CampaignSpec.sundog()
        assert spec.n_cells == len(spec.arms) > 0

    def test_round_trip_through_dict(self):
        spec = CampaignSpec.synthetic(
            budget=Budget(steps=4, steps_extended=6, baseline_steps=8, passes=1, repeat_best=2),
            seed=3,
            workers=4,
            store="ckpts",
            resilience=RetryPolicy(max_retries=1, breaker_threshold=2),
        )
        clone = CampaignSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert clone.resilience == spec.resilience
        assert clone.conditions == spec.conditions

    def test_dict_form_is_json_plain(self):
        import json

        spec = CampaignSpec.sundog(resilience=RetryPolicy())
        encoded = json.dumps(spec.as_dict(), sort_keys=True)
        assert CampaignSpec.from_dict(json.loads(encoded)) == spec

    def test_worker_split_prefers_explicit_workers(self):
        spec = CampaignSpec.synthetic(workers=2)
        assert spec.worker_split() == split_worker_budget(2, spec.n_cells)
        spec = CampaignSpec.synthetic(n_jobs=3)
        assert spec.worker_split() == (3, 1)


class TestCampaignRunner:
    def _tiny_spec(self, **kwargs):
        return CampaignSpec.synthetic(
            budget=Budget(steps=4, steps_extended=6, baseline_steps=8, passes=1, repeat_best=2),
            conditions=CONDITIONS[:1],
            sizes=("small",),
            strategies=("pla",),
            **kwargs,
        )

    def test_cell_specs_match_the_grid(self):
        runner = CampaignRunner(self._tiny_spec())
        specs, labels, _ = runner.cell_specs()
        assert len(specs) == len(labels) == 1
        assert labels[0] == f"{CONDITIONS[0].label}/small/pla"

    def test_run_matches_study_facade(self, tmp_path):
        spec = self._tiny_spec(seed=5)
        direct = CampaignRunner(spec).run()
        study = SyntheticStudy(
            budget=Budget(steps=4, steps_extended=6, baseline_steps=8, passes=1, repeat_best=2),
            conditions=CONDITIONS[:1],
            sizes=("small",),
            strategies=("pla",),
            seed=5,
        )
        via_study = study.run().results
        (key,) = via_study.keys()
        label = f"{key[0].label}/{key[1]}/{key[2]}"
        assert [r.best_value for r in direct[label]] == [
            r.best_value for r in via_study[key]
        ]

    def test_store_backed_campaign_skips_finished_cells(self, tmp_path):
        spec = self._tiny_spec(store=str(tmp_path / "ckpts"))
        first = CampaignRunner(spec).run()
        again = CampaignRunner(spec).run()
        (label,) = first.keys()
        assert [r.best_value for r in first[label]] == [
            r.best_value for r in again[label]
        ]


class TestFleetMode:
    def _tiny(self, **kwargs):
        return CampaignSpec.synthetic(
            budget=Budget(
                steps=4, steps_extended=6, baseline_steps=8, passes=1,
                repeat_best=2,
            ),
            conditions=CONDITIONS[:1],
            sizes=("small",),
            strategies=("pla", "bo"),
            **kwargs,
        )

    def test_fleet_requires_a_store(self):
        with pytest.raises(ValueError, match="store"):
            CampaignSpec.synthetic(mode="fleet")

    def test_unknown_mode_is_rejected(self):
        for mode in ("swarm", "packed"):
            with pytest.raises(ValueError, match="mode"):
                CampaignSpec.synthetic(mode=mode)
        # A spec saved while "packed" was a mode no longer loads.
        data = self._tiny().as_dict()
        data["mode"] = "packed"
        with pytest.raises(ValueError, match=r"\('pool', 'fleet'\)"):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs",
        [{"lease_ttl_seconds": 0.0}, {"max_claim_attempts": 0}],
    )
    def test_lease_knobs_are_validated(self, kwargs):
        with pytest.raises(ValueError):
            CampaignSpec.synthetic(mode="fleet", store="ckpts", **kwargs)

    def test_fleet_fields_round_trip_through_dict(self):
        spec = self._tiny(
            store="ckpts", mode="fleet", workers=3,
            lease_ttl_seconds=7.5, max_claim_attempts=9,
        )
        clone = CampaignSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert (clone.mode, clone.lease_ttl_seconds) == ("fleet", 7.5)
        assert clone.max_claim_attempts == 9

    def test_dicts_without_fleet_fields_default_to_pool(self):
        data = self._tiny().as_dict()
        for key in ("mode", "lease_ttl_seconds", "max_claim_attempts"):
            data.pop(key)
        assert CampaignSpec.from_dict(data).mode == "pool"

    def test_fleet_workers_run_serial_loops(self):
        spec = self._tiny(store="ckpts", mode="fleet", workers=4)
        assert spec.worker_split() == (4, 1)

    def test_store_cell_label_maps_sundog(self):
        assert store_cell_label("synthetic", "a/small/bo") == "a/small/bo"
        assert store_cell_label("sundog", "bo.h") == "sundog_bo.h"

    def test_fleet_run_matches_a_serial_pool_run(self, tmp_path):
        from repro.core.checkpoint import canonical_history

        fleet_spec = self._tiny(
            seed=2, store=str(tmp_path / "fleet"), mode="fleet", workers=2,
            lease_ttl_seconds=15.0,
        )
        pool_spec = self._tiny(
            seed=2, store=str(tmp_path / "pool"), mode="pool", n_jobs=1
        )
        fleet = CampaignRunner(fleet_spec).run()
        pool = CampaignRunner(pool_spec).run()
        assert fleet.keys() == pool.keys()
        for label in pool:
            assert [
                canonical_history(r.observations) for r in fleet[label]
            ] == [canonical_history(r.observations) for r in pool[label]]
        from repro.store import open_store

        with open_store(fleet_spec.store) as store:
            statuses = {
                lease.cell: lease.status
                for lease in store.leases("synthetic")
            }
        assert set(statuses.values()) == {"committed"}

    @pytest.mark.parametrize("suffix", ["-jsonl", ".db"])
    def test_idle_workers_drain_once_the_last_cell_commits(
        self, tmp_path, monkeypatch, suffix
    ):
        """The supervisor SIGTERMs workers idling after the last commit.

        Idle polls are patched to outlast the test, so a worker that
        left through anything but the drain would show ``drained``
        False.  Forked workers inherit both patches.
        """
        import json
        import os

        import repro.service.queue as queue
        from repro.obs import runtime as obs_runtime

        monkeypatch.setattr(queue.QueuePolicy, "poll_interval", lambda self: 60.0)
        real_run_worker = queue.run_worker

        def reporting(*args, **kwargs):
            report = real_run_worker(*args, **kwargs)
            (tmp_path / f"report-{os.getpid()}.json").write_text(
                json.dumps(
                    {"drained": report.drained, "committed": report.committed}
                )
            )
            return report

        monkeypatch.setattr(queue, "run_worker", reporting)
        spec = self._tiny(
            seed=2, store=str(tmp_path / f"fleet{suffix}"), mode="fleet",
            workers=2,
        )
        with obs_runtime.session(memory=True) as ctx:
            results = CampaignRunner(spec).run()
            exits = [
                event for event in ctx.events
                if event.get("name") in ("worker.done", "worker.lost")
            ]
        assert len(results) == 2
        assert len(exits) == 2
        assert [event["attrs"]["exitcode"] for event in exits] == [0, 0]
        reports = [
            json.loads(path.read_text())
            for path in tmp_path.glob("report-*.json")
        ]
        assert len(reports) == 2
        # One worker commits the last cell and sees the campaign done;
        # the other idles until the supervisor drains it.
        assert sorted(report["drained"] for report in reports) == [False, True]
        assert sorted(
            cell for report in reports for cell in report["committed"]
        ) == sorted(results)


# (mode, spec kwargs, store suffixes): None is no store, "-jsonl" a JSONL
# directory, ".db" SQLite.  Fleet mode needs a store the workers share.
_INVARIANCE_MODES = (
    ("pool-serial", {"n_jobs": 1}, (None, "-jsonl", ".db")),
    ("pool-loop2", {"workers": 4}, (None, "-jsonl", ".db")),
    ("fleet2", {"mode": "fleet", "workers": 2}, ("-jsonl", ".db")),
)


@pytest.mark.slow
@pytest.mark.parametrize("batch_size", [1, 4])
def test_results_do_not_depend_on_mode_workers_or_store(tmp_path, batch_size):
    """A campaign's results are a pure function of (spec, seed).

    ``batch_size`` is set explicitly: it defaults to the in-loop worker
    count, and BO's liar fantasies make it part of the spec, not an
    axis results must be invariant over.
    """
    from repro.core.checkpoint import canonical_history

    budget = Budget(
        steps=6, steps_extended=6, baseline_steps=6, passes=1, repeat_best=2
    )
    digests = {}
    for mode, kwargs, stores in _INVARIANCE_MODES:
        for store in stores:
            spec = CampaignSpec.synthetic(
                budget=budget,
                seed=4,
                conditions=CONDITIONS[:1],
                sizes=("small",),
                strategies=("pla", "bo"),
                batch_size=batch_size,
                store=None if store is None else str(tmp_path / f"{mode}{store}"),
                **kwargs,
            )
            runner = CampaignRunner(spec)
            if mode == "pool-loop2":
                assert runner.loop_workers == 2
            results = runner.run()
            digests[mode, store] = {
                label: [
                    (canonical_history(r.observations), r.best_rerun_values)
                    for r in passes
                ]
                for label, passes in results.items()
            }
    reference = digests["pool-serial", None]
    assert len(reference) == 2
    for cell, digest in digests.items():
        assert digest == reference, f"{cell} differs from a store-less serial run"
