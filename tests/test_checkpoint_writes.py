"""Checkpoint writes that cost O(1) observation records per tell.

The loop saves its whole checkpoint after every tell; the SQLite store
inserts only the observations added since its previous save of the
address (the JSONL store rewrites the file whole).  These tests pin
that contract from the outside:

* a run of n tells encodes n observation records, not n(n+1)/2;
* a store whose stored run was changed by another writer falls back to
  a whole rewrite of its own, consistent history;
* a load that stopped at a malformed record, followed by a resume,
  leaves no malformed record behind (both backends).
"""

from __future__ import annotations

import json
import sqlite3
import warnings

import pytest

from repro.core.baselines import GridAscentOptimizer
from repro.core.checkpoint import TuningCheckpoint, canonical_history
from repro.core.history import Observation
from repro.core.loop import TuningLoop
from repro.obs import runtime as obs_runtime
from repro.store import JsonlStudyStore, SqliteStudyStore


def _objective(params):
    return float((int(params["x"]) * 7) % 13)


def _grid(n):
    return GridAscentOptimizer([{"x": 1 + (i % 32)} for i in range(n)])


def _open(backend, tmp_path):
    if backend == "jsonl":
        return JsonlStudyStore(tmp_path / "store-dir")
    return SqliteStudyStore(tmp_path / "store.db")


def _history(n, offset=0.0):
    return [
        Observation(step=i, config={"x": i + 1}, value=float(i) + offset)
        for i in range(n)
    ]


def _save(store, observations, n):
    store.save_checkpoint(
        "s", "c", "r",
        TuningCheckpoint(
            strategy="grid", seed=1, max_steps=99,
            observations=observations[:n],
        ),
    )


def _encoded(ctx):
    return ctx.metrics.counter("store.checkpoint_observations").value


BACKENDS = ["jsonl", "sqlite"]


@pytest.mark.parametrize(
    "backend,expected",
    # Whole rewrites encode 1 + 2 + ... + 60 = 1,830 records.
    [("sqlite", 60), ("jsonl", 1830)],
)
def test_sqlite_encodes_each_observation_once(backend, expected, tmp_path):
    store = _open(backend, tmp_path)
    with obs_runtime.session() as ctx:
        result = TuningLoop(
            _objective, _grid(60), max_steps=60, seed=3,
            checkpoint=store.checkpoint_slot("s", "c", "r"),
            strategy_name="grid",
        ).run()
        encoded = _encoded(ctx)
        writes = ctx.metrics.counter("store.checkpoint_writes").value
    assert writes == 60
    assert encoded == expected
    loaded = _open(backend, tmp_path).load_checkpoint("s", "c", "r")
    assert canonical_history(loaded.observations) == canonical_history(
        result.observations
    )


@pytest.mark.parametrize("rival_length", [3, 7])
def test_a_changed_stored_run_is_rewritten_whole(rival_length, tmp_path):
    mine = _history(6)
    writer = _open("sqlite", tmp_path)
    for n in range(1, 6):
        _save(writer, mine, n)
    # Another writer (a reclaimed lease's stale worker, say) stores a
    # different history at the same address.
    _save(_open("sqlite", tmp_path), _history(rival_length, 0.5), rival_length)
    with obs_runtime.session() as ctx:
        _save(writer, mine, 6)
        assert _encoded(ctx) == 6
    loaded = _open("sqlite", tmp_path).load_checkpoint("s", "c", "r")
    assert canonical_history(loaded.observations) == canonical_history(mine)


def _corrupt(backend, tmp_path, store, step):
    if backend == "sqlite":
        conn = sqlite3.connect(tmp_path / "store.db")
        with conn:
            conn.execute(
                "UPDATE observations SET payload = '{torn' WHERE step = ?",
                (step,),
            )
        conn.close()
        return
    path = store._checkpoint_path("c", "r")
    lines = path.read_text().splitlines(keepends=True)
    lines[1 + step] = '{"type": "observation", "torn\n'
    path.write_text("".join(lines))


def _malformed_rows(backend, tmp_path, store):
    if backend == "sqlite":
        conn = sqlite3.connect(tmp_path / "store.db")
        payloads = [
            row[0] for row in conn.execute("SELECT payload FROM observations")
        ]
        conn.close()
    else:
        payloads = store._checkpoint_path("c", "r").read_text().splitlines()
    bad = 0
    for payload in payloads:
        try:
            json.loads(payload)
        except json.JSONDecodeError:
            bad += 1
    return bad


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("step", [2, 4])
def test_resume_after_a_malformed_record_leaves_none_behind(
    backend, step, tmp_path
):
    def run(max_steps, store):
        return TuningLoop(
            _objective, _grid(8), max_steps=max_steps, seed=3,
            checkpoint=store.checkpoint_slot("s", "c", "r"),
            strategy_name="grid",
        ).run()

    reference = run(8, _open(backend, tmp_path / "ref"))
    store = _open(backend, tmp_path)
    run(5, store)
    _corrupt(backend, tmp_path, store, step)
    resumer = _open(backend, tmp_path)
    with pytest.warns(RuntimeWarning, match="malformed|torn"):
        resumed = run(8, resumer)
    assert resumed.metadata["resumed_steps"] == step
    assert _malformed_rows(backend, tmp_path, resumer) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = _open(backend, tmp_path).load_checkpoint("s", "c", "r")
    assert canonical_history(loaded.observations) == canonical_history(
        reference.observations
    )


def test_sqlite_drops_the_snapshot_a_truncated_load_cannot_pair(tmp_path):
    store = _open("sqlite", tmp_path)
    checkpoint = TuningCheckpoint(
        strategy="bo", seed=1, max_steps=9,
        observations=_history(4), optimizer_state={"taken_at": 4},
    )
    store.save_checkpoint("s", "c", "r", checkpoint)
    _corrupt("sqlite", tmp_path, store, 3)
    with pytest.warns(RuntimeWarning, match="snapshot"):
        loaded = store.load_checkpoint("s", "c", "r")
    assert loaded.completed == 3
    assert loaded.optimizer_state is None
