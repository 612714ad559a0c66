"""Crash-safe checkpointing and resume.

The acceptance criterion: a campaign killed with ``SIGKILL`` mid-run
and resumed from its checkpoint produces a byte-identical observation
history (:func:`repro.core.checkpoint.canonical_history`) to the
uninterrupted run.
"""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.baselines import GridAscentOptimizer
from repro.core.checkpoint import (
    FileCheckpointSlot,
    TuningCheckpoint,
    atomic_write_text,
    canonical_history,
    histories_match,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.continuous import SIDECAR_NAME, ContinuousTuningLoop
from repro.core.history import Observation
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import IntParameter, ParameterSpace
from repro.experiments.presets import Budget
from repro.experiments.runner import (
    StudyError,
    SyntheticCellSpec,
    SyntheticStudy,
    evaluation_failure_rows,
    run_synthetic_cell,
)
from repro.topology_gen.suite import CONDITIONS


def _objective(params):
    return float((int(params["x"]) * 7) % 13)


def _space():
    return ParameterSpace([IntParameter("x", 1, 32)])


def _observations(n=3):
    return [
        Observation(step=i, config={"x": i + 1}, value=float(i * 10))
        for i in range(n)
    ]


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ckpt = TuningCheckpoint(
            strategy="bo",
            seed=7,
            max_steps=10,
            observations=_observations(),
            optimizer_state={"kind": "test"},
        )
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded is not None
        assert loaded.strategy == "bo"
        assert loaded.seed == 7
        assert loaded.max_steps == 10
        assert loaded.completed == 3
        assert loaded.optimizer_state == {"kind": "test"}
        assert histories_match(loaded.observations, ckpt.observations)

    def test_missing_file(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.jsonl") is None

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        save_checkpoint(
            path, TuningCheckpoint(strategy="bo", observations=_observations())
        )
        text = path.read_text().rstrip("\n")
        path.write_text(text[: len(text) - 20])  # simulate a torn write
        with pytest.warns(RuntimeWarning) as caught:
            loaded = load_checkpoint(path)
        assert loaded is not None
        assert loaded.completed == 2  # last record was torn, rest kept
        # The warning must name the exact rejected record — which file
        # and which line — so a post-hoc resume diagnosis can find it.
        message = str(caught[0].message)
        assert str(path) in message
        assert "line 4" in message
        assert "keeping the 2 observation(s)" in message

    def test_no_meta_means_no_checkpoint(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"type": "observation", "step": 0}) + "\n")
        assert load_checkpoint(path) is None

    def test_atomic_write_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "file.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert not list(path.parent.glob("*.tmp"))

    def test_canonical_history_ignores_timings(self):
        a = Observation(
            step=0, config={"x": 1}, value=5.0, suggest_seconds=0.1,
            evaluate_seconds=0.2,
        )
        b = Observation(
            step=0, config={"x": 1}, value=5.0, suggest_seconds=9.9,
            evaluate_seconds=9.9,
        )
        assert canonical_history([a]) == canonical_history([b])

    def test_canonical_history_sees_failures(self):
        ok = Observation(step=0, config={"x": 1}, value=0.0)
        bad = Observation(
            step=0, config={"x": 1}, value=0.0, failed=True,
            failure_reason="worker_crash: x",
        )
        assert canonical_history([ok]) != canonical_history([bad])

    def test_version_mismatch_is_rejected_with_warning(self, tmp_path):
        """A checkpoint written by a different format version must not
        be silently parsed into garbage — warn and start fresh."""
        path = tmp_path / "run.jsonl"
        save_checkpoint(
            path, TuningCheckpoint(strategy="bo", observations=_observations())
        )
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["version"] = 999
        lines[0] = json.dumps(meta)
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="version"):
            assert load_checkpoint(path) is None

    def test_atomic_write_fsyncs_the_directory(self, tmp_path, monkeypatch):
        """os.replace lives in directory metadata; without a directory
        fsync a power cut can forget the rename after the data synced."""
        synced_kinds = []
        real_fsync = os.fsync

        def recording(fd):
            synced_kinds.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        atomic_write_text(tmp_path / "file.txt", "payload")
        assert False in synced_kinds  # the temp file's data
        assert True in synced_kinds  # the rename, in directory metadata


class TestLoopCheckpointing:
    def test_checkpoint_written_after_every_tell(self, tmp_path):
        path = tmp_path / "run.jsonl"
        opt = BayesianOptimizer(_space(), seed=0)
        result = TuningLoop(
            _objective, opt, max_steps=4, seed=1,
            checkpoint=FileCheckpointSlot(path),
        ).run()
        loaded = load_checkpoint(path)
        assert loaded is not None
        assert loaded.completed == 4
        assert loaded.optimizer_state is not None
        assert histories_match(loaded.observations, result.observations)

    def test_exact_resume_matches_uninterrupted(self, tmp_path):
        def run(max_steps, path):
            opt = BayesianOptimizer(_space(), seed=3)
            return TuningLoop(
                _objective, opt, max_steps=max_steps, seed=11,
                checkpoint=FileCheckpointSlot(path),
            ).run()

        full = run(6, tmp_path / "full.jsonl")
        run(3, tmp_path / "cut.jsonl")  # the "crashed" half-run
        resumed = run(6, tmp_path / "cut.jsonl")
        assert resumed.metadata["resumed_steps"] == 3
        assert histories_match(resumed.observations, full.observations)
        assert canonical_history(resumed.observations) == canonical_history(
            full.observations
        )

    def test_replay_resume_for_stateless_optimizer(self, tmp_path):
        configs = [{"x": v} for v in (1, 2, 3, 4, 5, 6)]

        def run(max_steps, path):
            opt = GridAscentOptimizer(configs)
            return TuningLoop(
                _objective, opt, max_steps=max_steps, seed=2,
                checkpoint=FileCheckpointSlot(path), strategy_name="grid",
            ).run()

        full = run(6, tmp_path / "full.jsonl")
        run(2, tmp_path / "cut.jsonl")
        resumed = run(6, tmp_path / "cut.jsonl")
        assert resumed.metadata["resumed_steps"] == 2
        assert histories_match(resumed.observations, full.observations)

    def test_completed_checkpoint_short_circuits_the_loop(self, tmp_path):
        path = tmp_path / "run.jsonl"
        calls = []

        def counting(params):
            calls.append(1)
            return _objective(params)

        opt = BayesianOptimizer(_space(), seed=0)
        TuningLoop(
            counting, opt, max_steps=3, seed=1,
            checkpoint=FileCheckpointSlot(path),
        ).run()
        n_first = len(calls)
        opt2 = BayesianOptimizer(_space(), seed=0)
        result = TuningLoop(
            counting, opt2, max_steps=3, seed=1,
            checkpoint=FileCheckpointSlot(path),
        ).run()
        assert len(calls) == n_first  # nothing re-evaluated
        assert result.metadata["resumed_steps"] == 3


@pytest.mark.slow
class TestKillMidRun:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """kill -9 a checkpointing run; resume reproduces the history."""
        ckpt = tmp_path / "killed.jsonl"
        script = tmp_path / "child.py"
        script.write_text(
            textwrap.dedent(
                """
                import sys, time
                from repro.core.checkpoint import FileCheckpointSlot
                from repro.core.loop import TuningLoop
                from repro.core.optimizer import BayesianOptimizer
                from repro.core.parameters import IntParameter, ParameterSpace

                def objective(params):
                    time.sleep(0.1)  # slow enough to die mid-run
                    return float((int(params["x"]) * 7) % 13)

                space = ParameterSpace([IntParameter("x", 1, 32)])
                opt = BayesianOptimizer(space, seed=3)
                TuningLoop(
                    objective, opt, max_steps=16, seed=11,
                    checkpoint=FileCheckpointSlot(sys.argv[1]),
                ).run()
                """
            )
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), str(ckpt)],
            cwd=Path(__file__).resolve().parents[1],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                loaded = load_checkpoint(ckpt)
                if loaded is not None and loaded.completed >= 2:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.kill()  # SIGKILL: no atexit, no cleanup
        finally:
            proc.wait()
        killed = load_checkpoint(ckpt)
        assert killed is not None
        assert 0 < killed.completed < 16, "child died mid-run as intended"

        reference = TuningLoop(
            _objective,
            BayesianOptimizer(_space(), seed=3),
            max_steps=16,
            seed=11,
        ).run()
        resumed = TuningLoop(
            _objective,
            BayesianOptimizer(_space(), seed=3),
            max_steps=16,
            seed=11,
            checkpoint=FileCheckpointSlot(ckpt),
        ).run()
        assert resumed.metadata["resumed_steps"] == killed.completed
        assert canonical_history(resumed.observations) == canonical_history(
            reference.observations
        )


class _DriftingParabola:
    """Deterministic grid objective whose ceiling collapses at t >= 1000s.

    Integer grid on purpose: byte-identity requires proposals that
    survive the optimizer-state round-trip of a resume, and rounding
    absorbs the ~1e-14 posterior difference continuous coordinates
    would expose.
    """

    def __init__(self):
        self.t = 0.0

    def set_workload_time(self, t_s):
        self.t = float(t_s)

    def __call__(self, params):
        scale = 100.0 if self.t < 1000.0 else 40.0
        x = float(params["x"]) / 100.0
        y = float(params["y"]) / 100.0
        return scale * (1.0 - (x - 0.5) ** 2 - (y - 0.5) ** 2)


def _drift_loop(objective, checkpoint_dir):
    space = ParameterSpace(
        [IntParameter("x", 0, 100), IntParameter("y", 0, 100)]
    )
    return ContinuousTuningLoop(
        objective,
        lambda seed: BayesianOptimizer(space, seed=seed, init_points=3),
        epochs=4,
        epoch_duration_s=600.0,
        steps_per_epoch=4,
        initial_steps=6,
        mode="continuous",
        seed=5,
        checkpoint_dir=checkpoint_dir,
    )


@pytest.mark.slow
class TestKillMidDrift:
    def test_sigkill_across_drift_event_resumes_byte_identical(
        self, tmp_path
    ):
        """kill -9 a continuous-tuning campaign mid-epoch *after* its
        drift detection; the resumed run reproduces the uninterrupted
        history byte-identically, detections included."""
        ckpt_dir = tmp_path / "drift"
        script = tmp_path / "child.py"
        script.write_text(
            textwrap.dedent(
                """
                import sys, time
                from repro.core.continuous import ContinuousTuningLoop
                from repro.core.optimizer import BayesianOptimizer
                from repro.core.parameters import IntParameter, ParameterSpace

                class DriftingParabola:
                    def __init__(self):
                        self.t = 0.0
                    def set_workload_time(self, t_s):
                        self.t = float(t_s)
                    def __call__(self, params):
                        time.sleep(0.1)  # slow enough to die mid-epoch
                        scale = 100.0 if self.t < 1000.0 else 40.0
                        x = float(params["x"]) / 100.0
                        y = float(params["y"]) / 100.0
                        return scale * (1.0 - (x - 0.5) ** 2 - (y - 0.5) ** 2)

                space = ParameterSpace(
                    [IntParameter("x", 0, 100), IntParameter("y", 0, 100)]
                )
                ContinuousTuningLoop(
                    DriftingParabola(),
                    lambda seed: BayesianOptimizer(space, seed=seed, init_points=3),
                    epochs=4, epoch_duration_s=600.0, steps_per_epoch=4,
                    initial_steps=6, mode="continuous", seed=5,
                    checkpoint_dir=sys.argv[1],
                ).run()
                """
            )
        )

        def past_detection():
            sidecar = ckpt_dir / SIDECAR_NAME
            if not sidecar.is_file():
                return False
            try:
                data = json.loads(sidecar.read_text())
            except (OSError, json.JSONDecodeError):
                return False
            if not data.get("detections"):
                return False
            completed = int(data.get("epochs_completed", 0))
            if completed >= 4:
                return False
            partial = load_checkpoint(ckpt_dir / f"epoch-{completed:04d}.jsonl")
            return partial is not None and partial.completed >= 1

        proc = subprocess.Popen(
            [sys.executable, str(script), str(ckpt_dir)],
            cwd=Path(__file__).resolve().parents[1],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        killed_mid_run = False
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if past_detection():
                    killed_mid_run = True
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.kill()  # SIGKILL: no atexit, no cleanup
        finally:
            proc.wait()
        assert killed_mid_run, "child died mid-epoch past its detection"

        reference = _drift_loop(_DriftingParabola(), None).run()
        resumed = _drift_loop(_DriftingParabola(), ckpt_dir).run()
        assert resumed.metadata["resumed_epochs"] >= 3
        assert resumed.detections == reference.detections
        assert canonical_history(resumed.observations) == canonical_history(
            reference.observations
        )


def _tiny_budget():
    return Budget(
        steps=3, steps_extended=3, baseline_steps=3, passes=1, repeat_best=2
    )


class TestStudyCheckpointing:
    def _spec(self, tmp_path):
        return SyntheticCellSpec(
            size="small",
            condition=CONDITIONS[0],
            strategy="pla",
            budget=_tiny_budget(),
            seed=0,
            checkpoint_dir=str(tmp_path),
        )

    def test_cell_writes_pass_and_done_files(self, tmp_path):
        results = run_synthetic_cell(self._spec(tmp_path))
        files = {p.name for p in Path(tmp_path).iterdir()}
        assert any(name.endswith(".pass0.jsonl") for name in files)
        assert any(name.endswith(".done.json") for name in files)
        assert results[0].observations

    def test_done_cell_is_not_rerun(self, tmp_path):
        first = run_synthetic_cell(self._spec(tmp_path))
        again = run_synthetic_cell(self._spec(tmp_path))
        assert histories_match(
            first[0].observations, again[0].observations
        )
        assert again[0].metadata["pass"] == 0

    def test_study_plumbs_checkpoint_dir(self, tmp_path):
        study = SyntheticStudy(
            _tiny_budget(),
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla"],
            checkpoint_dir=str(tmp_path),
        )
        assert study.specs()[0].checkpoint_dir == str(tmp_path)
        study.run()
        assert any(
            p.name.endswith(".done.json") for p in Path(tmp_path).iterdir()
        )


class TestStudyErrorAggregation:
    def test_bad_cell_raises_study_error_with_label(self):
        study = SyntheticStudy(
            _tiny_budget(),
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla", "nope"],
        )
        with pytest.raises(StudyError) as info:
            study.run()
        failures = dict(info.value.failures)
        assert list(failures) == [f"{CONDITIONS[0].label}/small/nope"]
        assert "unknown synthetic strategy" in failures[
            f"{CONDITIONS[0].label}/small/nope"
        ]
        # The good cell's results were still computed and stored? No —
        # run() raises before storing, but its compute wasn't wasted:
        # all cells were attempted (one failure listed, not two).
        assert len(info.value.failures) == 1

    def test_evaluation_failure_rows(self):
        from repro.core.history import TuningResult

        class FakeStudy:
            results = {
                (CONDITIONS[0], "small", "bo"): [
                    TuningResult(
                        strategy="bo",
                        observations=[
                            Observation(
                                step=0, config={}, value=0.0, failed=True,
                                failure_reason="worker_crash: x",
                            )
                        ],
                        metadata={"pass": 0},
                    )
                ],
                ("bo", "h"): [
                    TuningResult(
                        strategy="bo",
                        observations=[
                            Observation(step=0, config={}, value=5.0)
                        ],
                    )
                ],
            }

        rows = evaluation_failure_rows(FakeStudy())
        assert len(rows) == 1
        assert rows[0]["cell"].endswith("/small/bo")
        assert rows[0]["last_reason"].startswith("worker_crash")


@pytest.mark.slow
class TestCliResume:
    def _tiny(self, monkeypatch):
        import repro.cli as cli
        from repro.experiments import presets

        tiny = presets.Budget(
            steps=3, steps_extended=4, baseline_steps=4, passes=1,
            repeat_best=2,
        )
        monkeypatch.setattr(presets, "default_budget", lambda: tiny)
        monkeypatch.setattr(cli, "default_budget", lambda: tiny)

    def test_resume_flag_checkpoints_and_reuses(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        self._tiny(monkeypatch)
        resume_dir = tmp_path / "ckpt"
        assert main(["fig5", "--resume", str(resume_dir)]) == 0
        first = capsys.readouterr().out
        assert "Figure 5" in first
        done_files = list(resume_dir.glob("*.done.json"))
        assert done_files

        # Second invocation resumes from the done files: same exhibit.
        assert main(["fig5", "--resume", str(resume_dir)]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-5:] == second.splitlines()[-5:]
