"""Crash-safe tuning-run checkpoints (JSONL, atomic rename).

The paper leaned on Spearmint's pause/resume because cluster-scale
campaigns die mid-run (§III-C); this module gives :class:`~repro.core.
loop.TuningLoop` the same property.  After every ``tell`` the loop
rewrites its checkpoint file — observation history plus, when the
optimizer supports ``state_dict``, a full optimizer snapshot — via the
classic atomic-replace dance (write temp file in the same directory,
fsync, ``os.replace``), so a reader never sees a torn file: after a
``kill -9`` the checkpoint is exactly the state as of some completed
step (docs/ROBUSTNESS.md documents the format).

Checkpoint layout, one JSON record per line::

    {"type": "meta", "version": 1, "strategy": ..., "seed": ...,
     "max_steps": ..., "completed": N}
    {"type": "observation", ...Observation.as_dict()...}   # × N
    {"type": "optimizer_state", "state": {...}}            # optional

Resume semantics: completed observations are replayed into the result
verbatim; the optimizer is restored from its snapshot when one exists
(exact resume — same RNG stream, same GP state), else every completed
observation is re-told into a fresh optimizer (replay resume — exact
for deterministic replay-tolerant strategies like grid ascent).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from repro.core.history import Observation

CHECKPOINT_VERSION = 1

#: Wall-clock fields of an observation record.  Excluded from
#: :func:`canonical_history` because no two executions of anything
#: measure identical durations; everything else — steps, configs,
#: values, failure diagnoses — must match bit-for-bit between an
#: uninterrupted run and a kill-and-resume one.
TIMING_FIELDS = ("suggest_seconds", "evaluate_seconds")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers see old or new, never torn.

    The temp file lives in the destination directory because
    ``os.replace`` is only atomic within one filesystem.  After the
    replace, the *directory* is fsynced too: the rename itself lives in
    directory metadata, and without flushing it a power cut can forget
    the replace even though the file data was synced.  Platforms where
    a directory cannot be opened for reading skip that step.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory's metadata (the rename)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


@dataclass
class TuningCheckpoint:
    """One tuning run's recoverable state."""

    strategy: str = ""
    seed: int | None = None
    max_steps: int = 0
    observations: list[Observation] = field(default_factory=list)
    optimizer_state: dict[str, object] | None = None

    @property
    def completed(self) -> int:
        return len(self.observations)

    def records(self) -> list[dict[str, object]]:
        out: list[dict[str, object]] = [
            {
                "type": "meta",
                "version": CHECKPOINT_VERSION,
                "strategy": self.strategy,
                "seed": self.seed,
                "max_steps": self.max_steps,
                "completed": self.completed,
            }
        ]
        out.extend(
            {"type": "observation", **obs.as_dict()} for obs in self.observations
        )
        if self.optimizer_state is not None:
            out.append({"type": "optimizer_state", "state": self.optimizer_state})
        return out


def save_checkpoint(path: str | Path, checkpoint: TuningCheckpoint) -> None:
    """Atomically (re)write the whole checkpoint file."""
    lines = [
        json.dumps(record, default=_json_default)
        for record in checkpoint.records()
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _warn_torn(path: Path, line_no: int, kept: int, why: str) -> None:
    """Name the exact record that was rejected, not just that one was.

    A crashed producer legitimately leaves a torn tail, but an operator
    debugging a resume needs to know *where* parsing stopped — which
    file, which line, and how much trusted progress survives before it.
    """
    warnings.warn(
        f"checkpoint {path}: line {line_no} is {why}; keeping the "
        f"{kept} observation(s) before it and discarding the rest",
        RuntimeWarning,
        stacklevel=3,
    )


def load_checkpoint(path: str | Path) -> TuningCheckpoint | None:
    """Read a checkpoint back; None when absent or unreadable.

    Atomic writes make torn files impossible in normal operation, but a
    copied or hand-edited file may still be malformed — parsing stops
    at the first bad line and keeps everything before it, which is the
    most progress that can be trusted.  The rejected line is named
    (path plus 1-based line number) in a :class:`RuntimeWarning` so a
    resume that silently dropped records is diagnosable after the fact.
    """
    path = Path(path)
    if not path.is_file():
        return None
    checkpoint = TuningCheckpoint()
    saw_meta = False
    try:
        text = path.read_text()
    except OSError:
        return None
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            _warn_torn(
                path, line_no, checkpoint.completed, "torn or not valid JSON"
            )
            break
        kind = record.get("type")
        if kind == "meta":
            version = record.get("version")
            if version != CHECKPOINT_VERSION:
                warnings.warn(
                    f"checkpoint {path}: line {line_no} has version "
                    f"{version!r} but this build reads version "
                    f"{CHECKPOINT_VERSION}; ignoring the checkpoint "
                    "(the run will start fresh)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return None
            saw_meta = True
            checkpoint.strategy = str(record.get("strategy", ""))
            seed = record.get("seed")
            checkpoint.seed = None if seed is None else int(seed)
            checkpoint.max_steps = int(record.get("max_steps", 0))
        elif kind == "observation":
            try:
                checkpoint.observations.append(Observation.from_dict(record))
            except (KeyError, TypeError, ValueError) as exc:
                _warn_torn(
                    path,
                    line_no,
                    checkpoint.completed,
                    f"a malformed observation record ({exc})",
                )
                break
        elif kind == "optimizer_state":
            state = record.get("state")
            if isinstance(state, Mapping):
                checkpoint.optimizer_state = dict(state)
    if not saw_meta:
        return None
    return checkpoint


class CheckpointSlot(Protocol):
    """Where one tuning run's checkpoint lives.

    The slot is the seam between :class:`~repro.core.loop.TuningLoop`
    and persistence: the loop saves and loads whole
    :class:`TuningCheckpoint` values and never learns whether they land
    in a standalone JSONL file (:class:`FileCheckpointSlot`) or in a
    study store backend (:class:`repro.store.base.StoreCheckpointSlot`).
    """

    def load(self) -> TuningCheckpoint | None:
        """The last saved checkpoint, or None when none exists."""
        ...  # pragma: no cover - protocol

    def save(self, checkpoint: TuningCheckpoint) -> None:
        """Atomically replace the stored checkpoint."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """Human-readable location for events and error messages."""
        ...  # pragma: no cover - protocol


class FileCheckpointSlot:
    """One standalone JSONL checkpoint file (the pre-store format)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def load(self) -> TuningCheckpoint | None:
        return load_checkpoint(self.path)

    def save(self, checkpoint: TuningCheckpoint) -> None:
        save_checkpoint(self.path, checkpoint)

    def describe(self) -> str:
        return str(self.path)


def canonical_history(
    observations: Iterable[Observation | Mapping[str, object]],
) -> bytes:
    """Byte-exact encoding of a history, wall-clock timings excluded.

    This is the comparison key of the resume acceptance criterion: a
    killed-and-resumed campaign must reproduce the uninterrupted run's
    observations *byte-identically* — same steps, configs, values, and
    failure diagnoses.  Timing fields are measurements of the host, not
    of the optimization, and are stripped.
    """
    canon: list[dict[str, object]] = []
    for obs in observations:
        data = obs.as_dict() if isinstance(obs, Observation) else dict(obs)
        data.pop("type", None)
        for fieldname in TIMING_FIELDS:
            data.pop(fieldname, None)
        canon.append(data)
    return json.dumps(canon, sort_keys=True, default=_json_default).encode()


def histories_match(
    a: Sequence[Observation | Mapping[str, object]],
    b: Sequence[Observation | Mapping[str, object]],
) -> bool:
    return canonical_history(a) == canonical_history(b)


def _json_default(obj: object) -> object:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        raise TypeError(f"not JSON serializable: {type(obj)!r}") from None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
