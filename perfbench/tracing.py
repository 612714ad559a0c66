"""Outside-in layer tracing for the campaign benchmark.

The benchmark never edits ``src/``: it times each layer by replacing the
public entry points of the repo's modules with thin wrappers that record
spans into an in-memory :class:`Recorder`.  A span is
``[id, parent, name, thread, start, end, attrs, leaves]``; times come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which forked
fleet workers share with their supervisor, so spans from several
processes line up on one time axis.

Per-row calls that happen hundreds of thousands of times per campaign
(``ParameterSpace.decode`` and the codecs' ``decode``) are *leaves*:
they are not recorded one by one but summed as ``[count, seconds]``
into the span that is open when they run, and their time stays part of
that span's self time.

``repro.obs`` is not used: an active obs session turns on per-run
model diagnostics inside ``TuningLoop``, which would time a different
program.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

perf_counter = time.perf_counter

# Indices into a span record.
ID, PARENT, NAME, THREAD, START, END, ATTRS, LEAVES = range(8)

#: Span names that root a process's layer table, by process role.
CAMPAIGN_ROOT = "campaign"
WORKER_ROOT = "worker"


class Recorder:
    """Collects finished spans of this process, per thread nesting."""

    def __init__(self) -> None:
        self._start(os.getpid())

    def _start(self, pid: int) -> None:
        self.pid = pid
        self.spans: list[list] = []
        # Ids carry the pid, so spans merged from several processes
        # never collide; 0 is "no parent".
        self._ids = itertools.count((pid << 32) + 1)
        self._local = threading.local()

    def stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def restart_if_forked(self) -> None:
        """Drop what a forked child inherited from its parent."""
        if os.getpid() != self.pid:
            self._start(os.getpid())

    def dump(self, path: Path, **extra: object) -> None:
        path.write_text(
            json.dumps({"pid": self.pid, "spans": self.spans, **extra})
        )


AttrFn = Callable[[tuple, dict, object, object], dict]


def span_wrapper(
    rec: Recorder,
    name: str,
    fn: Callable,
    attrs: AttrFn | None = None,
    before: Callable[[tuple, dict], object] | None = None,
) -> Callable:
    """Wrap ``fn`` so every call records one span named ``name``.

    A call made while a span of the same name is innermost (a layer
    calling back into itself, e.g. ``tell`` routing to ``tell_failure``)
    passes straight through, so counts are per layer entry.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        if stack and stack[-1][NAME] == name:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        span = [
            next(rec._ids),
            stack[-1][ID] if stack else 0,
            name,
            threading.get_ident(),
            perf_counter(),
            None,
            None,
            None,
        ]
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            stack.pop()
            rec.spans.append(span)
        if attrs is not None:
            span[ATTRS] = attrs(args, kwargs, result, state)
        return result

    return wrapper


def leaf_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Wrap a hot per-row call: count and time it into the open span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        if not stack or stack[-1][LEAVES] is _BUSY:
            return fn(*args, **kwargs)
        top = stack[-1]
        leaves = top[LEAVES]
        top[LEAVES] = _BUSY  # a leaf calling another leaf counts once
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            if leaves is None:
                leaves = {}
            entry = leaves.get(name)
            if entry is None:
                leaves[name] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            top[LEAVES] = leaves

    return wrapper


_BUSY = object()


class Patcher:
    """Installs wrappers on attributes and can put the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ----------------------------------------------------------------------
# Attribute extractors (run after the call returns)
# ----------------------------------------------------------------------
def _rows_attrs(args, kwargs, result, state):
    """Rows handled: the length of what came back (one bare run is one)."""
    return {"rows": len(result) if hasattr(result, "__len__") else 1}


def _gp_fit_attrs(args, kwargs, result, state):
    X = args[1] if len(args) > 1 else kwargs["X"]
    refit = bool(kwargs.get("optimize_hyperparams", True)) and len(X) >= 3
    return {"refit": refit}


def _measure_before(args, kwargs):
    objective = args[0]
    return objective.cache_hits, objective.cache_misses


def _measure_attrs(args, kwargs, result, state):
    objective = args[0]
    runs = result if isinstance(result, list) else [result]
    return {
        "rows": len(runs),
        "failed": sum(1 for run in runs if run.failed),
        "hits": objective.cache_hits - state[0],
        "misses": objective.cache_misses - state[1],
    }


def _claim_attrs(args, kwargs, result, state):
    return {"reclaim": result is not None and result.attempts > 1}


class _TimeProxy:
    """Stands in for the ``time`` module inside the campaign supervisor,
    so its poll sleeps are recorded as idle time."""

    def __init__(self, rec: Recorder, module) -> None:
        self._module = module
        self.sleep = span_wrapper(rec, "fleet.idle", module.sleep)

    def __getattr__(self, attr: str):
        return getattr(self._module, attr)


def instrument(rec: Recorder) -> Patcher:
    """Wrap every layer's public entry points; returns the undo handle."""
    import multiprocessing.process

    import repro.experiments.runner as runner
    import repro.service.campaign as campaign
    import repro.service.queue as queue
    import repro.storm.analytic_batch as analytic_batch
    import repro.store as store_pkg
    import repro.topology_gen.suite as suite
    from repro.core.acquisition import AcquisitionOptimizer
    from repro.core.baselines import GridAscentOptimizer, Optimizer
    from repro.core.gp import GaussianProcess
    from repro.core.loop import TuningLoop
    from repro.core.optimizer import BayesianOptimizer
    from repro.core.parameters import ParameterSpace
    from repro.storm import spaces
    from repro.storm.analytic import AnalyticPerformanceModel
    from repro.storm.analytic_batch import AnalyticBatchModel
    from repro.storm.objective import StormObjective
    from repro.store.base import StudyStore

    p = Patcher()

    def span(owner, attr, name, attrs=None, before=None):
        p.replace(owner, attr, lambda fn: span_wrapper(rec, name, fn, attrs, before))

    # service.campaign / service.queue
    span(campaign.CampaignRunner, "run", CAMPAIGN_ROOT)
    span(queue.CellQueue, "claim_next", "queue.claim", _claim_attrs)
    span(queue.CellQueue, "pending_labels", "queue.pending")
    span(multiprocessing.process.BaseProcess, "start", "fleet.spawn")
    span(multiprocessing.process.BaseProcess, "join", "fleet.idle")
    p.replace(campaign, "time", lambda module: _TimeProxy(rec, module))

    # core.loop / core.optimizer
    span(TuningLoop, "run", "loop.run")
    for cls in (BayesianOptimizer, GridAscentOptimizer):
        span(cls, "ask", "optimizer.ask")
        span(cls, "tell", "optimizer.tell")
    span(BayesianOptimizer, "tell_failure", "optimizer.tell")
    span(Optimizer, "tell_failure", "optimizer.tell")
    span(BayesianOptimizer, "state_dict", "optimizer.state_dict")

    # core.gp / core.acquisition / core.parameters
    span(GaussianProcess, "fit", "gp.fit", _gp_fit_attrs)
    span(GaussianProcess, "update", "gp.update")
    span(AcquisitionOptimizer, "propose", "acq.propose")
    span(AcquisitionOptimizer, "score", "acq.score", _rows_attrs)
    span(ParameterSpace, "latin_hypercube", "space.pool")
    span(ParameterSpace, "round_trip_batch", "space.snap")
    p.replace(ParameterSpace, "decode", lambda fn: leaf_wrapper(rec, "space.decode", fn))

    # storm.spaces: every concrete codec's decode is a per-row leaf
    for name in dir(spaces):
        cls = getattr(spaces, name)
        if (
            isinstance(cls, type)
            and issubclass(cls, spaces.ConfigCodec)
            and "decode" in cls.__dict__
            and not getattr(cls.decode, "__isabstractmethod__", False)
        ):
            p.replace(cls, "decode", lambda fn: leaf_wrapper(rec, "codec.decode", fn))

    # storm.analytic_batch: the screener closure and the batch kernel
    def wrap_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            screen = factory(*args, **kwargs)

            def screen_attrs(a, k, keep, state):
                return {"rows": len(a[0]), "kept": int(keep.sum())}

            return span_wrapper(rec, "screen", screen, screen_attrs)

        return make

    p.replace(analytic_batch, "make_analytic_screener", wrap_factory)
    span(AnalyticBatchModel, "evaluate", "batch.evaluate", _rows_attrs)

    # storm.objective / storm.analytic
    for attr in ("measure", "measure_batch"):
        span(StormObjective, attr, "objective.measure", _measure_attrs, _measure_before)
    for attr in ("evaluate", "evaluate_batch"):
        span(AnalyticPerformanceModel, attr, "engine.evaluate", _rows_attrs)

    # store
    span(StudyStore, "save_checkpoint", "store.checkpoint")
    for attr in ("save_results", "save_results_fenced"):
        span(StudyStore, attr, "store.results")
    for attr in ("load_checkpoint", "load_results", "load_state"):
        span(StudyStore, attr, "store.load")
    span(StudyStore, "commit_lease", "store.commit")
    span(StudyStore, "renew_lease", "lease.renew")
    for owner in (store_pkg, queue):
        span(owner, "open_store", "store.open")

    # topology_gen (the runner imported these names directly)
    for owner in (suite, runner):
        span(owner, "make_topology", "topology.generate")
    span(runner, "sundog_topology", "topology.generate")
    return p


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


#: Table rows whose self time is better named by what it is: a
#: screen span's self time is the per-row candidate decode, since the
#: batch evaluation it calls is a child span.
ROW_LABELS = {"screen": "screen.decode"}


def layer_table(spans: list[list], root: str) -> list[tuple[str, float]]:
    """Self time per layer under the process's ``root`` span(s).

    Only the root's thread is counted (a heartbeat thread overlaps the
    main thread), so the rows add up to the root spans' wall time; the
    root's own self time is the ``unattributed`` row.
    """
    roots = [s for s in spans if s[NAME] == root]
    if not roots:
        return []
    thread = roots[0][THREAD]
    own = self_times(spans)
    rows: dict[str, float] = {}
    for s in spans:
        if s[THREAD] != thread:
            continue
        name = "unattributed" if s[NAME] == root else ROW_LABELS.get(s[NAME], s[NAME])
        rows[name] = rows.get(name, 0.0) + own[s[ID]]
    return sorted(rows.items(), key=lambda kv: -kv[1])


def root_seconds(spans: list[list], root: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == root)


def _sum(spans, name, key=None):
    if key is None:
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)
    return sum((s[ATTRS] or {}).get(key, 0) for s in spans if s[NAME] == name)


def _count(spans, name):
    return sum(1 for s in spans if s[NAME] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: list[list[list]]) -> dict[str, float]:
    """The benchmark's per-layer metrics over every process's spans.

    ``processes[0]`` is the campaign process; the rest are fleet
    workers.  Times are inclusive unless the name says ``self``.
    """
    spans = [s for proc in processes for s in proc]
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}

    leaves: dict[str, list[float]] = {}
    for s in spans:
        for name, (n, sec) in (s[LEAVES] or {}).items():
            entry = leaves.setdefault(name, [0, 0.0])
            entry[0] += n
            entry[1] += sec

    screen_batch_s = sum(
        s[END] - s[START]
        for s in spans
        if s[NAME] == "batch.evaluate"
        and by_id.get(s[PARENT], (None,) * 3)[NAME] == "screen"
    )

    screen_rows = _sum(spans, "screen", "rows")
    fits = [s for s in spans if s[NAME] == "gp.fit"]
    hits = _sum(spans, "objective.measure", "hits")
    misses = _sum(spans, "objective.measure", "misses")

    campaign = processes[0]
    campaign_end = max(
        (s[END] for s in campaign if s[NAME] == CAMPAIGN_ROOT), default=0.0
    )
    commits = [s[END] for proc in processes[1:] for s in proc if s[NAME] == "store.commit"]
    drain = campaign_end - max(commits) if commits else 0.0

    def self_of(name):
        return sum(own[s[ID]] for s in spans if s[NAME] == name)

    unattributed = sum(
        own[s[ID]] for s in campaign if s[NAME] == CAMPAIGN_ROOT
    )
    return {
        "screen.rows": screen_rows,
        "screen.s": _sum(spans, "screen"),
        "screen.keep_ratio": _ratio(_sum(spans, "screen", "kept"), screen_rows),
        "screen.decode_s": _sum(spans, "screen") - screen_batch_s,
        "codec.decode_n": leaves.get("codec.decode", [0, 0.0])[0],
        "codec.decode_s": leaves.get("codec.decode", [0, 0.0])[1],
        "space.decode_n": leaves.get("space.decode", [0, 0.0])[0],
        "space.decode_s": leaves.get("space.decode", [0, 0.0])[1],
        "batch.evaluate_rows": _sum(spans, "batch.evaluate", "rows"),
        "batch.evaluate_s": _sum(spans, "batch.evaluate"),
        "gp.fit_n": len(fits),
        "gp.fit_s": _sum(spans, "gp.fit"),
        "gp.refit_share": _ratio(sum(1 for s in fits if s[ATTRS]["refit"]), len(fits)),
        "gp.update_n": _count(spans, "gp.update"),
        "gp.update_s": _sum(spans, "gp.update"),
        "acq.propose_n": _count(spans, "acq.propose"),
        "acq.propose_self_s": self_of("acq.propose"),
        "acq.score_rows": _sum(spans, "acq.score", "rows"),
        "acq.score_s": _sum(spans, "acq.score"),
        "space.pool_s": _sum(spans, "space.pool"),
        "space.snap_s": _sum(spans, "space.snap"),
        "optimizer.ask_n": _count(spans, "optimizer.ask"),
        "optimizer.ask_s": _sum(spans, "optimizer.ask"),
        "optimizer.tell_n": _count(spans, "optimizer.tell"),
        "optimizer.tell_s": _sum(spans, "optimizer.tell"),
        "optimizer.state_dict_s": _sum(spans, "optimizer.state_dict"),
        "loop.runs": _count(spans, "loop.run"),
        "loop.self_s": self_of("loop.run"),
        "objective.measure_n": _sum(spans, "objective.measure", "rows"),
        "objective.measure_s": _sum(spans, "objective.measure"),
        "objective.cache_hit_ratio": _ratio(hits, hits + misses),
        "objective.failed_n": _sum(spans, "objective.measure", "failed"),
        "engine.evaluate_n": _sum(spans, "engine.evaluate", "rows"),
        "engine.evaluate_s": _sum(spans, "engine.evaluate"),
        "store.checkpoint_n": _count(spans, "store.checkpoint"),
        "store.checkpoint_s": _sum(spans, "store.checkpoint"),
        "store.results_s": _sum(spans, "store.results"),
        "store.load_s": _sum(spans, "store.load"),
        "store.open_s": _sum(spans, "store.open"),
        "queue.claim_n": _count(spans, "queue.claim"),
        "queue.claim_s": _sum(spans, "queue.claim"),
        "lease.renew_n": _count(spans, "lease.renew"),
        "lease.reclaims": _sum(spans, "queue.claim", "reclaim"),
        "worker.spawns": sum(1 for proc in processes[1:] if any(s[NAME] == WORKER_ROOT for s in proc)),
        "fleet.idle_s": _sum(campaign, "fleet.idle"),
        "fleet.drain_s": drain,
        "topology.generate_n": _count(spans, "topology.generate"),
        "topology.generate_s": _sum(spans, "topology.generate"),
        "unattributed_s": unattributed,
    }
