"""Campaign benchmark: whole tuning campaigns through `CampaignRunner`.

    python3 perfbench/run.py --workload fig45-grid --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each repetition runs the workload's
campaign once in a fresh process (``campaign_rep.py``); repetitions
continue while another fits into ``--seconds``, and every timing is the
median over them.  Set-up is sampled at least three times, with extra
set-up-only processes when the campaign itself is too long to repeat.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
campaign once untraced and once with every layer wrapped, and prints
the per-layer metrics plus one layer table per process.  The last line
of standard output is the JSON result.  A fuller record (host
reference timings, sample counts, behaviour digest, tables) goes to
``.perfbench_out/``; traced spans go next to it.

Exit codes: 0 with a result line; 2 (no result) when the checkout does
not hold the program, or a repetition crashes or times out.
"""

from __future__ import annotations

import os

from campaign_rep import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Set-up samples per run, at least.
MIN_SETUPS = 3
#: A run must be over well within the 180 s a benchmark run may take.
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "suggest_p50_ms": "ms",
    "best_tps_gmean": "tuples/s",
    "eval_ok_share": "ratio",
    "peak_rss_mb": "MB",
}


class RepFailed(RuntimeError):
    pass


def host_reference() -> dict[str, float]:
    """Time a fixed computation, to tell host drift from code changes.

    Median of three of each: a pure-Python loop and a NumPy Cholesky.
    """
    import numpy as np

    def python_loop() -> None:
        total = 0
        for i in range(300_000):
            total += i * i % 7

    a = np.random.default_rng(0).random((300, 300))
    spd = a @ a.T + 300 * np.eye(300)

    def cholesky() -> None:
        for _ in range(20):
            np.linalg.cholesky(spd)

    out = {}
    for name, fn in (("python_loop_s", python_loop), ("numpy_cholesky_s", cholesky)):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        out[name] = statistics.median(samples)
    return out


class Runner:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.root = root
        self.started = time.perf_counter()
        self.work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.n = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def rep(self, *flags: str) -> dict:
        """One repetition in a fresh process; its JSON record."""
        self.n += 1
        rep_dir = self.work / f"rep{self.n}"
        out = self.work / f"rep{self.n}.json"
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RepFailed("out of time before a repetition could start")
        cmd = [
            sys.executable,
            str(HERE / "campaign_rep.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", str(rep_dir),
            "--out", str(out),
            *flags,
            "--spawned-at", repr(time.perf_counter()),
        ]
        # Own session, so a timeout also stops forked fleet workers.
        proc = subprocess.Popen(
            cmd, env=self.env, cwd=self.root, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepFailed(f"repetition {self.n} timed out") from None
        finally:
            _kill_group(proc.pid)
        if proc.returncode != 0:
            raise RepFailed(
                f"repetition {self.n} exited {proc.returncode}:\n{stderr[-3000:]}"
            )
        record = json.loads(out.read_text())
        shutil.rmtree(rep_dir, ignore_errors=True)
        return record


def _kill_group(pgid: int) -> None:
    """Stop anything a repetition left behind and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def _problems(records: list[dict]) -> list[str]:
    problems = [p for r in records for p in r["problems"]]
    digests = {r["digest"] for r in records}
    if len(digests) > 1:
        problems.append(f"one seed gave {len(digests)} different outputs: {sorted(digests)}")
    return problems


def _counts(records: list[dict]) -> tuple[int, int]:
    attempted = sum(r["runs_expected"] for r in records)
    failed = sum(r["runs_expected"] - r["runs"] + r["bad_runs"] for r in records)
    return attempted, failed


def measure(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    t0 = time.perf_counter()
    records: list[dict] = []
    while True:
        records.append(runner.rep())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(records) > seconds:
            break
    setups = [r["setup_s"] for r in records]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.rep("--setup-only")["setup_s"])

    def med(key: str) -> float:
        return statistics.median(r[key] for r in records)

    first = records[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "campaign_s": med("campaign_s"),
        "suggest_p50_ms": 1e3 * statistics.median(
            statistics.median(r["suggest_seconds"]) for r in records
        ),
        "best_tps_gmean": first["best_tps_gmean"],
        "eval_ok_share": first["eval_ok_share"],
        "peak_rss_mb": med("peak_rss_mb"),
    }
    meta = {
        "repetitions": len(records),
        "setup_samples": setups,
        "campaign_s_samples": [r["campaign_s"] for r in records],
        "suggest_samples": len(first["suggest_seconds"]),
        "suggest_source": first["suggest_source"],
        # Recorded, not a metric: its run-to-run spread on a shared
        # host is wider than any bound the benchmark may set.
        "suggest_p90_ms": 1e3 * statistics.median(
            _p90(r["suggest_seconds"]) for r in records
        ),
        "suggest_samples_beyond_p90": len(first["suggest_seconds"]) // 10,
        "evaluations": first["evaluations"],
        "failed_evaluations": first["failed_evaluations"],
        "digest": first["digest"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, meta, records


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def measure_traced(runner: Runner, out_dir: Path, stem: str) -> tuple[dict, dict, list[dict]]:
    plain = runner.rep()
    traced = runner.rep("--trace")
    spans_file = out_dir / f"{stem}.spans.json"
    shutil.move(str(runner.work / traced["spans_file"]), spans_file)
    layers = dict(traced["layers"])
    layers["trace.campaign_s"] = traced["campaign_s"]
    layers["trace.overhead_s"] = traced["campaign_s"] - plain["campaign_s"]
    meta = {
        "untraced_campaign_s": plain["campaign_s"],
        "traced_campaign_s": traced["campaign_s"],
        "tables": traced["tables"],
        "digest": traced["digest"],
        "spans_file": str(spans_file.relative_to(runner.root)),
    }
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    return metrics, meta, [plain, traced]


def print_tables(tables: list[dict]) -> None:
    for table in tables:
        total = sum(s for _, s in table["rows"])
        print(f"\nlayer table: {table['process']} "
              f"(wall {table['seconds']:.3f} s, rows sum {total:.3f} s)")
        for name, sec in table["rows"]:
            share = sec / table["seconds"] if table["seconds"] else 0.0
            print(f"  {name:<22} {sec:9.4f} s  {share:6.1%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "campaign.py").is_file():
        print("perfbench: run from the repository root; src/repro is missing",
              file=sys.stderr)
        return 2

    host = host_reference()
    runner = Runner(args, root)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, meta, records = measure_traced(runner, out_dir, stem)
        else:
            metrics, meta, records = measure(runner, args.seconds)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    problems = _problems(records)
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            problems.append("a metric is not finite")
            metric["value"] = None  # keeps the line strict JSON
    attempted, failed = _counts(records)
    meta.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        threads={var: os.environ[var] for var in THREAD_VARS},
        host_reference=host,
        problems=problems,
        wall_s=time.perf_counter() - runner.started,
    )
    (out_dir / f"{stem}.json").write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1))

    if args.trace:
        print_tables(meta.pop("tables"))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
