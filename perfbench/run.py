#!/usr/bin/env python3
"""End-to-end benchmark: the paper pipeline, neighbourhood search and
``/predict`` serving, with per-layer traces.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline_quick --seed 0 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``pipeline_quick`` — a cold ``run`` → ``train`` → ``report`` at
  ``quick`` scale (12 programs × 10 machines × 60 settings, 192 folds)
  with a fresh cache directory and the serial executor, in one process.
* ``search_tiny`` — the ``tournament --smoke`` grid (``tiny``, ``sha`` and
  ``crc`` × 2 machines, budget 40, 15 seeds, 248 runs) after building its
  ``tiny`` dataset.
* ``serve_predict`` — a ``quick`` model built, trained and promoted in a
  fresh registry, served by ``repro.service.server`` in its own process
  on loopback, sharing one core with the load generator; an open loop
  at 60 requests/s, then a fixed count of requests over two
  connections in a closed loop.

The seed picks the inputs where that keeps the work comparable.
``search_tiny`` takes variant ``seed % 4`` (seed 0 is the preset): the
variant offsets the 15 search seeds, and each variant's leaderboard was
recorded in ``expected.json``.  ``serve_predict`` draws its request mix
from the seed and checks every answer against the in-process ranking on
the same registry version.  ``pipeline_quick`` always runs the preset:
another machine sample moves the protocol's fallback compiles, and so
the fold times, by up to a quarter, which would swamp the bounds.

Every repetition runs in a fresh process with its own empty cache and
registry directory inside the run's directory under ``.perfbench/`` in
the checkout (the benchmark writes nowhere else).  A run removes its
directory on exit, also on SIGTERM, and first removes any left by a run
whose process is gone (one killed with SIGKILL).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` one
untraced and one traced repetition run, the line carries the per-layer
metrics of the traced one plus the tracing overhead, and the traced
spans stay behind as ``.perfbench/trace-<workload>-seed<n>.jsonl``.
Output mismatches fail the run (exit 1) and count in ``success_rate``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
VARIANTS = 4
#: No run may take longer than this (the benchmark contract allows 180 s).
RUN_LIMIT_S = 170.0
#: Extra set-up-only processes per run, so ``setup_s`` is a median.
SETUP_PROBES = 2
#: Server set-ups per ``serve_predict`` run; the last one serves.
SERVE_SETUPS = 2
#: Rough seconds per repetition: a run makes ``--seconds // this`` of
#: them (at least one), a fixed count so every run has the same shape.
REPETITION_S = {"pipeline_quick": 22.0, "search_tiny": 26.0}
#: About 40% of the closed-loop capacity measured with server and
#: generator on one core (about 155 requests/s), so a slow spell on a
#: shared host does not tip the open loop into overload.
OPEN_RATE = 60.0
#: Share of ``--seconds`` spent in the open loop; closed-loop requests
#: per ``--seconds``.
OPEN_SHARE = 0.2
CLOSED_PER_SECOND = 50
TAIL_PERCENTILE = 0.95

sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
from tracing import COVERAGE_FLOOR  # noqa: E402
from worker import RESULT_PREFIX  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to running and failing)."""


class Run:
    """One invocation: arguments, working directory, tallies."""

    def __init__(self, args, expected: dict):
        self.workload = args.workload
        self.seed = args.seed
        self.variant = args.seed % VARIANTS if args.workload == "search_tiny" else 0
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.expected = expected
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: Workers started and not yet reaped.
        self.live: set[subprocess.Popen] = set()
        self.trace_out = WORK / f"trace-{self.workload}-seed{self.seed}.jsonl"
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.workload}-{os.getpid()}-", dir=WORK))

    def check(self, label: str, ok: bool) -> bool:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {label}")
        return ok

    def expect(self) -> dict:
        """The outputs recorded for this workload variant."""
        table = self.expected["smoke" if self.smoke else self.workload]
        entry = table.get(str(self.variant))
        if entry is None:
            raise BenchError(
                f"no expected outputs recorded for {self.workload} variant {self.variant}"
            )
        return entry

    def job(self, mode: str, trace: bool = False) -> dict:
        return {
            "mode": mode,
            "parent": os.getpid(),
            "workload": self.workload,
            "variant": self.variant,
            "smoke": self.smoke,
            "trace": trace,
            "dir": tempfile.mkdtemp(prefix=f"{mode}-", dir=self.dir),
            "src": str(ROOT / "src"),
            "trace_out": str(self.trace_out),
        }

    def spawn(self, job: dict, stdin=None) -> subprocess.Popen:
        log = open(Path(job["dir"]) / "stderr.log", "w")
        try:
            process = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                cwd=job["dir"],
            )
        finally:
            log.close()
        self.live.add(process)
        return process

    def finish(self, process: subprocess.Popen, job: dict, label: str) -> dict | None:
        """Wait for a worker (closing its stdin); its result, or ``None``
        (counted as a failure, with its stderr echoed)."""
        try:
            output, _ = process.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            output, _ = process.communicate()
        self.live.discard(process)
        lines = [line for line in output.splitlines() if line.startswith(RESULT_PREFIX)]
        log = Path(job["dir"]) / "stderr.log"
        if process.returncode != 0 or not lines:
            self.check(f"{label} exited cleanly (code {process.returncode})", False)
            if log.is_file():
                sys.stderr.write(log.read_text()[-4000:])
        shutil.rmtree(job["dir"], ignore_errors=True)
        if process.returncode != 0 or not lines:
            return None
        return json.loads(lines[-1][len(RESULT_PREFIX):])

    def worker(self, mode: str, trace: bool = False) -> tuple[dict | None, float]:
        """Run one worker to completion; ``(result, spawn time)``."""
        job = self.job(mode, trace)
        spawned = time.monotonic()
        process = self.spawn(job)
        return self.finish(process, job, mode), spawned

    def close(self) -> None:
        """Kill and reap any worker still running; remove the directory."""
        for process in self.live:
            process.kill()
            process.communicate()
        self.live.clear()
        shutil.rmtree(self.dir, ignore_errors=True)


def sweep_stale() -> None:
    """Remove run directories whose run's process no longer exists."""
    if not WORK.is_dir():
        return
    for path in WORK.iterdir():
        parts = path.name.split("-")
        if not (path.is_dir() and len(parts) == 3 and parts[1].isdigit()):
            continue
        try:
            os.kill(int(parts[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


def check_coverage(run, layers: dict) -> bool:
    """The reported layers must explain the traced step time."""
    return run.check(
        f"reported layers explain {COVERAGE_FLOOR:.0%} of the traced step time",
        layers["trace.coverage"] >= COVERAGE_FLOOR,
    )


# ------------------------------------------------------------------ helpers
def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(300_000):
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best


def host_context() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "calibration_before_s": calibrate(),
    }


def percentile_ms(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile in ms; a failure (``inf``) reads as the
    client timeout, the least it can have cost."""
    value = loadgen.percentile(values, fraction)
    return 1000.0 * min(value, loadgen.TIMEOUT_S)


def setup_probes(run: Run) -> list[float]:
    samples = []
    for _ in range(1 if run.smoke else SETUP_PROBES):
        result, spawned = run.worker("probe")
        if run.check("set-up probe", result is not None):
            samples.append(result["ready"] - spawned)
    return samples


def batch_metrics(reps: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(rep["work_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


# ---------------------------------------------------------------- workloads
def batch_workload(run: Run, mode: str, checks) -> tuple[dict, dict]:
    """Runs either of the two single-process workloads."""
    expected = run.expect()

    def once(trace: bool = False):
        result, spawned = run.worker(mode, trace)
        if result is None:
            return None
        result["setup_s"] = result["ready"] - spawned
        for label, ok in checks(result, expected):
            run.check(label, ok)
        return result

    if run.trace:
        plain, traced = once(), once(trace=True)
        if plain is None or traced is None:
            return {}, {}
        layers = traced["layers"]
        layers["trace.overhead_pct"] = 100.0 * (traced["work_s"] / plain["work_s"] - 1.0)
        layers["report.model_speedup_x"] = traced["outputs"].get("model_speedup_x", 0.0)
        layers["autotune.sims_to_match"] = traced["outputs"].get("sims_to_match", 0.0)
        # No HTTP traffic in these workloads.
        layers.update({
            "service.http_ms": 0.0,
            "loadgen.late_ms": 0.0,
            "loadgen.capacity_rps": 0.0,
            "loadgen.p50_ms": 0.0,
            "loadgen.p95_ms": 0.0,
        })
        return layers, traced["outputs"]
    setups = setup_probes(run)
    count = 1 if run.smoke else max(1, int(run.seconds // REPETITION_S[run.workload]))
    reps = [rep for rep in (once() for _ in range(count)) if rep is not None]
    if not reps:
        return {}, {}
    return batch_metrics(reps, setups + [rep["setup_s"] for rep in reps]), reps[-1]["outputs"]


def pipeline_checks(result: dict, expected: dict):
    outputs = result["outputs"]
    yield "store fingerprint", outputs["store"] == expected["store"]
    yield "report fingerprint", outputs["report"] == expected["report"]
    yield "model speedup", outputs["model_speedup_x"] == expected["model_speedup_x"]


def search_checks(result: dict, expected: dict):
    outputs = result["outputs"]
    yield "leaderboard digest", outputs["leaderboard"] == expected["leaderboard"]
    # check_model_beats_random holds at the preset seeds (variant 0, the
    # CI gate) but not at every seed offset, so its verdict is checked
    # against the recorded one like any other output.
    yield "model-beats-random verdict", outputs["gate"] == expected["gate"]


def serve_once(run: Run, trace: bool) -> dict | None:
    """Set up the server ``SERVE_SETUPS`` times (the last one serves),
    drive the warm-up, open-loop and closed-loop phases, verify."""
    expected_store = run.expected["smoke" if run.smoke else "pipeline_quick"]["0"]["store"]
    setups = []
    count = 1 if (run.smoke or run.trace) else SERVE_SETUPS
    for index in range(count):
        serving = index == count - 1
        job = run.job("serve", trace and serving)
        spawned = time.monotonic()
        process = run.spawn(job, stdin=subprocess.PIPE)
        line = process.stdout.readline()
        if not line.startswith("READY "):
            run.finish(process, job, "serve set-up")
            return None
        ready = json.loads(line[len("READY "):])
        setups.append(ready["ready"] - spawned)
        run.check("served store fingerprint", ready["outputs"]["store"] == expected_store)
        try:
            if serving:
                outcome = drive(run, ready, process)
        finally:
            result = run.finish(process, job, "server")
        if result is None:
            return None
    outcome.update(
        setup_s=statistics.median(setups),
        peak_rss_mb=result["peak_rss_mb"],
        layers=result.get("layers"),
        handler_s=result.get("handler_s", {}),
    )
    return outcome


def drive(run: Run, ready: dict, server: subprocess.Popen) -> dict:
    """The load phases against one ready server, then verification."""
    from repro.api import Session
    from repro.api.registry import ModelRegistry
    from worker import scale_for

    session = Session(
        scale_for("serve_predict", run.smoke),
        jobs=1,
        executor="serial",
        cache_dir=Path(ready["registry"]).parent / "cache",
    )
    corpus = loadgen.corpus_of(session.data.dataset().training)
    entry = session.models.load_registered(registry=ModelRegistry(ready["registry"]))
    run.check("registry version matches the served model", entry.version == ready["version"])
    verifier = loadgen.Verifier(session, corpus, ready["version"])

    rng = random.Random(run.seed)
    port = ready["port"]
    warm_records = []
    for request in loadgen.warmup_requests(corpus):
        now = time.monotonic()
        status, body = loadgen.send(port, request)
        warm_records.append(loadgen.Record(request, now, now, time.monotonic(), status, body))
    if run.trace:
        server.stdin.write("reset\n")
        server.stdin.flush()

    open_seconds = 1.0 if run.smoke else OPEN_SHARE * run.seconds
    rate = 50.0 if run.smoke else OPEN_RATE
    open_requests = loadgen.make_requests(corpus, int(rate * open_seconds), rng, "o")
    closed_requests = loadgen.make_requests(
        corpus, 40 if run.smoke else int(CLOSED_PER_SECOND * run.seconds), rng, "c"
    )
    open_records = loadgen.open_loop(port, open_requests, rate)
    closed_records, closed_s = loadgen.closed_loop(port, closed_requests)

    tally(run, warm_records + open_records + closed_records, verifier)
    latencies = [record.latency for record in open_records]
    late = [record.sent - record.due for record in open_records]
    return {
        "work_s": closed_s,
        "p50_ms": percentile_ms(latencies, 0.5),
        "p95_ms": percentile_ms(latencies, TAIL_PERCENTILE),
        "capacity_rps": len(closed_records) / closed_s,
        "late_ms": 1000.0 * loadgen.percentile(late, TAIL_PERCENTILE),
        "client_s": {
            record.request.rid: record.done - record.sent
            for record in open_records + closed_records
        },
    }


def tally(run: Run, records: list, verifier) -> None:
    """Count each request; a failed, refused or wrong answer fails (and
    so reads as an infinite latency)."""
    for record in records:
        record.ok = run.check(f"/predict {record.request.rid} answer", verifier.check(record))


def serve_workload(run: Run) -> tuple[dict, dict]:
    # Server and load generator share one core (the server inherits the
    # affinity).  The other workloads are single-threaded; on a shared
    # host a second core comes and goes, and with it this workload's
    # numbers, by up to 2x in the runs measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if run.trace:
        plain = serve_once(run, trace=False)
        traced = serve_once(run, trace=True)
        if plain is None or traced is None:
            return {}, {}
        layers = traced["layers"]
        handler = traced["handler_s"]
        gaps = [
            client - handler[rid]
            for rid, client in traced["client_s"].items()
            if rid in handler
        ]
        layers.update({
            "service.http_ms": 1000.0 * statistics.mean(gaps) if gaps else 0.0,
            "loadgen.late_ms": traced["late_ms"],
            "loadgen.capacity_rps": traced["capacity_rps"],
            "loadgen.p50_ms": traced["p50_ms"],
            "loadgen.p95_ms": traced["p95_ms"],
            "trace.overhead_pct": 100.0 * (traced["work_s"] / plain["work_s"] - 1.0),
            "report.model_speedup_x": 0.0,
            "autotune.sims_to_match": 0.0,
        })
        return layers, {}
    outcome = serve_once(run, trace=False)
    if outcome is None:
        return {}, {}
    metrics = {
        name: outcome[name]
        for name in ("setup_s", "work_s", "peak_rss_mb")
    }
    return metrics, {
        name: outcome[name] for name in ("capacity_rps", "late_ms", "p50_ms", "p95_ms")
    }


WORKLOADS = {
    "pipeline_quick": lambda run: batch_workload(run, "pipeline", pipeline_checks),
    "search_tiny": lambda run: batch_workload(run, "search", search_checks),
    "serve_predict": serve_workload,
}


# --------------------------------------------------------------------- main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and short phases, for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_FAILPOINTS"):
        print("perfbench: REPRO_FAILPOINTS is set; armed failpoints measure a "
              "different program, refusing to run", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())

    host = host_context()
    sweep_stale()
    run = Run(args, expected)
    # SIGTERM unwinds like an exit, so the workers and the directory go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        metrics, outputs = WORKLOADS[args.workload](run)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        run.close()
    host["calibration_after_s"] = calibrate()

    if run.trace and "trace.coverage" in metrics:
        check_coverage(run, metrics)
    wanted = spec["per_layer" if run.trace else "end_to_end"]
    if not run.trace:
        metrics["success_rate"] = (
            (run.attempted - run.failed) / run.attempted if run.attempted else 0.0
        )
    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if missing:
        run.check(f"metrics measured ({', '.join(missing)} missing)", False)
    correct = run.failed == 0 and run.attempted > 0
    print("perfbench " + json.dumps({
        "workload": run.workload,
        "seed": run.seed,
        "variant": run.variant,
        "trace": run.trace,
        "host": host,
        "outputs": outputs,
        "trace_file": str(run.trace_out) if run.trace else None,
        "success_base": f"{run.attempted} checked operations",
        "notes": run.notes[:20],
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
            if entry["name"] in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
