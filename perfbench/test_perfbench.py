"""Self-tests for the benchmark, at smoke size.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, env=None, script: Path = HERE / "run.py", cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


def last_json(process) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_printed_metrics_match_the_spec(workload, trace):
    process = bench(
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert process.returncode == 0, process.stderr[-2000:]
    result = last_json(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def copy_benchmark(target: Path) -> Path:
    """The benchmark's files alone under ``target``; its ``run.py``."""
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(HERE, target / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return target / "perfbench" / "run.py"


def test_tampered_fingerprint_fails_the_run(tmp_path):
    script = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["smoke"]["0"]["report"] = "0" * 16
    path.write_text(json.dumps(expected))
    process = bench(
        "--workload", "pipeline_quick", "--seconds", "1", "--smoke",
        script=script, cwd=tmp_path,
    )
    assert process.returncode == 1
    result = last_json(process)
    assert result["correct"] is False
    assert result["failed"] == 1
    attempted = result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == (attempted - 1) / attempted


class _Stub(BaseHTTPRequestHandler):
    """Answers 429 to ids ending in 0, hangs up on ids ending in 1."""

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers["Content-Length"]))
        rid = self.headers["X-Request-Id"]
        if rid.endswith("1"):
            self.close_connection = True
            return
        status = 429 if rid.endswith("0") else 200
        self.send_response(status)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")


class _Tally:
    attempted = failed = 0

    def check(self, label, ok):
        self.attempted += 1
        self.failed += not ok
        return ok


class _StatusVerifier:
    def check(self, record):
        return record.status == 200


def test_refused_or_failed_request_is_a_failure_and_misses_the_limit():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        requests = [
            loadgen.Request(f"r{index}", "counters", [("counters", 0, 0)], b"{}")
            for index in range(10)
        ]
        records = loadgen.open_loop(server.server_address[1], requests, rate=200.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert not thread.is_alive()
    tally = _Tally()
    bench_run.tally(tally, records, _StatusVerifier())
    assert (tally.attempted, tally.failed) == (10, 2)
    assert [record.status for record in records[:2]] == [429, None]
    latencies = [record.latency for record in records]
    assert sum(math.isinf(latency) for latency in latencies) == 2
    assert bench_run.percentile_ms(latencies, 0.9) == 1000.0 * loadgen.TIMEOUT_S
    assert bench_run.percentile_ms(latencies, 0.5) < 1000.0 * loadgen.TIMEOUT_S


def test_refuses_to_run_with_armed_failpoints():
    env = dict(os.environ, REPRO_FAILPOINTS="store.shard.npz=always:error")
    process = bench("--workload", "search_tiny", "--smoke", env=env)
    assert process.returncode == 2
    assert process.stdout.strip() == ""


def test_fails_without_the_program_sources(tmp_path):
    process = bench(
        "--workload", "pipeline_quick", "--seed", "0", "--seconds", "1", "--trace", "0",
        script=copy_benchmark(tmp_path), cwd=tmp_path,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""


def traced_step(body) -> dict:
    """Layer metrics of one ``step.build`` span running ``body(tracer)``."""
    tracer = tracing.Tracer()
    tracer.call("step.build", body, tracer)
    return tracing.layer_metrics(tracer)


def test_reported_layers_explaining_the_step_pass_the_coverage_check():
    layers = traced_step(lambda tracer: tracer.call("compiler.compile", time.sleep, 0.05))
    tally = _Tally()
    assert bench_run.check_coverage(tally, layers)
    assert (tally.attempted, tally.failed) == (1, 0)


@pytest.mark.parametrize("where", ["step", "unreported wrapper"])
def test_unexplained_time_in_a_step_fails_the_coverage_check(where):
    def body(tracer):
        tracer.call("compiler.compile", time.sleep, 0.02)
        if where == "step":
            time.sleep(0.05)
        else:
            # A coarse wrapper no metric reports explains nothing.
            tracer.call("store.run", time.sleep, 0.05)

    layers = traced_step(body)
    assert layers["trace.coverage"] < 0.5
    tally = _Tally()
    assert not bench_run.check_coverage(tally, layers)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_sweep_removes_only_directories_of_ended_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    ended = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    stale = tmp_path / f"pipeline_quick-{int(ended.stdout)}-abc"
    live = tmp_path / f"pipeline_quick-{os.getpid()}-abc"
    trace = tmp_path / "trace-pipeline_quick-seed0.jsonl"
    stale.mkdir()
    live.mkdir()
    trace.write_text("")
    bench_run.sweep_stale()
    assert not stale.exists()
    assert live.exists() and trace.exists()
