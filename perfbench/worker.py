"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition so that no in-process
memo (the dataset memory cache, a ``Compiler`` memo, the
``mibench_program`` cache, the cross-validation seed cache) carries from
one repetition to the next; each repetition also gets its own empty
cache and registry directory.  The job arrives as one JSON argument; the
result leaves as the last stdout line, prefixed with ``PERFBENCH``.

Modes:

* ``probe`` — import and open a session, then stop (a set-up sample).
* ``pipeline`` — a cold ``run`` → ``train`` → ``report``.
* ``search`` — build the dataset, then the autotuning tournament.
* ``serve`` — build, train and promote a model, then serve it over HTTP
  on loopback until stdin closes (``reset`` on stdin clears the trace).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path

RESULT_PREFIX = "PERFBENCH "

#: The tournament grid: the ``tournament --smoke`` preset, and a
#: smaller one for the benchmark's own self-tests.
SEARCH = {
    "full": {"programs": ("sha", "crc"), "machines": 2, "budget": 40, "seeds": 15},
    "smoke": {"programs": ("sha", "crc"), "machines": 1, "budget": 20, "seeds": 3},
}


def scale_for(workload: str, smoke: bool):
    """The dataset scale a workload builds."""
    from repro.experiments.config import QUICK, TINY

    return TINY if workload == "search_tiny" or smoke else QUICK


def _assert_cold() -> None:
    """Fail if any in-process memo is already populated."""
    from repro.experiments import dataset, figures
    from repro.programs.mibench import mibench_program

    if (
        dataset._MEMORY_CACHE
        or figures._CROSSVAL_CACHE
        or mibench_program.cache_info().currsize
    ):
        raise RuntimeError("an in-process memo is warm at the start of a repetition")


def _die_with_parent(parent: int) -> None:
    """Have the kernel kill this worker when the run that started it
    ends, even by SIGKILL (Linux ``PR_SET_PDEATHSIG``)."""
    pr_set_pdeathsig = 1
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)
    except (OSError, AttributeError):
        return
    if os.getppid() != parent:  # the run ended before the call
        raise SystemExit(1)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _session(job: dict, scale):
    from repro.api import Session

    return Session(
        scale,
        jobs=1,
        executor="serial",
        cache_dir=Path(job["dir"]) / "cache",
    )


def _build(session, step) -> str:
    """Build the session's dataset store; its fingerprint."""
    store = session.data.store()
    step("step.build", session.data.build, store=store)
    return store.fingerprint()


def _train(session, registry, step):
    """Fit on the dataset and register the model, promoted."""

    def train():
        session.models.fit()
        return session.models.register(registry=registry, promote=True)

    return step("step.train", train)


def run_pipeline(job: dict, step) -> dict:
    """Cold ``run`` → ``train`` → ``report``, as the CLI runs them."""
    from repro.api.registry import ModelRegistry

    scale = scale_for("pipeline_quick", job["smoke"])
    session = _session(job, scale)
    ready = time.monotonic()
    out = Path(job["dir"]) / "out"
    store_fingerprint = _build(session, step)
    _train(session, ModelRegistry(Path(job["dir"]) / "registry"), step)

    def report():
        outcome = session.protocol.run(formats=("md", "json", "svg"))
        out.mkdir(parents=True, exist_ok=True)
        report = outcome.report
        (out / f"report-{scale.name}.md").write_text(report.markdown)
        (out / f"report-{scale.name}.json").write_text(report.json_text())
        (out / f"report-{scale.name}.svg").write_text(report.svg)
        return report

    report = step("step.report", report)
    done = time.monotonic()
    return {
        "ready": ready,
        "work_s": done - ready,
        "outputs": {
            "store": store_fingerprint,
            "report": report.fingerprint,
            "model_speedup_x": report.payload["headline"]["mean_model_speedup"],
        },
    }


def run_search(job: dict, step) -> dict:
    """Build the tiny dataset, then race every strategy on the grid."""
    from repro.autotune.tournament import check_model_beats_random

    grid = SEARCH["smoke" if job["smoke"] else "full"]
    session = _session(job, scale_for("search_tiny", job["smoke"]))
    ready = time.monotonic()
    step("step.build", session.data.build)
    offset = job["variant"] * grid["seeds"]
    out = Path(job["dir"]) / "out"

    def tournament():
        result = session.eval.tournament(
            programs=list(grid["programs"]),
            machines=grid["machines"],
            budget=grid["budget"],
            seeds=tuple(range(offset, offset + grid["seeds"])),
            tolerance=0.01,
        )
        out.mkdir(parents=True, exist_ok=True)
        (out / "tournament-tiny.md").write_text(result.render())
        (out / "tournament-tiny.json").write_text(result.json_text())
        return result

    result = step("step.tournament", tournament)
    done = time.monotonic()
    gate, _ = check_model_beats_random(result)
    return {
        "ready": ready,
        "work_s": done - ready,
        "outputs": {
            "leaderboard": hashlib.sha256(result.json_text().encode()).hexdigest()[:16],
            "gate": gate,
            "sims_to_match": result.standing("model-genetic").mean_simulations_to_match,
        },
    }


def run_serve(job: dict, step, tracer) -> dict:
    """Build, train, promote, then serve on loopback until stdin closes."""
    from repro.api.registry import ModelRegistry
    from repro.service import PredictionService
    from repro.service.server import make_server

    session = _session(job, scale_for("serve_predict", job["smoke"]))
    store_fingerprint = _build(session, step)
    registry = ModelRegistry(Path(job["dir"]) / "registry")
    entry = _train(session, registry, step)
    service = PredictionService(session, registry=registry)
    server = make_server(service, "127.0.0.1", 0)
    if tracer is not None:
        from tracing import install_handler

        install_handler(tracer, server.RequestHandlerClass)
    service.model_info()  # loads the promoted version
    ready = time.monotonic()
    print(
        "READY " + json.dumps({
            "port": server.server_address[1],
            "ready": ready,
            "version": entry.version,
            "registry": str(registry.root),
            "outputs": {"store": store_fingerprint},
        }),
        flush=True,
    )

    def control():
        for line in sys.stdin:
            if line.strip() == "reset" and tracer is not None:
                tracer.reset()
        server.shutdown()

    threading.Thread(target=control, daemon=True).start()
    server.serve_forever(poll_interval=0.05)
    server.server_close()
    return {"ready": ready}


def main() -> int:
    job = json.loads(sys.argv[1])
    _die_with_parent(job["parent"])
    sys.path.insert(0, job["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro.cli  # noqa: F401 - every layer, so set-up includes imports
    import repro.service.server  # noqa: F401

    _assert_cold()
    tracer = None
    if job["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        step = tracer.call
    else:
        def step(name, fn, *args, **kwargs):
            return fn(*args, **kwargs)

    mode = job["mode"]
    if mode == "probe":
        _session(job, scale_for(job["workload"], job["smoke"]))
        result = {"ready": time.monotonic()}
    elif mode == "pipeline":
        result = run_pipeline(job, step)
    elif mode == "search":
        result = run_search(job, step)
    elif mode == "serve":
        result = run_serve(job, step, tracer)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        from tracing import layer_metrics, request_handler_seconds

        result["layers"] = layer_metrics(tracer)
        result["handler_s"] = request_handler_seconds(tracer)
        tracer.write_jsonl(job["trace_out"])
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
