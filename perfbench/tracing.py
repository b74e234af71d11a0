"""Span tracing for the benchmark's traced runs.

The benchmark measures end-to-end numbers with tracing off and takes its
per-layer numbers from a separate traced run.  Tracing wraps the public
entry points of each ``repro`` layer from here, without touching the
program's own files: each wrapped call records a span (name, start, end,
parent, thread, request id) in memory, and a few entry points also bump
counters.  A layer's self time is its spans' durations minus the parts
their child spans cover.

Names follow ``<layer>.<what>``; ``step.*`` spans are the workload's own
phases (or, in the server, one request each) and belong to no layer.
The trace's coverage is the share of step time that the spans behind the
reported metrics account for by their self times; time in a step itself
or in a coarse wrapper no metric reports (``store.run``, ``evalrun.run``,
``autotune.tournament``) reads as unexplained.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: The compiler's pass names, in pipeline order (``Pass.name``).
PASS_NAMES = (
    "tree_vrp", "tree_pre", "inline", "sibcall", "thread_jumps", "cse",
    "gcse", "loop_im", "rerun_loop_opt", "unswitch", "strength_reduce",
    "unroll", "rerun_cse", "schedule", "regalloc", "gcse_after_reload",
    "peephole", "crossjump", "reorder", "align",
)

#: Per-layer time metrics: ``(kind, span names)``, where ``total`` sums
#: the spans' durations and ``self`` their self times.
TIMES = {
    "compiler.busy_s": ("total", ("compiler.compile",)),
    "compiler.clone_s": ("total", ("compiler.clone",)),
    "compiler.finalize_s": ("total", ("compiler.finalize",)),
    "compiler.validate_s": ("total", ("compiler.validate",)),
    **{
        f"compiler.pass.{name}_s": ("total", (f"compiler.pass.{name}",))
        for name in PASS_NAMES
    },
    "core.fit_s": ("total", ("core.fit",)),
    "core.predict_s": ("total", ("core.predict",)),
    "core.rank_s": ("total", ("core.rank",)),
    "sim.busy_s": (
        "total", ("sim.simulate_many", "sim.simulate_analytic", "sim.signature")
    ),
    "store.write_s": ("total", ("store.write_shard",)),
    "store.read_s": ("total", ("store.read_shard",)),
    "store.assemble_s": ("total", ("store.assemble",)),
    "evalrun.fold_s": ("self", ("evalrun.fold",)),
    "evalrun.fold_write_s": ("total", ("evalrun.fold_write",)),
    "evalrun.fold_read_s": ("total", ("evalrun.fold_read",)),
    "evalrun.render_s": ("total", ("evalrun.render",)),
    # The strategies' own work (neighbourhoods, populations) outside scoring.
    "autotune.strategy_s": ("self", ("autotune.run",)),
    "autotune.score_s": ("total", ("autotune.score",)),
    "registry.register_s": ("total", ("registry.register", "registry.promote")),
    "registry.load_s": ("total", ("registry.load",)),
    "programs.build_s": ("total", ("programs.build",)),
    "service.handler_s": ("total", ("step.request",)),
    "service.read_s": ("total", ("service.read",)),
    # Payload handling, queueing and dispatch glue of the micro-batcher.
    "service.batching_s": (
        "self", ("service.predict", "service.batcher", "service.dispatch")
    ),
    "service.profile_s": ("total", ("service.profile",)),
    # Response serialisation and the socket write.
    "service.send_s": ("total", ("service.send",)),
    **{f"step.{step}_s": ("total", (f"step.{step}",))
       for step in ("build", "train", "report", "tournament")},
}

#: Span names whose self time a reported metric carries (steps excluded:
#: a step's own time is what no layer explains).
REPORTED = frozenset(
    name
    for _, names in TIMES.values()
    for name in names
    if not name.startswith("step.")
)

#: Least share of traced step time the reported spans must explain.
COVERAGE_FLOOR = 0.95


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(float)
        self.keys: set = set()
        #: Every ``RuntimeOracle`` built while tracing (their counters
        #: are the protocol's store hits and fallback simulations).
        self.oracles: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. after a warm-up)."""
        self.spans = []
        self.counts.clear()
        self.values.clear()
        self.keys.clear()
        for oracle in self.oracles:
            oracle.store_hits = oracle.simulation_calls = 0

    # ------------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> str | None:
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: str | None) -> None:
        self._local.request_id = value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end,
                 threading.get_ident(), self.request_id)
            )

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args)`` runs
        on each result, outside the span, to update counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return traced

    def count_calls(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # --------------------------------------------------------------- results
    def durations(self) -> dict[str, float]:
        """Total inclusive seconds per span name."""
        totals: defaultdict = defaultdict(float)
        for _, _, name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return totals

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by its child spans."""
        covered: defaultdict = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent:
                covered[parent] += end - start
        totals: defaultdict = defaultdict(float)
        for span_id, _, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - covered.get(span_id, 0.0)
        return totals

    def span_counts(self) -> Counter:
        return Counter(name for _, _, name, _, _, _, _ in self.spans)

    def coverage(self) -> float:
        """Share of step wall time explained by the self times of the
        ``REPORTED`` spans that run inside a step."""
        names = {span[0]: span[2] for span in self.spans}
        parents = {span[0]: span[1] for span in self.spans}
        inside: dict[int, bool] = {}

        def in_step(span_id: int) -> bool:
            parent = parents.get(span_id, 0)
            if not parent:
                return False
            if parent not in inside:
                inside[parent] = (
                    names.get(parent, "").startswith("step.") or in_step(parent)
                )
            return inside[parent]

        covered: defaultdict = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent:
                covered[parent] += end - start
        steps = explained = 0.0
        for span_id, _, name, start, end, _, _ in self.spans:
            if name.startswith("step."):
                steps += end - start
            elif name in REPORTED and in_step(span_id):
                explained += (end - start) - covered[span_id]
        return explained / steps if steps else 0.0

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, thread, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "thread": thread,
                    "request": request,
                }) + "\n")


# ------------------------------------------------------------------ patching
def _patch_function(
    tracer: Tracer, module_name: str, attr: str, name: str, after=None
) -> None:
    """Trace ``module_name.attr`` as span ``name``, wherever a loaded
    ``repro`` module refers to it (``from x import f`` copies the name
    into the importer, so patching one module is not enough)."""
    original = getattr(sys.modules[module_name], attr)
    replacement = tracer.wrap(name, original, after=after)
    for module_key, module in list(sys.modules.items()):
        if module_key.split(".")[0] != "repro" or module is None:
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def _patch_method(tracer: Tracer, cls, attr: str, name: str, after=None):
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after=after))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points so calls record into ``tracer``."""
    import repro.cli  # noqa: F401 - loads every layer the workloads use
    import repro.service.server  # noqa: F401
    from repro.api.registry import ModelRegistry
    from repro.autotune.scorer import BatchScorer
    from repro.compiler.flags import FlagSetting
    from repro.compiler.ir import Program
    from repro.compiler.passes.base import Pass
    from repro.compiler.pipeline import Compiler
    from repro.core.distribution import IIDDistribution
    from repro.core.predictor import OptimisationPredictor
    from repro.evalrun.foldstore import FoldStore
    from repro.evalrun.oracle import RuntimeOracle
    from repro.evalrun.pipeline import EvaluationPipeline
    from repro.service.service import PredictBatcher, PredictionService
    from repro.sim.vector import BinarySignature
    from repro.store.runner import ExperimentRunner
    from repro.store.store import ExperimentStore

    # -- repro.compiler: memo calls, pipeline runs, phases, every pass
    _patch_method(tracer, Compiler, "compile", "compiler.compile")
    _patch_method(tracer, Program, "clone", "compiler.clone")
    _patch_method(tracer, Program, "validate", "compiler.validate")
    apply = Pass.apply

    def traced_apply(self, program, flags, stats):
        name = f"compiler.pass.{self.name}"
        return tracer.call(name, apply, self, program, flags, stats)

    Pass.apply = traced_apply

    import repro.compiler.pipeline as pipeline_module

    finalize = pipeline_module.finalize

    def traced_finalize(program, setting, stats=None):
        tracer.keys.add((program.name, setting.canonical() if setting else None))
        tracer.values["compiler.insns_out"] += program.size_insns
        return tracer.call("compiler.finalize", finalize, program, setting, stats)

    pipeline_module.finalize = traced_finalize

    # -- repro.sim
    def count_pairs(result, args):
        tracer.values["sim.pairs"] += len(args[0]) * len(args[1])

    _patch_function(
        tracer, "repro.sim.vector", "simulate_many", "sim.simulate_many",
        after=count_pairs,
    )

    def one_pair(result, args):
        tracer.values["sim.pairs"] += 1

    _patch_function(
        tracer, "repro.sim.analytic", "simulate_analytic", "sim.simulate_analytic",
        after=one_pair,
    )
    BinarySignature.from_binary = classmethod(
        tracer.wrap("sim.signature", BinarySignature.from_binary.__func__)
    )

    # -- repro.store
    _patch_method(tracer, ExperimentRunner, "run", "store.run")
    _patch_function(
        tracer, "repro.store.compute", "compute_shard", "store.compute_shard"
    )
    _patch_method(tracer, ExperimentStore, "write_shard", "store.write_shard")
    _patch_method(tracer, ExperimentStore, "read_shard", "store.read_shard")
    _patch_method(tracer, ExperimentStore, "assemble", "store.assemble")

    # -- repro.evalrun
    _patch_method(tracer, EvaluationPipeline, "run", "evalrun.run")
    _patch_method(tracer, EvaluationPipeline, "assemble", "evalrun.assemble")
    _patch_function(tracer, "repro.evalrun.pipeline", "compute_fold", "evalrun.fold")
    _patch_method(tracer, FoldStore, "write_fold", "evalrun.fold_write")
    _patch_method(tracer, FoldStore, "read_fold", "evalrun.fold_read")
    _patch_function(tracer, "repro.evalrun.report", "render_report", "evalrun.render")
    oracle_init = RuntimeOracle.__init__

    @functools.wraps(oracle_init)
    def tracked_init(self, *args, **kwargs):
        oracle_init(self, *args, **kwargs)
        tracer.oracles.append(self)

    RuntimeOracle.__init__ = tracked_init
    _patch_function(
        tracer, "repro.experiments.figures", "seed_crossval_cache", "evalrun.seed_crossval"
    )

    # -- repro.core
    _patch_method(tracer, OptimisationPredictor, "fit", "core.fit")
    _patch_method(tracer, OptimisationPredictor, "predict_distribution", "core.predict")
    _patch_method(
        tracer, OptimisationPredictor, "predict_distribution_many", "core.predict"
    )
    _patch_method(tracer, IIDDistribution, "top_settings", "core.rank")
    FlagSetting.as_indices = tracer.count_calls(
        "core.as_indices_calls", FlagSetting.as_indices
    )

    # -- repro.autotune
    def tally_search(trace, args):
        tracer.values["autotune.evaluations"] += trace.evaluations
        tracer.values["autotune.simulations"] += trace.simulations

    _patch_function(
        tracer, "repro.autotune.core", "run_traced", "autotune.run", after=tally_search
    )
    _patch_function(
        tracer, "repro.autotune.tournament", "run_tournament", "autotune.tournament"
    )
    _patch_method(tracer, BatchScorer, "score", "autotune.score")

    # -- repro.api registry
    _patch_method(tracer, ModelRegistry, "register", "registry.register")
    _patch_method(tracer, ModelRegistry, "promote", "registry.promote")
    _patch_method(tracer, ModelRegistry, "load", "registry.load")

    # -- repro.programs
    _patch_function(
        tracer, "repro.programs.mibench", "mibench_program", "programs.build"
    )

    # -- repro.service (the HTTP handler is patched per server, below)
    _patch_method(tracer, PredictionService, "predict", "service.predict")
    _patch_method(tracer, PredictionService, "_profile_group", "service.profile")
    _patch_function(tracer, "repro.api.facets", "profile_with_model", "service.profile")
    submit = PredictBatcher.submit
    dispatch = PredictBatcher._dispatch
    owners: dict[int, str | None] = {}

    def traced_submit(self, payload):
        owners[id(payload)] = tracer.request_id
        try:
            return tracer.call("service.batcher", submit, self, payload)
        finally:
            owners.pop(id(payload), None)

    def traced_dispatch(self, batch):
        # A coalesced pass answers several requests: its spans carry all
        # of their ids, so each request's spans still share its id.
        tracer.counts["service.batches"] += 1
        tracer.counts["service.batched_requests"] += len(batch)
        own = tracer.request_id
        members = [owners.get(id(member.payload)) for member in batch]
        tracer.request_id = ",".join(rid for rid in members if rid) or own
        try:
            return tracer.call("service.dispatch", dispatch, self, batch)
        finally:
            tracer.request_id = own

    PredictBatcher.submit = traced_submit
    PredictBatcher._dispatch = traced_dispatch


def install_handler(tracer: Tracer, handler_class) -> None:
    """Trace one HTTP server's request handler: each POST is a
    ``step.request`` span carrying the client's ``X-Request-Id``."""
    do_post = handler_class.do_POST
    send_json = handler_class._send_json

    def traced_post(self):
        tracer.request_id = self.headers.get("X-Request-Id")
        tracer.counts["service.requests"] += 1
        try:
            return tracer.call("step.request", do_post, self)
        finally:
            tracer.request_id = None

    def traced_send(self, payload, status=200, headers=None):
        if status == 429:
            tracer.counts["service.refused"] += 1
        elif status >= 400:
            tracer.counts["service.errors"] += 1
        return tracer.call("service.send", send_json, self, payload, status, headers)

    handler_class.do_POST = traced_post
    handler_class._send_json = traced_send
    handler_class._read_body = tracer.wrap("service.read", handler_class._read_body)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced repetition yields."""
    total = tracer.durations()
    own = tracer.self_times()
    spans = tracer.span_counts()
    calls = spans["compiler.compile"]
    runs = spans["compiler.finalize"]
    metrics = {
        name: sum((total if kind == "total" else own)[span] for span in spans_of)
        for name, (kind, spans_of) in TIMES.items()
    }
    metrics.update({
        "compiler.calls": calls,
        "compiler.runs": runs,
        "compiler.unique_keys": len(tracer.keys),
        "compiler.hit_ratio": (calls - runs) / calls if calls else 0.0,
        "compiler.insns_out": int(tracer.values["compiler.insns_out"]),
        "core.fit_calls": spans["core.fit"],
        "core.as_indices_calls": tracer.counts["core.as_indices_calls"],
        "core.predict_calls": spans["core.predict"],
        "sim.calls": spans["sim.simulate_many"] + spans["sim.simulate_analytic"],
        "sim.pairs": int(tracer.values["sim.pairs"]),
        "store.shard_writes": spans["store.write_shard"],
        "store.shard_reads": spans["store.read_shard"],
        "evalrun.folds": spans["evalrun.fold"],
        "evalrun.oracle_store_hits": sum(oracle.store_hits for oracle in tracer.oracles),
        "evalrun.oracle_fallback_sims": sum(
            oracle.simulation_calls for oracle in tracer.oracles
        ),
        "autotune.runs": spans["autotune.run"],
        "autotune.evaluations": int(tracer.values["autotune.evaluations"]),
        "autotune.simulations": int(tracer.values["autotune.simulations"]),
    })
    batches = tracer.counts["service.batches"]
    metrics.update({
        "service.requests": tracer.counts["service.requests"],
        "service.errors": tracer.counts["service.errors"],
        "service.refused": tracer.counts["service.refused"],
        "service.batches": batches,
        "service.mean_batch": (
            tracer.counts["service.batched_requests"] / batches if batches else 0.0
        ),
    })
    metrics["trace.step_s"] = sum(
        seconds for name, seconds in total.items() if name.startswith("step.")
    )
    metrics["trace.coverage"] = tracer.coverage()
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def request_handler_seconds(tracer: Tracer) -> dict[str, float]:
    """Server-side handler seconds per client request id."""
    return {
        request: end - start
        for _, _, name, start, end, _, request in tracer.spans
        if name == "step.request" and request is not None
    }
