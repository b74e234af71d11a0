"""The resumable protocol pipeline: fold grid → checkpointed results.

An :class:`EvaluationPipeline` walks the (variant × held-out program)
fold grid of a :class:`~repro.evalrun.foldstore.FoldStore`, computes
every pending fold, and checkpoints each one the moment it completes.
Kill it anywhere — signal, crash, ``max_folds`` cap — and the next run
picks up exactly where it left off, never re-simulating a fold already
on disk.

Every fold is a pure function of (training matrix, variant, program):
the predictor is fitted on the full matrix, exclusion of the held-out
program and machine happens at query time (exact for the memory-based
model, see :mod:`repro.core.crossval`), and predicted settings are
priced through the :class:`~repro.evalrun.oracle.RuntimeOracle` — grid
settings straight from the store, synthesised settings through the
memoised compile-once fallback.  The assembled protocol is therefore
bit-identical whichever executor, interruption pattern, or fold order
produced it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import Program
from repro.core.crossval import CrossValResult, PairOutcome
from repro.core.training import TrainingSet
from repro.evalrun.foldstore import FoldKey, FoldRecord, FoldRow, FoldStore
from repro.evalrun.oracle import RuntimeOracle
from repro.evalrun.variants import VariantSpec, make_predictor
from repro.parallel import (
    CLUSTER,
    RUNNER_EXECUTORS,
    resolve_jobs,
    resolve_strategy,
    run_batch_completed,
)
from repro.sim.counters import PerfCounters


def compute_fold(
    training: TrainingSet,
    variant: VariantSpec,
    program: str,
    oracle: RuntimeOracle,
    predictor,
) -> FoldRecord:
    """One leave-one-out fold: the held-out program on every machine.

    Deterministic in its inputs alone — the contract that makes folds
    checkpointable and the assembled protocol independent of executor
    and interruption pattern.
    """
    p = oracle.program_index(program)
    code_features = (
        training.code_features[p, :]
        if training.code_features is not None
        else None
    )
    machines = list(training.machines)
    counters_row = [
        PerfCounters(*training.counters[p, m, :]) for m in range(len(machines))
    ]
    if hasattr(predictor, "predict_many"):
        # One ranking-kernel pass per fold; duck-typed predictors (the
        # joint-vote ablation) keep the scalar loop.
        predicted_row = predictor.predict_many(
            counters_row,
            machines,
            exclude_programs=[program] * len(machines),
            exclude_machines=machines,
            code_features=[code_features] * len(machines),
        )
    else:
        predicted_row = [
            predictor.predict(
                counters,
                machine,
                exclude_program=program,
                exclude_machine=machine,
                code_features=code_features,
            )
            for counters, machine in zip(counters_row, machines)
        ]
    rows = []
    for m, machine in enumerate(training.machines):
        predicted = predicted_row[m]
        rows.append(
            FoldRow(
                machine=m,
                setting=predicted.as_indices(),
                predicted_runtime=oracle.runtime(program, predicted, machine),
                o3_runtime=float(training.o3_runtimes[p, m]),
                best_runtime=training.best_runtime(p, m),
            )
        )
    return FoldRecord(key=FoldKey(variant.key, program), rows=tuple(rows))


@dataclass
class PipelineRunStats:
    """What one :meth:`EvaluationPipeline.run` call actually did."""

    folds_computed: int = 0
    folds_skipped: int = 0  # already checkpointed before the call
    simulation_calls: int = 0  # out-of-grid fallback simulations
    store_hits: int = 0  # runtimes answered from the training matrix


@dataclass
class ProtocolResult:
    """The assembled protocol: one :class:`CrossValResult` per variant."""

    variants: list[VariantSpec]
    results: dict[str, CrossValResult]
    protocol_fingerprint: str
    fold_fingerprint: str
    metadata: dict = field(default_factory=dict)

    @property
    def base(self) -> CrossValResult:
        return self.results["base"]

    def result(self, variant_key: str) -> CrossValResult:
        try:
            return self.results[variant_key]
        except KeyError:
            raise KeyError(
                f"variant {variant_key!r} was not part of this protocol run"
            ) from None


# ---------------------------------------------------------- process workers
#: Per-process state for pool workers: the training payload, a memoised
#: oracle, and one fitted predictor per variant.  Shipped once through the
#: pool initializer instead of being pickled into every fold item.
_WORKER_STATE: dict = {}


def _init_protocol_worker(
    training: TrainingSet,
    programs: list[Program],
    variants: list[VariantSpec],
) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE["training"] = training
    _WORKER_STATE["oracle"] = RuntimeOracle(training, programs)
    _WORKER_STATE["variants"] = {variant.key: variant for variant in variants}
    _WORKER_STATE["predictors"] = {}


def _compute_fold_task(item: tuple[str, str]) -> tuple[FoldRecord, int, int]:
    """Picklable pool entry point; returns (record, sims, store hits)."""
    variant_key, program = item
    training = _WORKER_STATE["training"]
    oracle: RuntimeOracle = _WORKER_STATE["oracle"]
    variant = _WORKER_STATE["variants"][variant_key]
    predictor = _WORKER_STATE["predictors"].get(variant_key)
    if predictor is None:
        predictor = make_predictor(variant, training).fit(training)
        _WORKER_STATE["predictors"][variant_key] = predictor
    sims_before = oracle.simulation_calls
    hits_before = oracle.store_hits
    record = compute_fold(training, variant, program, oracle, predictor)
    return (
        record,
        oracle.simulation_calls - sims_before,
        oracle.store_hits - hits_before,
    )


class EvaluationPipeline:
    """Drives a fold store from partial to complete, checkpointing each fold.

    Args:
        training: the assembled experiment matrix the protocol evaluates.
        programs: :class:`Program` objects for the matrix's programs
            (only the oracle's out-of-grid fallback compiles them).
        store: the (possibly partially filled) fold store to complete.
        jobs: worker count (1 = serial, negative = all cores).
        executor: ``auto``, ``serial``, ``thread``, ``process``, or
            ``cluster`` — the last claims folds through the shared
            lease table of :mod:`repro.cluster`, so any number of
            concurrent pipeline processes (this host or peers on a
            shared filesystem) drain the same fold store together.
        compiler: memoising compiler shared by serial/thread fallback
            compilations; process workers build their own.
        lease_ttl: for ``cluster`` only — seconds without a heartbeat
            before this store's leases count as stale and reclaimable.
    """

    def __init__(
        self,
        training: TrainingSet,
        programs: Sequence[Program] | Mapping[str, Program],
        store: FoldStore,
        jobs: int | None = 1,
        executor: str = "auto",
        compiler=None,
        lease_ttl: float | None = None,
    ):
        if executor not in RUNNER_EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {RUNNER_EXECUTORS}"
            )
        self.training = training
        if isinstance(programs, Mapping):
            self.programs = list(programs.values())
        else:
            self.programs = list(programs)
        self.store = store
        self.jobs = resolve_jobs(jobs)
        self.executor = executor
        self.lease_ttl = lease_ttl
        self.oracle = RuntimeOracle(training, self.programs, compiler=compiler)
        self._variants = {variant.key: variant for variant in store.variants}
        self._predictors: dict[str, object] = {}
        self._fit_lock = threading.Lock()

    # ------------------------------------------------------------------ run
    def run(
        self,
        variants: Sequence[str] | None = None,
        max_folds: int | None = None,
        progress: Callable[[str], None] | None = None,
        on_fold: Callable[[FoldKey, int, int], None] | None = None,
    ) -> PipelineRunStats:
        """Compute up to ``max_folds`` pending folds of the requested variants.

        Each fold is checkpointed to the store as it completes, so the
        call can be killed or capped anywhere and re-entered later;
        folds already checkpointed are skipped without any simulation.

        ``on_fold(key, completed, total)`` fires right after each fold's
        checkpoint lands (``completed`` counts previously checkpointed
        folds too) — the structured sibling of the free-text ``progress``
        hook, which the prediction service turns into live NDJSON events.
        """
        requested = list(self.store.fold_keys(variants))
        pending = [key for key in requested if not self.store.has_fold(key)]
        skipped = len(requested) - len(pending)
        if max_folds is not None:
            pending = pending[: max(max_folds, 0)]
        stats = PipelineRunStats(folds_skipped=skipped)
        if not pending:
            return stats
        if self.executor == CLUSTER:
            return self._run_cluster(
                variants, max_folds, skipped, len(requested), progress, on_fold
            )

        workers, strategy = resolve_strategy(
            self.jobs, self.executor, len(pending)
        )
        # With one effective worker the pool layer runs serially anyway;
        # route through the local path so the process initializer never
        # executes in (and pins the training payload into) this process.
        if strategy == "process" and workers > 1:
            function = _compute_fold_task
            items = [(key.variant, key.program) for key in pending]
            initializer = _init_protocol_worker
            initargs = (self.training, self.programs, self.store.variants)
        else:
            function = self._compute_fold_local
            items = list(pending)
            initializer = None
            initargs = ()

        total = len(requested)
        done = 0
        for index, (record, sims, hits) in run_batch_completed(
            function,
            items,
            jobs=self.jobs,
            executor=strategy,
            initializer=initializer,
            initargs=initargs,
        ):
            self.store.write_fold(record)
            done += 1
            stats.folds_computed += 1
            stats.simulation_calls += sims
            stats.store_hits += hits
            if on_fold is not None:
                on_fold(pending[index], skipped + done, total)
            if progress is not None:
                progress(
                    f"fold {pending[index].stem()} done "
                    f"({skipped + done}/{total})"
                )
        return stats

    def run_to_completion(
        self,
        variants: Sequence[str] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> ProtocolResult:
        """Finish every pending fold and assemble the protocol result."""
        self.run(variants=variants, progress=progress)
        return self.assemble(variants=variants)

    # ------------------------------------------------------------ internals
    def _run_cluster(
        self,
        variants: Sequence[str] | None,
        max_folds: int | None,
        skipped: int,
        total: int,
        progress: Callable[[str], None] | None,
        on_fold: Callable[[FoldKey, int, int], None] | None,
    ) -> PipelineRunStats:
        """One cluster worker's share of the protocol: claim, compute,
        checkpoint folds through the shared lease table.  Run any number
        of these concurrently against the same fold store root."""
        from repro.cluster import ClusterWorker, FoldQueue
        from repro.cluster.lease import DEFAULT_LEASE_TTL

        queue = FoldQueue(self, variants)
        stats = PipelineRunStats(folds_skipped=skipped)

        def on_unit(unit: str, unit_stats: dict) -> None:
            stats.folds_computed += 1
            stats.simulation_calls += int(
                unit_stats.get("simulation_calls", 0)
            )
            stats.store_hits += int(unit_stats.get("store_hits", 0))
            if on_fold is not None:
                completed = total - len(
                    self.store.pending_keys(queue.variants)
                )
                on_fold(queue._keys[unit], completed, total)

        ClusterWorker(
            queue,
            lease_ttl=(
                self.lease_ttl
                if self.lease_ttl is not None
                else DEFAULT_LEASE_TTL
            ),
            max_units=max_folds,
            progress=progress,
            on_unit=on_unit,
        ).run()
        return stats

    def _predictor_for(self, variant_key: str):
        with self._fit_lock:
            predictor = self._predictors.get(variant_key)
            if predictor is None:
                variant = self._variants[variant_key]
                predictor = make_predictor(variant, self.training).fit(
                    self.training
                )
                self._predictors[variant_key] = predictor
        return predictor

    def _compute_fold_local(
        self, key: FoldKey
    ) -> tuple[FoldRecord, int, int]:
        """Serial/thread work item: shares the pipeline's oracle and
        fitted predictors (fold results are identical to process workers',
        which rebuild both — all of it is deterministic)."""
        predictor = self._predictor_for(key.variant)
        sims_before = self.oracle.simulation_calls
        hits_before = self.oracle.store_hits
        record = compute_fold(
            self.training, self._variants[key.variant], key.program,
            self.oracle, predictor,
        )
        return (
            record,
            self.oracle.simulation_calls - sims_before,
            self.oracle.store_hits - hits_before,
        )

    # ------------------------------------------------------------- assembly
    def assemble(
        self, variants: Sequence[str] | None = None
    ) -> ProtocolResult:
        """Concatenate checkpointed folds into per-variant results.

        Outcomes are placed in grid order (variant-major, then program,
        then machine) whatever order the folds completed in, so the
        result — like the store fingerprint — is order-independent.
        """
        return assemble_protocol(self.store, self.training, variants=variants)


def assemble_protocol(
    store: FoldStore,
    training: TrainingSet,
    variants: Sequence[str] | None = None,
) -> ProtocolResult:
    """Build a :class:`ProtocolResult` from a store's checkpointed folds."""
    wanted = (
        [variant for variant in store.variants if variant.key in set(variants)]
        if variants is not None
        else list(store.variants)
    )
    results: dict[str, CrossValResult] = {}
    for variant in wanted:
        outcomes = []
        for program in store.programs:
            record = store.read_fold(FoldKey(variant.key, program))
            for row in record.rows:
                outcomes.append(
                    PairOutcome(
                        program=program,
                        machine=training.machines[row.machine],
                        predicted=FlagSetting.from_indices(row.setting),
                        predicted_runtime=row.predicted_runtime,
                        o3_runtime=row.o3_runtime,
                        best_runtime=row.best_runtime,
                    )
                )
        results[variant.key] = CrossValResult(outcomes=outcomes)
    return ProtocolResult(
        variants=wanted,
        results=results,
        protocol_fingerprint=store.protocol_fingerprint,
        fold_fingerprint=store.fingerprint(
            [variant.key for variant in wanted]
        ),
        metadata=dict(store.metadata),
    )
