"""Experiment-data generation over the sharded, resumable store.

Building a training matrix is the expensive step of every experiment, so
it is computed once per (scale, program-spec fingerprint) and memoised in
process and on disk.  The on-disk representation is a
:class:`repro.store.ExperimentStore` under ``$REPRO_CACHE_DIR`` (default
``<cwd>/.repro-cache``): one directory per scale holding a manifest plus
append-only, fingerprinted shard files keyed by (program,
machine-chunk).  An interrupted build loses nothing — the next
:func:`load_or_build` (or ``repro-experiments run --resume``) skips
completed shards and computes only the rest, and the assembled
:class:`~repro.core.training.TrainingSet` is bit-identical to a
single-shot build.

The in-process memoisation is guarded by a lock, so concurrent sessions
(threads) sharing this module build each dataset exactly once.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.compiler.flags import DEFAULT_SPACE
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.core.training import TrainingSet
from repro.experiments.config import Scale
from repro.machine.params import MicroArch, MicroArchSpace
from repro.programs.mibench import mibench_program
from repro.store import ExperimentRunner, ExperimentStore, GridSpec, StoreStatus


@dataclass
class ExperimentData:
    """Everything the per-figure experiments consume."""

    scale: Scale
    programs: list[Program]
    machines: list[MicroArch]
    training: TrainingSet
    compiler: Compiler


_MEMORY_CACHE: dict[str, ExperimentData] = {}
#: Guards ``_MEMORY_CACHE`` and ``_BUILD_LOCKS``; never held during a build.
_CACHE_LOCK = threading.Lock()
#: Per-fingerprint build locks so concurrent sessions build each dataset
#: once (and different scales still build in parallel).
_BUILD_LOCKS: dict[str, threading.Lock] = {}


def cache_dir(override: str | Path | None = None) -> Path:
    """The dataset cache root: explicit override > $REPRO_CACHE_DIR > cwd."""
    if override is not None:
        return Path(override)
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def _machines_for(scale: Scale) -> list[MicroArch]:
    space = MicroArchSpace(extended=scale.extended)
    return space.sample(scale.n_machines, seed=scale.machine_seed)


def grid_for_scale(scale: Scale, chunk_machines: int | None = None) -> GridSpec:
    """The explicit experiment grid (machines, settings) of a scale."""
    kwargs = {} if chunk_machines is None else {"chunk_machines": chunk_machines}
    return GridSpec(
        program_names=tuple(scale.programs),
        machines=tuple(_machines_for(scale)),
        settings=tuple(
            DEFAULT_SPACE.sample_many(scale.n_settings, scale.setting_seed)
        ),
        extended=scale.extended,
        metadata={"seed": scale.setting_seed, "n_settings": scale.n_settings},
        **kwargs,
    )


def store_root(scale: Scale, cache_directory: str | Path | None = None) -> Path:
    """Where a scale's shard store lives under the cache root."""
    return cache_dir(cache_directory) / f"store-{scale.name}-{scale.fingerprint()}"


def experiment_store(
    scale: Scale,
    cache_directory: str | Path | None = None,
    chunk_machines: int | None = None,
) -> ExperimentStore:
    """Open (or create) the shard store for a scale.

    The store directory is keyed by the scale fingerprint — which covers
    the program specs — so retuning a benchmark spec starts a fresh
    store rather than resuming a stale one.
    """
    return ExperimentStore(
        grid_for_scale(scale, chunk_machines),
        root=store_root(scale, cache_directory),
    )


def protocol_store_root(
    scale: Scale,
    fingerprint: str,
    cache_directory: str | Path | None = None,
) -> Path:
    """Where a scale's protocol fold store lives under the cache root.

    Keyed by the *protocol* fingerprint — which covers the training
    matrix and every predictor variant — so a changed dataset or variant
    set starts a fresh fold store rather than resuming a stale one.
    """
    return cache_dir(cache_directory) / f"protocol-{scale.name}-{fingerprint}"


def store_status(
    scale: Scale, cache_directory: str | Path | None = None
) -> StoreStatus:
    """Shard-completion snapshot for ``repro-experiments status``.

    Read-only: when no store exists yet this reports an all-pending grid
    without creating the store directory as a side effect.
    """
    root = store_root(scale, cache_directory)
    if not root.exists():
        return StoreStatus.pending_for(grid_for_scale(scale), root=str(root))
    return experiment_store(scale, cache_directory).status()


# ------------------------------------------------------------------- builds
def _build_training(
    scale: Scale,
    programs: list[Program],
    compiler: Compiler,
    progress: Callable[[str], None] | None,
    use_disk_cache: bool,
    cache_directory: str | Path | None,
    jobs: int,
    executor: str,
    store: ExperimentStore | None = None,
) -> TrainingSet:
    """Resolve a scale's training set: complete the store, then assemble."""
    if store is None and use_disk_cache:
        store = experiment_store(scale, cache_directory)
    elif store is None:
        store = ExperimentStore(grid_for_scale(scale), root=None)

    if not store.is_complete():
        pending = len(store.pending_keys())
        if progress is not None and pending < store.grid.n_shards:
            progress(
                f"resuming store: {store.grid.n_shards - pending}/"
                f"{store.grid.n_shards} shards already complete"
            )
        runner = ExperimentRunner(
            store,
            programs=programs,
            compiler=compiler,
            jobs=jobs,
            executor=executor,
        )
        runner.run(progress=progress)
    return store.assemble()


def load_or_build(
    scale: Scale,
    progress: Callable[[str], None] | None = None,
    use_disk_cache: bool = True,
    cache_directory: str | Path | None = None,
    jobs: int = 1,
    executor: str = "auto",
    store: ExperimentStore | None = None,
) -> ExperimentData:
    """Return the experiment data for ``scale``, building it if needed.

    The build runs through the sharded store, so it is resumable: a
    partially built store (from an interrupted run or a capped
    ``repro-experiments run --max-shards``) is completed rather than
    restarted.  ``cache_directory`` overrides the ``$REPRO_CACHE_DIR``
    default; ``jobs``/``executor`` fan the per-shard work out over the
    chosen pool; an explicit ``store`` (e.g. a session's in-memory
    store holding partial progress) is completed in place.  None of
    these knobs change the resulting data — the assembled training set
    is bit-identical for every combination.
    """
    # The memo key covers the persistence configuration, not just the
    # scale: a call pointed at a different cache directory must build
    # (and persist) there rather than be served a dataset that was never
    # written to its configured location.
    if use_disk_cache:
        target = str(cache_dir(cache_directory).resolve())
    else:
        target = "<memory>"
    key = f"{scale.fingerprint()}@{target}"
    with _CACHE_LOCK:
        if key in _MEMORY_CACHE:
            return _MEMORY_CACHE[key]
        build_lock = _BUILD_LOCKS.setdefault(key, threading.Lock())

    with build_lock:
        # Double-check: another session may have built while we waited.
        with _CACHE_LOCK:
            if key in _MEMORY_CACHE:
                return _MEMORY_CACHE[key]

        programs = [mibench_program(name) for name in scale.programs]
        compiler = Compiler()
        training = _build_training(
            scale,
            programs,
            compiler,
            progress=progress,
            use_disk_cache=use_disk_cache,
            cache_directory=cache_directory,
            jobs=jobs,
            executor=executor,
            store=store,
        )
        data = ExperimentData(
            scale=scale,
            programs=programs,
            machines=training.machines,
            training=training,
            compiler=compiler,
        )
        with _CACHE_LOCK:
            _MEMORY_CACHE[key] = data
        return data


def clear_memory_cache() -> None:
    with _CACHE_LOCK:
        _MEMORY_CACHE.clear()
