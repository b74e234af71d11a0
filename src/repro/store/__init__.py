"""repro.store — the sharded, resumable experiment store.

Paper-scale dataset generation (35 programs × 200 machines × 1000
settings — 7 million simulations) is far too expensive to redo on every
interruption, so results live in an :class:`ExperimentStore`: append-only,
content-fingerprinted shard files keyed by (program, machine-chunk), with
a manifest that pins the exact grid.  An :class:`ExperimentRunner` walks
the grid, computes pending shards through the compile-once/simulate-many
hot path (one compilation per (program, setting), simulated across a whole
machine chunk), checkpoints each shard, and skips completed shards on
restart.

The invariant everything here preserves: however a store was filled —
serial or parallel, one shot or killed-and-resumed, any chunking — the
assembled :class:`~repro.core.training.TrainingSet` is bit-identical, with
the same content fingerprint.
"""

from repro.store.compute import ShardArrays, compute_shard, compute_shard_task
from repro.store.runner import ExperimentRunner
from repro.store.store import (
    DEFAULT_CHUNK_MACHINES,
    ExperimentStore,
    GridSpec,
    ShardKey,
    StoreError,
    StoreStatus,
    shard_fingerprint,
)

__all__ = [
    "DEFAULT_CHUNK_MACHINES",
    "ExperimentRunner",
    "ExperimentStore",
    "GridSpec",
    "ShardArrays",
    "ShardKey",
    "StoreError",
    "StoreStatus",
    "compute_shard",
    "compute_shard_task",
    "shard_fingerprint",
]
