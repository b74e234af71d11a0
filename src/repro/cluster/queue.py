"""Work queues: a unit store's grid viewed as claimable units.

A :class:`UnitQueue` adapts any on-disk :class:`~repro.store.units.UnitStore`
to the worker loop's tiny contract — enumerate pending unit ids, check
whether one is done, execute one — with the store's own manifest as the
only source of truth.  Unit ids are the stores' unit stems
(``p0000-c0000`` for dataset shards, ``variant--program`` for protocol
folds), so lease files, progress records, and store files all speak the
same names.  The store's codec owns the layout; what a unit computes is
the caller's ``compute`` callable (``ExperimentRunner.queue()``,
``EvaluationPipeline.queue()``).

Queues never talk to the lease table; the worker composes the two.  A
queue requires an on-disk store (``root`` set) — the shared directory is
what multiple processes coordinate through.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Protocol

from repro.cluster.lease import ClusterError

#: Subdirectory of a store root holding all cluster state (leases,
#: per-worker progress, the aggregated progress.json artifact).
CLUSTER_DIR = "cluster"


class WorkQueue(Protocol):
    """What the worker loop needs from a unit source."""

    #: Manifest fingerprint every worker of one cluster must share.
    fingerprint: str
    #: Shared directory for leases and progress, under the store root.
    cluster_root: Path
    #: Human label for progress lines ("shard" / "fold").
    kind: str

    def total_units(self) -> int: ...

    def pending_units(self) -> list[str]: ...

    def is_done(self, unit: str) -> bool: ...

    def execute(self, unit: str) -> dict: ...


class UnitQueue:
    """The units of one on-disk unit store, claimable by stem.

    Args:
        store: the unit store whose pending units are the work.
        compute: computes and checkpoints one unit by key, returning its
            counters (``simulation_calls``, ``store_hits``); read-only
            views such as the status scan pass none.
        subset: the store's family-specific grid selection (variant keys
            for a fold store), mirroring the ``--only`` path.
    """

    def __init__(
        self,
        store,
        compute: Callable[[object], dict] | None = None,
        subset=None,
    ):
        if store.root is None:
            raise ClusterError(
                f"cluster execution needs an on-disk {store.codec.family} "
                f"(root=None is memory-only; workers coordinate through the "
                f"store directory)"
            )
        self.store = store
        self.compute = compute
        self.subset = subset
        self.fingerprint = store.identity
        self.cluster_root = Path(store.root) / CLUSTER_DIR
        self.kind = store.codec.payload.kind
        self.units = {key.stem(): key for key in store.keys(subset)}

    def total_units(self) -> int:
        return len(self.units)

    def pending_units(self) -> list[str]:
        return [key.stem() for key in self.store.pending_keys(self.subset)]

    def is_done(self, unit: str) -> bool:
        return self.store.has(self.units[unit])

    def execute(self, unit: str) -> dict:
        return self.compute(self.units[unit])
