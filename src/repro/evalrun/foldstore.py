"""The fold-level result store: append-only, digest-verified, resumable.

A :class:`FoldStore` is a :class:`~repro.store.units.UnitStore` of
protocol folds, one per (variant, held-out program).  The fold layout
lives in :class:`FoldCodec`; under the store root::

    protocol-<scale>-<fingerprint>/
        manifest.json            # protocol identity: training fingerprint,
                                 # variants, programs, machine count
        folds/
            <variant>--<program>.json

Each fold file carries its own content digest and the protocol
fingerprint and is never rewritten, so a killed protocol run resumes by
skipping every fold whose digest checks out — and a resumed run
assembles to results bit-identical to a single-shot run.  With
``root=None`` the store keeps folds in memory: same API, nothing on disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from repro.evalrun.variants import VariantSpec
from repro.store.units import StoreError, UnitCodec, UnitDamage, UnitFile, UnitStore

#: Manifest/shard schema version; bump on incompatible layout changes.
FOLD_FORMAT = 1


class FoldStoreError(StoreError):
    """A fold store is unusable: wrong protocol, version, or corrupt."""


class FoldKey(NamedTuple):
    """Grid coordinates of one fold: predictor variant × held-out program."""

    variant: str
    program: str

    def stem(self) -> str:
        return f"{self.variant}--{self.program}"


@dataclass(frozen=True)
class FoldRow:
    """One (held-out program, machine) leave-one-out outcome, value-level.

    The machine is stored by grid index — the manifest pins the machine
    list through the training fingerprint — and the predicted setting by
    its per-dimension value indices, so a row round-trips through JSON
    exactly.
    """

    machine: int
    setting: tuple[int, ...]
    predicted_runtime: float
    o3_runtime: float
    best_runtime: float

    def payload(self) -> dict:
        return {
            "machine": self.machine,
            "setting": list(self.setting),
            "predicted_runtime": self.predicted_runtime,
            "o3_runtime": self.o3_runtime,
            "best_runtime": self.best_runtime,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FoldRow":
        return cls(
            machine=int(payload["machine"]),
            setting=tuple(int(i) for i in payload["setting"]),
            predicted_runtime=float(payload["predicted_runtime"]),
            o3_runtime=float(payload["o3_runtime"]),
            best_runtime=float(payload["best_runtime"]),
        )


@dataclass(frozen=True)
class FoldRecord:
    """One completed fold: every machine's outcome for one (variant, program)."""

    key: FoldKey
    rows: tuple[FoldRow, ...]

    def payload(self) -> dict:
        return {
            "variant": self.key.variant,
            "program": self.key.program,
            "rows": [row.payload() for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FoldRecord":
        return cls(
            key=FoldKey(str(payload["variant"]), str(payload["program"])),
            rows=tuple(
                FoldRow.from_payload(row) for row in payload["rows"]
            ),
        )


def fold_fingerprint(record: FoldRecord) -> str:
    """Content digest of one fold (canonical JSON, bit-exact floats).

    JSON serialises floats as their shortest round-tripping repr, so two
    records with bit-identical values — and only those — share a digest.
    """
    canonical = json.dumps(
        record.payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class FoldStoreStatus:
    """Progress snapshot of one fold store."""

    root: str
    protocol_fingerprint: str
    total_folds: int
    completed_folds: int
    per_variant: dict[str, tuple[int, int]]  # variant -> (done, total)

    @property
    def complete(self) -> bool:
        return self.completed_folds == self.total_folds

    @property
    def fraction(self) -> float:
        if self.total_folds == 0:
            return 1.0
        return self.completed_folds / self.total_folds

    def render(self) -> str:
        lines = [
            f"protocol store {self.root}",
            f"  fingerprint {self.protocol_fingerprint}: "
            f"{self.completed_folds}/{self.total_folds} folds complete "
            f"({self.fraction:.0%})",
        ]
        pending = [
            f"{variant} {done}/{total}"
            for variant, (done, total) in self.per_variant.items()
            if done < total
        ]
        if pending:
            lines.append(f"  pending: {', '.join(pending)}")
        else:
            lines.append("  protocol complete — ready to render")
        return "\n".join(lines)


class FoldCodec(UnitCodec):
    """A fold is one JSON file: its record plus the protocol identity and
    the record's content digest.  Folds are small, so a completion check
    parses and digests the record."""

    family = "fold-store"
    format = FOLD_FORMAT
    unit_dir = "folds"
    files = (UnitFile(".json", "fold", "fold shard", "fold.shard"),)
    identity_field = "protocol_fingerprint"
    identity_name = "protocol"
    grid_name = "protocol grid"
    manifest_site = "fold.manifest"
    probe_decodes = True

    def encode(self, store, key, record, digest):
        shard = {
            "format": self.format,
            "protocol_fingerprint": store.identity,
            "fingerprint": digest,
            "record": record.payload(),
        }
        return (json.dumps(shard).encode(),)

    def decode(self, paths, header):
        try:
            return FoldRecord.from_payload(header["record"])
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise UnitDamage("corrupt", "fold record does not parse") from error

    def digest(self, record):
        return fold_fingerprint(record)


class FoldStore(UnitStore):
    """Checkpointed fold results for one protocol grid.

    Completed folds are never rewritten; concurrent writers of the same
    fold race benignly (identical bytes, atomic rename).  The grid is the
    full fold axis — every (variant, program) pair of the protocol — and
    resumability is simply ``pending_keys`` = grid minus verified folds.
    """

    codec = FoldCodec()
    error = FoldStoreError

    def __init__(
        self,
        fingerprint: str,
        variants: Sequence[VariantSpec],
        programs: Sequence[str],
        root: str | Path | None = None,
        metadata: dict | None = None,
    ):
        self.variants = list(variants)
        self.programs = list(programs)
        self.metadata = dict(metadata or {})
        self._open(root, fingerprint)

    @property
    def protocol_fingerprint(self) -> str:
        return self.identity

    def _manifest_fields(self) -> dict:
        return {
            "variants": [variant.describe() for variant in self.variants],
            "programs": self.programs,
            "metadata": self.metadata,
        }

    @classmethod
    def _manifest_keys(cls, manifest: dict) -> Iterator[FoldKey]:
        for variant in manifest["variants"]:
            for program in manifest["programs"]:
                yield FoldKey(variant["key"], program)

    # ----------------------------------------------------------------- grid
    def fold_keys(
        self, variants: Sequence[str] | None = None
    ) -> Iterator[FoldKey]:
        """Fold coordinates, variant-major in declaration order.

        ``variants`` restricts the walk to a subset of variant keys (the
        ``--only`` path, where unrequested ablations are never computed).
        """
        wanted = None if variants is None else set(variants)
        for variant in self.variants:
            if wanted is not None and variant.key not in wanted:
                continue
            for program in self.programs:
                yield FoldKey(variant.key, program)

    keys = fold_keys  # the unit store's grid walk; subsets are variant keys

    @property
    def n_folds(self) -> int:
        return len(self.variants) * len(self.programs)

    # ---------------------------------------------------------------- folds
    def write_fold(self, record: FoldRecord) -> None:
        """Checkpoint one computed fold (atomic; never rewrites)."""
        self._put(record.key, record)

    def read_fold(self, key: FoldKey, verify: bool = True) -> FoldRecord:
        """Load one fold, verifying its content digest by default."""
        return self._get(key, verify)

    # --------------------------------------------------------------- status
    def status(self) -> FoldStoreStatus:
        per_variant = self.progress(lambda key: key.variant)
        return FoldStoreStatus(
            root=str(self.root) if self.root is not None else "<memory>",
            protocol_fingerprint=self.identity,
            total_folds=self.n_folds,
            completed_folds=sum(done for done, _ in per_variant.values()),
            per_variant=per_variant,
        )
