"""The sharded, resumable experiment store.

An :class:`ExperimentStore` holds the results of one experiment grid —
``programs × machines × settings`` — as a :class:`~repro.store.units.UnitStore`
of shards, one per (program, machine-chunk).  The shard layout lives in
:class:`ShardCodec`; under the store root::

    store-<scale>-<fingerprint>/
        manifest.json             # the full grid: programs, machines,
                                  # settings, chunking, metadata
        shards/
            p0000-c0000.npz       # runtimes[S, Mc], o3_runtimes[Mc],
            p0000-c0000.json      # counters[Mc, K], code_features[J]
            ...                   # + sidecar with the content digest

The unit store writes the array file before the sidecar and skips every
shard whose sidecar checks out on restart.  Because each shard is a pure
function of the manifest grid, a resumed store assembles to a
:class:`~repro.core.training.TrainingSet` bit-identical to a single-shot
build, whatever the executor or interruption pattern.

With ``root=None`` the store keeps shards in memory — same API, no disk —
which is how cache-less builds and tests run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.compiler.flags import FlagSetting
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.sim.counters import COUNTER_NAMES
from repro.store.compute import ShardArrays
from repro.store.units import (
    MANIFEST_NAME,
    StoreError,
    UnitCodec,
    UnitDamage,
    UnitFile,
    UnitStore,
)

#: Manifest/sidecar schema version; bump on incompatible layout changes.
STORE_FORMAT = 1

#: Default machines per shard.  Larger chunks amortise compilation over
#: more simulations (compile-once/simulate-many) but checkpoint less
#: often; 8 keeps even the paper grid (35 × 200 machines) at a
#: manageable 875 shards.
DEFAULT_CHUNK_MACHINES = 8

_SHARD_ARRAY_NAMES = ("runtimes", "o3_runtimes", "counters", "code_features")


class ShardKey(NamedTuple):
    """Grid coordinates of one shard: program index × machine-chunk index."""

    program: int
    chunk: int

    def stem(self) -> str:
        return f"p{self.program:04d}-c{self.chunk:04d}"


@dataclass(frozen=True)
class GridSpec:
    """The full, explicit experiment grid a store is built over.

    Everything is value-level (names, machine configurations, flag
    settings) so that the grid — and therefore every shard — is
    reproducible from the manifest alone.
    """

    program_names: tuple[str, ...]
    machines: tuple[MicroArch, ...]
    settings: tuple[FlagSetting, ...]
    extended: bool = False
    chunk_machines: int = DEFAULT_CHUNK_MACHINES
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.program_names or not self.machines or not self.settings:
            raise ValueError("grid needs at least one program/machine/setting")
        if self.chunk_machines < 1:
            raise ValueError("chunk_machines must be >= 1")

    # ------------------------------------------------------------ geometry
    @property
    def n_programs(self) -> int:
        return len(self.program_names)

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def n_chunks(self) -> int:
        return -(-self.n_machines // self.chunk_machines)

    @property
    def n_shards(self) -> int:
        return self.n_programs * self.n_chunks

    def chunk_range(self, chunk: int) -> tuple[int, int]:
        """Machine index range ``[start, stop)`` of one chunk."""
        start = chunk * self.chunk_machines
        return start, min(start + self.chunk_machines, self.n_machines)

    def chunk_of(self, key: ShardKey) -> list[MicroArch]:
        start, stop = self.chunk_range(key.chunk)
        return list(self.machines[start:stop])

    def shard_keys(self) -> Iterator[ShardKey]:
        """All shard coordinates, program-major.

        Program-major order keeps one program's chunks adjacent, so a
        serial or thread runner's memoising compiler reuses each
        (program, setting) binary across every chunk.
        """
        for program in range(self.n_programs):
            for chunk in range(self.n_chunks):
                yield ShardKey(program, chunk)

    # --------------------------------------------------------------- identity
    def fingerprint(self) -> str:
        """Digest of the *logical* grid (chunking excluded).

        Two stores over the same programs/machines/settings are the same
        experiment regardless of how the machine axis is chunked, so the
        chunk size lives only in the manifest.
        """
        digest = hashlib.sha256()
        digest.update(repr(self.program_names).encode())
        for machine in self.machines:
            digest.update(repr(machine).encode())
        for setting in self.settings:
            digest.update(repr(setting.as_indices()).encode())
        digest.update(repr(self.extended).encode())
        return digest.hexdigest()[:16]

    def shard_shapes(self, key: ShardKey) -> dict[str, tuple[int, ...]]:
        from repro.core.code_features import CODE_FEATURE_NAMES

        start, stop = self.chunk_range(key.chunk)
        chunk = stop - start
        return {
            "runtimes": (self.n_settings, chunk),
            "o3_runtimes": (chunk,),
            "counters": (chunk, len(COUNTER_NAMES)),
            "code_features": (len(CODE_FEATURE_NAMES),),
        }


@dataclass
class StoreStatus:
    """A progress snapshot of one store, for the CLI ``status`` command."""

    root: str
    grid_fingerprint: str
    n_programs: int
    n_machines: int
    n_settings: int
    chunk_machines: int
    total_shards: int
    completed_shards: int
    bytes_on_disk: int
    per_program: dict[str, tuple[int, int]]  # name -> (done, total)

    @classmethod
    def pending_for(cls, grid: "GridSpec", root: str) -> "StoreStatus":
        """The status of a store that does not exist yet: all pending.

        Lets callers report on a never-built grid without creating the
        store directory as a side effect.
        """
        return cls(
            root=root,
            grid_fingerprint=grid.fingerprint(),
            n_programs=grid.n_programs,
            n_machines=grid.n_machines,
            n_settings=grid.n_settings,
            chunk_machines=grid.chunk_machines,
            total_shards=grid.n_shards,
            completed_shards=0,
            bytes_on_disk=0,
            per_program={name: (0, grid.n_chunks) for name in grid.program_names},
        )

    @property
    def complete(self) -> bool:
        return self.completed_shards == self.total_shards

    @property
    def fraction(self) -> float:
        # An empty grid (defensive: GridSpec forbids it, but a hand-rolled
        # status may not) counts as complete rather than dividing by zero.
        if self.total_shards == 0:
            return 1.0
        return self.completed_shards / self.total_shards

    def render(self) -> str:
        lines = [
            f"experiment store {self.root}",
            f"  grid: {self.n_programs} programs x {self.n_machines} machines "
            f"x {self.n_settings} settings "
            f"(chunk {self.chunk_machines}, fingerprint {self.grid_fingerprint})",
        ]
        if self.completed_shards == 0:
            # "0/N complete (0%)" reads like a half-broken build; say
            # what actually happened — the grid is pinned, nothing ran.
            lines.append(
                f"  shards: grid pinned, no shards built "
                f"(0/{self.total_shards})"
            )
        else:
            lines.append(
                f"  shards: {self.completed_shards}/{self.total_shards} "
                f"complete ({self.fraction:.0%}), "
                f"{self.bytes_on_disk / 1024:.0f} KiB on disk"
            )
        pending = [
            f"{name} {done}/{total}"
            for name, (done, total) in self.per_program.items()
            if done < total
        ]
        if pending:
            lines.append(f"  pending: {', '.join(pending)}")
        else:
            lines.append("  dataset complete — ready to assemble")
        return "\n".join(lines)


class ShardCodec(UnitCodec):
    """A shard is an ``.npz`` of its four arrays plus a JSON sidecar
    recording its grid coordinates and content digest."""

    family = "experiment-store"
    format = STORE_FORMAT
    unit_dir = "shards"
    files = (
        UnitFile(".npz", "shard", "array file", "store.shard.npz"),
        UnitFile(".json", "sidecar", "sidecar", "store.shard.sidecar"),
    )
    identity_field = "grid_fingerprint"
    identity_name = "grid"
    grid_name = "experiment grid"
    manifest_site = "store.manifest"

    def encode(self, store, key, arrays, digest):
        buffer = io.BytesIO()
        np.savez(buffer, **dict(zip(_SHARD_ARRAY_NAMES, arrays)))
        start, stop = store.grid.chunk_range(key.chunk)
        sidecar = {
            "format": self.format,
            "program": key.program,
            "chunk": key.chunk,
            "machine_start": start,
            "machine_stop": stop,
            "grid_fingerprint": store.identity,
            "fingerprint": digest,
        }
        return buffer.getvalue(), json.dumps(sidecar).encode()

    def decode(self, paths, header):
        npz_path = paths[0]
        try:
            if npz_path.stat().st_size == 0:
                raise UnitDamage(
                    "torn-tail",
                    "zero-byte array file (out-of-space or killed writer)",
                )
            with np.load(npz_path) as handle:
                return tuple(handle[name] for name in _SHARD_ARRAY_NAMES)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
            raise UnitDamage(
                "torn-tail", f"array file does not load ({error})"
            ) from error

    def digest(self, arrays):
        return shard_fingerprint(arrays)


class ExperimentStore(UnitStore):
    """Sharded on-disk (or in-memory) results for one experiment grid.

    Completed shards are never rewritten; an interrupted run resumes by
    skipping every key in :meth:`completed_keys` and computing only
    :meth:`pending_keys`.  Concurrent writers are safe: shards land via
    atomic rename and any two writers of the same key produce identical
    bytes, so the race is benign.
    """

    codec = ShardCodec()

    def __init__(self, grid: GridSpec, root: str | Path | None = None):
        self.grid = grid
        manifest = self._open(root, grid.fingerprint())
        if manifest is not None:
            # Adopt the manifest's chunking: shard boundaries were fixed
            # when the store was created.
            self.grid = dataclasses.replace(
                grid, chunk_machines=int(manifest["chunk_machines"])
            )

    # ------------------------------------------------------------- manifest
    @classmethod
    def open(cls, root: str | Path) -> "ExperimentStore":
        """Open an existing store from its manifest alone."""
        manifest_path = Path(root) / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no store manifest at {manifest_path}")
        return cls(_grid_from_manifest(json.loads(manifest_path.read_text())), root)

    def _manifest_fields(self) -> dict:
        return {
            "program_names": list(self.grid.program_names),
            "machines": [
                dataclasses.asdict(machine) for machine in self.grid.machines
            ],
            "settings": [
                list(setting.as_indices()) for setting in self.grid.settings
            ],
            "extended": self.grid.extended,
            "chunk_machines": self.grid.chunk_machines,
            "metadata": self.grid.metadata,
        }

    @classmethod
    def _manifest_keys(cls, manifest: dict) -> Iterator[ShardKey]:
        return _grid_from_manifest(manifest).shard_keys()

    # --------------------------------------------------------------- shards
    def keys(self, subset=None) -> Iterator[ShardKey]:
        """Every shard key, program-major (a dataset has no subsets)."""
        return self.grid.shard_keys()

    def write_shard(self, key: ShardKey, arrays: ShardArrays) -> None:
        """Checkpoint one computed shard (atomic; never rewrites)."""
        self._require_key(key)  # the shape check below assumes a grid key
        # Copies, not views: ascontiguousarray would pass a caller's
        # already-contiguous array (or slice) through unchanged, and an
        # in-memory store holding views could be mutated from outside,
        # silently changing its digests.  The copies are frozen so a
        # reader holding the returned arrays cannot mutate the store.
        arrays = tuple(
            np.array(array, dtype=float, order="C", copy=True)
            for array in arrays
        )
        by_name = dict(zip(_SHARD_ARRAY_NAMES, arrays))
        for name, shape in self.grid.shard_shapes(key).items():
            if by_name[name].shape != shape:
                raise ValueError(
                    f"{key.stem()}: {name} shape {by_name[name].shape} != {shape}"
                )
        for array in arrays:
            array.setflags(write=False)
        self._put(key, arrays)

    def read_shard(self, key: ShardKey, verify: bool = True) -> ShardArrays:
        """Load one shard, verifying its content digest by default."""
        return self._get(key, verify)

    # ------------------------------------------------------------- assembly
    def assemble(self) -> TrainingSet:
        """Concatenate every shard into the full :class:`TrainingSet`.

        Shards are placed by their manifest coordinates, so assembly
        order — and therefore the result — is independent of the order
        the shards were computed in.
        """
        pending = self.pending_keys()
        if pending:
            raise StoreError(
                f"store incomplete: {len(pending)}/{self.grid.n_shards} "
                f"shards missing (first: {pending[0].stem()})"
            )
        grid = self.grid
        from repro.core.code_features import CODE_FEATURE_NAMES

        P, S, M = grid.n_programs, grid.n_settings, grid.n_machines
        runtimes = np.empty((P, S, M), dtype=float)
        o3_runtimes = np.empty((P, M), dtype=float)
        counters = np.empty((P, M, len(COUNTER_NAMES)), dtype=float)
        code_features = np.empty((P, len(CODE_FEATURE_NAMES)), dtype=float)
        for key in grid.shard_keys():
            start, stop = grid.chunk_range(key.chunk)
            shard_runs, shard_o3, shard_counters, shard_code = self.read_shard(key)
            p = key.program
            runtimes[p, :, start:stop] = shard_runs
            o3_runtimes[p, start:stop] = shard_o3
            counters[p, start:stop, :] = shard_counters
            if key.chunk == 0:
                code_features[p, :] = shard_code
        return TrainingSet(
            program_names=list(grid.program_names),
            machines=list(grid.machines),
            settings=list(grid.settings),
            runtimes=runtimes,
            o3_runtimes=o3_runtimes,
            counters=counters,
            extended=grid.extended,
            metadata=dict(grid.metadata),
            code_features=code_features,
        )

    def adopt(self, training: TrainingSet) -> int:
        """Import an already-assembled training set as shards.

        Slices a complete :class:`TrainingSet` over this grid into the
        store's pending shards — the inverse of :meth:`assemble`, and
        bit-exact with shards computed directly (the digests match).
        Lets a session's store absorb a dataset another session already
        built and memoised in this process, instead of recomputing it.
        Returns the number of shards written.
        """
        grid = self.grid
        if (
            training.program_names != list(grid.program_names)
            or training.machines != list(grid.machines)
            or training.settings != list(grid.settings)
            or training.extended != grid.extended
        ):
            raise StoreError("training set does not match this store's grid")
        if training.code_features is None:
            raise StoreError("cannot adopt a training set without code features")
        written = 0
        for key in self.pending_keys():
            start, stop = grid.chunk_range(key.chunk)
            p = key.program
            self.write_shard(
                key,
                (
                    training.runtimes[p, :, start:stop],
                    training.o3_runtimes[p, start:stop],
                    training.counters[p, start:stop, :],
                    training.code_features[p, :],
                ),
            )
            written += 1
        return written

    # --------------------------------------------------------------- status
    def status(self) -> StoreStatus:
        grid = self.grid
        per_program = self.progress(lambda key: grid.program_names[key.program])
        return StoreStatus(
            root=str(self.root) if self.root is not None else "<memory>",
            grid_fingerprint=self.identity,
            n_programs=grid.n_programs,
            n_machines=grid.n_machines,
            n_settings=grid.n_settings,
            chunk_machines=grid.chunk_machines,
            total_shards=grid.n_shards,
            completed_shards=sum(done for done, _ in per_program.values()),
            bytes_on_disk=self.bytes_on_disk(),
            per_program=per_program,
        )


def _grid_from_manifest(manifest: dict) -> GridSpec:
    return GridSpec(
        program_names=tuple(manifest["program_names"]),
        machines=tuple(MicroArch(**fields) for fields in manifest["machines"]),
        settings=tuple(
            FlagSetting.from_indices(indices) for indices in manifest["settings"]
        ),
        extended=bool(manifest["extended"]),
        chunk_machines=int(manifest["chunk_machines"]),
        metadata=dict(manifest["metadata"]),
    )


def shard_fingerprint(arrays: Sequence[np.ndarray]) -> str:
    """Content digest of one shard's arrays (order-sensitive, bit-exact)."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()[:16]
