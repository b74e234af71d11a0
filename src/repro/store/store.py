"""The sharded, resumable experiment store.

An :class:`ExperimentStore` holds the results of one experiment grid —
``programs × machines × settings`` — as a collection of append-only,
content-fingerprinted shard files, one per (program, machine-chunk).
On-disk layout under the store root::

    store-<scale>-<fingerprint>/
        manifest.json             # the full grid: programs, machines,
                                  # settings, chunking, metadata
        shards/
            p0000-c0000.npz       # runtimes[S, Mc], o3_runtimes[Mc],
            p0000-c0000.json      # counters[Mc, K], code_features[J]
            ...                   # + sidecar with the content digest

Shards are written atomically (temp file + rename, array file before
sidecar), so a killed run leaves either a complete, verifiable shard or
nothing — restarting simply skips every shard whose sidecar digest
checks out and recomputes the rest.  Because each shard is a pure
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
import os
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.ioutil import DEFAULT_RETRY, atomic_write_bytes, atomic_write_text

from repro.compiler.flags import FlagSetting
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.sim.counters import COUNTER_NAMES
from repro.store.compute import ShardArrays

#: Manifest/sidecar schema version; bump on incompatible layout changes.
STORE_FORMAT = 1

#: Temp files older than this are orphans of killed writers and get
#: swept on store open; live writers finish a shard in well under this.
STALE_TMP_SECONDS = 3600.0

#: Default machines per shard.  Larger chunks amortise compilation over
#: more simulations (compile-once/simulate-many) but checkpoint less
#: often; 8 keeps even the paper grid (35 × 200 machines) at a
#: manageable 875 shards.
DEFAULT_CHUNK_MACHINES = 8

_SHARD_ARRAY_NAMES = ("runtimes", "o3_runtimes", "counters", "code_features")


class StoreError(RuntimeError):
    """A store directory is unusable: wrong grid, version, or corrupt."""


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


class ExperimentStore:
    """Sharded on-disk (or in-memory) results for one experiment grid.

    Completed shards are never rewritten; an interrupted run resumes by
    skipping every key in :meth:`completed_keys` and computing only
    :meth:`pending_keys`.  Concurrent writers are safe: shards land via
    atomic rename and any two writers of the same key produce identical
    bytes, so the race is benign.
    """

    MANIFEST_NAME = "manifest.json"
    SHARD_DIR = "shards"

    def __init__(self, grid: GridSpec, root: str | Path | None = None):
        self.root = Path(root) if root is not None else None
        self._memory: dict[ShardKey, ShardArrays] = {}
        #: Shards this instance has confirmed complete.  Completion is
        #: monotonic (shards are never deleted), so a positive answer can
        #: be cached forever, sparing repeated sidecar reads during the
        #: pending/status/write scans of a long run.
        self._known_complete: set[ShardKey] = set()
        if self.root is not None:
            manifest = self._read_manifest()
            if manifest is None:
                self.grid = grid
                self._write_manifest()
            else:
                if manifest["grid_fingerprint"] != grid.fingerprint():
                    raise StoreError(
                        f"store at {self.root} holds a different grid "
                        f"({manifest['grid_fingerprint']} != {grid.fingerprint()})"
                    )
                # Adopt the manifest's chunking: shard boundaries were
                # fixed when the store was created.
                self.grid = dataclasses.replace(
                    grid, chunk_machines=int(manifest["chunk_machines"])
                )
            self._sweep_stale_tmp()
        else:
            self.grid = grid

    # ------------------------------------------------------------- manifest
    @classmethod
    def open(cls, root: str | Path) -> "ExperimentStore":
        """Open an existing store from its manifest alone."""
        root = Path(root)
        manifest_path = root / cls.MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no store manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        grid = GridSpec(
            program_names=tuple(manifest["program_names"]),
            machines=tuple(
                MicroArch(**fields) for fields in manifest["machines"]
            ),
            settings=tuple(
                FlagSetting.from_indices(indices)
                for indices in manifest["settings"]
            ),
            extended=bool(manifest["extended"]),
            chunk_machines=int(manifest["chunk_machines"]),
            metadata=dict(manifest["metadata"]),
        )
        return cls(grid, root)

    def _read_manifest(self) -> dict | None:
        path = self.root / self.MANIFEST_NAME
        if not path.exists():
            return None
        manifest = json.loads(path.read_text())
        if manifest.get("format") != STORE_FORMAT:
            raise StoreError(
                f"store at {self.root} uses format "
                f"{manifest.get('format')!r}, expected {STORE_FORMAT}"
            )
        return manifest

    def _write_manifest(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / self.SHARD_DIR).mkdir(exist_ok=True)
        manifest = {
            "format": STORE_FORMAT,
            "grid_fingerprint": self.grid.fingerprint(),
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
        atomic_write_text(
            self.root / self.MANIFEST_NAME,
            json.dumps(manifest, indent=1),
            site="store.manifest",
            fsync=True,
        )

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files orphaned by killed writers.

        Only files past :data:`STALE_TMP_SECONDS` go — a concurrent
        writer's live temp file must not be yanked mid-write.
        """
        shard_dir = self.root / self.SHARD_DIR
        if not shard_dir.exists():
            return
        cutoff = time.time() - STALE_TMP_SECONDS
        for path in shard_dir.glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass  # already gone, or not ours to remove

    # --------------------------------------------------------------- shards
    def _shard_paths(self, key: ShardKey) -> tuple[Path, Path]:
        base = self.root / self.SHARD_DIR / key.stem()
        return base.with_suffix(".npz"), base.with_suffix(".json")

    def has_shard(self, key: ShardKey) -> bool:
        if self.root is None:
            return key in self._memory
        if key in self._known_complete:
            return True
        npz_path, sidecar_path = self._shard_paths(key)
        try:
            # A zero-byte array file is the torn tail an out-of-space or
            # killed writer leaves behind; treat it — like any unreadable
            # sidecar — as pending so resume recomputes the shard instead
            # of tripping over it at read time.
            if npz_path.stat().st_size == 0:
                return False
        except OSError:
            return False
        if not sidecar_path.exists():
            return False
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        if sidecar.get("grid_fingerprint") != self.grid.fingerprint():
            return False
        self._known_complete.add(key)
        return True

    def completed_keys(self) -> list[ShardKey]:
        return [key for key in self.grid.shard_keys() if self.has_shard(key)]

    def pending_keys(self) -> list[ShardKey]:
        return [key for key in self.grid.shard_keys() if not self.has_shard(key)]

    def is_complete(self) -> bool:
        return not self.pending_keys()

    def write_shard(self, key: ShardKey, arrays: ShardArrays) -> None:
        """Checkpoint one computed shard (atomic; never rewrites)."""
        # Copies, not views: ascontiguousarray would pass a caller's
        # already-contiguous array (or slice) through unchanged, and an
        # in-memory store holding views could be mutated from outside,
        # silently changing its digests.
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
        if self.has_shard(key):
            return  # append-only: first complete write wins
        if self.root is None:
            # Freeze the stored copies so a reader holding the returned
            # arrays cannot mutate the store from outside.
            for array in arrays:
                array.setflags(write=False)
            self._memory[key] = arrays
            return
        npz_path, sidecar_path = self._shard_paths(key)
        buffer = io.BytesIO()
        np.savez(buffer, **dict(zip(_SHARD_ARRAY_NAMES, arrays)))
        atomic_write_bytes(
            npz_path,
            buffer.getvalue(),
            site="store.shard.npz",
            fsync=True,
            retries=DEFAULT_RETRY,
        )
        start, stop = self.grid.chunk_range(key.chunk)
        sidecar = {
            "format": STORE_FORMAT,
            "program": key.program,
            "chunk": key.chunk,
            "machine_start": start,
            "machine_stop": stop,
            "grid_fingerprint": self.grid.fingerprint(),
            "fingerprint": shard_fingerprint(arrays),
        }
        atomic_write_text(
            sidecar_path,
            json.dumps(sidecar),
            site="store.shard.sidecar",
            fsync=True,
            retries=DEFAULT_RETRY,
        )
        self._known_complete.add(key)

    def read_shard(self, key: ShardKey, verify: bool = True) -> ShardArrays:
        """Load one shard, verifying its content digest by default."""
        if self.root is None:
            try:
                return self._memory[key]
            except KeyError:
                raise StoreError(f"shard {key.stem()} not in store") from None
        npz_path, sidecar_path = self._shard_paths(key)
        if not self.has_shard(key):
            raise StoreError(f"shard {key.stem()} not in store")
        try:
            with np.load(npz_path) as handle:
                arrays = tuple(handle[name] for name in _SHARD_ARRAY_NAMES)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
            raise StoreError(
                f"shard {key.stem()} is torn or corrupt ({error}); "
                f"quarantine with fsck and resume"
            ) from error
        if verify:
            sidecar = json.loads(sidecar_path.read_text())
            digest = shard_fingerprint(arrays)
            if digest != sidecar["fingerprint"]:
                raise StoreError(
                    f"shard {key.stem()} is corrupt: digest {digest} != "
                    f"recorded {sidecar['fingerprint']}"
                )
        return arrays

    def shard_digest(self, key: ShardKey) -> str:
        """The recorded (disk) or computed (memory) content digest."""
        if self.root is None:
            return shard_fingerprint(self._memory[key])
        _, sidecar_path = self._shard_paths(key)
        return json.loads(sidecar_path.read_text())["fingerprint"]

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

    def fingerprint(self) -> str:
        """Content digest of the complete store.

        Covers the grid identity plus every shard's content digest in
        grid order — equal between any two stores holding the same
        results, however they were computed.
        """
        digest = hashlib.sha256()
        digest.update(self.grid.fingerprint().encode())
        for key in self.grid.shard_keys():
            if not self.has_shard(key):
                raise StoreError(f"cannot fingerprint: {key.stem()} missing")
            digest.update(self.shard_digest(key).encode())
        return digest.hexdigest()[:16]

    # --------------------------------------------------------------- status
    def status(self) -> StoreStatus:
        grid = self.grid
        per_program: dict[str, tuple[int, int]] = {}
        completed = 0
        for p, name in enumerate(grid.program_names):
            done = sum(
                1
                for chunk in range(grid.n_chunks)
                if self.has_shard(ShardKey(p, chunk))
            )
            per_program[name] = (done, grid.n_chunks)
            completed += done
        bytes_on_disk = 0
        if self.root is not None and (self.root / self.SHARD_DIR).exists():
            bytes_on_disk = sum(
                path.stat().st_size
                for path in (self.root / self.SHARD_DIR).iterdir()
                if path.suffix != ".tmp"
            )
        return StoreStatus(
            root=str(self.root) if self.root is not None else "<memory>",
            grid_fingerprint=grid.fingerprint(),
            n_programs=grid.n_programs,
            n_machines=grid.n_machines,
            n_settings=grid.n_settings,
            chunk_machines=grid.chunk_machines,
            total_shards=grid.n_shards,
            completed_shards=completed,
            bytes_on_disk=bytes_on_disk,
            per_program=per_program,
        )


def shard_fingerprint(arrays: Sequence[np.ndarray]) -> str:
    """Content digest of one shard's arrays (order-sensitive, bit-exact)."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()[:16]
