"""One keyed, digest-verified unit store under the dataset and the protocol.

A unit store holds one grid of independent work units — the dataset's
(program, machine-chunk) shards, the protocol's (variant, held-out
program) folds — as append-only files under one root::

    <root>/
        manifest.json          # format, store identity and grid
        <unit dir>/
            <stem><suffix>     # one file per codec file, per unit

:class:`UnitStore` owns what the families share: the manifest, the
``root=None`` memory mode, the completion and digest caches, atomic
writes (payload files before the header that records the digest), the
stale-temp sweep, completion scans, the fingerprint, and the fsck pass
(:meth:`UnitStore.scrub`).  A family supplies a :class:`UnitCodec` (a
unit's files, encode/decode, content digest) and its grid of keys.
Units are never rewritten, so concurrent writers of one unit race
benignly, and a unit whose files are missing, zero-byte, unreadable or
foreign reads as pending, so resume recomputes it.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, NamedTuple, Sequence

from repro.ioutil import DEFAULT_RETRY, atomic_write_bytes, atomic_write_text

if TYPE_CHECKING:
    from repro.faults.fsck import Finding

MANIFEST_NAME = "manifest.json"

#: Temp files older than this are orphans of killed writers and get
#: swept on store open; live writers finish a unit in well under this.
STALE_TMP_SECONDS = 3600.0


class StoreError(RuntimeError):
    """A store directory is unusable: wrong grid, version, or corrupt."""


class UnitDamage(Exception):
    """A unit's files exist but do not decode; carries the fsck status."""

    def __init__(self, status: str, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


class UnitFile(NamedTuple):
    """One file of a unit: suffix, fsck kind, human label, failpoint site."""

    suffix: str
    kind: str
    label: str
    site: str


class UnitCodec:
    """How one store family lays out, encodes, decodes and digests a unit.

    ``files`` lists a unit's files in write order.  The first is the
    payload; the last is the header, a JSON object holding the store
    identity under :attr:`identity_field` and the unit's content digest
    under ``"fingerprint"`` (a single-file unit is its own header).
    """

    #: Store label in fsck findings ("experiment-store", "fold-store").
    family: str
    #: Manifest/header schema version.
    format: int
    #: Directory under the store root holding the unit files.
    unit_dir: str
    files: tuple[UnitFile, ...]
    #: Manifest and header field naming the store's identity.
    identity_field: str
    #: What a foreign unit belongs to ("grid", "protocol").
    identity_name: str
    #: What an out-of-grid key is not in ("experiment grid", ...).
    grid_name: str
    manifest_site: str
    #: Whether a completion check decodes and digests the unit (small
    #: units) or trusts the header once every file is non-empty.
    probe_decodes: bool = False

    @property
    def payload(self) -> UnitFile:
        return self.files[0]

    @property
    def header(self) -> UnitFile:
        return self.files[-1]

    def read_header(self, path: Path) -> dict | None:
        """The header file's JSON object, or ``None`` when unreadable."""
        try:
            header = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return header if isinstance(header, dict) else None

    def encode(self, store: "UnitStore", key, unit, digest: str) -> tuple[bytes, ...]:
        """The bytes of each of :attr:`files`, in order."""
        raise NotImplementedError

    def decode(self, paths: Sequence[Path], header: dict):
        """The unit stored at ``paths``; raises :class:`UnitDamage`."""
        raise NotImplementedError

    def digest(self, unit) -> str:
        """Content digest of one unit (bit-exact, order-sensitive)."""
        raise NotImplementedError


class UnitStore:
    """Append-only, digest-verified units keyed by a family's grid.

    A family subclass sets :attr:`codec` and :attr:`error`, calls
    :meth:`_open` from its constructor, and implements :meth:`keys`,
    ``_manifest_fields()`` (its grid description, written after format
    and identity) and the classmethod ``_manifest_keys(manifest)`` (the
    grid keys a manifest pins, so fsck can judge units without opening
    the store).  Keys are values with a ``stem()`` naming the unit's files.
    """

    codec: UnitCodec
    error: type[StoreError] = StoreError

    def _open(self, root: str | Path | None, identity: str) -> dict | None:
        """Pin the store at ``root`` (``None`` keeps units in memory).

        Creates the manifest on first open; otherwise checks its format
        and identity and returns it, so a family can adopt what it pins.
        """
        self.root = Path(root) if root is not None else None
        self.identity = identity
        self._memory: dict = {}
        #: Digests of units known complete.  Completion is monotonic
        #: (units are never deleted under an open store), so a positive
        #: answer is cached forever: the pending/status/write scans of a
        #: long run and fingerprint() never re-read a unit's files.
        self._digests: dict = {}
        self._grid_keys: frozenset | None = None
        if self.root is None:
            return None
        manifest = self._read_manifest()
        if manifest is None:
            self._write_manifest()
        elif manifest[self.codec.identity_field] != identity:
            raise self.error(
                f"store at {self.root} holds a different "
                f"{self.codec.identity_name} "
                f"({manifest[self.codec.identity_field]} != {identity})"
            )
        self._sweep_stale_tmp()
        return manifest

    # ------------------------------------------------------------- manifest
    def _read_manifest(self) -> dict | None:
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return None
        manifest = json.loads(path.read_text())
        if manifest.get("format") != self.codec.format:
            raise self.error(
                f"store at {self.root} uses format "
                f"{manifest.get('format')!r}, expected {self.codec.format}"
            )
        return manifest

    def _write_manifest(self) -> None:
        (self.root / self.codec.unit_dir).mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": self.codec.format,
            self.codec.identity_field: self.identity,
            **self._manifest_fields(),
        }
        atomic_write_text(
            self.root / MANIFEST_NAME,
            json.dumps(manifest, indent=1),
            site=self.codec.manifest_site,
            fsync=True,
        )

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files orphaned by killed writers.

        Only files past :data:`STALE_TMP_SECONDS` go — a concurrent
        writer's live temp file must not be yanked mid-write.
        """
        cutoff = time.time() - STALE_TMP_SECONDS
        for path in (self.root / self.codec.unit_dir).glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass  # already gone, or not ours to remove

    # ----------------------------------------------------------------- grid
    def keys(self, subset=None) -> Iterable[Hashable]:
        """Grid keys in grid order; ``subset`` is a family-specific
        selection (``None`` is the whole grid)."""
        raise NotImplementedError

    def _require_key(self, key) -> None:
        if self._grid_keys is None:
            self._grid_keys = frozenset(self.keys())
        if key not in self._grid_keys:
            raise self.error(
                f"{self.codec.payload.kind} {key.stem()} not in this "
                f"{self.codec.grid_name}"
            )

    def unit_paths(self, key) -> tuple[Path, ...]:
        """Where a unit's files live, in :attr:`UnitCodec.files` order."""
        unit_dir = self.root / self.codec.unit_dir
        return tuple(unit_dir / f"{key.stem()}{file.suffix}" for file in self.codec.files)

    # ---------------------------------------------------------------- units
    def has(self, key) -> bool:
        """Whether a unit is complete (cached once true)."""
        if key in self._digests:
            return True
        if self.root is None:
            return key in self._memory
        digest = self._probe(key)
        if digest is None:
            return False
        self._digests[key] = digest
        return True

    def _probe(self, key) -> str | None:
        """The recorded digest of a complete unit on disk, else ``None``.

        A missing or zero-byte file (the torn tail an out-of-space or
        killed writer leaves), an unreadable header, or a foreign
        identity reads as pending, so resume recomputes the unit instead
        of tripping over it at read time.
        """
        paths = self.unit_paths(key)
        try:
            if any(path.stat().st_size == 0 for path in paths):
                return None
        except OSError:
            return None
        header = self.codec.read_header(paths[-1])
        if header is None or header.get(self.codec.identity_field) != self.identity:
            return None
        recorded = header.get("fingerprint")
        if not isinstance(recorded, str):
            return None
        if self.codec.probe_decodes:
            try:
                unit = self.codec.decode(paths, header)
            except UnitDamage:
                return None
            if self.codec.digest(unit) != recorded:
                return None
        return recorded

    def completed_keys(self, subset=None) -> list:
        return [key for key in self.keys(subset) if self.has(key)]

    def pending_keys(self, subset=None) -> list:
        return [key for key in self.keys(subset) if not self.has(key)]

    def is_complete(self, subset=None) -> bool:
        return all(self.has(key) for key in self.keys(subset))

    def _put(self, key, unit) -> None:
        """Checkpoint one unit (atomic; first complete write wins)."""
        self._require_key(key)
        if self.has(key):
            return
        if self.root is None:
            self._memory[key] = unit
            return
        digest = self.codec.digest(unit)
        encoded = self.codec.encode(self, key, unit, digest)
        # Payload files land before the header, so a header on disk
        # always vouches for files that were completely written.
        for path, file, data in zip(self.unit_paths(key), self.codec.files, encoded):
            atomic_write_bytes(
                path, data, site=file.site, fsync=True, retries=DEFAULT_RETRY
            )
        self._digests[key] = digest

    def _get(self, key, verify: bool = True):
        """Load one unit, verifying its content digest by default."""
        what = f"{self.codec.payload.kind} {key.stem()}"
        if self.root is None:
            try:
                return self._memory[key]
            except KeyError:
                raise self.error(f"{what} not in store") from None
        paths = self.unit_paths(key)
        if not all(path.exists() for path in paths):
            raise self.error(f"{what} not in store")
        header = self.codec.read_header(paths[-1])
        if header is not None and header.get(self.codec.identity_field) != self.identity:
            raise self.error(
                f"{what} belongs to a different {self.codec.identity_name}"
            )
        try:
            if header is None:
                raise UnitDamage("corrupt", f"unreadable {self.codec.header.label}")
            unit = self.codec.decode(paths, header)
        except UnitDamage as damage:
            raise self.error(
                f"{what} is torn or corrupt ({damage.detail}); "
                f"quarantine with fsck and resume"
            ) from damage
        if verify:
            digest = self.codec.digest(unit)
            if digest != header.get("fingerprint"):
                raise self.error(
                    f"{what} is corrupt: digest {digest} != "
                    f"recorded {header.get('fingerprint')}"
                )
        return unit

    def digest(self, key) -> str:
        """A complete unit's content digest: recorded on disk, computed
        once in memory."""
        if key not in self._digests:
            if self.root is None:
                self._digests[key] = self.codec.digest(self._get(key))
            elif not self.has(key):
                raise self.error(
                    f"{self.codec.payload.kind} {key.stem()} not in store"
                )
        return self._digests[key]

    def fingerprint(self, subset=None) -> str:
        """Content digest of the complete store (or ``subset`` of it).

        Covers the store identity plus every unit's content digest in
        grid order — equal between any two stores holding the same
        results, however they were computed.
        """
        digest = hashlib.sha256(self.identity.encode())
        for key in self.keys(subset):
            if not self.has(key):
                raise self.error(
                    f"cannot fingerprint: {self.codec.payload.kind} "
                    f"{key.stem()} missing"
                )
            digest.update(self.digest(key).encode())
        return digest.hexdigest()[:16]

    # --------------------------------------------------------------- status
    def progress(self, group: Callable[[Hashable], str]) -> dict[str, tuple[int, int]]:
        """``(done, total)`` unit counts per ``group(key)``, in grid order."""
        counts: dict[str, tuple[int, int]] = {}
        for key in self.keys():
            done, total = counts.get(group(key), (0, 0))
            counts[group(key)] = (done + int(self.has(key)), total + 1)
        return counts

    def bytes_on_disk(self) -> int:
        """Size of every unit file (temp files excluded)."""
        if self.root is None or not (self.root / self.codec.unit_dir).is_dir():
            return 0
        return sum(
            path.stat().st_size
            for path in (self.root / self.codec.unit_dir).iterdir()
            if path.suffix != ".tmp"
        )

    # ----------------------------------------------------------------- fsck
    def verify(self) -> list[Finding]:
        """Read-only fsck findings for this store (none in memory)."""
        return [] if self.root is None else self.scrub(self.root)

    @classmethod
    def scrub(cls, root: str | Path, repair: bool = False) -> list[Finding]:
        """Classify every file of the store at ``root``; repair if asked.

        A unit is ``ok`` when all its files exist, its header reads and
        names the manifest's identity, it decodes, its digest matches
        the header, and its stem is a grid key.  An unreadable manifest
        pins no grid, so units are then judged on their digests alone.
        With ``repair`` a damaged unit's files are quarantined together
        and temp files deleted, so the next resume rebuilds exactly the
        damaged units.  Nothing is opened through the store itself: a
        scrub never writes a manifest or sweeps temp files.
        """
        from repro.faults.fsck import FsckReport, Scrubber, is_zero, read_json

        codec = cls.codec
        root = Path(root)
        report = FsckReport(root=str(root), repair=repair)
        scrubber = Scrubber(root, repair, report)
        store = f"{codec.family} {root.name}"
        manifest_path = root / MANIFEST_NAME
        manifest = read_json(manifest_path)
        identity = stems = None
        status, detail = "ok", ""
        if not isinstance(manifest, dict):
            status = "torn-tail" if is_zero(manifest_path) else "corrupt"
            detail = "unreadable manifest pins no grid; units below are judged on their own digests"
        elif manifest.get("format") != codec.format:
            status, detail = "corrupt", f"format {manifest.get('format')!r} != {codec.format}"
        else:
            try:
                stems = {key.stem() for key in cls._manifest_keys(manifest)}
                identity = manifest.get(codec.identity_field)
            except (KeyError, TypeError, ValueError):
                status, detail = "corrupt", "manifest does not describe a grid"
        scrubber.note(
            manifest_path, store, "manifest", status,
            detail=detail, repair="" if status == "ok" else "quarantine",
        )

        unit_dir = root / codec.unit_dir
        if not unit_dir.is_dir():
            return report.findings
        suffixes = {file.suffix for file in codec.files}
        units: dict[str, dict[str, Path]] = {}
        for path in sorted(unit_dir.iterdir()):
            if path.name.endswith(".tmp"):
                scrubber.note(
                    path, store, "tmp", "orphaned",
                    detail="temp file from a killed or out-of-space writer",
                    repair="delete",
                )
            elif path.suffix in suffixes:
                units.setdefault(path.stem, {})[path.suffix] = path
        for stem, found in sorted(units.items()):
            path, kind, status, detail, companions = _classify(
                codec, stem, found, identity, stems
            )
            scrubber.note(
                path, store, kind, status,
                detail=detail,
                repair="" if status == "ok" else "quarantine",
                extra_paths=companions,
            )
        return report.findings


def _classify(
    codec: UnitCodec,
    stem: str,
    found: dict[str, Path],
    identity: str | None,
    stems: set[str] | None,
) -> tuple[Path, str, str, str, tuple[Path, ...]]:
    """One unit's fsck verdict: (path, kind, status, detail, companions),
    where ``companions`` are the unit's other files, quarantined with it."""
    from repro.faults.fsck import is_zero

    missing = [file for file in codec.files if file.suffix not in found]
    if missing:
        present = next(file for file in codec.files if file.suffix in found)
        detail = f"{present.label} without its {missing[0].label}"
        return found[present.suffix], present.kind, "orphaned", detail, ()
    paths = [found[file.suffix] for file in codec.files]
    header = codec.read_header(paths[-1])
    if header is None:
        status = "torn-tail" if is_zero(paths[-1]) else "corrupt"
        detail = f"unreadable {codec.header.label}"
        return paths[-1], codec.header.kind, status, detail, tuple(paths[:-1])

    def verdict(status: str, detail: str = ""):
        companions = tuple(paths[1:]) if status != "ok" else ()
        return paths[0], codec.payload.kind, status, detail, companions

    if identity is not None and header.get(codec.identity_field) != identity:
        return verdict("orphaned", f"{codec.payload.kind} from a different {codec.identity_name}")
    try:
        unit = codec.decode(paths, header)
    except UnitDamage as damage:
        return verdict(damage.status, damage.detail)
    if codec.digest(unit) != header.get("fingerprint"):
        return verdict(
            "digest-mismatch",
            f"content digest differs from the {codec.header.label}'s record",
        )
    if stems is not None and stem not in stems:
        return verdict("orphaned", "unit not in this store's grid")
    return verdict("ok")
