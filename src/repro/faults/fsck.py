"""``repro-experiments fsck``: scrub every durable store, repair damage.

The stores already *tolerate* damage (unreadable shards read as
pending, torn journal tails replay to the verified prefix), but
tolerance is silent — a store that lost a shard to a torn write simply
recomputes it without anyone learning the disk lied.  The scrub pass
makes damage visible and repair explicit:

* every artifact of every store under the cache root is classified —
  ``ok``, ``torn-tail`` (truncated/zero-byte payloads), ``digest-mismatch``
  (bytes that parse but fail their recorded content digest),
  ``orphaned`` (sidecars without arrays, units outside the store's
  grid, leftover temp files, pointer entries naming missing versions,
  reclaim tombstones), ``stale-lease`` (claims whose owner stopped
  heartbeating), or ``corrupt`` (everything else unreadable);
* with ``--repair``, damaged artifacts are *quarantined* — moved into a
  ``quarantine/`` directory inside the store, never deleted — except
  where a cheaper exact repair exists (torn journal tails truncate to
  the verified prefix; orphan temp files, tombstones, and stale leases
  delete; a promotion pointer naming vanished versions rewrites from
  its own history).  After repair the next resume rebuilds exactly the
  damaged units and re-simulates nothing that was intact.

The dataset and protocol stores scrub themselves: their on-disk layout
lives in their unit codecs, and :meth:`repro.store.units.UnitStore.scrub`
classifies every unit through those codecs, so this module only picks
the family of each store directory.  The registry, the job journals and
the cluster lease tables keep their own scrubbers here.

Everything is read-only unless ``repair=True``.
"""

from __future__ import annotations

import json
import re
import time
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

QUARANTINE_DIR = "quarantine"

#: Classification statuses, roughly worst-first.
STATUSES = ("corrupt", "torn-tail", "digest-mismatch", "orphaned", "stale-lease", "ok")

_MODEL_FILE = re.compile(r"^v(\d{4,})\.json$")
_ARRAYS_FILE = re.compile(r"^v(\d{4,})\.arrays\.npz$")
_JOB_DIR = re.compile(r"^job-(\d{4,})$")
_TMP_FILE = re.compile(r"\.tmp$")


@dataclass(frozen=True)
class Finding:
    """One artifact's classification (and what repair did, if asked)."""

    path: str  # relative to the scanned root
    store: str  # which store family the artifact belongs to
    kind: str  # artifact kind: shard, sidecar, fold, model, pointer, ...
    status: str  # one of STATUSES
    detail: str = ""
    repair: str = ""  # planned/applied remedy: quarantine, truncate, delete, rewrite
    repaired: bool = False

    def describe(self) -> str:
        parts = [f"{self.status:<15s} {self.path}"]
        if self.detail:
            parts.append(f"({self.detail})")
        if self.repaired:
            parts.append(f"[repaired: {self.repair}]")
        elif self.repair:
            parts.append(f"[repair: {self.repair}]")
        return " ".join(parts)


@dataclass
class FsckReport:
    """Everything one scrub pass learned (and repaired)."""

    root: str
    repair: bool
    findings: list[Finding] = field(default_factory=list)

    @property
    def problems(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.status != "ok"]

    @property
    def unrepaired(self) -> list[Finding]:
        return [finding for finding in self.problems if not finding.repaired]

    @property
    def clean(self) -> bool:
        return not self.problems

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for finding in self.findings:
            tally[finding.status] = tally.get(finding.status, 0) + 1
        return tally

    def payload(self) -> dict:
        return {
            "root": self.root,
            "repair": self.repair,
            "counts": self.counts(),
            "problems": [
                {
                    "path": finding.path,
                    "store": finding.store,
                    "kind": finding.kind,
                    "status": finding.status,
                    "detail": finding.detail,
                    "repair": finding.repair,
                    "repaired": finding.repaired,
                }
                for finding in self.problems
            ],
        }

    def render(self, verbose: bool = False) -> str:
        counts = self.counts()
        summary = ", ".join(
            f"{counts[status]} {status}" for status in STATUSES if counts.get(status)
        )
        lines = [f"fsck {self.root}: {len(self.findings)} artifacts ({summary or 'empty'})"]
        shown = self.findings if verbose else self.problems
        for finding in shown:
            lines.append(f"  {finding.describe()}")
        if self.clean:
            lines.append("  every artifact verified clean")
        elif self.repair and not self.unrepaired:
            lines.append("  all damage repaired — resume rebuilds exactly the quarantined units")
        elif not self.repair:
            lines.append("  rerun with --repair to quarantine the damage")
        return "\n".join(lines)


class Scrubber:
    """Shared walking/repair machinery for one scrub pass."""

    def __init__(self, root: Path, repair: bool, report: FsckReport):
        self.root = Path(root)
        self.repair = repair
        self.report = report

    def _relative(self, path: Path) -> str:
        try:
            return str(path.relative_to(self.root))
        except ValueError:
            return str(path)

    def note(
        self,
        path: Path,
        store: str,
        kind: str,
        status: str,
        detail: str = "",
        repair: str = "",
        quarantine_root: Path | None = None,
        extra_paths: tuple[Path, ...] = (),
    ) -> None:
        """Record one finding, applying its repair when asked.

        ``extra_paths`` are companion artifacts (a shard's sidecar) that
        share the primary path's fate under quarantine, so a damaged
        unit disappears *atomically enough* for resume to rebuild it.
        """
        repaired = False
        if self.repair and status != "ok" and repair:
            try:
                if repair == "quarantine":
                    root = quarantine_root or self.root
                    for target in (path, *extra_paths):
                        _quarantine(target, root)
                elif repair == "delete":
                    for target in (path, *extra_paths):
                        target.unlink(missing_ok=True)
                repaired = repair in ("quarantine", "delete")
            except OSError:
                repaired = False
        self.report.findings.append(
            Finding(
                path=self._relative(path),
                store=store,
                kind=kind,
                status=status,
                detail=detail,
                repair=repair,
                repaired=repaired,
            )
        )


def _quarantine(path: Path, store_root: Path) -> Path | None:
    """Move one damaged artifact into the store's quarantine directory."""
    if not path.exists():
        return None
    target_dir = store_root / QUARANTINE_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / path.name
    counter = 0
    while target.exists():
        counter += 1
        target = target_dir / f"{path.name}.{counter}"
    path.rename(target)
    return target


def read_json(path: Path):
    """Parse JSON, or ``None`` when unreadable/unparseable."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None


def is_zero(path: Path) -> bool:
    try:
        return path.stat().st_size == 0
    except OSError:
        return False


# -------------------------------------------------------------------- registry
def scrub_registry(root: Path, repair: bool, report: FsckReport) -> None:
    from repro.api.registry import REGISTRY_FORMAT, _entry_digest

    scrubber = Scrubber(root, repair, report)
    store = "registry"
    model_dir = root / "models"
    valid_versions: set[int] = set()
    entry_digests: dict[int, str] = {}
    if model_dir.is_dir():
        for path in sorted(model_dir.iterdir()):
            if _TMP_FILE.search(path.name):
                scrubber.note(
                    path, store, "tmp", "orphaned",
                    detail="temp file from a killed writer",
                    repair="delete",
                )
                continue
            match = _MODEL_FILE.match(path.name)
            if match is not None:
                version = int(match.group(1))
                payload = read_json(path)
                if payload is None or not isinstance(payload, dict):
                    scrubber.note(
                        path, store, "model",
                        "torn-tail" if is_zero(path) else "corrupt",
                        detail="unreadable model entry",
                        repair="quarantine",
                    )
                    continue
                if payload.get("format") != REGISTRY_FORMAT:
                    scrubber.note(
                        path, store, "model", "corrupt",
                        detail=f"format {payload.get('format')!r} != {REGISTRY_FORMAT}",
                        repair="quarantine",
                    )
                    continue
                try:
                    digest_ok = _entry_digest(payload) == payload.get("digest")
                except (KeyError, TypeError, ValueError):
                    digest_ok = False
                if not digest_ok:
                    scrubber.note(
                        path, store, "model", "digest-mismatch",
                        detail="content digest differs from the entry's record",
                        repair="quarantine",
                    )
                    continue
                valid_versions.add(version)
                entry_digests[version] = payload["digest"]
                scrubber.note(path, store, "model", "ok")
        # Arrays sidecars second, judged against the (now known) entries.
        for path in sorted(model_dir.iterdir()):
            match = _ARRAYS_FILE.match(path.name)
            if match is None:
                continue
            version = int(match.group(1))
            if version not in valid_versions:
                scrubber.note(
                    path, store, "arrays", "orphaned",
                    detail="ranking sidecar without a valid model entry",
                    repair="delete",
                )
                continue
            try:
                with np.load(path) as data:
                    digest = str(data["digest"])
            except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
                scrubber.note(
                    path, store, "arrays", "torn-tail",
                    detail="ranking sidecar does not load (rebuilt on demand)",
                    repair="delete",
                )
                continue
            if digest != entry_digests[version]:
                scrubber.note(
                    path, store, "arrays", "digest-mismatch",
                    detail="ranking sidecar keyed to a different entry digest",
                    repair="delete",
                )
                continue
            scrubber.note(path, store, "arrays", "ok")

    pointer_path = root / "promoted.json"
    if pointer_path.exists():
        pointer = read_json(pointer_path)
        if pointer is None or not isinstance(pointer, dict):
            scrubber.note(
                pointer_path, store, "pointer",
                "torn-tail" if is_zero(pointer_path) else "corrupt",
                detail="unreadable promotion pointer (quarantined, promotions reset)",
                repair="quarantine",
            )
        else:
            broken = _broken_channels(pointer, valid_versions)
            if broken:
                repaired = False
                if repair:
                    repaired = _rewrite_pointer(pointer_path, pointer, valid_versions)
                report.findings.append(
                    Finding(
                        path=scrubber._relative(pointer_path),
                        store=store,
                        kind="pointer",
                        status="orphaned",
                        detail=(
                            "channels point at missing or corrupt versions: "
                            + ", ".join(sorted(broken))
                        ),
                        repair="rewrite",
                        repaired=repaired,
                    )
                )
            else:
                scrubber.note(pointer_path, store, "pointer", "ok")


def _broken_channels(pointer: dict, valid_versions: set[int]) -> list[str]:
    from repro.api.registry import pointer_channels

    broken = []
    for name, state in pointer_channels(pointer).items():
        current = state["current"]
        if current is not None and current not in valid_versions:
            broken.append(name)
        elif any(version not in valid_versions for version in state["history"]):
            broken.append(name)
    return broken


def _rewrite_pointer(path: Path, pointer: dict, valid_versions: set[int]) -> bool:
    """Drop vanished versions from the pointer: history backs current up."""
    from repro.api.registry import pointer_channels, write_pointer

    channels: dict[str, dict] = {}
    for name, state in pointer_channels(pointer).items():
        history = [v for v in state["history"] if v in valid_versions]
        current = state["current"]
        if current is not None and current not in valid_versions:
            current = history.pop() if history else None
        if current is None and not history:
            continue  # nothing left to promote on this channel
        channels[name] = {"current": current, "history": history}
    try:
        write_pointer(path, channels)
    except OSError:
        return False
    return True


# ------------------------------------------------------------------------ jobs
def scrub_jobs(root: Path, repair: bool, report: FsckReport) -> None:
    from repro.service.jobs import JobJournal, _chain_digest, _chain_seed

    scrubber = Scrubber(root, repair, report)
    store = "jobs"
    for path in sorted(root.iterdir()):
        if not path.is_dir() or _JOB_DIR.match(path.name) is None:
            continue
        journal = JobJournal(path)
        meta = journal.load_meta()
        if meta is None or meta.get("id") != path.name:
            repaired = False
            if repair:
                target = _quarantine(path, root)
                repaired = target is not None
            report.findings.append(
                Finding(
                    path=scrubber._relative(path),
                    store=store,
                    kind="job",
                    status="corrupt",
                    detail="unreadable or foreign job metadata",
                    repair="quarantine",
                    repaired=repaired,
                )
            )
            continue
        scrubber.note(path / JobJournal.META_NAME, store, "meta", "ok")
        snapshot_path = path / JobJournal.SNAPSHOT_NAME
        snapshot_chain = None
        if snapshot_path.exists():
            snapshot = journal.load_snapshot(meta["id"])
            if snapshot is None:
                scrubber.note(
                    snapshot_path, store, "snapshot",
                    "torn-tail" if is_zero(snapshot_path) else "corrupt",
                    detail="snapshot fails its chain verification",
                    repair="quarantine",
                    quarantine_root=root,
                )
            else:
                snapshot_chain = snapshot[1]
                scrubber.note(snapshot_path, store, "snapshot", "ok")
        events_path = path / JobJournal.EVENTS_NAME
        if events_path.exists():
            chain = snapshot_chain if snapshot_chain is not None else _chain_seed(meta["id"])
            verified_bytes = 0
            torn = False
            try:
                raw = events_path.read_bytes()
            except OSError:
                raw = None
            if raw is None:
                scrubber.note(
                    events_path, store, "journal", "corrupt",
                    detail="journal unreadable",
                    repair="quarantine",
                    quarantine_root=root,
                )
            else:
                offset = 0
                for line in raw.splitlines(keepends=True):
                    if not line.endswith(b"\n"):
                        torn = True
                        break
                    try:
                        record = json.loads(line)
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        torn = True
                        break
                    if not isinstance(record, dict) or not isinstance(record.get("event"), dict):
                        torn = True
                        break
                    expected = _chain_digest(chain, record["event"])
                    if record.get("chain") != expected:
                        torn = True
                        break
                    chain = expected
                    offset += len(line)
                verified_bytes = offset
                if torn or verified_bytes < len(raw):
                    repaired = False
                    if repair:
                        try:
                            if verified_bytes == 0:
                                events_path.unlink()
                            else:
                                with open(events_path, "r+b") as handle:
                                    handle.truncate(verified_bytes)
                            repaired = True
                        except OSError:
                            repaired = False
                    report.findings.append(
                        Finding(
                            path=scrubber._relative(events_path),
                            store=store,
                            kind="journal",
                            status="torn-tail",
                            detail=(
                                f"verified prefix {verified_bytes} of {len(raw)} bytes; "
                                "the tail does not replay"
                            ),
                            repair="truncate",
                            repaired=repaired,
                        )
                    )
                else:
                    scrubber.note(events_path, store, "journal", "ok")
        for stray in sorted(path.iterdir()):
            if _TMP_FILE.search(stray.name):
                scrubber.note(
                    stray, store, "tmp", "orphaned",
                    detail="temp file from a killed writer",
                    repair="delete",
                )


# --------------------------------------------------------------------- cluster
def scrub_cluster(
    cluster_root: Path,
    repair: bool,
    report: FsckReport,
    ttl: float,
    store_root: Path,
    store: str,
) -> None:
    from repro.cluster.lease import LeaseTable

    scrubber = Scrubber(store_root, repair, report)
    lease_root = cluster_root / LeaseTable.LEASE_SUBDIR
    if lease_root.is_dir():
        table_path = lease_root / LeaseTable.META_NAME
        if table_path.exists():
            table = read_json(table_path)
            if table is None or not isinstance(table, dict):
                scrubber.note(
                    table_path, store, "lease-table",
                    "torn-tail" if is_zero(table_path) else "corrupt",
                    detail="unreadable lease table (recreated by the next worker)",
                    repair="quarantine",
                )
            else:
                scrubber.note(table_path, store, "lease-table", "ok")
        now = time.time()
        for path in sorted(lease_root.iterdir()):
            if path.name == LeaseTable.META_NAME:
                continue
            if path.name.endswith(".reclaim"):
                scrubber.note(
                    path, store, "lease", "orphaned",
                    detail="reclaim tombstone a steal left behind",
                    repair="delete",
                )
                continue
            if _TMP_FILE.search(path.name):
                scrubber.note(
                    path, store, "tmp", "orphaned",
                    detail="temp file from a killed writer",
                    repair="delete",
                )
                continue
            if not path.name.endswith(LeaseTable.SUFFIX):
                continue
            payload = read_json(path)
            owner = payload.get("owner") if isinstance(payload, dict) else None
            try:
                age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue  # released between listing and stat
            if not isinstance(owner, str):
                scrubber.note(
                    path, store, "lease", "corrupt",
                    detail="claim file with an unreadable payload",
                    repair="delete",
                )
            elif age > ttl:
                scrubber.note(
                    path, store, "lease", "stale-lease",
                    detail=f"owner {owner} silent for {age:.0f}s (ttl {ttl:.0f}s)",
                    repair="delete",
                )
            else:
                scrubber.note(path, store, "lease", "ok")
    progress_root = cluster_root / "progress"
    if progress_root.is_dir():
        for path in sorted(progress_root.glob("*.json")):
            if read_json(path) is None:
                scrubber.note(
                    path, store, "progress",
                    "torn-tail" if is_zero(path) else "corrupt",
                    detail="unreadable worker progress file",
                    repair="delete",
                )
            else:
                scrubber.note(path, store, "progress", "ok")
    artifact = cluster_root / "progress.json"
    if artifact.exists() and read_json(artifact) is None:
        scrubber.note(
            artifact, store, "progress", "corrupt",
            detail="unreadable progress artifact",
            repair="delete",
        )


# ------------------------------------------------------------------ dispatcher
def fsck_path(
    root: str | Path,
    repair: bool = False,
    ttl: float | None = None,
    report: FsckReport | None = None,
) -> FsckReport:
    """Scrub one store directory, inferring which store family it is."""
    from repro.cluster.lease import DEFAULT_LEASE_TTL
    from repro.evalrun.foldstore import FoldStore
    from repro.store.store import ExperimentStore

    root = Path(root)
    ttl = DEFAULT_LEASE_TTL if ttl is None else ttl
    if report is None:
        report = FsckReport(root=str(root), repair=repair)
    if not root.is_dir():
        return report
    manifest = read_json(root / "manifest.json")
    pinned = manifest if isinstance(manifest, dict) else {}
    families = (ExperimentStore, FoldStore)
    family = next(
        (family for family in families if family.codec.identity_field in pinned), None
    ) or next(
        (family for family in families if (root / family.codec.unit_dir).is_dir()), None
    )
    if family is not None:
        report.findings.extend(family.scrub(root, repair))
        cluster_dir = root / "cluster"
        if cluster_dir.is_dir():
            scrub_cluster(
                cluster_dir, repair, report, ttl,
                store_root=root, store=f"{family.codec.family} {root.name}",
            )
    elif (root / "models").is_dir() or (root / "promoted.json").exists():
        scrub_registry(root, repair, report)
    elif any(_JOB_DIR.match(path.name) for path in root.iterdir() if path.is_dir()):
        scrub_jobs(root, repair, report)
    elif (root / "manifest.json").exists():
        # A manifest that parses to neither store family: report it.
        Scrubber(root, repair, report).note(
            root / "manifest.json", root.name, "manifest", "corrupt",
            detail="manifest belongs to no known store family",
            repair="quarantine",
        )
    return report


def fsck_cache(
    cache_directory: str | Path | None = None,
    repair: bool = False,
    ttl: float | None = None,
) -> FsckReport:
    """Scrub every store under the cache root (the CLI entry point)."""
    from repro.experiments.dataset import cache_dir

    root = cache_dir(cache_directory)
    report = FsckReport(root=str(root), repair=repair)
    if not root.is_dir():
        return report
    for child in sorted(root.iterdir()):
        if not child.is_dir() or child.name == QUARANTINE_DIR:
            continue
        sub = FsckReport(root=str(root), repair=repair)
        if child.name.startswith("store-") or child.name.startswith("protocol-"):
            fsck_path(child, repair=repair, ttl=ttl, report=sub)
        elif child.name == "registry":
            scrub_registry(child, repair, sub)
        elif child.name == "jobs":
            scrub_jobs(child, repair, sub)
        else:
            continue
        # Scrubbers report paths relative to their store root; re-anchor
        # to the cache root so findings name their store unambiguously.
        report.findings.extend(
            replace(finding, path=f"{child.name}/{finding.path}")
            for finding in sub.findings
        )
    return report
