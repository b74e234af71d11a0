"""The versioned model registry: trained predictors as deployable artifacts.

A :class:`ModelRegistry` owns a directory of immutable, digest-verified
model files plus one mutable promotion pointer::

    registry/
        models/
            v0001.json       # {"format", "version", "digest", "fingerprint",
            v0002.json       #  "metadata", "model": <predictor state>}
            ...
        promoted.json        # {"format", "channels": {"default":
                             #   {"current": 2, "history": [1]},
                             #   "tiny": {...}}}

Model files follow the store-shard rules: written atomically, content
digested, and never rewritten — :meth:`ModelRegistry.register` allocates
the next free version with an exclusive link, so two sessions registering
concurrently can never collide on a version or corrupt each other.  The
promotion pointer is a single atomically-replaced JSON document carrying
its own history, which is what :meth:`ModelRegistry.rollback` pops.

Promotion is per-**channel**: every channel (``"default"`` unless named)
has its own current version and rollback history, so one registry can
serve e.g. a model per scale or per machine space, each promoted and
rolled back independently — the prediction service routes requests to a
channel at request time.  :func:`pointer_channels` and
:func:`write_pointer` are the one reader and writer of the pointer
layout; ``repro.faults.fsck`` repairs pointers through them too.

The prediction service always serves the registry's *promoted* model,
and promoting/rolling back is a metadata flip, never a model rewrite.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compiler.flags import DEFAULT_SPACE, FlagSpace
from repro.core.predictor import OptimisationPredictor
from repro.core.vector import stack_state_arrays
from repro.ioutil import (
    atomic_write_bytes,
    atomic_write_text,
    tmp_sibling,
    write_text_with_faults,
)

#: Registry file schema version; bump on incompatible layout changes.
REGISTRY_FORMAT = 1

#: The promotion channel used when none is named.
DEFAULT_CHANNEL = "default"

#: Channel names stay filesystem/JSON-friendly and unambiguous.
_CHANNEL_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_MODEL_FILE = re.compile(r"^v(\d{4,})\.json$")


def validate_channel(channel: str) -> str:
    """Check a promotion channel name (returns it for chaining)."""
    if not isinstance(channel, str) or not _CHANNEL_NAME.match(channel):
        raise RegistryError(
            f"bad channel name {channel!r}: use 1-64 letters, digits, "
            "'_', '.', or '-' (starting with a letter or digit)"
        )
    return channel


class RegistryError(RuntimeError):
    """A registry entry is missing, corrupt, or from another format."""


def pointer_channels(pointer: dict) -> dict[str, dict]:
    """The per-channel promotion state of a pointer document.

    Tolerant: channel entries that are not mappings are skipped and
    versions are coerced to ``int``, so a damaged pointer normalises
    instead of crashing its reader.
    """
    return {
        name: {
            "current": (
                None if state.get("current") is None else int(state["current"])
            ),
            "history": [int(item) for item in state.get("history", [])],
        }
        for name, state in pointer.get("channels", {}).items()
        if isinstance(state, dict)
    }


def write_pointer(path: Path, channels: dict[str, dict]) -> None:
    """Atomically replace the promotion pointer at ``path``."""
    atomic_write_text(
        path,
        json.dumps({"format": REGISTRY_FORMAT, "channels": channels}),
        site="registry.pointer",
        fsync=True,
    )


def registry_root(cache_directory: str | Path | None = None) -> Path:
    """Where the default registry lives under the dataset cache root."""
    from repro.experiments.dataset import cache_dir

    return cache_dir(cache_directory) / "registry"


def _entry_digest(payload: dict) -> str:
    """Content digest over everything but the digest itself.

    Canonical JSON keeps the digest bit-exact: floats serialise as their
    shortest round-tripping repr, so two registrations of the same fitted
    model — and only those — share a digest.
    """
    canonical = json.dumps(
        {
            "fingerprint": payload.get("fingerprint"),
            "metadata": payload.get("metadata", {}),
            "model": payload["model"],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ModelVersion:
    """One registered model's provenance (everything but its weights)."""

    version: int
    digest: str
    fingerprint: str | None
    metadata: dict = field(default_factory=dict)
    promoted: bool = False
    #: Channels currently promoting this version (empty when none do).
    channels: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.channels and set(self.channels) != {DEFAULT_CHANNEL}:
            marker = f" *promoted:{','.join(self.channels)}*"
        elif self.promoted:
            marker = " *promoted*"
        else:
            marker = ""
        fingerprint = self.fingerprint or "-"
        scale = self.metadata.get("scale", "-")
        return (
            f"v{self.version:04d}  digest {self.digest}  "
            f"training {fingerprint}  scale {scale}{marker}"
        )


class ModelRegistry:
    """Versioned, fingerprint-addressed trained models on disk.

    Registration is append-only and race-free (exclusive version
    allocation, atomic writes); promotion is an atomically-replaced
    pointer whose history makes :meth:`rollback` possible.  Reads verify
    the stored content digest, so a torn or tampered model file raises
    instead of silently serving wrong predictions.
    """

    MODEL_DIR = "models"
    PROMOTED_NAME = "promoted.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------------ paths
    def _model_dir(self) -> Path:
        return self.root / self.MODEL_DIR

    def _model_path(self, version: int) -> Path:
        return self._model_dir() / f"v{version:04d}.json"

    def _arrays_path(self, version: int) -> Path:
        return self._model_dir() / f"v{version:04d}.arrays.npz"

    def _promoted_path(self) -> Path:
        return self.root / self.PROMOTED_NAME

    # ------------------------------------------------------------- inventory
    def versions(self) -> list[int]:
        """Registered version numbers, ascending (unreadable names skipped)."""
        directory = self._model_dir()
        if not directory.exists():
            return []
        found = []
        for path in directory.iterdir():
            match = _MODEL_FILE.match(path.name)
            if match is not None:
                found.append(int(match.group(1)))
        return sorted(found)

    def list(self) -> list[ModelVersion]:
        """Provenance of every registered model, ascending by version."""
        channels = self.channels()
        entries = []
        for version in self.versions():
            payload = self._read_entry(version)
            promoting = tuple(
                sorted(name for name, current in channels.items() if current == version)
            )
            entries.append(
                ModelVersion(
                    version=version,
                    digest=payload["digest"],
                    fingerprint=payload.get("fingerprint"),
                    metadata=dict(payload.get("metadata", {})),
                    promoted=bool(promoting),
                    channels=promoting,
                )
            )
        return entries

    def _read_entry(self, version: int) -> dict:
        path = self._model_path(version)
        if not path.exists():
            raise RegistryError(f"no model v{version:04d} in registry {self.root}")
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise RegistryError(f"model v{version:04d} is unreadable: {error}")
        if payload.get("format") != REGISTRY_FORMAT:
            raise RegistryError(
                f"model v{version:04d} uses format {payload.get('format')!r}, "
                f"expected {REGISTRY_FORMAT}"
            )
        if _entry_digest(payload) != payload.get("digest"):
            raise RegistryError(
                f"model v{version:04d} is corrupt: content digest mismatch"
            )
        return payload

    # ----------------------------------------------------------- registration
    def register(
        self,
        predictor: OptimisationPredictor,
        fingerprint: str | None = None,
        metadata: dict | None = None,
        promote: bool = False,
        channel: str = DEFAULT_CHANNEL,
    ) -> ModelVersion:
        """Store a fitted predictor as the next version; never overwrites.

        Version allocation is exclusive: the entry is staged to a temp
        file and linked into place, so two concurrent registrations get
        two distinct versions — whichever loses the race for a number
        simply takes the next one.
        """
        payload = {
            "format": REGISTRY_FORMAT,
            "fingerprint": fingerprint,
            "metadata": dict(metadata or {}),
            "model": predictor.get_state(),
        }
        payload["digest"] = _entry_digest(payload)
        self._model_dir().mkdir(parents=True, exist_ok=True)
        version = (self.versions() or [0])[-1] + 1
        while True:
            target = self._model_path(version)
            payload["version"] = version
            tmp = tmp_sibling(target)
            write_text_with_faults(
                tmp, json.dumps(payload, indent=1), site="registry.model"
            )
            try:
                os.link(tmp, target)
            except FileExistsError:
                version += 1  # lost the race: take the next number
                continue
            finally:
                tmp.unlink(missing_ok=True)
            break
        entry = ModelVersion(
            version=version,
            digest=payload["digest"],
            fingerprint=fingerprint,
            metadata=dict(payload["metadata"]),
        )
        if promote:
            return self.promote(version, channel=channel)
        return entry

    # -------------------------------------------------------------- promotion
    @contextlib.contextmanager
    def _pointer_lock(self):
        """Serialise the pointer's read-modify-write across processes.

        Registration needs no lock (versions are allocated exclusively),
        but promote/rollback read the current pointer before rewriting
        it — without mutual exclusion two concurrent promotions would
        both read the same state and one version would vanish from the
        rollback history.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "promoted.lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _read_promoted(self) -> dict:
        """The pointer document, normalised to its per-channel form."""
        path = self._promoted_path()
        if not path.exists():
            payload = {"format": REGISTRY_FORMAT}
        else:
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise RegistryError(f"promotion pointer is unreadable: {error}")
            if payload.get("format") != REGISTRY_FORMAT:
                raise RegistryError(
                    f"promotion pointer uses format {payload.get('format')!r}, "
                    f"expected {REGISTRY_FORMAT}"
                )
        payload["channels"] = pointer_channels(payload)
        return payload

    def _write_promoted_locked(self, channels: dict) -> None:
        """Atomically replace the pointer; caller holds the pointer lock."""
        write_pointer(self._promoted_path(), channels)

    def promoted_version(self, channel: str = DEFAULT_CHANNEL) -> int | None:
        """The channel's promoted version (``None`` when nothing is)."""
        state = self._read_promoted()["channels"].get(channel)
        if state is None:
            return None
        return state["current"]

    def channels(self) -> dict[str, int]:
        """Every channel with a promotion, mapped to its current version."""
        return {
            name: state["current"]
            for name, state in self._read_promoted()["channels"].items()
            if state["current"] is not None
        }

    # ------------------------------------------------------- ranking sidecar
    def _write_arrays(self, version: int, payload: dict) -> None:
        """Precompute the model's ranking-ready arrays at promote time.

        The stacked ``[P, F]`` feature matrix and padded ``[P, D, Vmax]``
        theta tensor are exactly what the batch prediction kernel needs,
        so the service loads a promoted model without re-stacking its
        pairs.  Idempotent (keyed by the entry digest) and atomic; purely
        an acceleration — a missing or stale sidecar only costs a rebuild.
        """
        target = self._arrays_path(version)
        if target.exists():
            return
        features, theta = stack_state_arrays(payload["model"])
        buffer = io.BytesIO()
        np.savez(
            buffer,
            digest=np.array(payload["digest"]),
            features=features,
            theta=theta,
        )
        atomic_write_bytes(target, buffer.getvalue(), site="registry.arrays")

    def _load_arrays(
        self, version: int, digest: str
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The promote-time sidecar arrays, or ``None`` when absent, torn,
        or written for a different entry digest."""
        path = self._arrays_path(version)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                if str(data["digest"]) != digest:
                    return None
                return (
                    np.array(data["features"], dtype=float),
                    np.array(data["theta"], dtype=float),
                )
        except Exception:  # noqa: BLE001 - any corruption means "rebuild"
            return None

    def promote(
        self, version: int, channel: str = DEFAULT_CHANNEL
    ) -> ModelVersion:
        """Point the channel's deployments at ``version`` (verified first)."""
        validate_channel(channel)
        entry = self._read_entry(version)  # digest-verified, must exist
        self._write_arrays(version, entry)
        with self._pointer_lock():
            channels = self._read_promoted()["channels"]
            state = channels.setdefault(
                channel, {"current": None, "history": []}
            )
            previous = state["current"]
            if previous is not None and previous != version:
                state["history"].append(previous)
            state["current"] = version
            self._write_promoted_locked(channels)
        return ModelVersion(
            version=version,
            digest=entry["digest"],
            fingerprint=entry.get("fingerprint"),
            metadata=dict(entry.get("metadata", {})),
            promoted=True,
            channels=(channel,),
        )

    def rollback(self, channel: str = DEFAULT_CHANNEL) -> ModelVersion:
        """Re-promote the channel's previously promoted version."""
        validate_channel(channel)
        with self._pointer_lock():
            channels = self._read_promoted()["channels"]
            state = channels.get(channel, {"current": None, "history": []})
            if not state["history"]:
                raise RegistryError(
                    f"nothing to roll back to on channel {channel!r}: "
                    "promotion history is empty"
                )
            version = state["history"].pop()
            entry = self._read_entry(version)
            state["current"] = version
            channels[channel] = state
            self._write_promoted_locked(channels)
        return ModelVersion(
            version=version,
            digest=entry["digest"],
            fingerprint=entry.get("fingerprint"),
            metadata=dict(entry.get("metadata", {})),
            promoted=True,
            channels=(channel,),
        )

    # ----------------------------------------------------------------- loading
    def load(
        self,
        version: int | None = None,
        space: FlagSpace = DEFAULT_SPACE,
        channel: str = DEFAULT_CHANNEL,
    ) -> tuple[OptimisationPredictor, ModelVersion]:
        """Rebuild a registered predictor (default: the channel's promoted one).

        The model comes back ranking-ready: the promote-time sidecar
        arrays are attached when present (and valid for this entry's
        digest), otherwise the tensors are rebuilt from the pairs —
        bit-identical either way, and stacked once.
        """
        if version is None:
            version = self.promoted_version(channel)
            if version is None:
                raise RegistryError(
                    f"registry {self.root} has no promoted model on channel "
                    f"{channel!r}; register one with promote=True or call "
                    "promote()"
                )
            promoted = True
        else:
            promoted = version in self.channels().values()
        payload = self._read_entry(version)
        predictor = OptimisationPredictor.from_state(
            payload["model"],
            space=space,
            arrays=self._load_arrays(version, payload["digest"]),
        )
        return predictor, ModelVersion(
            version=version,
            digest=payload["digest"],
            fingerprint=payload.get("fingerprint"),
            metadata=dict(payload.get("metadata", {})),
            promoted=promoted,
            channels=tuple(
                sorted(
                    name
                    for name, current in self.channels().items()
                    if current == version
                )
            ),
        )

    def render(self) -> str:
        """Human-readable inventory for the CLI ``models`` command."""
        entries = self.list()
        lines = [f"model registry {self.root}"]
        if not entries:
            lines.append("  (empty — register one with: repro-experiments train)")
            return "\n".join(lines)
        for entry in entries:
            lines.append(f"  {entry.describe()}")
        if not self.channels():
            lines.append("  no model promoted yet")
        return "\n".join(lines)
