"""Model lifecycle: persist a fitted predictor and its provenance.

The fitted :class:`~repro.core.predictor.OptimisationPredictor` is small —
one multinomial bundle and one feature vector per training pair — so it is
stored as a single JSON document.  Python's JSON float serialisation emits
the shortest repr that reparses to the identical double, so a reloaded
model reproduces the original's predictions bit-for-bit.

The envelope carries the training set's content fingerprint
(:meth:`~repro.core.training.TrainingSet.fingerprint`) so a deployment can
verify which data a model was fitted on.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.compiler.flags import DEFAULT_SPACE, FlagSpace
from repro.core.predictor import OptimisationPredictor

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


def save_predictor(
    predictor: OptimisationPredictor,
    path: str | Path,
    fingerprint: str | None = None,
    metadata: dict | None = None,
) -> Path:
    """Write a fitted predictor (plus provenance) to ``path``."""
    payload = {
        "format": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "metadata": dict(metadata or {}),
        "model": predictor.get_state(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


def load_predictor(
    path: str | Path, space: FlagSpace = DEFAULT_SPACE
) -> tuple[OptimisationPredictor, dict]:
    """Read a predictor back; returns ``(model, provenance)``.

    ``space`` must match the flag space the model was fitted on (checked
    against the stored dimension names).  ``provenance`` holds the stored
    ``fingerprint`` and ``metadata``.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {version!r} (expected {FORMAT_VERSION})"
        )
    predictor = OptimisationPredictor.from_state(payload["model"], space=space)
    return predictor, {
        "fingerprint": payload.get("fingerprint"),
        "metadata": payload.get("metadata", {}),
    }
