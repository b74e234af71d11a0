"""The unit store contract, shared by the dataset shards and the protocol folds.

Both families sit on one :class:`~repro.store.units.UnitStore` core and
differ only in their codec, so every case here runs once per codec: the
npz + JSON sidecar shard codec and the single-file JSON fold codec.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import numpy as np
import pytest

from repro.evalrun.foldstore import FoldRecord, FoldRow, FoldStore
from repro.evalrun.variants import protocol_variants
from repro.experiments.config import Scale
from repro.experiments.dataset import grid_for_scale
from repro.faults import FaultInjected, armed
from repro.store import ExperimentStore, StoreError
from repro.store.units import STALE_TMP_SECONDS

SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)


class ShardFamily:
    name = "shards"

    def __init__(self):
        self.grid = grid_for_scale(SMOKE, chunk_machines=2)

    def open(self, root):
        return ExperimentStore(self.grid, root)

    def unit(self, key, scale=1.0):
        return tuple(
            np.arange(np.prod(shape), dtype=float).reshape(shape) * scale + key.program
            for shape in self.grid.shard_shapes(key).values()
        )

    def write(self, store, key, unit):
        store.write_shard(key, unit)

    def read(self, store, key):
        return store.read_shard(key)

    def same(self, left, right):
        return all(np.array_equal(a, b) for a, b in zip(left, right))


class FoldFamily:
    name = "folds"

    def __init__(self):
        self.variants = protocol_variants()[:2]

    def open(self, root):
        return FoldStore("feedbeef", self.variants, ["crc", "sha"], root=root)

    def unit(self, key, scale=1.0):
        row = FoldRow(
            machine=0,
            setting=tuple([0] * 39),
            predicted_runtime=1.5 * scale,
            o3_runtime=2.0,
            best_runtime=1.0,
        )
        return FoldRecord(key=key, rows=(row,))

    def write(self, store, key, unit):
        store.write_fold(unit)

    def read(self, store, key):
        return store.read_fold(key)

    def same(self, left, right):
        return left == right


@pytest.fixture(params=[ShardFamily, FoldFamily], ids=lambda family: family.name)
def family(request):
    return request.param()


def _fill(family, store) -> list:
    keys = list(store.keys())
    for key in keys:
        family.write(store, key, family.unit(key))
    return keys


class TestUnitStoreContract:
    def test_write_read_round_trip(self, family, tmp_path):
        for root in (tmp_path / "store", None):
            store = family.open(root)
            key = next(iter(store.keys()))
            family.write(store, key, family.unit(key))
            assert store.has(key)
            assert family.same(family.read(store, key), family.unit(key))
        reopened = family.open(tmp_path / "store")
        assert reopened.completed_keys() == [key]
        assert family.same(family.read(reopened, key), family.unit(key))
        assert {finding.status for finding in reopened.verify()} == {"ok"}
        assert store.verify() == []  # the memory store has nothing on disk

    def test_disk_and_memory_agree_on_fingerprint(self, family, tmp_path):
        disk, memory = family.open(tmp_path / "store"), family.open(None)
        _fill(family, disk)
        _fill(family, memory)
        reopened = family.open(tmp_path / "store")
        assert disk.fingerprint() == memory.fingerprint() == reopened.fingerprint()

    @pytest.mark.parametrize("damage", ["zero-byte payload", "torn header", "no header"])
    def test_interrupted_unit_reads_as_pending(self, family, tmp_path, damage):
        """What a killed or out-of-space writer leaves behind: a zero-byte
        payload, a truncated header, or a payload whose header never
        landed.  The unit must read as pending so resume recomputes it."""
        store = family.open(tmp_path / "store")
        key = _fill(family, store)[0]
        paths = store.unit_paths(key)
        if damage == "zero-byte payload":
            paths[0].write_bytes(b"")
        elif damage == "torn header":
            paths[-1].write_bytes(paths[-1].read_bytes()[:20])
        else:
            paths[-1].unlink()
        fresh = family.open(tmp_path / "store")
        assert not fresh.has(key)
        assert fresh.pending_keys() == [key]

    def test_write_torn_at_the_payload_stays_pending(self, family, tmp_path):
        """Payload files land before the header that vouches for them, so a
        write torn at the payload never leaves a unit that reads complete."""
        store = family.open(tmp_path / "store")
        key = next(iter(store.keys()))
        with armed(f"{store.codec.payload.site}=once:torn"):
            with pytest.raises(FaultInjected):
                family.write(store, key, family.unit(key))
        assert not family.open(tmp_path / "store").has(key)

    def test_foreign_identity_unit_reads_as_pending(self, family, tmp_path):
        store = family.open(tmp_path / "store")
        key = _fill(family, store)[0]
        header_path = store.unit_paths(key)[-1]
        header = json.loads(header_path.read_text())
        header[store.codec.identity_field] = "0" * 16
        header_path.write_text(json.dumps(header))
        fresh = family.open(tmp_path / "store")
        assert not fresh.has(key)
        with pytest.raises(StoreError, match="different"):
            family.read(fresh, key)

    def test_first_write_wins(self, family, tmp_path):
        for root in (tmp_path / "store", None):
            store = family.open(root)
            key = next(iter(store.keys()))
            family.write(store, key, family.unit(key))
            digest = store.digest(key)
            family.write(store, key, family.unit(key, scale=2.0))  # ignored
            assert store.digest(key) == digest
            assert family.same(family.read(store, key), family.unit(key))

    def test_fingerprint_reuses_the_completion_scan(self, family, tmp_path, monkeypatch):
        keys = _fill(family, family.open(tmp_path / "store"))
        store = family.open(tmp_path / "store")
        codec = type(store.codec)
        calls: Counter = Counter()
        for name in ("read_header", "decode", "digest"):
            original = getattr(codec, name)

            def spy(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(codec, name, spy)
        assert store.completed_keys() == keys
        assert calls["read_header"] == len(keys)
        calls.clear()
        store.fingerprint()
        assert not calls, f"fingerprint() re-read units: {dict(calls)}"

    def test_stale_temp_files_swept_live_ones_kept(self, family, tmp_path):
        store = family.open(tmp_path / "store")
        unit_dir = store.unit_paths(next(iter(store.keys())))[0].parent
        stale = unit_dir / ".unit.json.1.abc.tmp"
        live = unit_dir / ".unit.json.2.def.tmp"
        for path, age in ((stale, 2 * 3600.0), (live, STALE_TMP_SECONDS / 2)):
            path.write_bytes(b"partial")
            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
        family.open(tmp_path / "store")
        assert not stale.exists()
        assert live.exists()
