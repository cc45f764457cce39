"""The persistent φ cache store: segments, flushes, dedup, read-only use."""

import math
import os

from repro.similarity import PhiCache
from repro.similarity.store import (PersistentPhiCache, SEGMENT_SUFFIX,
                                    phi_fingerprint)


def segment_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(SEGMENT_SUFFIX))


class TestRoundTrip:
    def test_flush_then_reload(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        assert store.record(("edit", "matrix", "matrlx"), 0.8333333333333334)
        assert store.record(("jaro", "a", "b"), 0.0)
        assert store.flush() == 2
        assert len(segment_files(tmp_path)) == 1

        reloaded = PersistentPhiCache(str(tmp_path)).open()
        assert reloaded.entries_loaded == 2
        assert reloaded.segments_loaded == 1
        assert (reloaded.lookup(("edit", "matrix", "matrlx"))
                == 0.8333333333333334)
        assert reloaded.lookup(("jaro", "a", "b")) == 0.0
        assert reloaded.lookup(("edit", "never", "seen")) is None
        assert not reloaded.warnings

    def test_values_round_trip_bit_identically(self, tmp_path):
        # repr-based JSON floats survive the disk round trip exactly.
        values = [1 / 3, 0.1 + 0.2, 5 / 6, 1.0, 0.0,
                  0.8333333333333334, 2.220446049250313e-16]
        store = PersistentPhiCache(str(tmp_path)).open()
        for index, value in enumerate(values):
            store.record(("edit", f"left{index}", "right"), value)
        store.flush()
        reloaded = PersistentPhiCache(str(tmp_path)).open()
        for index, value in enumerate(values):
            assert reloaded.lookup(("edit", f"left{index}", "right")) == value

    def test_multiple_flushes_append_segments(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        store.record(("edit", "a", "b"), 0.5)
        store.flush()
        store.record(("edit", "c", "d"), 0.25)
        store.flush()
        assert len(segment_files(tmp_path)) == 2
        reloaded = PersistentPhiCache(str(tmp_path)).open()
        assert len(reloaded) == 2

    def test_empty_flush_writes_nothing(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        assert store.flush() == 0
        assert segment_files(tmp_path) == []

    def test_missing_directory_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        store = PersistentPhiCache(str(nested)).open()
        assert store.usable
        store.record(("edit", "x", "y"), 0.5)
        assert store.flush() == 1
        assert segment_files(nested)


class TestRecordSemantics:
    def test_rejects_nonfinite_values(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        assert not store.record(("edit", "a", "b"), math.nan)
        assert not store.record(("edit", "a", "b"), math.inf)
        assert not store.record(("edit", "a", "b"), -math.inf)
        assert not store.record(("edit", "a", "b"), 1)  # int, not float
        assert store.pending == 0

    def test_rejects_malformed_keys(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        assert not store.record(("edit", "a"), 0.5)
        assert not store.record(("edit", "a", None), 0.5)
        assert not store.record("edit-a-b", 0.5)

    def test_deduplicates_against_loaded_and_pending(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        assert store.record(("edit", "a", "b"), 0.5)
        assert not store.record(("edit", "a", "b"), 0.5)
        store.flush()
        reloaded = PersistentPhiCache(str(tmp_path)).open()
        assert not reloaded.record(("edit", "a", "b"), 0.5)
        assert reloaded.record(("edit", "c", "d"), 0.25)
        assert reloaded.pending == 1

    def test_unicode_keys_round_trip(self, tmp_path):
        keys = [("edit", "café", "cafe"), ("edit", "Ω≠", "ω"),
                ("edit", " line", "\x00nul"),
                ("edit", "\ud800lone", "surrogate")]
        store = PersistentPhiCache(str(tmp_path)).open()
        for key in keys:
            assert store.record(key, 0.5)
        store.flush()
        reloaded = PersistentPhiCache(str(tmp_path)).open()
        for key in keys:
            assert reloaded.lookup(key) == 0.5


class TestConcurrentWriters:
    def test_two_stores_flush_without_corruption(self, tmp_path):
        one = PersistentPhiCache(str(tmp_path)).open()
        two = PersistentPhiCache(str(tmp_path)).open()
        one.record(("edit", "a", "b"), 0.5)
        two.record(("edit", "c", "d"), 0.25)
        assert one.flush() == 1
        assert two.flush() == 1
        reloaded = PersistentPhiCache(str(tmp_path)).open()
        assert not reloaded.warnings
        assert reloaded.lookup(("edit", "a", "b")) == 0.5
        assert reloaded.lookup(("edit", "c", "d")) == 0.25

    def test_identical_content_is_idempotent(self, tmp_path):
        # Content-addressed names: two writers flushing the same delta
        # land on the same file instead of duplicating it.
        one = PersistentPhiCache(str(tmp_path)).open()
        two = PersistentPhiCache(str(tmp_path)).open()
        for store in (one, two):
            store.record(("edit", "a", "b"), 0.5)
            store.flush()
        assert len(segment_files(tmp_path)) == 1


class TestCompaction:
    def test_compact_folds_segments(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        store.record(("edit", "a", "b"), 0.5)
        store.flush()
        store.record(("edit", "c", "d"), 0.25)
        store.flush()
        assert len(segment_files(tmp_path)) == 2
        assert store.compact() == 2
        assert len(segment_files(tmp_path)) == 1
        reloaded = PersistentPhiCache(str(tmp_path)).open()
        assert len(reloaded) == 2

    def test_compact_empty_store_is_noop(self, tmp_path):
        store = PersistentPhiCache(str(tmp_path)).open()
        assert store.compact() == 0
        assert segment_files(tmp_path) == []


class TestReadOnly:
    def test_read_only_never_writes(self, tmp_path):
        writer = PersistentPhiCache(str(tmp_path)).open()
        writer.record(("edit", "a", "b"), 0.5)
        writer.flush()
        reader = PersistentPhiCache(str(tmp_path), read_only=True).open()
        assert reader.lookup(("edit", "a", "b")) == 0.5
        assert reader.record(("edit", "c", "d"), 0.25)
        assert reader.flush() == 0
        assert reader.compact() == 0
        assert len(segment_files(tmp_path)) == 1

    def test_read_only_missing_directory_is_cold(self, tmp_path):
        reader = PersistentPhiCache(str(tmp_path / "nowhere"),
                                    read_only=True).open()
        assert len(reader) == 0
        assert not reader.warnings
        assert not (tmp_path / "nowhere").exists()

class TestFingerprint:
    def test_stable_within_process(self):
        assert phi_fingerprint("edit") == phi_fingerprint("edit")

    def test_distinct_across_phis(self):
        assert phi_fingerprint("edit") != phi_fingerprint("jaro")

    def test_unregistered_phi_reserved(self):
        assert phi_fingerprint("no-such-phi") == "unregistered-phi"


class TestPhiCacheSpillIntegration:
    def test_lru_miss_consults_spill(self, tmp_path):
        spill = PersistentPhiCache(str(tmp_path)).open()
        spill.record(("edit", "a", "b"), 0.5)
        spill.flush()
        cache = PhiCache(8, spill=PersistentPhiCache(str(tmp_path)).open())
        assert cache.get(("edit", "a", "b")) == 0.5
        assert cache.from_disk
        assert cache.disk_hits == 1
        # Promoted into the LRU: the second hit is memory-only.
        assert cache.get(("edit", "a", "b")) == 0.5
        assert not cache.from_disk
        assert cache.disk_hits == 1

    def test_put_records_into_spill(self, tmp_path):
        spill = PersistentPhiCache(str(tmp_path)).open()
        cache = PhiCache(8, spill=spill)
        assert cache.put(("edit", "a", "b"), 0.5)       # newly spilled
        assert not cache.put(("edit", "a", "b"), 0.5)   # already known
        assert spill.pending == 1

    def test_eviction_does_not_lose_spilled_entries(self, tmp_path):
        spill = PersistentPhiCache(str(tmp_path)).open()
        cache = PhiCache(2, spill=spill)
        for index in range(5):
            cache.put(("edit", f"left{index}", "right"), 0.5)
        assert len(cache) == 2        # LRU evicted three
        assert len(spill) == 5        # the spill kept them all
        assert cache.get(("edit", "left0", "right")) == 0.5  # via disk path
