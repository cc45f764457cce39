"""Unit tests for the persistent DetectionIndex (repro.core.index)."""

import json
import os

from repro.core import GkRow, GkTable
from repro.core.index import (DetectionIndex, MANIFEST_NAME, SEGMENT_SUFFIX,
                              config_fingerprint, corpus_checksum,
                              run_signature)
from repro.experiments import dataset1_config, dataset2_config


def make_tables():
    movie = GkTable("movie", key_count=2, od_count=3)
    movie.add(GkRow(3, ["MT99", "5MA"], ["Matrix", None, ""],
                    {"person": [5, 6]}))
    movie.add(GkRow(9, ["MT99", "5MA"], ["Matrix", "  ", "\n"],
                    {"person": [11]}))
    person = GkTable("person", key_count=1, od_count=1)
    person.add(GkRow(5, ["KEANU"], ["Keanu Reeves"]))
    person.add(GkRow(6, ["KEANU"], [None]))
    person.add(GkRow(11, ["LFISH"], ["Laurence Fishburne"]))
    return {"movie": movie, "person": person}


def open_index(tmp_path, name="index", **kwargs):
    return DetectionIndex(str(tmp_path / name), **kwargs).open()


class TestFingerprints:
    def test_stable_across_equal_configs(self):
        assert (config_fingerprint(dataset1_config())
                == config_fingerprint(dataset1_config()))

    def test_sensitive_to_thresholds_and_window(self):
        base = config_fingerprint(dataset1_config())
        tweaked = dataset1_config()
        tweaked.od_threshold = 0.123
        assert config_fingerprint(tweaked) != base
        widened = dataset1_config(window=17)
        assert config_fingerprint(widened) != base

    def test_sensitive_to_candidate_shape(self):
        assert (config_fingerprint(dataset1_config())
                != config_fingerprint(dataset2_config()))

    def test_perf_knobs_excluded(self):
        base = dataset1_config()
        tuned = dataset1_config()
        tuned.use_filters = True
        tuned.phi_cache_dir = "/tmp/phi"
        tuned.index_dir = "/tmp/idx"
        assert config_fingerprint(tuned) == config_fingerprint(base)

    def test_corpus_checksum_text_and_document_agree(self):
        from repro.xmlmodel import parse, serialize
        document = parse("<movies><movie><t>X</t></movie></movies>")
        assert (corpus_checksum(document)
                == corpus_checksum(serialize(document, pretty=False)))
        assert corpus_checksum("<a/>") != corpus_checksum("<b/>")

    def test_run_signature_canonicalizes_selection(self):
        assert run_signature(5, 2) == run_signature(5, (2,))
        assert run_signature(5, [0, 1]) == run_signature(5, (0, 1))
        assert run_signature(5, None) != run_signature(5, [0])


class TestGkRoundTrip:
    def test_rows_survive_bit_identically(self, tmp_path):
        index = open_index(tmp_path)
        tables = make_tables()
        assert index.save_gk(tables)
        restored = DetectionIndex(index.directory).open().load_gk()
        assert set(restored) == set(tables)
        for name, table in tables.items():
            assert restored[name].key_count == table.key_count
            assert restored[name].od_count == table.od_count
            for mine, theirs in zip(table, restored[name]):
                assert mine.eid == theirs.eid
                assert mine.keys == theirs.keys
                assert mine.ods == theirs.ods
                assert mine.children == theirs.children

    def test_awkward_ods_round_trip(self, tmp_path):
        # None, empty string, and whitespace-only ODs are all distinct
        # values and must come back exactly (the string pool carries
        # them verbatim; -1 encodes None).
        index = open_index(tmp_path)
        index.save_gk(make_tables())
        restored = DetectionIndex(index.directory).open().load_gk()
        assert list(restored["movie"])[0].ods == ["Matrix", None, ""]
        assert list(restored["movie"])[1].ods == ["Matrix", "  ", "\n"]

    def test_loaded_strings_are_interned(self, tmp_path):
        index = open_index(tmp_path)
        index.save_gk(make_tables())
        reopened = DetectionIndex(index.directory).open()
        rows = list(reopened.load_gk()["movie"])
        assert rows[0].keys[0] is rows[1].keys[0]
        assert rows[0].ods[0] is rows[1].ods[0]


class TestRunState:
    def test_candidate_commit_and_load(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        pairs = {(9, 3), (1, 2)}
        stats = {"pairs_scored": 4}
        assert index.commit_candidate("movie", pairs, comparisons=12,
                                      filtered=3, window_seconds=0.5,
                                      closure_seconds=0.1, stats=stats)
        restored = DetectionIndex(index.directory).open()
        state = restored.load_candidate("movie")
        assert state["pairs"] == pairs
        assert state["comparisons"] == 12
        assert state["filtered"] == 3
        assert state["stats"] == stats
        assert restored.completed == ["movie"]
        assert restored.load_candidate("person") is None

    def test_begin_run_clears_run_state_keeps_gk_and_counters(self, tmp_path):
        config = dataset1_config()
        index = open_index(tmp_path)
        index.begin_run(config, "c" * 16, run_signature(5, None))
        index.save_gk(make_tables())
        index.commit_candidate("movie", {(1, 2)}, 3, 0, 0.0, 0.0, None)
        runs_before = index.counters()["runs"]

        index.begin_run(config, "d" * 16, run_signature(7, None))
        assert index.completed == []
        assert index.counters()["runs"] == runs_before + 1
        assert index.manifest["corpus_checksum"] == "d" * 16
        assert "gk" in index.manifest["segments"]
        assert not any(role.startswith("run/")
                       for role in index.manifest["segments"])
        assert index.load_gk() is not None

    def test_resume_mismatch_reports_each_drift(self, tmp_path):
        config = dataset1_config()
        index = open_index(tmp_path)
        assert index.resume_mismatch(config, "c" * 16,
                                     run_signature(5, None)) \
            == ["the index has no committed run to resume"]
        index.begin_run(config, "c" * 16, run_signature(5, None))
        assert index.resume_mismatch(config, "c" * 16,
                                     run_signature(5, None)) == []
        other = dataset1_config()
        other.od_threshold = 0.99
        problems = index.resume_mismatch(other, "x" * 16,
                                         run_signature(9, [0]))
        assert len(problems) == 3
        assert any("config fingerprint" in line for line in problems)
        assert any("corpus checksum" in line for line in problems)
        assert any("run parameter" in line for line in problems)

    def test_session_commit_and_load(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        tables = make_tables()
        states = {"movie": (tables["movie"], {(3, 9)}, 7),
                  "person": (tables["person"], set(), 2)}
        assert index.commit_session(eid_offset=120, batches=2, states=states)
        session = DetectionIndex(index.directory).open().load_session()
        assert session["eid_offset"] == 120
        assert session["batches"] == 2
        assert session["pairs"] == {"movie": {(3, 9)}, "person": set()}
        assert session["comparisons"] == {"movie": 7, "person": 2}
        assert [row.eid for row in session["tables"]["movie"]] == [3, 9]


class TestOperations:
    def test_initialize_stamps_fingerprint(self, tmp_path):
        config = dataset1_config()
        index = open_index(tmp_path)
        index.initialize(config)
        reopened = DetectionIndex(index.directory).open()
        assert reopened.fingerprint == config_fingerprint(config)
        assert reopened.completed == []

    def test_compact_removes_only_orphans(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        index.save_gk(make_tables())
        smaller = {"movie": make_tables()["movie"]}
        index.save_gk(smaller)  # content-addressed: the old file remains
        files = [name for name in os.listdir(index.directory)
                 if name.endswith(SEGMENT_SUFFIX)]
        assert len(files) == 2
        assert index.compact() == 1
        survivors = [name for name in os.listdir(index.directory)
                     if name.endswith(SEGMENT_SUFFIX)]
        assert survivors == [index.manifest["segments"]["gk"]]
        assert DetectionIndex(index.directory).open().load_gk() is not None

    def test_status_reports_segments_and_orphans(self, tmp_path):
        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        index.save_gk(make_tables())
        (tmp_path / "index" / f"orphan{SEGMENT_SUFFIX}").write_bytes(b"x")
        status = DetectionIndex(index.directory).open().status()
        assert status["usable"] is True
        assert status["config_fingerprint"] == "f" * 16
        assert status["segment_files"] == 2
        assert status["orphan_segments"] == [f"orphan{SEGMENT_SUFFIX}"]
        assert set(status["segments"]) == {"gk"}

    def test_read_only_never_writes(self, tmp_path):
        missing = DetectionIndex(str(tmp_path / "nowhere"),
                                 read_only=True).open()
        assert missing.usable is False
        assert not (tmp_path / "nowhere").exists()

        index = open_index(tmp_path)
        index.manifest["config_fingerprint"] = "f" * 16
        index.save_gk(make_tables())
        before = sorted(os.listdir(index.directory))
        reader = DetectionIndex(index.directory, read_only=True).open()
        assert reader.save_gk(make_tables()) is False
        assert reader.commit_candidate("movie", set(), 0, 0, 0.0, 0.0,
                                       None) is False
        assert reader.compact() == 0
        assert sorted(os.listdir(index.directory)) == before

    def test_manifest_is_valid_json_with_magic(self, tmp_path):
        index = open_index(tmp_path)
        index.initialize(dataset1_config())
        manifest = json.loads(
            (tmp_path / "index" / MANIFEST_NAME).read_text())
        assert manifest["magic"] == "sxnm-index"
        assert manifest["version"] == 1
